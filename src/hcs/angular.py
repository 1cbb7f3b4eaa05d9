"""Angular-momentum coherent states on a degenerate hydrogen shell.

A shell n carries every |l m> with 0 <= l <= n, a reducible rotation-group
representation of dimension (n+1)^2.  The shell coherent state is labeled
by Euler angles (theta_bar, phi_bar, psi_bar); its squared norm is (n+1)^2
independent of the label, and averaging the projector over the angles with
the measure sin(theta_bar) d(theta_bar) d(phi_bar) d(psi_bar) / 8 pi^2
resolves the identity on the shell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .specfun import _log_factorials, make_quadrature

__all__ = [
    "EulerAngles",
    "AngularFactor",
    "AngularResolutionReport",
    "angular_cs",
    "angular_resolution_check",
    "shell_dimension",
    "spin_direction_error",
]

_TWO_PI = 2.0 * math.pi
# the last shell whose weights are finite doubles: at l = 1027 the central
# weight sqrt((2l)!/(l!)^2) = e^709.84 passes the largest double
_MAX_SHELL = 1026


def shell_dimension(n: int) -> int:
    """Degeneracy of shell n: sum_{l<=n} (2l+1) = (n+1)^2."""
    return (n + 1) ** 2


@dataclass(frozen=True)
class EulerAngles:
    """Label (theta_bar, phi_bar, psi_bar); azimuthal angles wrap mod 2*pi."""

    theta_bar: float
    phi_bar: float
    psi_bar: float

    def __post_init__(self):
        if not 0.0 <= self.theta_bar <= math.pi:
            raise ValueError(f"theta_bar must lie in [0, pi], got {self.theta_bar}")
        if not (math.isfinite(self.phi_bar) and math.isfinite(self.psi_bar)):
            raise ValueError(f"azimuths must be finite, got {self.phi_bar}, {self.psi_bar}")
        # equal labels must give equal bytes, since states are cached by label:
        # -0.0 + 0.0 is +0.0, as the azimuths' % 2*pi already gives
        object.__setattr__(self, "theta_bar", self.theta_bar + 0.0)
        object.__setattr__(self, "phi_bar", self.phi_bar % _TWO_PI)
        object.__setattr__(self, "psi_bar", self.psi_bar % _TWO_PI)


@functools.lru_cache(maxsize=8)
def _channels(l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(l, m) of every channel l <= l_max, at flat index l^2 + l + m; built once, read-only."""
    l = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    m = np.arange(l.size) - l * l - l
    for column in (l, m):
        column.flags.writeable = False
    return l, m


def _binomial_weights(l_max: int, l: np.ndarray, up: np.ndarray) -> np.ndarray:
    """w_lm = sqrt((2l)!/((l+m)!(l-m)!)) at m = up - l, l <= l_max, from log factorials, the larger of l +- m first.

    Bit for bit the scalar ``sqrt_binomial_weight`` that the tests keep as its oracle.
    """
    log_fact = _log_factorials(2 * l_max + 1)
    down = 2 * l - up
    exponent = 0.5 * (log_fact[2 * l] - log_fact[np.maximum(up, down)] - log_fact[np.minimum(up, down)])
    return np.fromiter(map(math.exp, exponent.ravel().tolist()), float, exponent.size).reshape(exponent.shape)


@functools.lru_cache(maxsize=8)
def _theta_weights(l_max: int) -> tuple[np.ndarray, ...]:
    """(l - m, l + m, w_lm, sqrt(2l+1)) per channel l <= l_max, and i k/2 per power k <= 2 l_max.

    Built once, read-only.
    """
    l, m = _channels(l_max)
    table = (l - m, l + m, _binomial_weights(l_max, l, l + m), np.sqrt(2.0 * l + 1), 0.5j * np.arange(2 * l_max + 1))
    for column in table:
        column.flags.writeable = False
    return table


def _channel_coefficients(l_max: int, theta_bar, phi_bar, psi_bar) -> np.ndarray:
    """coeff(l, m) = A_lm e^{-i(m phi_bar + l psi_bar)} = w_lm sqrt(2l+1) beta^(l-m) alpha^(l+m), l <= l_max.

    w_lm = sqrt((2l)!/((l+m)!(l-m)!)); the label's spinor alpha = cos(tb/2) e^{-i(pb+sb)/2}, beta =
    sin(tb/2) e^{i(pb-sb)/2} takes one exponential per power k <= 2 l_max.  Angles are scalars or
    aligned arrays; the result has shape ((l_max+1)^2,) + angle shape.
    """
    tb, pb, sb = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (theta_bar, phi_bar, psi_bar)))
    down, up, weight, root, half_k = _theta_weights(l_max)
    col = (-1,) + (1,) * tb.ndim
    half = 0.5 * tb
    # per-exponent power tables, each with a scalar exponent: numpy squares x ** 2
    # as x*x but sends an exponent array through pow, which rounds differently
    beta, alpha = (
        np.array([x**k for k in range(2 * l_max + 1)]) * np.exp(half_k.reshape(col) * angle)
        for x, angle in ((np.sin(half), pb - sb), (np.cos(half), -(pb + sb)))
    )
    # w_lm meets the moduli first: w_lm sqrt(2l+1) overflows at l = 1026, and beta^d alpha^u can be subnormal
    coeffs = beta[down] * weight.reshape(col)
    coeffs *= alpha[up]
    coeffs *= root.reshape(col)
    return coeffs


@dataclass(frozen=True, eq=False)
class AngularFactor:
    """Shell n at omega_bar: per shell k <= n, max |coeffs[:(k+1)^2]|; coeffs built on first read."""

    n: int
    omega_bar: EulerAngles
    shell_peaks: np.ndarray

    @functools.cached_property
    def coeffs(self) -> np.ndarray:
        ob = self.omega_bar
        coeffs = _channel_coefficients(self.n, ob.theta_bar, ob.phi_bar, ob.psi_bar)
        coeffs.flags.writeable = False
        return coeffs


@functools.lru_cache(maxsize=8)
def angular_cs(n: int, omega_bar: EulerAngles) -> AngularFactor:
    """Shell-n angular-momentum coherent state at Euler angles omega_bar.

    ``coeffs`` holds the (n+1)^2 channel coefficients A_lm e^{-i(m phi_bar + l psi_bar)}, in
    channel order l^2 + l + m; the squared norm is the shell dimension (n+1)^2.  Shell k <= n of
    a hydrogen state uses the first (k+1)^2 entries, so each (n, omega_bar) is built once and
    shared: its channel vector on first read, its shell peaks here, in O(n).  The peak
    of channel l is |A_lm| = w_lm sqrt(2l+1) sin^(2l-j) cos^j of theta_bar/2 at the mode of
    |A_lm|^2/(2l+1), Binomial(2l, cos^2(theta_bar/2)) in j = l + m (Arecchi et al., Phys. Rev. A 6,
    2211 (1972)): j = r - 1 and r, r = round((2l+1) cos^2), hold the mode and both modes of a tie,
    which the vector's weights (error up to 1.5e-15 (l+1)) may break either way.  A shell past
    _MAX_SHELL is refused before any per-shell work.
    """
    if n > _MAX_SHELL:
        raise ConfigurationError(
            f"shell {n} is past {_MAX_SHELL}, the last shell whose angular weights "
            "sqrt((2l)!/((l+m)!(l-m)!)) are finite doubles"
        )
    if n < 0:
        raise ValueError(f"shell index must be >= 0, got {n}")
    l = np.arange(n + 1)[:, None]
    half = 0.5 * np.float64(omega_bar.theta_bar)
    sin, cos = np.sin(half), np.cos(half)
    up = np.minimum(np.maximum(np.rint((2 * l + 1) * (cos * cos)).astype(int) - np.arange(2), 0), 2 * l)
    modulus = sin ** (2 * l - up) * _binomial_weights(n, l, up) * cos**up * np.sqrt(2.0 * l + 1)
    peaks = np.maximum.accumulate(modulus.max(axis=1))
    peaks.flags.writeable = False
    return AngularFactor(n, omega_bar, peaks)


def spin_direction_error(n: int, omega_bar: EulerAngles) -> float:
    """Largest |<L> - l n_hat| / l over the channel-l blocks 1 <= l <= n of ``angular_cs(n, omega_bar)``.

    Block l over sqrt(2l+1) is the spin-l coherent state along the label's
    direction n_hat = (sin tb cos pb, sin tb sin pb, cos tb) (Radcliffe,
    J. Phys. A 4, 313 (1971)), so <L> = l n_hat.  <L_z> = sum_m m |c_m|^2 and
    <L_+> = <L_x> + i <L_y> = sum_m conj(c_{m+1}) sqrt(l(l+1) - m(m+1)) c_m
    come from the ladder operators alone; a sign slip in an azimuthal phase
    turns <L> away from n_hat.  0.0 at n = 0, which has no l >= 1 block.
    """
    l, m = _channels(n)
    c = angular_cs(n, omega_bar).coeffs / np.sqrt(2.0 * l + 1)
    starts = np.arange(n + 1) ** 2
    # the ladder factor is 0 at m = l, so no term pairs channels of two blocks
    ladder = np.append(np.conj(c[1:]) * np.sqrt(l * (l + 1.0) - m * (m + 1.0))[:-1] * c[:-1], 0.0)
    raise_ = np.add.reduceat(ladder, starts)
    moment = np.stack([raise_.real, raise_.imag, np.add.reduceat(m * np.abs(c) ** 2, starts)])
    tb, pb = omega_bar.theta_bar, omega_bar.phi_bar
    direction = np.array([math.sin(tb) * math.cos(pb), math.sin(tb) * math.sin(pb), math.cos(tb)])
    ls = np.arange(1, n + 1)
    miss = moment[:, 1:] - direction[:, None] * ls
    return float(np.max(np.sqrt(np.sum(miss**2, axis=0)) / ls, initial=0.0))


@dataclass(frozen=True, eq=False)
class AngularResolutionReport:
    """Gram matrix of the angle-averaged shell projector."""

    n: int
    gram: np.ndarray
    max_identity_dev: float


def exactness_threshold(n: int) -> int:
    """Minimum node count per angle for machine-exact shell quadrature.

    The Gram integrand is a trigonometric polynomial: frequency <= 2n in
    phi_bar, <= n in psi_bar, and polynomial of degree <= 2n in
    cos(theta_bar); 2n+1 nodes per axis are exact for all three.
    """
    return 2 * n + 1


def _difference_means(k: np.ndarray, nodes: int) -> np.ndarray:
    """Uniform-rule means of exp(-i(k_a - k_b)x) over one period, computed once per frequency."""
    x, w = make_quadrature("trapezoid", nodes)
    span = int(k.max() - k.min())
    means = np.exp(-1j * np.outer(np.arange(-span, span + 1), x)) @ w / _TWO_PI
    return means[np.subtract.outer(k, k) + span]


def angular_resolution_check(n: int) -> AngularResolutionReport:
    """Quadrature Gram matrix of the shell projector average.

    Gauss-Legendre in cos(theta_bar) and uniform rules over the periodic
    azimuths, each at the exactness threshold 2n+1 nodes.  The measure and
    every coefficient factor per Euler angle, so the product rule is summed
    one axis at a time: the theta_bar sum of A_a A_b times the azimuth means
    of exp(-i(m_a - m_b) phi_bar) and exp(-i(l_a - l_b) psi_bar).  The
    result equals the (n+1)^2 identity to machine precision.
    """
    if n < 0:
        raise ValueError(f"shell index must be >= 0, got {n}")
    nodes = exactness_threshold(n)
    x, w = make_quadrature("legendre", nodes)
    a = _channel_coefficients(n, np.arccos(x), 0.0, 0.0).real  # A_lm: zero azimuths, phases 1
    l, m = _channels(n)
    # sin(theta_bar) d(theta_bar) / 2 is half the Legendre weight in cos(theta_bar)
    gram = 0.5 * (a * w) @ a.T * _difference_means(m, nodes) * _difference_means(l, nodes)
    dev = float(np.max(np.abs(gram - np.eye(shell_dimension(n)))))
    return AngularResolutionReport(n=n, gram=gram, max_identity_dev=dev)
