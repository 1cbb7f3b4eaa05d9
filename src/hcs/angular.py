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
from .specfun import log_factorial, make_quadrature

__all__ = [
    "EulerAngles",
    "AngularResolutionReport",
    "angular_cs",
    "angular_resolution_check",
    "shell_dimension",
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


@functools.lru_cache(maxsize=8)
def _theta_weights(l_max: int) -> tuple[np.ndarray, ...]:
    """(l - m, l + m, sqrt_binomial_weight, sqrt(2l+1)) per channel l <= l_max; built once, read-only.

    One log-factorial table, the same subtraction order and math.exp keep
    every weight bit-identical to sqrt_binomial_weight.
    """
    if l_max > _MAX_SHELL:
        raise ConfigurationError(
            f"shell {l_max} is past {_MAX_SHELL}, the last shell whose angular weights "
            "sqrt((2l)!/((l+m)!(l-m)!)) are finite doubles"
        )
    l, m = _channels(l_max)
    log_fact = np.array([log_factorial(k) for k in range(2 * l_max + 1)])
    exponent = 0.5 * (log_fact[2 * l] - log_fact[l + np.abs(m)] - log_fact[l - np.abs(m)])
    table = (l - m, l + m, np.array([math.exp(v) for v in exponent.tolist()]), np.sqrt(2.0 * l + 1))
    for column in table:
        column.flags.writeable = False
    return table


def _theta_factor(l_max: int, theta_bar) -> np.ndarray:
    """A_lm = sqrt(2l+1) sqrt((2l)!/((l+m)!(l-m)!)) sin(tb/2)^(l-m) cos(tb/2)^(l+m), channels first."""
    down, up, weight, root = _theta_weights(l_max)
    half = 0.5 * np.asarray(theta_bar, dtype=float)
    # per-exponent power tables, each with a scalar exponent: numpy squares x ** 2
    # as x*x but sends an exponent array through pow, which rounds differently
    sin_pow, cos_pow = (np.array([x**k for k in range(2 * l_max + 1)]) for x in (np.sin(half), np.cos(half)))
    col = (-1,) + (1,) * np.ndim(half)
    return weight.reshape(col) * sin_pow[down] * cos_pow[up] * root.reshape(col)


def _channel_coefficients(l_max: int, theta_bar, phi_bar, psi_bar) -> np.ndarray:
    """coeff(l, m) = A_lm(theta_bar) exp(-i(m phi_bar + l psi_bar)) for every channel l <= l_max.

    Angles are scalars or aligned arrays; the result has shape ((l_max+1)^2,) + angle shape.
    """
    tb, pb, sb = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (theta_bar, phi_bar, psi_bar)))
    l, m = (v.reshape((-1,) + (1,) * tb.ndim) for v in _channels(l_max))
    return _theta_factor(l_max, tb) * np.exp(-1j * (m * pb + l * sb))


@functools.lru_cache(maxsize=8)
def angular_cs(n: int, omega_bar: EulerAngles) -> np.ndarray:
    """Shell-n angular-momentum coherent state at Euler angles omega_bar.

    The (n+1)^2 channel coefficients A_lm e^{-i(m phi_bar + l psi_bar)}, in
    channel order l^2 + l + m.  Not unit-normalized: the squared norm is the
    shell dimension (n+1)^2.  Shell k <= n of a hydrogen state uses the first
    (k+1)^2 entries, so each (n, omega_bar) is built once and shared, and
    the array is read-only.
    """
    if n < 0:
        raise ValueError(f"shell index must be >= 0, got {n}")
    coeffs = _channel_coefficients(n, omega_bar.theta_bar, omega_bar.phi_bar, omega_bar.psi_bar)
    coeffs.flags.writeable = False
    return coeffs


@dataclass(frozen=True, eq=False)
class AngularResolutionReport:
    """Gram matrix of the angle-averaged shell projector."""

    n: int
    dimension: int
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
    rule = make_quadrature("trapezoid", nodes)
    span = int(k.max() - k.min())
    means = np.exp(-1j * np.outer(np.arange(-span, span + 1), rule.nodes)) @ rule.weights / _TWO_PI
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
    x_rule = make_quadrature("legendre", nodes)
    a = _theta_factor(n, np.arccos(x_rule.nodes))  # (channel, theta node)
    l, m = _channels(n)
    # sin(theta_bar) d(theta_bar) / 2 is half the Legendre weight in cos(theta_bar)
    gram = 0.5 * (a * x_rule.weights) @ a.T * _difference_means(m, nodes) * _difference_means(l, nodes)
    dim = shell_dimension(n)
    dev = float(np.max(np.abs(gram - np.eye(dim))))
    return AngularResolutionReport(n=n, dimension=dim, gram=gram, max_identity_dev=dev)
