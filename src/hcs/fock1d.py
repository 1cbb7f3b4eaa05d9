"""Single-degree-of-freedom coherent-state families over a number basis.

One constructor, ``label_cs``, builds every family from a moment weight and
a label phase: the periodic phase (label r, theta; the canonical states on
the exponential family) and the covering-space phase of the degenerate
spectrum, whose frequencies 1/(n+1)^2 are incommensurate with 2*pi (label
s, gamma).  A state is its truncated coefficient array over levels
0..n_max; evolution multiplies it by ``Spectrum.evolution_phases``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, TruncationError
from .specfun import logsumexp
from .weights import WeightFamily

__all__ = [
    "Spectrum",
    "ResolutionReport",
    "label_cs",
    "resolution_check_1d",
    "radial_factor_matrix",
]

#: constructor tail-adequacy threshold: last-level weight <= TAIL_TOL * total weight
TAIL_TOL = 1e-16

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Spectrum:
    """Diagonal Hamiltonian spectrum: E_n = omega*n or E_n = -omega/(n+1)^2."""

    kind: str
    omega: float = 1.0

    def __post_init__(self):
        if self.kind not in ("oscillator", "inverse-square"):
            raise ConfigurationError(f"unknown spectrum kind {self.kind!r}")
        if not self.omega > 0:
            raise ConfigurationError(f"omega must be positive, got {self.omega}")

    def evolution_phases(self, count: int, t: float) -> np.ndarray:
        """Phase factors e^{-i E_n t} for n < count.

        For the oscillator the angle omega*t is reduced mod 2*pi first, so
        evolution by an exact period is the exact identity on coefficients.
        """
        if self.kind == "oscillator":
            w = math.remainder(self.omega * t, _TWO_PI)
            return np.exp(-1j * w * np.arange(count))
        return np.exp(1j * ((self.omega * t) / _level_squares(count)))


@functools.lru_cache(maxsize=8)
def _level_squares(count: int) -> np.ndarray:
    """(n + 1.0)^2 for n < count: the shell degeneracies; built once per count, read-only."""
    squares = (np.arange(count) + 1.0) ** 2
    squares.flags.writeable = False
    return squares


def tail_guard(weights: np.ndarray, radius: float, what: str) -> None:
    """Raise TruncationError when the last of the per-level ``weights`` exceeds
    TAIL_TOL of their sum: |c_n|^2 for a 1-D state, (n+1)^2 |c_n|^2 per shell."""
    # a zero label radius makes the expansion exact at any truncation
    if radius == 0.0:
        return
    total = float(np.sum(weights))
    if weights[-1] > TAIL_TOL * total:
        raise TruncationError(
            f"{what}: truncation n_max={len(weights) - 1} inadequate "
            f"(last-level weight fraction {weights[-1] / total:.3e} > {TAIL_TOL:.0e})"
        )


def label_cs(
    r: float, angle: float, family: WeightFamily, phase: str, n_max: int, check_tail: bool = True
) -> np.ndarray:
    """Coherent state c_n = M(r^2) r^n e^{i angle f_n} / sqrt(rho_n) for n <= n_max.

    ``phase`` 'periodic' takes f_n = n, the generalized state (on the
    exponential family, the canonical state at z = r e^{i angle});
    'covering' takes f_n = 1/(n+1)^2, the degenerate-spectrum state, whose
    angle is unbounded.  These label phases are not read from
    ``Spectrum.evolution_phases``: they are the reference that
    temporal-stability holds the evolution to.  ``check_tail`` applies the
    truncation guard and, for a family without a closed form, the tail rule
    of its normalization series at r^2.
    """
    if r < 0:
        raise ValueError(f"radial label must be >= 0, got r={r}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    n = np.arange(n_max + 1)
    if phase == "periodic":
        phases = np.exp(1j * n * angle)
    elif phase == "covering":
        phases = np.exp(1j * (angle / _level_squares(n_max + 1)))
    else:
        raise ConfigurationError(f"phase mode must be 'periodic' or 'covering', got {phase!r}")
    log_mom = family.log_moments(n_max)
    if r == 0.0:
        amps = np.zeros(n_max + 1)
        amps[0] = family.m_value(0.0) * math.exp(-0.5 * log_mom[0])
    else:
        amps = np.exp(math.log(family.m_value(r * r)) + n * math.log(r) - 0.5 * log_mom)
    coeffs = amps * phases
    if check_tail:
        family.check_series_tail(r * r)
        tail_guard(np.abs(coeffs) ** 2, r, f"label_cs ({phase})")
    return coeffs


def radial_factor_matrix(family: WeightFamily, n_max: int) -> np.ndarray:
    """Normalized radial overlap factors R[n, n'].

    R[n, n'] = int k(u) M^2(u) u^{(n+n')/2} du / sqrt(rho_n rho_n').  The
    diagonal is the moment identity, evaluated with the family's
    substitution rule: it equals 1 up to quadrature error.  Off the
    diagonal, a factorial-moment family (rho_n = f(n)!) takes the closed
    form Gamma(f(nu) + 1) / sqrt(rho_n rho_n'), nu = (n+n')/2, because an
    odd n + n' leaves a factor sqrt(u) for which no Gauss-Laguerre rule is
    exact; other families use the rule there too.  The rule has 64 nodes
    (a tabulated family's grid rule takes no count).
    """
    u, log_w = family.radial_log_rule(64)
    k_vals = np.asarray(family.k_weight(u), dtype=float)
    m2_vals = np.asarray(family.M_squared(u), dtype=float)
    with np.errstate(divide="ignore"):
        log_base = log_w + np.log(k_vals) + np.log(m2_vals)
        log_u = np.log(u)
    log_mom = family.log_moments(n_max)
    n = np.arange(n_max + 1)
    factorial_moment = family._factorial_moment
    if factorial_moment is None:
        half_power = 0.5 * (n[:, None] + n[None, :])
        log_integrals = logsumexp(log_base[None, None, :] + half_power[:, :, None] * log_u[None, None, :], axis=-1)
        return np.exp(log_integrals - 0.5 * (log_mom[:, None] + log_mom[None, :]))
    shells = range(n_max + 1)
    out = np.array([[_factorial_ratio(factorial_moment, a, b) for b in shells] for a in shells])
    out[n, n] = np.exp(logsumexp(log_base + n[:, None] * log_u, axis=-1) - log_mom)
    return out


def _factorial_ratio(f, n: int, n2: int) -> float:
    """Gamma(f(nu) + 1) / sqrt(f(n)! f(n2)!) at nu = (n + n2)/2, from exact integers.

    f(nu) is an integer or a half-integer m + 1/2, for which
    Gamma(m + 3/2) = (2m + 2)! sqrt(pi) / (4^(m+1) (m + 1)!); only the one
    quotient, the factor pi and the square root round.
    """
    top = f((n + n2) / 2)
    den = math.factorial(f(n)) * math.factorial(f(n2))
    if top == int(top):
        return math.sqrt(math.factorial(int(top)) ** 2 / den)
    m = int(top - 0.5)
    den *= (4 ** (m + 1) * math.factorial(m + 1)) ** 2
    return math.sqrt(math.pi * (math.factorial(2 * m + 2) ** 2 / den))


@dataclass(frozen=True, eq=False)
class ResolutionReport:
    """Result of a resolution-of-unity check; ``certificate_matrix`` is inf on the diagonal."""

    matrix: np.ndarray
    diag_max_dev: float
    offdiag_max: float
    window: float
    certificate_bound: float
    certificate_matrix: np.ndarray
    certificate_satisfied: bool


def resolution_check_1d(
    family: WeightFamily, phase: str, n_max: int, gamma_window: float | None = None
) -> ResolutionReport:
    """Gram operator of the coherent-state measure over number states.

    It is the radial factor R[n, n'] times the average of e^{i D_{nn'} phase}
    over the label phase, D the difference of the levels' phase frequencies:
    the integers n for phase 'periodic', whose one-period average (window pi)
    is exactly the identity, and 1/(n+1)^2 for phase 'covering', whose
    average over [-G, G], G = ``gamma_window``, is sinc(G D) in closed form,
    never a numerical integral.  The diagonal is the quadrature moment ratio
    int u^n rho(u) du / rho_n.  Every off-diagonal carries the certificate
    R/(window |D|) from |sinc(x)| <= 1/|x|, and ``certificate_satisfied``
    records that each obeys it.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    n = np.arange(n_max + 1.0)
    if phase == "periodic":
        window, delta = math.pi, n[:, None] - n[None, :]
        average = np.eye(n_max + 1)
    elif phase == "covering":
        if gamma_window is None or not gamma_window > 0:
            raise ConfigurationError("covering mode needs a positive gamma window")
        window, delta = gamma_window, 1.0 / (n[:, None] + 1.0) ** 2 - 1.0 / (n[None, :] + 1.0) ** 2
        average = np.sinc(window * delta / math.pi)
    else:
        raise ConfigurationError(f"phase mode must be 'periodic' or 'covering', got {phase!r}")
    radial = radial_factor_matrix(family, n_max)
    matrix = radial * average
    off = ~np.eye(n_max + 1, dtype=bool)
    cert = np.full_like(radial, np.inf)
    cert[off] = radial[off] / (window * np.abs(delta[off]))
    return ResolutionReport(
        matrix=matrix,
        diag_max_dev=float(np.max(np.abs(np.diag(radial) - 1.0))),
        offdiag_max=float(np.max(np.abs(matrix[off]), initial=0.0)),
        window=window,
        certificate_bound=float(np.max(cert[off], initial=0.0)),
        certificate_matrix=cert,
        certificate_satisfied=bool(np.all(np.abs(matrix[off]) <= cert[off] * (1.0 + 1e-12))),
    )
