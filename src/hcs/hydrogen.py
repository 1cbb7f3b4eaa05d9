"""Coherent states for the bound-state hydrogen atom.

A state is labeled by five real parameters: radial amplitude s, covering-
space phase gamma, and shell Euler angles omega_bar.  Shell n enters with
weight M(s^2) s^n e^{i gamma/(n+1)^2} / sqrt(rho_n) multiplying the shell
coherent state, so time evolution under the spectrum -omega/(n+1)^2 is
exactly the label shift gamma -> gamma + omega t.  States follow the
defining sum verbatim and are not unit-normalized (see ``state_norm``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import (
    AngularFactor,
    AngularResolutionReport,
    EulerAngles,
    angular_cs,
    angular_resolution_check,
    shell_dimension,
)
from .fock1d import ResolutionReport, Spectrum, _level_squares, label_cs, resolution_check_1d, tail_guard
from .specfun import logsumexp
from .weights import WeightFamily

__all__ = [
    "HydrogenLabel",
    "HydrogenExpansion",
    "HydrogenResolutionReport",
    "hydrogen_cs",
    "evolve_hydrogen",
    "hydrogen_stability_residual",
    "state_norm",
    "hydrogen_resolution_check",
]


@dataclass(frozen=True)
class HydrogenLabel:
    """The five real coherent-state parameters (s, gamma, omega_bar).

    s >= 0; gamma is unbounded (covering space); both must be finite.  At
    s = 0 every omega_bar labels the same physical ray; the constructor
    accepts the redundancy.
    """

    s: float
    gamma: float
    omega_bar: EulerAngles

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.gamma)):
            raise ValueError(f"labels must be finite, got s={self.s}, gamma={self.gamma}")
        if self.s < 0:
            raise ValueError(f"radial label must be >= 0, got s={self.s}")
        # stored as floats, as EulerAngles stores its angles: s*s of an integer s may be an int past the double range
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "gamma", float(self.gamma))

    def shifted(self, omega: float, t: float) -> "HydrogenLabel":
        """Label after time t of evolution: gamma -> gamma + omega*t."""
        return HydrogenLabel(self.s, self.gamma + omega * t, self.omega_bar)


@dataclass(frozen=True, eq=False)
class HydrogenExpansion:
    """A coherent state over basis states (n, l, m), shells 0..n_max, as its two factors.

    Shell n is amps[n] times the first (n+1)^2 entries of ``angular.coeffs``, one shell coherent
    state's channel vector A_lm in channel order (l ascending, m ascending within l).  Both are
    read-only; ``angular`` is the ``angular_cs`` entry shared by every state with the same angles.
    """

    n_max: int
    amps: np.ndarray
    angular: AngularFactor

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amps, dtype=complex).view()
        amps.flags.writeable = False
        if amps.shape != (self.n_max + 1,) or self.angular.n != self.n_max:
            raise ValueError(f"amps and angular must be of shell {self.n_max}, got {amps.shape} amplitudes")
        object.__setattr__(self, "amps", amps)

    @property
    def coeffs(self) -> np.ndarray:
        """The flat vector, shell n from index sum_{k<n} (k+1)^2 on: amps[n] * angular.coeffs[:(n+1)^2]."""
        coeffs = self.angular.coeffs
        return np.concatenate([a * coeffs[: shell_dimension(n)] for n, a in enumerate(self.amps)])

    def shell_norms(self) -> np.ndarray:
        """|amps[n]|^2 W_n per shell, W_n = (n+1)^2 the squared norm of the shell's angular state."""
        return np.abs(self.amps) ** 2 * _level_squares(self.n_max + 1)

    def norm_squared(self) -> float:
        return float(np.sum(self.shell_norms()))

    def phased(self, phases: np.ndarray) -> "HydrogenExpansion":
        """The state with amplitude n multiplied by phases[n]; the angular factor is shared."""
        return HydrogenExpansion(self.n_max, self.amps * phases[: self.n_max + 1], self.angular)


def hydrogen_cs(
    label: HydrogenLabel, family: WeightFamily, n_max: int, check_tail: bool = True
) -> HydrogenExpansion:
    """Hydrogen coherent state truncated at shell n_max.

    The shell amplitudes are the covering-phase coefficients of
    ``label_cs``.  The tail-adequacy guard requires the last shell to carry
    at most TAIL_TOL of the total weight, and a family without a closed
    form to have converged its normalization series at s^2
    (``WeightFamily.check_series_tail``); pass ``check_tail=False`` when
    comparing identically truncated vectors, where adequacy is irrelevant.
    """
    angular = angular_cs(n_max, label.omega_bar)  # first: it refuses a shell past the last finite one
    amps = label_cs(label.s, label.gamma, family, "covering", n_max, check_tail=False)
    if check_tail:
        family.check_series_tail(label.s * label.s)
        tail_guard(np.abs(amps) ** 2 * _level_squares(n_max + 1), label.s, f"hydrogen_cs at s={label.s}")
    return HydrogenExpansion(n_max, amps, angular)


def evolve_hydrogen(x: HydrogenExpansion, omega: float, t: float) -> HydrogenExpansion:
    """Evolve under the bound-state spectrum: shell phases e^{i omega t/(n+1)^2}.

    Pure phases: the norm is preserved and the result equals the state at
    the shifted label gamma + omega*t.
    """
    phases = Spectrum("inverse-square", omega).evolution_phases(x.n_max + 1, t)
    return x.phased(phases)


def _coefficient_residual(x: HydrogenExpansion, amps: np.ndarray) -> float:
    """max |x - y| over the (n, l, m) coefficients, y the state of shell amplitudes amps and x's angular factor.

    Shell n differs by (x.amps[n] - amps[n]) A[:(n+1)^2], so the maximum is |x.amps[n] - amps[n]|
    times the shell's peak max |A_ch|, without the roundoff of forming the coefficients.
    """
    return float(np.max(np.abs(x.amps - amps) * x.angular.shell_peaks))


def hydrogen_stability_residual(
    label: HydrogenLabel, family: WeightFamily, omega: float, t: float, n_max: int = 12
) -> float:
    """Max coefficient deviation between evolution and the gamma shift.

    This is an exact label identity; the residual is pure roundoff and
    scales like eps * |gamma + omega t|.  The evolved and shifted states share one angular factor,
    so only their shell amplitudes, the shifted ones from ``label_cs``, are compared.
    """
    state = hydrogen_cs(label, family, n_max, check_tail=False)
    amps = label_cs(label.s, label.shifted(omega, t).gamma, family, "covering", n_max, check_tail=False)
    return _coefficient_residual(evolve_hydrogen(state, omega, t), amps)


def state_norm(label: HydrogenLabel, family: WeightFamily, n_max: int) -> float:
    """Norm of the truncated state from the closed shell sum.

    norm^2 = M^2(s^2) sum_{n<=n_max} s^{2n} (n+1)^2 / rho_n; the shell
    degeneracy (n+1)^2 makes this exceed 1 whenever s > 0, because the
    defining sum is not renormalized over shells.  Raises NumericalError
    when M^2(s^2) is not a positive double (it underflows at large s).
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if label.s == 0.0:
        return family.m_value(0.0) * math.exp(-0.5 * family.log_moment(0))
    n = np.arange(n_max + 1)
    log_terms = 2.0 * n * math.log(label.s) + 2.0 * np.log(n + 1.0) - family.log_moments(n_max)
    log_sum = float(logsumexp(log_terms))
    return family.m_value(label.s * label.s) * math.exp(0.5 * log_sum)


@dataclass(frozen=True, eq=False)
class HydrogenResolutionReport:
    """Resolution-of-unity check over the truncated (n, l, m) basis.

    The Gram operator factorizes: shell pair (a, b) contributes the block
    ``shells.matrix[a, b] * angular.gram[:d_a, :d_b]`` with d_n = (n+1)^2,
    the covering-mode shell Gram times the angular channel Gram.  The
    figures below are computed from those factors; the dense operator is
    never built.
    """

    shells: ResolutionReport
    angular: AngularResolutionReport
    diag_max_dev: float
    offdiag_max: float
    certificate_bound: float

    @property
    def n_max(self) -> int:
        return self.angular.n

    @property
    def dimension(self) -> int:
        """sum_{n <= n_max} (n+1)^2, the size of the truncated (n, l, m) basis."""
        return (self.n_max + 1) * (self.n_max + 2) * (2 * self.n_max + 3) // 6

    @property
    def certificate_satisfied(self) -> bool:
        return self.shells.certificate_satisfied


def _leading_block_max(values: np.ndarray) -> np.ndarray:
    """peak[i, j] = max(values[:i+1, :j+1])."""
    return np.maximum.accumulate(np.maximum.accumulate(values, axis=0), axis=1)


def hydrogen_resolution_check(
    family: WeightFamily, n_max: int, gamma_window: float = 1e5
) -> HydrogenResolutionReport:
    """Gram operator of the coherent-state measure in the (n, l, m) basis.

    The measure factorizes, so the operator is the product of two certified
    pieces instead of one 6-dimensional oscillatory integral: the covering-
    mode shell Gram (radial moment integrals times the closed-form sinc of
    the finite gamma window) and the angular channel Gram (exact
    quadrature, not assumed diagonal).  The sinc certificate is a shell-pair
    test, so a cross-shell entry obeys |entry| <= certificate * |angular|.
    """
    shells = resolution_check_1d(family, "covering", n_max, gamma_window)
    ang = angular_resolution_check(n_max)

    diag = np.diag(ang.gram)
    diag_dev = max(
        float(np.max(np.abs(shells.matrix[a, a] * diag[: shell_dimension(a)] - 1.0)))
        for a in range(n_max + 1)
    )
    # largest |angular entry| in each leading block gram[:d_a, :d_b], with
    # the operator diagonal left out of same-shell blocks
    ends = np.arange(1, n_max + 2) ** 2 - 1  # where each shell's channels end
    magnitude = np.abs(ang.gram)
    block_peak = _leading_block_max(magnitude)[np.ix_(ends, ends)]
    np.fill_diagonal(magnitude, 0.0)
    np.fill_diagonal(block_peak, _leading_block_max(magnitude)[ends, ends])
    offdiag_max = float(np.max(np.abs(shells.matrix) * block_peak))
    off = ~np.eye(n_max + 1, dtype=bool)
    bound = float(np.max(shells.certificate_matrix[off] * block_peak[off])) if n_max > 0 else 0.0
    return HydrogenResolutionReport(
        shells=shells,
        angular=ang,
        diag_max_dev=diag_dev,
        offdiag_max=offdiag_max,
        certificate_bound=bound,
    )
