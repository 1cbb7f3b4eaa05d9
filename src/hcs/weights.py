"""Moment-weight families: a positive weight rho on [0, inf) together with
its moments rho_n, the state normalization M, and the measure density k.

The three pieces are tied together by rho_n = int_0^inf u^n rho(u) du and
rho = M^2 * k; every coherent-state family in this package is generated by
one ``WeightFamily``.  Two built-ins are provided (``exponential`` with
rho_n = n! and ``sqrt-exponential`` with rho_n = (2n+1)!) plus tabulated
custom families loaded from JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalError, TruncationError
from .specfun import _LAGUERRE_MAX_NODES, exp_decay_rule, log_factorial, logsumexp, make_quadrature, pchip

__all__ = [
    "WeightFamily",
    "CheckResult",
    "builtin_family",
    "tabulated_family",
    "family_from_dict",
    "family_from_file",
    "validate_family",
]

BUILTIN_NAMES = ("exponential", "sqrt-exponential")

#: truncation order of the normalization series of a family with neither a closed form nor a table
DEFAULT_SERIES_N_MAX = 64

#: Gauss-Legendre points per grid cell in a tabulated family's composite rule
GRID_RULE_POINTS = 8

#: relative size below which a series tail is considered converged
SERIES_TAIL_TOL = 1e-14


class WeightFamily:
    """A weight rho(u) >= 0 on [0, inf) with moments, M^2 and k.

    Instances are immutable after construction apart from the internal
    moment caches, which never change a value; they are safe to share
    across threads once validated.
    """

    def __init__(
        self,
        name: str,
        rho: Callable[[np.ndarray], np.ndarray],
        *,
        factorial_moment: Callable[[int], int] | None = None,
        m_squared_closed: Callable[[np.ndarray], np.ndarray] | None = None,
        k_closed: Callable[[np.ndarray], np.ndarray] | None = None,
        subst_power: int = 1,
        declared_moments: Sequence[float] | None = None,
        grid: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self.name = name
        self.rho = rho
        self._factorial_moment = factorial_moment
        self._m_squared_closed = m_squared_closed
        self._k_closed = k_closed
        if subst_power not in (1, 2):
            raise ConfigurationError(f"substitution power must be 1 or 2, got {subst_power}")
        self._subst_power = subst_power
        self._declared = None
        if declared_moments is not None:
            declared = np.asarray(declared_moments, dtype=float)
            if declared.ndim != 1 or declared.size == 0:
                raise ConfigurationError("declared moments must be a nonempty sequence")
            self._declared = declared
        self._grid = grid
        self._moment_memo: dict[int, float] = {}
        self._log_moments = np.empty(0)

    def __repr__(self):
        return f"WeightFamily({self.name!r})"

    # -- moments -----------------------------------------------------------

    def moment(self, n: int) -> float:
        """n-th moment rho_n, from the stored table or closed form when
        available, otherwise by quadrature (memoized).

        The closed form of the built-ins is a factorial, rho_n = k! with
        k = factorial_moment(n): the nearest double here, inf beyond the
        double range, and log_factorial(k) in ``log_moment``.
        """
        if n < 0:
            raise ValueError(f"moment order must be >= 0, got {n}")
        if self._declared is not None and n < self._declared.size:
            return float(self._declared[n])
        if self._factorial_moment is not None:
            try:
                return float(math.factorial(self._factorial_moment(n)))
            except OverflowError:
                return math.inf
        if n not in self._moment_memo:
            self._moment_memo[n] = self.moment_by_quadrature(n)
        return self._moment_memo[n]

    def log_moment(self, n: int) -> float:
        """log rho_n; preferred over moment() in amplitude arithmetic."""
        if self._declared is not None and n < self._declared.size:
            value = float(self._declared[n])
            if value <= 0:
                raise NumericalError(f"{self.name}: declared moment rho_{n} = {value} is not positive")
            return math.log(value)
        if self._factorial_moment is not None:
            return log_factorial(self._factorial_moment(n))
        return math.log(self.moment(n))

    def log_moments(self, n_max: int) -> np.ndarray:
        """[log rho_0, ..., log rho_n_max], read-only; the longest table yet is kept."""
        table = self._log_moments
        if table.size <= n_max:
            table = np.array([self.log_moment(k) for k in range(n_max + 1)])
            table.flags.writeable = False
            self._log_moments = table
        return table[: n_max + 1]

    def moment_by_quadrature(self, n: int) -> float:
        """rho_n computed numerically, independent of any stored table.

        The rule is ``radial_log_rule(max(64, p n + 2))``: Gauss-Laguerre
        nodes through u = x^p, or a tabulated family's composite grid rule.
        """
        if n < 0:
            raise ValueError(f"moment order must be >= 0, got {n}")
        nodes = max(64, self._subst_power * n + 2)
        u, log_w = self.radial_log_rule(nodes)
        with np.errstate(divide="ignore"):
            log_rho = np.log(self.rho(u))
            log_u = np.log(u)
        terms = log_w + log_rho
        if n > 0:
            terms = terms + n * log_u
        value = float(np.exp(logsumexp(terms)))
        if not np.isfinite(value) or value <= 0:
            rule = f"{nodes} Gauss-Laguerre nodes"  # radial_log_rule ignores the count on a grid
            if self._grid is not None:
                rule = f"the {self._grid[0].size - 1}-cell x {GRID_RULE_POINTS}-point composite rule on grid_u"
            raise NumericalError(f"{self.name}: quadrature for rho_{n} returned {value} with {rule}")
        return value

    # -- normalization and measure density ----------------------------------

    def M_squared(self, u):
        """M^2(u): closed form when available, else the truncated series
        [sum_{n<=N} u^n / rho_n]^{-1}, N the declared table's last index
        (DEFAULT_SERIES_N_MAX without a table); ``check_series_tail`` says
        whether it has converged."""
        u = np.asarray(u, dtype=float)
        if self._m_squared_closed is not None:
            return self._m_squared_closed(u)
        out = np.exp(-self._log_norm_sum(u.reshape(-1))[0])
        return float(out[0]) if u.shape == () else out.reshape(u.shape)

    def _series_order(self) -> int:
        return DEFAULT_SERIES_N_MAX if self._declared is None else self._declared.size - 1

    def _log_norm_sum(self, u: np.ndarray):
        """log sum_{n<=N} u^n/rho_n and the log of its last term, N = _series_order()."""
        n_max = self._series_order()
        n = np.arange(n_max + 1)
        log_mom = self.log_moments(n_max)
        log_u = np.log(np.maximum(u, 1e-300))
        log_terms = n[None, :] * log_u[:, None] - log_mom[None, :]
        # u = 0 contributes only the n = 0 term
        log_terms[u == 0, 1:] = -np.inf
        log_terms[u == 0, 0] = -log_mom[0]
        return logsumexp(log_terms, axis=1), log_terms[:, -1]

    def check_series_tail(self, u: float) -> None:
        """Raise TruncationError where M^2(u) comes from a series that has not converged.

        The series of ``M_squared`` has converged at u when its last term is
        below SERIES_TAIL_TOL of the sum.  A closed form has no series, so
        there is nothing to check.
        """
        if u < 0:
            raise ValueError(f"argument must be >= 0, got u={u}")
        if self._m_squared_closed is not None:
            return
        log_s, log_last = self._log_norm_sum(np.array([float(u)]))
        if u > 0 and log_last[0] - log_s[0] > math.log(SERIES_TAIL_TOL):
            raise TruncationError(
                f"{self.name}: normalization series tail at u={u} not converged "
                f"with n_max={self._series_order()} (last term / sum = {math.exp(log_last[0] - log_s[0]):.3e})"
            )

    def m_value(self, u: float) -> float:
        """sqrt(M^2(u)), the amplitude prefactor used by state constructors.

        Raises NumericalError when M^2(u) is not a positive finite double,
        e.g. e^{-u} underflowing to 0 for the exponential family at u = 2500.
        """
        m2 = float(self.M_squared(float(u)))
        if not 0.0 < m2 < math.inf:
            raise NumericalError(
                f"{self.name}: M^2(s^2) at s^2 = {float(u):g} is {m2:g}, not a positive "
                f"finite double, so the state amplitudes are not representable"
            )
        return math.sqrt(m2)

    def k_weight(self, u):
        """Measure density k(u): the closed form when available, else rho(u) / M^2(u), which
        the factorization check of ``validate_family`` then reproduces by construction."""
        u = np.asarray(u, dtype=float)
        if self._k_closed is not None:
            return self._k_closed(u)
        m2 = np.asarray(self.M_squared(u), dtype=float)
        if np.any(m2 <= 0):
            raise NumericalError(f"{self.name}: M^2 vanished where k(u) was requested")
        out = self.rho(u) / m2
        return float(out) if out.shape == () else out

    # -- quadrature over u ---------------------------------------------------

    def radial_log_rule(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes u_i and log-weights for int_0^inf f(u) du.

        Built from Gauss-Laguerre through the family's substitution
        u = x^p, so that moment integrands reduce to polynomials for the
        built-ins; tabulated families integrate over their grid support
        with a composite Gauss-Legendre rule instead.
        """
        if self._grid is not None:
            return self._composite_grid_rule()
        x, scaled = exp_decay_rule(1.0, m)  # weights w e^x
        p = self._subst_power
        log_w = np.log(scaled)
        if p == 2:
            log_w = log_w + math.log(2.0) + np.log(x)
            return x * x, log_w
        return x, log_w

    def _composite_grid_rule(self):
        grid_u, _ = self._grid
        x, w = make_quadrature("legendre", GRID_RULE_POINTS)
        half = (0.5 * np.diff(grid_u))[:, None]  # per cell
        nodes = half * x + (0.5 * (grid_u[1:] + grid_u[:-1]))[:, None]
        return nodes.ravel(), np.log((half * w).ravel())


def builtin_family(name: str) -> WeightFamily:
    """One of the two built-in weight families.

    ``exponential``: rho = e^{-u}, rho_n = n!, M^2 = e^{-u}, k = 1.
    ``sqrt-exponential``: rho = e^{-sqrt(u)}/2, rho_n = (2n+1)!,
    M^2 = sqrt(u)/sinh(sqrt(u)), k = (1 - e^{-2 sqrt(u)}) / (4 sqrt(u)).
    """
    if name == "exponential":
        return WeightFamily(
            "exponential",
            rho=lambda u: np.exp(-np.asarray(u, dtype=float)),
            factorial_moment=lambda n: n,
            m_squared_closed=lambda u: np.exp(-np.asarray(u, dtype=float)),
            k_closed=lambda u: np.ones_like(np.asarray(u, dtype=float)),
            subst_power=1,
        )
    if name == "sqrt-exponential":
        return WeightFamily(
            "sqrt-exponential",
            rho=lambda u: 0.5 * np.exp(-np.sqrt(np.asarray(u, dtype=float))),
            factorial_moment=lambda n: 2 * n + 1,
            m_squared_closed=lambda u: _x_over_sinh(np.sqrt(np.asarray(u, dtype=float))),
            k_closed=_sqrt_exponential_k,
            subst_power=2,
        )
    raise ConfigurationError(
        f"unknown weight family {name!r}; built-ins are {', '.join(BUILTIN_NAMES)}"
    )


def _x_over_sinh(x: np.ndarray) -> np.ndarray:
    """x / sinh(x), continued through x = 0 by its Taylor series."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-6
    safe = np.where(small, 1.0, x)
    with np.errstate(over="ignore"):
        out = np.where(small, 1.0 - x * x / 6.0, safe / np.sinh(safe))
    return out


def _sqrt_exponential_k(u) -> np.ndarray:
    """-expm1(-2x) / (4x) at x = sqrt(u), continued through u = 0 by its limit 1/2."""
    x = np.sqrt(np.asarray(u, dtype=float))
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 0.5, -np.expm1(-2.0 * safe) / (4.0 * safe))


def _number_table(field: str, values) -> np.ndarray:
    """A flat list (or 1-D array) of int or float values as float64; anything else, bools too, is refused."""
    if isinstance(values, np.ndarray):
        ok = values.ndim == 1 and values.dtype.kind in "iuf"
    else:
        number = (int, float, np.integer, np.floating)
        ok = isinstance(values, (list, tuple)) and all(
            isinstance(v, number) and not isinstance(v, bool) for v in values
        )
    if not ok:
        raise ConfigurationError(f"{field} must be a flat list of numbers (int or float, not bool)")
    return np.asarray(values, dtype=float)


def tabulated_family(
    name: str,
    grid_u: Sequence[float],
    rho_values: Sequence[float],
    n_max: int,
    moments: Sequence[float] | None = None,
) -> WeightFamily:
    """Custom family from a tabulated weight.

    The weight is interpolated monotonically (``specfun.pchip``) on the
    grid and treated as zero outside it; moments up to ``n_max`` are either
    taken from the declared table or computed by quadrature over the grid
    support.
    """
    grid = _number_table("grid_u", grid_u)
    vals = _number_table("rho", rho_values)
    if moments is not None:
        moments = _number_table("declared moment table (moments)", moments)
    if grid.size < 2:
        raise ConfigurationError("grid_u must hold at least two points")
    for field, values in (("grid_u", grid), ("rho", vals)):
        if not np.all(np.isfinite(values)):
            raise ConfigurationError(f"{field} values must be finite")
    if np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise ConfigurationError("grid_u must be strictly increasing and nonnegative")
    if vals.shape != grid.shape:
        raise ConfigurationError("rho table must match grid_u in length")
    if np.any(vals < 0):
        raise ConfigurationError("rho values must be nonnegative")
    if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 0:
        raise ConfigurationError(f"n_max must be an integer >= 0, got {n_max!r}")
    if moments is not None:
        if moments.size != n_max + 1:
            raise ConfigurationError(
                f"declared moment table must have n_max+1 = {n_max + 1} entries, got {moments.size}"
            )
        if not np.all(np.isfinite(moments) & (moments > 0)):
            raise ConfigurationError("declared moments must be finite and positive")
    interp = pchip(grid, vals)

    def rho(u):
        u = np.asarray(u, dtype=float)
        out = interp(u)
        return np.where(np.isnan(out), 0.0, np.maximum(out, 0.0))

    family = WeightFamily(
        name,
        rho=rho,
        declared_moments=moments,
        grid=(grid, vals),
    )
    if moments is None:
        declared = [family.moment_by_quadrature(n) for n in range(n_max + 1)]
        family._declared = np.asarray(declared, dtype=float)
    return family


def family_from_dict(payload: dict) -> WeightFamily:
    """Custom family from a parsed JSON object {name, grid_u, rho, n_max[, moments]}."""
    missing = [k for k in ("name", "grid_u", "rho", "n_max") if k not in payload]
    if missing:
        raise ConfigurationError(f"custom family is missing keys: {', '.join(missing)}")
    return tabulated_family(
        str(payload["name"]),
        payload["grid_u"],
        payload["rho"],
        payload["n_max"],
        moments=payload.get("moments"),
    )


def family_from_file(path: str | Path) -> WeightFamily:
    """Load a custom family description from a JSON file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read custom family file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError(f"custom family file {path} must hold a JSON object")
    return family_from_dict(payload)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    @classmethod
    def at_most(cls, name: str, measured: float, bound: float, detail: str = "") -> "CheckResult":
        """The check that passes when measured <= bound."""
        return cls(name, measured <= bound, measured, bound, detail)


def validate_family(family: WeightFamily, n_max: int = 10) -> tuple[CheckResult, ...]:
    """Consistency checks of a weight family.

    Checks (a) stored moments against independent quadrature for n <= n_max
    to 1e-9 relative,
    (b) the factorization rho = M^2 k on a log-spaced grid over the
    tabulated support (from 1e-3 at least), else over [1e-3, 50], (c)
    positivity of rho, k and the moments.  Failures are failed checks, not
    exceptions.  A built-in's quadrature rule grows with the moment order,
    so n_max past the order its largest Gauss-Laguerre rule reaches is
    refused.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if family._grid is None:
        # moment_by_quadrature(n) takes subst_power * n + 2 Laguerre nodes
        limit = (_LAGUERRE_MAX_NODES - 2) // family._subst_power
        if n_max > limit:
            raise ConfigurationError(
                f"n_max = {n_max} is past {limit}, the largest moment order the {family.name} "
                f"family's quadrature reaches within the {_LAGUERRE_MAX_NODES}-node Gauss-Laguerre cap"
            )
        lo, hi = 1e-3, 50.0
    else:
        lo, hi = max(family._grid[0][0], 1e-3), family._grid[0][-1]
    pairs = [(family.moment(n), family.moment_by_quadrature(n)) for n in range(n_max + 1)]
    devs = [abs(quad - stored) / abs(stored) for stored, quad in pairs]
    worst_n = int(np.argmax(devs))
    moments = np.array([stored for stored, _ in pairs])

    u_grid = np.geomspace(lo, hi, 40)
    rho_vals = np.asarray(family.rho(u_grid), dtype=float)
    k_vals = np.asarray(family.k_weight(u_grid), dtype=float)
    recon = np.asarray(family.M_squared(u_grid), dtype=float) * k_vals
    fact_dev = float(np.max(np.abs(recon - rho_vals) / np.maximum(np.abs(rho_vals), 1e-300)))
    neg = min(float(rho_vals.min()), float(k_vals.min()), float(moments.min()))
    positive = bool(neg > 0 or (rho_vals.min() >= 0 and k_vals.min() >= 0 and moments.min() > 0))
    return (
        CheckResult.at_most("moments", devs[worst_n], 1e-9, f"worst relative deviation at moment n={worst_n}"),
        CheckResult.at_most("factorization", fact_dev, 1e-10, "max relative |rho - M^2 k| on log-spaced grid"),
        CheckResult("positivity", positive, neg, 0.0, "min of rho, k on grid and of the moment table"),
    )
