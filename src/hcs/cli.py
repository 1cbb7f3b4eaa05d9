"""Command-line driver: verification suites and data exports.

Subcommands: ``verify`` runs the invariant suite and writes a JSON report
with one {name, measured, bound, pass} entry per check; ``moments``
validates a weight family; ``eval`` exports a wavefunction density grid;
``evolve`` traces stability residuals and the autocorrelation over time.
Configuration comes from an optional JSON file plus flag overrides (flags
win).  Reports are byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import angular, fock1d, hydrogen, position, weights
from .errors import ConfigurationError, NumericalError, TruncationError
from .specfun import exp_decay_rule, radial_eigenfunction, radial_table
from .weights import CheckResult

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMBER_FIELDS = ("s", "gamma", "theta_bar", "phi_bar", "psi_bar", "omega", "gamma_window")

# a run whose largest arrays (estimated_bytes) would pass this is refused
# before any math: 2 GiB admits verify up to n_max 80
MEMORY_BUDGET_BYTES = 2 * 2**30
# eval and evolve refuse phases gamma + omega t whose roundoff, eps times
# the phase, passes this many radians: they carry no usable digits
PHASE_ACCURACY_RAD = 1e-6
# an evolve row fails when its stability residual passes this many eps per
# radian of max(1, |gamma + omega t|); measured ratios stay below 0.56
RESIDUAL_EPS_PER_RAD = 4.0
_EPS = sys.float_info.epsilon

_DEFAULT_N_MAX = {"verify": 8, "moments": 12, "eval": 24, "evolve": 24}
_DEFAULT_OUT = {
    "verify": "hcs-verify.json",
    "moments": "hcs-moments.json",
    "eval": "hcs-eval.csv",
    "evolve": "hcs-evolve.csv",
}


@dataclass
class RunConfig:
    command: str
    family: str = "exponential"
    n_max: int = 8
    s: float = 1.0
    gamma: float = 0.0
    theta_bar: float = 0.0
    phi_bar: float = 0.0
    psi_bar: float = 0.0
    omega: float = 1.0
    gamma_window: float = 1e5
    out: str = ""
    seed: int = 0
    grid_r: tuple = (0.5, 1.0, 2.0, 4.0)
    grid_theta: tuple = (1.5707963267948966,)
    grid_phi: tuple = (0.0,)
    times: tuple = field(default_factory=tuple)

    def label(self) -> hydrogen.HydrogenLabel:
        return hydrogen.HydrogenLabel(
            self.s, self.gamma, angular.EulerAngles(self.theta_bar, self.phi_bar, self.psi_bar)
        )


# the config file's keys: every RunConfig field but the command, with grid for the three axes
_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"command", "grid_r", "grid_theta", "grid_phi"} | {"grid"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """An int or float, not a bool, neither NaN nor infinite, within float range."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _build_config(command: str, file_cfg: dict, flags: dict) -> RunConfig:
    """Merge config-file values with flag overrides and validate everything."""
    errors: list[str] = []
    unknown = sorted(set(file_cfg) - _CONFIG_KEYS)
    if unknown:
        errors.append(f"unknown config keys: {', '.join(unknown)}")

    merged: dict = {}
    for key in _CONFIG_KEYS - {"grid", "times"}:
        if key in file_cfg:
            merged[key] = file_cfg[key]
        if flags.get(key) is not None:
            merged[key] = flags[key]
    grid = file_cfg.get("grid", {})
    if not isinstance(grid, dict):
        errors.append("grid must be an object with keys r, theta, phi")
        grid = {}

    cfg = RunConfig(command=command)
    cfg.n_max = _DEFAULT_N_MAX[command]
    cfg.out = _DEFAULT_OUT[command]
    for key, value in merged.items():
        setattr(cfg, key, value)
    for axis in ("r", "theta", "phi"):
        if axis not in grid:
            continue
        values = grid[axis]
        if isinstance(values, list) and all(_is_finite_number(v) for v in values):
            setattr(cfg, f"grid_{axis}", tuple(values))
        else:
            errors.append(f"grid.{axis} must be a list of numbers, all finite, got {values!r}")
    times = file_cfg.get("times")
    if "times" not in file_cfg:
        cfg.times = (0.0,) if command == "eval" else tuple(0.5 * k for k in range(11))
    elif isinstance(times, list) and times and all(_is_finite_number(t) for t in times):
        cfg.times = tuple(float(t) for t in times)
    else:
        errors.append(f"times must be a nonempty list of finite numbers, got {times!r}")

    # aggregate every violation into a single report; types before ranges
    for name in ("family", "out"):
        if not isinstance(getattr(cfg, name), str):
            errors.append(f"{name} must be a string, got {getattr(cfg, name)!r}")
    numbers_ok = {name: _is_finite_number(getattr(cfg, name)) for name in _NUMBER_FIELDS}
    for name, ok in numbers_ok.items():
        if not ok:
            errors.append(f"{name} must be a finite number, got {getattr(cfg, name)!r}")
    if not _is_int(cfg.n_max) or cfg.n_max < 0:
        errors.append(f"n_max must be an integer >= 0, got {cfg.n_max!r}")
    if numbers_ok["s"] and cfg.s < 0:
        errors.append(f"s must be >= 0, got {cfg.s}")
    if numbers_ok["theta_bar"] and not 0.0 <= cfg.theta_bar <= math.pi:
        errors.append(f"theta_bar must lie in [0, pi], got {cfg.theta_bar}")
    if numbers_ok["omega"] and not cfg.omega > 0:
        errors.append(f"omega must be positive, got {cfg.omega}")
    if numbers_ok["gamma_window"] and not cfg.gamma_window > 0:
        errors.append(f"gamma_window must be positive, got {cfg.gamma_window}")
    if not _is_int(cfg.seed) or cfg.seed < 0:
        errors.append(f"seed must be an integer >= 0, got {cfg.seed!r}")
    if command in ("eval", "evolve") and cfg.times and numbers_ok["gamma"] and numbers_ok["omega"]:
        drift = max(abs(cfg.omega * t) for t in cfg.times)
        phase = max(abs(cfg.gamma + cfg.omega * t) for t in cfg.times)
        if _EPS * phase > PHASE_ACCURACY_RAD:
            name = "gamma" if abs(cfg.gamma) >= drift else "omega"
            errors.append(
                f"{name} too large: the phase gamma + omega t reaches {phase:.3g} rad, whose "
                f"roundoff {_EPS * phase:.2g} rad passes the {PHASE_ACCURACY_RAD:g} rad phase accuracy"
            )
    if not errors and estimated_bytes(cfg) > MEMORY_BUDGET_BYTES:
        errors.append(
            f"run too large: its largest arrays need about {estimated_bytes(cfg) / 2**30:.2f} GiB, "
            f"past the memory budget of {MEMORY_BUDGET_BYTES / 2**30:g} GiB"
        )
    if errors:
        raise ConfigurationError("invalid configuration:\n  " + "\n  ".join(errors))
    return cfg


def estimated_bytes(cfg: RunConfig) -> int:
    """Bytes of a run's largest arrays, from its validated config alone.

    verify: six (n_max+1)^2-square float64 arrays, the angular Gram with its
    factors and the hydrogen report's block maxima (estimated 817 MiB at
    n_max 64, where the peak RSS measured 734 MiB).  evolve and moments:
    none, their arrays are per shell (an 11-time evolve at n_max 1000 or
    1026 peaked within 0.4 MiB of one at n_max 0).  eval: the power table of
    xi (16 B per shell and angle), the radial table (8 B per shell, l and
    radius) and the ladder's twelve float64 working rows (96 B per shell and
    radius), psi, four int32 grid codes and |psi|^2 (40 B per CSV row) and
    one block of CSV text, with its concatenation and bytes.  A one-point
    eval at n_max 700 / 1000 peaked 2.9 / 6.4 MiB above one at n_max 0,
    against estimates of 3.8 / 7.8 MiB.  At n_max 24 this estimates 14.8 /
    44.8 / 7.4 / 62.1 MiB for 262,144 and 1,048,576 rows (64x32x32 grid, 4
    and 16 times), 8192 angles and 8192 radii, where the child's peak RSS
    less that of a four-row run measured 13.8 / 43.8 / 3.0 / 54.8 MiB; at
    n_max 96 on 16x64x128 (131,072 rows) 22.4 against 15.0 MiB.
    """
    if cfg.command == "verify":
        return 6 * 8 * (cfg.n_max + 1) ** 4
    if cfg.command == "eval":
        angles, radii = len(cfg.grid_theta) * len(cfg.grid_phi), len(cfg.grid_r)
        rows = radii * angles * len(cfg.times)
        shells = cfg.n_max + 1
        tables = 16 * shells * angles + (8 * shells + 96) * shells * radii
        return tables + 40 * rows + 3 * 7 * _FIELD * min(rows, _CSV_BLOCK_ROWS)
    return 0


def _resolve_family(name: str) -> weights.WeightFamily:
    if name in weights.BUILTIN_NAMES:
        return weights.builtin_family(name)
    if name.endswith(".json") or os.path.exists(name):
        return weights.family_from_file(name)
    raise ConfigurationError(
        f"unknown family {name!r}: not a built-in ({', '.join(weights.BUILTIN_NAMES)}) "
        f"and no such file"
    )


# -- verify check registry ---------------------------------------------------


def _report_entry(check: CheckResult) -> dict:
    """The report entry {name, measured, bound, pass, detail} of one check."""
    return {
        "name": check.name,
        "measured": float(check.measured),
        "bound": float(check.bound),
        "pass": bool(check.passed),
        "detail": check.detail,
    }


def _family_checks(family, n_max: int) -> list[CheckResult]:
    checks = weights.validate_family(family, n_max=n_max)
    return [replace(c, name=f"family-{c.name}") for c in checks]


def _checks_family(cfg, family, rng):
    return _family_checks(family, 12)


def _checks_resolution_periodic(cfg, family, rng):
    rep = fock1d.resolution_check_1d(family, "periodic", n_max=20)
    ok = rep.diag_max_dev <= 1e-10 and rep.offdiag_max == 0.0
    detail = "diagonal deviation; off-diagonals vanish under exact phase integration"
    return [CheckResult("resolution-1d-periodic", ok, rep.diag_max_dev, 1e-10, detail)]


def _checks_resolution_covering(cfg, family, rng):
    windows = (1e3, 1e4, 1e5)
    reports = [fock1d.resolution_check_1d(family, "covering", n_max=8, gamma_window=g) for g in windows]
    sinc_ok = all(r.certificate_satisfied for r in reports)
    ratios = [reports[i].certificate_bound / reports[i + 1].certificate_bound for i in range(2)]
    scaling_dev = max(abs(r / 10.0 - 1.0) for r in ratios)
    detail = "certificate bound must fall 10x per window decade; every off-diagonal obeys the sinc bound"
    return [CheckResult("resolution-1d-covering", sinc_ok and scaling_dev <= 0.01, scaling_dev, 0.01, detail)]


def _checks_angular(cfg, family, rng):
    worst = 0.0
    for n in range(min(cfg.n_max, 6) + 1):
        rep = angular.angular_resolution_check(n)
        worst = max(worst, rep.max_identity_dev)
    n = min(cfg.n_max, 14)
    labels = rng.uniform(low=(0.0, 0.0, 0.0), high=(math.pi, 2 * math.pi, 2 * math.pi), size=(10, 3))
    # the phases m phi_bar round to about eps l 2 pi
    coherence = max(angular.spin_direction_error(n, angular.EulerAngles(*ob)) for ob in labels.tolist())
    return [
        CheckResult.at_most("angular-resolution", worst, 1e-12, "shells n <= 6"),
        CheckResult.at_most("angular-coherence", coherence, 1e-12, f"<L> = l n along 10 random labels, l <= {n}"),
    ]


def _checks_shell_norms(cfg, family, rng):
    worst = 0.0
    for n in range(min(cfg.n_max, 6) + 1):
        # the same numbers, in the same order, as 100 scalar (theta, phi, psi) draws
        labels = rng.uniform(low=(0.0, 0.0, 0.0), high=(math.pi, 2 * math.pi, 2 * math.pi), size=(100, 3))
        norms = np.sum(np.abs(angular._channel_coefficients(n, *labels.T)) ** 2, axis=0)
        worst = max(worst, float(np.max(np.abs(norms - (n + 1) ** 2))))
    return [CheckResult.at_most("shell-norms", worst, 1e-12, "100 random labels per shell")]


def _checks_stability(cfg, family, rng):
    worst = stability_sweep(family, rng, count=50, n_max=12)
    return [CheckResult.at_most("temporal-stability", worst, 5e-15, "50 random configurations")]


def stability_sweep(family, rng, count=50, n_max=12) -> float:
    """Max evolution-vs-label-shift residual over a random label sweep.

    Configuration i is of kind i mod 4: canonical states (the exponential
    family, periodic phase) and the family's periodic-phase states under the
    oscillator spectrum (angle -> angle - omega t), its covering-phase states
    under the inverse-square one (gamma -> gamma + omega t), and hydrogen
    states.  A 1-D state times its evolution phases is compared with the
    shifted label's state, raw coefficients with no global phase, so any
    residual past the roundoff eps |angle + omega t| is a bug; the label
    ranges keep the angles O(10).
    """
    # per 1-D kind: family, label phase, spectrum kind and the lower bound of the radial label
    kinds = (
        (weights.builtin_family("exponential"), "periodic", "oscillator", 0.2),
        (family, "periodic", "oscillator", 0.0),
        (family, "covering", "inverse-square", 0.0),
    )
    worst = 0.0
    for i in range(count):
        t = rng.uniform(0.1, 5.0)
        omega = rng.uniform(0.5, 2.0)
        if i % 4 == 3:
            label = _random_label(rng, 1.5)
            worst = max(worst, hydrogen.hydrogen_stability_residual(label, family, omega, t, n_max=n_max))
            continue
        fam, phase, spectrum, r_low = kinds[i % 4]
        r, angle = rng.uniform(r_low, 1.5), rng.uniform(-math.pi, math.pi)
        shift = -omega * t if phase == "periodic" else omega * t
        state = fock1d.label_cs(r, angle, fam, phase, n_max, check_tail=False)
        twin = fock1d.label_cs(r, angle + shift, fam, phase, n_max, check_tail=False)
        evolved = state * fock1d.Spectrum(spectrum, omega).evolution_phases(n_max + 1, t)
        worst = max(worst, float(np.max(np.abs(evolved - twin))))
    return worst


def _random_label(rng, s_max: float) -> hydrogen.HydrogenLabel:
    """A label from five uniform draws, in order: s, gamma, theta_bar, phi_bar, psi_bar."""
    bounds = ((0.0, s_max), (-math.pi, math.pi), (0.0, math.pi), (0.0, 2 * math.pi), (0.0, 2 * math.pi))
    s, gamma, *angles = (rng.uniform(low, high) for low, high in bounds)
    return hydrogen.HydrogenLabel(s, gamma, angular.EulerAngles(*angles))


def _checks_radial(cfg, family, rng):
    n_top = 8
    r, w = exp_decay_rule(2.0 / (n_top + 1.0), 96)
    table = radial_table(n_top, r)
    worst = 0.0
    for l in range(n_top + 1):
        funcs = table[l:, l]
        gram = np.einsum("ar,r,br->ab", funcs, w * r * r, funcs)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(funcs))))))
    spot = max(abs(radial_eigenfunction(0, 0, 0.0) - 2.0), abs(radial_eigenfunction(1, 0, 2.0)))
    return [
        CheckResult.at_most("radial-orthonormality", worst, 1e-10, "n, n' <= 8 per channel"),
        CheckResult.at_most("radial-spot-values", spot, 1e-12, "u(0,0,0) = 2 and the 2s node"),
    ]


def _checks_parseval(cfg, family, rng):
    label = hydrogen.HydrogenLabel(1.0, 0.4, angular.EulerAngles(1.1, 0.7, 2.3))
    state = hydrogen.hydrogen_cs(label, family, n_max=8, check_tail=False)
    quad = position.quadrature_norm_squared(state)
    # summed over the flat vector: norm_squared() is the closed form sum |a_n|^2 (n+1)^2
    coeff = float(np.sum(np.abs(state.coeffs) ** 2))
    closed = hydrogen.state_norm(label, family, 8) ** 2
    # relative, as quadrature_norm_squared promises: the norm squared is about 5 here
    measured = max(abs(quad - coeff), abs(coeff - closed)) / coeff
    detail = "quadrature norm and closed shell sum vs coefficient norm at s = 1, relative"
    return [CheckResult.at_most("position-parseval", measured, 1e-8, detail)]


def _checks_ground_state(cfg, family, rng):
    ground = hydrogen.hydrogen_cs(
        hydrogen.HydrogenLabel(0.0, 0.0, angular.EulerAngles(0.0, 0.0, 0.0)), family, n_max=0
    )
    r_dev = abs(position.radial_expectation(ground, 1) - 1.5)
    r2_dev = abs(position.radial_expectation(ground, 2) - 3.0)
    product_dev = abs(position.radial_uncertainty_product(ground) - 0.75)
    detail = "ground-state radial uncertainty product = 3/4"
    return [
        CheckResult.at_most("ground-state-moments", max(r_dev, r2_dev), 1e-10, "<r> = 1.5 and <r^2> = 3.0"),
        CheckResult.at_most("uncertainty-ground", product_dev, 1e-9, detail),
    ]


def _checks_uncertainty_floor(cfg, family, rng):
    lowest = math.inf
    for _ in range(20):
        state = hydrogen.hydrogen_cs(_random_label(rng, 1.2), family, n_max=12, check_tail=False)
        lowest = min(lowest, position.radial_uncertainty_product(state))
    detail = "20 random coherent states stay above the Heisenberg floor"
    return [CheckResult("uncertainty-floor", lowest >= 0.25, lowest, 0.25, detail)]


def _checks_hydrogen_resolution(cfg, family, rng):
    rep = hydrogen.hydrogen_resolution_check(family, cfg.n_max, cfg.gamma_window)
    ok = rep.diag_max_dev <= 1e-10 and rep.certificate_satisfied
    detail = (
        f"diagonal deviation at gamma window {rep.shells.window:g}; "
        "off-diagonals within the sinc certificate"
    )
    return [CheckResult("hydrogen-resolution", ok, rep.diag_max_dev, 1e-10, detail)]


_CHECK_REGISTRY = (
    _checks_family,
    _checks_resolution_periodic,
    _checks_resolution_covering,
    _checks_angular,
    _checks_shell_norms,
    _checks_stability,
    _checks_radial,
    _checks_parseval,
    _checks_ground_state,
    _checks_uncertainty_floor,
    _checks_hydrogen_resolution,
)


def run_verify(cfg: RunConfig) -> tuple[dict, int]:
    family = _resolve_family(cfg.family)
    checks = [
        check
        # one seed stream per group: a group's draws do not depend on the others
        for index, func in enumerate(_CHECK_REGISTRY)
        for check in func(cfg, family, np.random.default_rng([cfg.seed, index]))
    ]
    passed = all(c.passed for c in checks)
    report = {
        "command": "verify",
        "family": cfg.family,
        "n_max": cfg.n_max,
        "gamma_window": cfg.gamma_window,
        "omega": cfg.omega,
        "seed": cfg.seed,
        "checks": [_report_entry(c) for c in checks],
        "passed": passed,
    }
    return report, EXIT_OK if passed else EXIT_CHECK_FAILED


def run_moments(cfg: RunConfig) -> tuple[dict, int]:
    family = _resolve_family(cfg.family)
    checks = _family_checks(family, cfg.n_max)
    passed = all(c.passed for c in checks)
    table = []
    for n in range(cfg.n_max + 1):
        stored, quad = family.moment(n), family.moment_by_quadrature(n)
        rel_dev = abs(quad - stored) / abs(stored)
        table.append({"n": n, "stored": stored, "quadrature": quad, "rel_dev": rel_dev})
    report = {
        "command": "moments",
        "family": cfg.family,
        "n_max": cfg.n_max,
        "seed": cfg.seed,
        "moments": table,
        "checks": [_report_entry(c) for c in checks],
        "passed": passed,
    }
    return report, EXIT_OK if passed else EXIT_CHECK_FAILED


def run_eval(cfg: RunConfig) -> tuple[list, int]:
    """CSV columns and exit code: axes t, r, theta, phi coded by np.indices, then Re psi, Im psi, |psi|^2."""
    family = _resolve_family(cfg.family)
    state = hydrogen.hydrogen_cs(cfg.label(), family, cfg.n_max)
    grid = position.GridSpec(cfg.grid_r, cfg.grid_theta, cfg.grid_phi)
    psi = position.export_density_grid(state, grid, cfg.times, cfg.omega)
    density = np.abs(psi) ** 2
    axes = (cfg.times, grid.r, grid.theta, grid.phi)
    codes = np.indices([len(axis) for axis in axes], dtype=np.int32).reshape(len(axes), -1)
    return [*zip(axes, codes), psi.real, psi.imag, density], EXIT_OK


def run_evolve(cfg: RunConfig) -> tuple[list, int]:
    """Trace rows (t, residual, autocorrelation) and the exit code.

    The state is built once.  Each time evolves it, builds the shifted
    label's amplitudes and compares the two shell by shell; the autocorrelation
    <x|x(t)> / <x|x> sums the shells' squared norms times their phases.  A
    row whose residual passes RESIDUAL_EPS_PER_RAD eps max(1, |gamma +
    omega t|) is named on stderr, and the code is 1.
    """
    family = _resolve_family(cfg.family)
    label = cfg.label()
    state = hydrogen.hydrogen_cs(label, family, cfg.n_max)
    shell_norms = state.shell_norms()
    norm_sq = float(np.sum(shell_norms))
    spectrum = fock1d.Spectrum("inverse-square", cfg.omega)
    rows, code = [], EXIT_OK
    for t in cfg.times:
        phases = spectrum.evolution_phases(cfg.n_max + 1, t)
        gamma = label.shifted(cfg.omega, t).gamma
        shifted = fock1d.label_cs(label.s, gamma, family, "covering", cfg.n_max, check_tail=False)
        residual = hydrogen._coefficient_residual(state.phased(phases), shifted)
        auto = complex(np.sum(shell_norms * phases)) / norm_sq
        rows.append((float(t), residual, auto.real, auto.imag, abs(auto)))
        bound = RESIDUAL_EPS_PER_RAD * _EPS * max(1.0, abs(cfg.gamma + cfg.omega * t))
        if not residual <= bound:
            row = f"evolve: row {len(rows)} (t = {t:g})"
            print(f"{row}: residual {residual:.3g} above its bound {bound:.3g}", file=sys.stderr)
            code = EXIT_CHECK_FAILED
    return rows, code


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write report to {path}: {exc}") from exc


# rows per formatting block: the block's text stays about 1.4 MB
_CSV_BLOCK_ROWS = 4096
# bytes of one value's text, six 8-byte words: sign, "0.000", 17 (digit,
# point) pairs whose last point slot holds the "e", the exponent's sign and
# 3 digits, 2 NUL, then the "," or CRLF that follows it
_FIELD = 48
# rows of _format_tables' patterns: 4-digit groups, leading digits, exponents
_LEADS, _EXPONENTS = 10000, 10010 + 400
# write_csv frees one array of this size first: under glibc's 32 MiB DEFAULT_MMAP_THRESHOLD_MAX,
# past which a free moves no threshold
_HEAP_PRIMER_BYTES = 16 * 2**20


@functools.lru_cache(maxsize=None)
def _format_tables() -> tuple[np.ndarray, ...]:
    """(pow10, patterns, ends, kinds, masks) of the exact %.17g; built on first use, read-only.

    pow10[:, 300 + j] = (hi, lo), the doubles nearest 10^j and 10^j - hi.
    A value's field is the bytes of masks[row] & patterns[six rows]: its
    leading digit d at _LEADS + d, its four 4-digit groups i at i as (digit,
    255) pairs, and its exponent k at _EXPONENTS + k as sign and 3 digits.
    ends[i] is the place 0-3 of group i's last nonzero digit (-99 for 0).
    kinds[400 + k] is 17 times the kind of exponent k: 0-20 fixed notation at
    exponent kind - 4, 21 and 22 exponent notation with 2 and 3 digits.  The
    mask of row 391 sign + kinds[400 + k] + last, for a value whose last
    nonzero digit is digit ``last``, keeps (255) or drops (0) what the
    patterns put there.
    """
    pow10 = np.empty((2, 601))
    for j in range(-300, 301):
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        p, q = (num / den).as_integer_ratio()
        pow10[:, j + 300] = num / den, (num * q - p * den) / (den * q)
    k = np.arange(-400, 401)
    # ASCII digits by integer arithmetic: "%04d" of each group, "%+04d" of each exponent
    groups = 48 + np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    patterns = np.full((_EXPONENTS + 401, 8), 255, np.uint8)
    patterns[:_LEADS, ::2] = groups
    patterns[_LEADS : _LEADS + 10, 6] = np.arange(48, 58)
    patterns[_LEADS + 10 :, 0] = np.where(k < 0, 45, 43)  # "-", "+"
    patterns[_LEADS + 10 :, 1:4] = 48 + np.abs(k)[:, None] // np.array([100, 10, 1]) % 10
    ends = np.full(_LEADS + 10, 3, np.int16)
    ends[:_LEADS] = np.where(groups[:, ::-1] != 48, np.arange(3, -1, -1), -99).max(axis=1)
    kinds = 17 * np.where((k >= -4) & (k < 17), k + 4, 21 + (np.abs(k) >= 100))
    sign, kind, last, slot = np.ogrid[:2, :23, :17, :17]
    point = np.where(kind < 21, kind - 4, 0)  # the digit the point follows
    masks = np.zeros((2, 23, 17, _FIELD), np.uint8)
    masks[..., 0] = 45 * sign[..., 0]  # "-"
    lead = np.frombuffer(b"0.000", np.uint8)  # "0." and the zeros before a small value's digits
    masks[..., 1:6] = np.where((point < 0) & (np.arange(5) < 1 - point), lead, 0)
    masks[..., 6:40:2] = np.where(slot <= np.maximum(last, point), 255, 0)
    masks[..., 7:40:2] = np.where((slot == point) & (point < last), 46, 0)
    masks[:, 21:, :, 39:44] = 101, 255, 255, 255, 255  # "e", sign, 3 digits
    masks[:, 21, :, 41] = 0
    tables = pow10, patterns.view(np.uint64)[:, 0], ends, kinds, masks.reshape(-1, _FIELD).view(np.uint64)
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(x: np.ndarray, k: np.ndarray, pow10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(y) as int64 and y - floor(y) for y = x 10^(16-k), good to about 1e-14.

    Dekker's two-product (Numer. Math. 18, 224 (1971)) gives x hi exactly.
    """
    hi, lo = pow10.take(316 - k, axis=1)
    head = x * hi
    xh, hh = (v * 134217729.0 - (v * 134217729.0 - v) for v in (x, hi))  # high 26 bits
    xl, hl = x - xh, hi - hh
    whole = np.floor(head)
    rest = head - whole + (((xh * hh - head) + xh * hl + xl * hh) + xl * hl + x * lo)
    step = np.floor(rest)
    return whole.astype(np.int64) + step.astype(np.int64), rest - step


def _decimal_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, k, certified): |v| rounds half-even to n 10^(k-16), 10^16 <= n < 10^17.

    Only where ``certified``: v is finite with |v| in [1e-280, 1e280], and
    the scaled fraction is not within 1e-6 of 1/2 (exact ties included).
    """
    pow10 = _format_tables()[0]
    x = np.abs(values)
    fast = (x >= 1e-280) & (x <= 1e280)
    x[~fast] = 1.0
    k = np.floor(np.log10(x)).astype(np.int64)
    n, frac = _scaled(x, k, pow10)
    off = (n < 10**16) | (n >= 10**17)  # log10 can miss by one next to a power of ten
    k[off] += np.where(n[off] < 10**16, -1, 1)
    n[off], frac[off] = _scaled(x[off], k[off], pow10)
    n += frac > 0.5
    carry = n == 10**17  # rounded up into the next decade
    n[carry], k[carry] = 10**16, k[carry] + 1
    return n, k, fast & (np.abs(frac - 0.5) > 1e-6) & (n >= 10**16) & (n < 10**17)


def _text_fields(values: np.ndarray) -> np.ndarray:
    """The %.17g text of each value in a row of _FIELD bytes, NUL where %g drops one.

    The last two bytes, the separator's slot, are NUL.  Values without
    certified digits take Python's own "%.17g" % v.
    """
    _, patterns, ends, kinds, masks = _format_tables()
    n, k, certified = _decimal_digits(values)
    # the pattern rows of the leading digit, four 4-digit groups and the exponent
    index = np.empty((n.size, 6), np.int64)
    high, low = np.divmod(n, 10**8)
    np.divmod(low, 10**4, out=(index[:, 3], index[:, 4]))
    np.divmod(high, 10**4, out=(high, index[:, 2]))
    np.divmod(high, 10**4, out=(index[:, 0], index[:, 1]))
    index[:, 0] += _LEADS
    np.add(k, _EXPONENTS, out=index[:, 5])
    # the last nonzero digit: place p of group g is digit 4 g - 3 + p
    places = ends.take(index[:, :5])
    last = functools.reduce(np.maximum, (places[:, g] + (4 * g - 3) for g in range(5)))
    row = kinds.take(k + 400) + last + 391 * np.signbit(values)
    text = (masks.take(row, axis=0) & patterns.take(index)).view(np.uint8)
    for i in np.flatnonzero(~certified).tolist():
        word = ("%.17g" % values[i]).encode()
        text[i] = 0
        text[i, : len(word)] = np.frombuffer(word, np.uint8)
    return text


def _level_text(levels) -> np.ndarray:
    """The text of each level as one row, NUL-padded to the longest, then two separator slots."""
    words = [row.tobytes().translate(None, b"\0") for row in _text_fields(np.asarray(levels, dtype=float))]
    width = max(map(len, words), default=0) + 2
    return np.frombuffer(b"".join(word.ljust(width, b"\0") for word in words), np.uint8).reshape(-1, width)


def write_csv(path, header, columns) -> None:
    """Write a header and columns as CSV: CRLF line ends, 17 significant digits.

    A column is one float per row, or a ``(levels, codes)`` pair whose row i
    reads ``levels[codes[i]]``.  Every level and every plain value is
    formatted once, on its own, with the bytes of ``%.17g``; so ``-0.0``
    prints as "-0" and ``0.0`` as "0".  A block of rows is built from
    fixed-width text slots, NUL where the text is shorter, and written with
    one ``bytes.translate`` that drops the NULs.
    """
    levels = {j: _level_text(c[0]) for j, c in enumerate(columns) if isinstance(c, tuple)}
    plain = [c for j, c in enumerate(columns) if j not in levels]
    n_rows = len(columns[0][1] if 0 in levels else columns[0])
    # glibc raises its mmap threshold to the size of a freed mmapped chunk and its trim
    # threshold to twice that (mallopt(3), "dynamic mmap threshold"): this untouched array,
    # freed at once, keeps every block's temporaries on reused heap pages whatever the caller
    # freed before.  Its pages are never touched, and other allocators just free it.
    np.empty(_HEAP_PRIMER_BYTES, np.uint8)
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\r\n").encode())
            for start in range(0, n_rows, _CSV_BLOCK_ROWS):
                block = slice(start, min(start + _CSV_BLOCK_ROWS, n_rows))
                values = np.array([column[block] for column in plain], dtype=float)
                fields = iter(_text_fields(values.ravel()).reshape(len(plain), block.stop - start, _FIELD))
                slots = [levels[j].take(c[1][block], axis=0) if j in levels else next(fields)
                         for j, c in enumerate(columns)]
                for slot in slots:
                    slot[:, -2:] = 44, 0  # ","
                slots[-1][:, -2:] = 13, 10  # CRLF
                fh.write(np.concatenate(slots, axis=1).tobytes().translate(None, b"\0"))
    except OSError as exc:
        raise ConfigurationError(f"cannot write CSV to {path}: {exc}") from exc


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcs", description="Hydrogen-atom coherent states: verification and exports."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("verify", "run the invariant suite and write a JSON report"),
        ("eval", "export wavefunction density samples as CSV"),
        ("evolve", "trace stability residuals and the autocorrelation"),
        ("moments", "validate a weight family's moment table"),
    ):
        sp = sub.add_parser(name, help=blurb)
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument("--family", help="built-in name or custom-family JSON path")
        sp.add_argument("--n-max", dest="n_max", type=int)
        sp.add_argument("--s", type=float)
        sp.add_argument("--gamma", type=float)
        sp.add_argument("--theta-bar", dest="theta_bar", type=float)
        sp.add_argument("--phi-bar", dest="phi_bar", type=float)
        sp.add_argument("--psi-bar", dest="psi_bar", type=float)
        sp.add_argument("--omega", type=float)
        sp.add_argument("--gamma-window", dest="gamma_window", type=float)
        sp.add_argument("--out", help="output path (JSON report or CSV dataset)")
        sp.add_argument("--seed", type=int)
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        file_cfg = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    file_cfg = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigurationError(f"cannot read config {args.config}: {exc}") from exc
            if not isinstance(file_cfg, dict):
                raise ConfigurationError(f"config {args.config} must hold a JSON object")
        flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        cfg = _build_config(args.command, file_cfg, flags)

        if args.command == "verify":
            report, code = run_verify(cfg)
            _write_json(cfg.out, report)
            n_pass = sum(1 for c in report["checks"] if c["pass"])
            print(f"verify: {n_pass}/{len(report['checks'])} checks passed -> {cfg.out}")
        elif args.command == "moments":
            report, code = run_moments(cfg)
            _write_json(cfg.out, report)
            print(f"moments: family {cfg.family} {'passed' if report['passed'] else 'FAILED'} -> {cfg.out}")
        elif args.command == "eval":
            columns, code = run_eval(cfg)
            write_csv(cfg.out, position.DENSITY_CSV_HEADER, columns)
            print(f"eval: {len(columns[-1])} rows -> {cfg.out}")
        else:
            rows, code = run_evolve(cfg)
            header = ("t", "residual", "re_autocorr", "im_autocorr", "abs_autocorr")
            write_csv(cfg.out, header, list(np.transpose(rows)))
            print(f"evolve: {len(rows)} rows -> {cfg.out}")
        return code
    except ValueError as exc:
        # ConfigurationError is a ValueError; bad math arguments from the
        # CLI surface are configuration mistakes too
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TruncationError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
