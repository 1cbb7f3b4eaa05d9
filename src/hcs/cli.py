"""Command-line driver: verification suites and data exports.

Subcommands: ``verify`` runs the invariant suite and writes a JSON report
with one {name, measured, bound, pass} entry per check; ``moments``
validates a weight family; ``eval`` exports a wavefunction density grid;
``evolve`` traces stability residuals and the autocorrelation over time.
Configuration comes from an optional JSON file plus flag overrides (flags
win).  Reports are byte-reproducible for a fixed config and seed; the
HCS_THREADS environment variable caps check parallelism without affecting
results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
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

_CONFIG_KEYS = {
    "family",
    "n_max",
    "s",
    "gamma",
    "theta_bar",
    "phi_bar",
    "psi_bar",
    "omega",
    "gamma_window",
    "radial_nodes",
    "theta_nodes",
    "phi_nodes",
    "psi_nodes",
    "out",
    "seed",
    "grid",
    "times",
}

_NUMBER_FIELDS = ("s", "gamma", "theta_bar", "phi_bar", "psi_bar", "omega", "gamma_window")

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
    radial_nodes: int = 96
    theta_nodes: int | None = None
    phi_nodes: int | None = None
    psi_nodes: int | None = None
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
    times = file_cfg.get("times")

    cfg = RunConfig(command=command)
    cfg.n_max = _DEFAULT_N_MAX[command]
    cfg.out = _DEFAULT_OUT[command]
    known = {f.name for f in fields(RunConfig)}
    for key, value in merged.items():
        if key in known:
            setattr(cfg, key, value)
    for axis in ("r", "theta", "phi"):
        if axis not in grid:
            continue
        values = grid[axis]
        if isinstance(values, list) and all(_is_finite_number(v) for v in values):
            setattr(cfg, f"grid_{axis}", tuple(values))
        else:
            errors.append(f"grid.{axis} must be a list of numbers, all finite, got {values!r}")
    if times is not None:
        if isinstance(times, list) and all(_is_finite_number(t) for t in times):
            cfg.times = tuple(float(t) for t in times)
        else:
            errors.append(f"times must be a list of finite numbers, got {times!r}")
    if not cfg.times:
        cfg.times = (0.0,) if command == "eval" else tuple(0.5 * k for k in range(11))

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
    for name in ("radial_nodes", "theta_nodes", "phi_nodes", "psi_nodes"):
        value = getattr(cfg, name)
        # only the angular node counts may be left unset (null: the exactness threshold)
        if (value is not None or name == "radial_nodes") and (not _is_int(value) or value < 1):
            errors.append(f"{name} must be a positive integer, got {value!r}")
    if _is_int(cfg.n_max) and cfg.n_max >= 0:
        threshold = angular.exactness_threshold(cfg.n_max)
        for name in ("theta_nodes", "phi_nodes", "psi_nodes"):
            value = getattr(cfg, name)
            if _is_int(value) and value < threshold:
                errors.append(
                    f"{name} = {value} below the exactness threshold {threshold} "
                    f"for the configured n_max"
                )
    if errors:
        raise ConfigurationError("invalid configuration:\n  " + "\n  ".join(errors))
    return cfg


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
    validation = weights.validate_family(family, n_max=n_max, tol=1e-9)
    return [replace(c, name=f"family-{c.name}") for c in validation.checks]


def _checks_family(cfg, family, rng):
    return _family_checks(family, 12)


def _checks_resolution_periodic(cfg, family, rng):
    rep = fock1d.resolution_check_1d(family, "periodic", n_max=20, radial_nodes=64)
    ok = rep.diag_max_dev <= 1e-10 and rep.offdiag_max == 0.0
    detail = "diagonal deviation; off-diagonals vanish under exact phase integration"
    return [CheckResult("resolution-1d-periodic", ok, rep.diag_max_dev, 1e-10, detail)]


def _checks_resolution_covering(cfg, family, rng):
    windows = (1e3, 1e4, 1e5)
    reports = [
        fock1d.resolution_check_1d(family, "covering", n_max=8, radial_nodes=64, gamma_window=g)
        for g in windows
    ]
    sinc_ok = all(r.certificate_satisfied for r in reports)
    ratios = [reports[i].certificate_bound / reports[i + 1].certificate_bound for i in range(2)]
    scaling_dev = max(abs(r / 10.0 - 1.0) for r in ratios)
    return [
        CheckResult(
            "resolution-1d-covering",
            sinc_ok and scaling_dev <= 0.01,
            scaling_dev,
            0.01,
            "certificate bound must fall 10x per window decade; every off-diagonal "
            "obeys the sinc bound",
        )
    ]


def _checks_angular(cfg, family, rng):
    worst = 0.0
    for n in range(min(cfg.n_max, 6) + 1):
        rep = angular.angular_resolution_check(n, cfg.theta_nodes, cfg.phi_nodes, cfg.psi_nodes)
        worst = max(worst, rep.max_identity_dev)
    return [CheckResult.at_most("angular-resolution", worst, 1e-12, "shells n <= 6")]


def _checks_shell_norms(cfg, family, rng):
    worst = 0.0
    for n in range(min(cfg.n_max, 6) + 1):
        target = (n + 1) ** 2
        for _ in range(100):
            ob = angular.EulerAngles(
                rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)
            )
            worst = max(worst, abs(angular.shell_norm_squared(n, ob) - target))
    return [CheckResult.at_most("shell-norms", worst, 1e-12, "100 random labels per shell")]


def _checks_stability(cfg, family, rng):
    worst = stability_sweep(family, rng, count=50, n_max=12)
    return [CheckResult.at_most("temporal-stability", worst, 5e-15, "50 random configurations")]


def stability_sweep(family, rng, count=50, n_max=12) -> float:
    """Max evolution-vs-label-shift residual over a random label sweep."""
    worst = 0.0
    for i in range(count):
        t = rng.uniform(0.1, 5.0)
        omega = rng.uniform(0.5, 2.0)
        kind = ("oscillator", "generalized", "degenerate", "hydrogen")[i % 4]
        if kind == "oscillator":
            z = rng.uniform(0.2, 1.5) * np.exp(1j * rng.uniform(-math.pi, math.pi))
            res = fock1d.stability_residual(
                "oscillator", z, fock1d.Spectrum("oscillator", omega), t, n_max=n_max
            )
        elif kind == "generalized":
            res = fock1d.stability_residual(
                "generalized",
                (rng.uniform(0.0, 1.5), rng.uniform(-math.pi, math.pi)),
                fock1d.Spectrum("oscillator", omega),
                t,
                family=family,
                n_max=n_max,
            )
        elif kind == "degenerate":
            res = fock1d.stability_residual(
                "degenerate",
                (rng.uniform(0.0, 1.5), rng.uniform(-math.pi, math.pi)),
                fock1d.Spectrum("inverse-square", omega),
                t,
                family=family,
                n_max=n_max,
            )
        else:
            label = hydrogen.HydrogenLabel(
                rng.uniform(0.0, 1.5),
                rng.uniform(-math.pi, math.pi),
                angular.EulerAngles(
                    rng.uniform(0.0, math.pi),
                    rng.uniform(0.0, 2 * math.pi),
                    rng.uniform(0.0, 2 * math.pi),
                ),
            )
            res = hydrogen.hydrogen_stability_residual(label, family, omega, t, n_max=n_max)
        worst = max(worst, res)
    return worst


def _checks_radial(cfg, family, rng):
    n_top = 8
    r, w = exp_decay_rule(2.0 / (n_top + 1.0), 96)
    table, _ = radial_table(n_top, r)
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
    quad = position.quadrature_norm_squared(state, radial_nodes=cfg.radial_nodes)
    coeff = state.norm_squared()
    closed = hydrogen.state_norm(label, family, 8) ** 2
    measured = max(abs(quad - coeff), abs(coeff - closed))
    detail = "quadrature norm vs coefficient norm vs closed shell sum at s = 1"
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
        label = hydrogen.HydrogenLabel(
            rng.uniform(0.0, 1.2),
            rng.uniform(-math.pi, math.pi),
            angular.EulerAngles(
                rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)
            ),
        )
        state = hydrogen.hydrogen_cs(label, family, n_max=12, check_tail=False)
        lowest = min(lowest, position.radial_uncertainty_product(state))
    detail = "20 random coherent states stay above the Heisenberg floor"
    return [CheckResult("uncertainty-floor", lowest >= 0.25, lowest, 0.25, detail)]


def _checks_hydrogen_resolution(cfg, family, rng):
    rep = hydrogen.hydrogen_resolution_check(
        family,
        n_max=cfg.n_max,
        radial_nodes=64,
        gamma_window=cfg.gamma_window,
        theta_nodes=cfg.theta_nodes,
        phi_nodes=cfg.phi_nodes,
        psi_nodes=cfg.psi_nodes,
    )
    ok = rep.diag_max_dev <= 1e-10 and rep.certificate_satisfied
    detail = (
        f"diagonal deviation at gamma window {rep.gamma_window:g}; "
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
    threads = max(1, int(os.environ.get("HCS_THREADS", "1")))

    def run_group(item):
        index, func = item
        # per-group seed stream keeps results independent of thread count
        return func(cfg, family, np.random.default_rng([cfg.seed, index]))

    items = list(enumerate(_CHECK_REGISTRY))
    if threads == 1:
        groups = [run_group(item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            groups = list(pool.map(run_group, items))
    checks = [check for group in groups for check in group]
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
        stored = family.moment(n)
        quad = family.moment_by_quadrature(n)
        table.append(
            {
                "n": n,
                "stored": stored,
                "quadrature": quad,
                "rel_dev": abs(quad - stored) / abs(stored),
            }
        )
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


def run_eval(cfg: RunConfig) -> tuple[np.ndarray, int]:
    family = _resolve_family(cfg.family)
    state = hydrogen.hydrogen_cs(cfg.label(), family, cfg.n_max)
    grid = position.GridSpec(cfg.grid_r, cfg.grid_theta, cfg.grid_phi)
    spectrum = fock1d.Spectrum("inverse-square", cfg.omega)
    rows = position.export_density_grid(state, grid, cfg.times, spectrum)
    return rows, EXIT_OK


def run_evolve(cfg: RunConfig) -> tuple[list, int]:
    family = _resolve_family(cfg.family)
    label = cfg.label()
    state = hydrogen.hydrogen_cs(label, family, cfg.n_max)
    norm_sq = state.norm_squared()
    rows = []
    for t in cfg.times:
        residual = hydrogen.hydrogen_stability_residual(label, family, cfg.omega, t, cfg.n_max)
        evolved = hydrogen.evolve_hydrogen(state, cfg.omega, t)
        auto = complex(np.vdot(state.coeffs, evolved.coeffs)) / norm_sq
        rows.append((float(t), residual, auto.real, auto.imag, abs(auto)))
    return rows, EXIT_OK


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write report to {path}: {exc}") from exc


# rows per formatting block: large enough to share formatted values, small
# enough that the block's template and text stay a few hundred kB
_CSV_BLOCK_ROWS = 4096


def write_csv(path, header, rows) -> None:
    """Write a header and float rows as CSV: CRLF line ends, 17 significant digits.

    Each block of rows formats every distinct value once with ``%.17g``.
    Values are told apart by bit pattern, not by float comparison, so
    ``-0.0`` and ``0.0`` keep their own text ("-0" and "0").
    """
    data = np.asarray(rows, dtype=float)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, len(data), _CSV_BLOCK_ROWS):
                block = data[start : start + _CSV_BLOCK_ROWS]
                bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
                text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
                template = ("%s," * (block.shape[1] - 1) + "%s\r\n") * len(block)
                fh.write(template % tuple(map(text.__getitem__, inverse.ravel().tolist())))
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
            rows, code = run_eval(cfg)
            write_csv(cfg.out, position.DENSITY_CSV_HEADER, rows)
            print(f"eval: {len(rows)} rows -> {cfg.out}")
        else:
            rows, code = run_evolve(cfg)
            write_csv(cfg.out, ("t", "residual", "re_autocorr", "im_autocorr", "abs_autocorr"), rows)
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
