"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line when its criterion holds (run with
``pytest -v tests/test_acceptance.py`` to get one line per criterion even
without -s; a failing criterion shows up as a FAILED line).
"""

import json
import math
import time

import numpy as np
import pytest

from hcs.angular import EulerAngles, angular_cs, angular_resolution_check, shell_dimension
from hcs.cli import main, stability_sweep
from hcs.fock1d import resolution_check_1d
from hcs.hydrogen import HydrogenLabel, hydrogen_cs, state_norm
from hcs.position import (
    quadrature_norm_squared,
    radial_expectation,
    radial_uncertainty_product,
)
from hcs.specfun import exp_decay_rule, radial_eigenfunction
from hcs.weights import builtin_family

EXPONENTIAL = builtin_family("exponential")
SQRT_EXPONENTIAL = builtin_family("sqrt-exponential")


def _report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_criterion_01_moment_identities():
    start = time.perf_counter()
    for fam, closed in (
        (EXPONENTIAL, lambda n: math.factorial(n)),
        (SQRT_EXPONENTIAL, lambda n: math.factorial(2 * n + 1)),
    ):
        for n in range(13):
            quad = fam.moment_by_quadrature(n)
            assert abs(quad - closed(n)) / closed(n) <= 1e-9, (fam.name, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"moments match n! and (2n+1)! to 1e-9 for n <= 12 ({elapsed:.3f}s)")


def test_criterion_02_resolution_of_unity_1d():
    start = time.perf_counter()
    for fam in (EXPONENTIAL, SQRT_EXPONENTIAL):
        rep = resolution_check_1d(fam, "periodic", n_max=20)
        assert rep.diag_max_dev <= 1e-10, fam.name
        off = ~np.eye(21, dtype=bool)
        assert np.all(rep.matrix[off] == 0.0), fam.name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"1-D Gram diagonal within 1e-10, off-diagonals exactly 0 ({elapsed:.3f}s)")


def test_criterion_03_covering_space_certificates():
    start = time.perf_counter()
    windows = (1e3, 1e4, 1e5)
    bounds = []
    for window in windows:
        rep = resolution_check_1d(EXPONENTIAL, "covering", n_max=8, gamma_window=window)
        off = ~np.eye(9, dtype=bool)
        assert np.all(np.abs(rep.matrix[off]) <= rep.certificate_matrix[off] * (1 + 1e-12)), window
        bounds.append(rep.certificate_bound)
    for a, b in zip(bounds, bounds[1:]):
        assert abs((a / b) / 10.0 - 1.0) <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, f"sinc bound holds and certificate scales 10x per window decade ({elapsed:.3f}s)")


def test_criterion_04_angular_resolution():
    start = time.perf_counter()
    for n in range(7):
        rep = angular_resolution_check(n)
        assert rep.max_identity_dev <= 1e-12, n
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, f"shell Gram equals the (n+1)^2 identity within 1e-12 for n <= 6 ({elapsed:.3f}s)")


def test_criterion_05_degeneracy_bookkeeping():
    rng = np.random.default_rng(505)
    for n in range(7):
        target = (n + 1) ** 2
        assert shell_dimension(n) == target
        for _ in range(100):
            ob = EulerAngles(
                rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
            )
            assert abs(float(np.sum(np.abs(angular_cs(n, ob).coeffs) ** 2)) - target) <= 1e-12
    _report(5, "shell dimension and norm^2 both equal (n+1)^2 for n <= 6, 100 random labels")


def test_criterion_06_temporal_stability():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = max(
        stability_sweep(EXPONENTIAL, rng, count=25, n_max=12),
        stability_sweep(SQRT_EXPONENTIAL, rng, count=25, n_max=12),
    )
    elapsed = time.perf_counter() - start
    assert worst <= 5e-15
    assert elapsed < 1.0
    _report(6, f"evolution equals label shift to {worst:.2e} over 50 random configs ({elapsed:.3f}s)")


def test_criterion_07_radial_eigenfunctions():
    n_top = 8
    r, w = exp_decay_rule(2.0 / (n_top + 1.0), 96)
    worst = 0.0
    for l in range(n_top + 1):
        funcs = np.array([radial_eigenfunction(n, l, r) for n in range(l, n_top + 1)])
        gram = np.einsum("ar,r,br->ab", funcs, w * r * r, funcs)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(funcs))))))
    assert worst <= 1e-10
    assert abs(radial_eigenfunction(0, 0, 0.0) - 2.0) <= 1e-12
    assert abs(radial_eigenfunction(1, 0, 2.0)) <= 1e-12
    _report(7, f"orthonormality within {worst:.2e}; spot values at 1e-12")


def test_criterion_08_position_space_parseval():
    label = HydrogenLabel(1.0, 0.0, EulerAngles(1.1, 0.7, 2.3))
    state = hydrogen_cs(label, EXPONENTIAL, 8, check_tail=False)
    quad = quadrature_norm_squared(state)
    coeff = float(np.sum(np.abs(state.coeffs) ** 2))
    closed = math.exp(-1.0) * sum((n + 1) ** 2 / math.factorial(n) for n in range(9))
    assert abs(quad - coeff) <= 1e-8
    assert abs(coeff - closed) <= 1e-8
    assert abs(state_norm(label, EXPONENTIAL, 8) ** 2 - closed) <= 1e-8

    ground = hydrogen_cs(HydrogenLabel(0.0, 0.0, EulerAngles(0, 0, 0)), EXPONENTIAL, 0)
    assert abs(radial_expectation(ground, 1) - 1.5) <= 1e-10
    assert abs(radial_expectation(ground, 2) - 3.0) <= 1e-10
    _report(8, f"quadrature norm^2 = {quad:.12f} matches the truncated closed sum within 1e-8")


def test_criterion_09_uncertainty_product():
    ground = hydrogen_cs(HydrogenLabel(0.0, 0.0, EulerAngles(0, 0, 0)), EXPONENTIAL, 0)
    product = radial_uncertainty_product(ground)
    assert abs(product - 0.75) <= 1e-9
    rng = np.random.default_rng(909)
    lowest = math.inf
    for _ in range(20):
        label = HydrogenLabel(
            rng.uniform(0.0, 1.2),
            rng.uniform(-math.pi, math.pi),
            EulerAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)),
        )
        state = hydrogen_cs(label, EXPONENTIAL, 12, check_tail=False)
        lowest = min(lowest, radial_uncertainty_product(state))
    assert lowest >= 0.25
    _report(9, f"ground product = {product:.12f}; random-state minimum {lowest:.4f} >= 0.25")


def test_criterion_10_cli_determinism_and_faults(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--seed", "42", "--out", str(a)]) == 0
    assert main(["verify", "--seed", "42", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    grid = np.linspace(0.0, 60.0, 400)
    moments = [float(math.factorial(n)) for n in range(9)]
    moments[3] *= 1.01
    family_path = tmp_path / "corrupt.json"
    family_path.write_text(
        json.dumps(
            {
                "name": "corrupted",
                "grid_u": list(grid),
                "rho": list(np.exp(-grid)),
                "n_max": 8,
                "moments": moments,
            }
        )
    )
    out = tmp_path / "fault.json"
    assert main(["verify", "--family", str(family_path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert "family-moments" in failing
    detail = next(c["detail"] for c in report["checks"] if c["name"] == "family-moments")
    assert "n=3" in detail
    _report(10, "seeded reports byte-identical; corrupted moment exits 1 naming family-moments")
