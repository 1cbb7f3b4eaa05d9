import csv
import decimal
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcs
from hcs import position
from hcs.angular import EulerAngles
from hcs.cli import (
    _CONFIG_KEYS,
    MEMORY_BUDGET_BYTES,
    RESIDUAL_EPS_PER_RAD,
    RunConfig,
    _build_config,
    _EXPONENTS,
    _LEADS,
    _decimal_digits,
    _format_tables,
    _text_fields,
    estimated_bytes,
    main,
    run_evolve,
    write_csv,
)
from hcs.errors import ConfigurationError
from hcs.hydrogen import HydrogenLabel, evolve_hydrogen, hydrogen_cs
from hcs.position import DENSITY_CSV_HEADER, GridSpec, export_density_grid
from hcs.weights import builtin_family


def _write_corrupt_family(path, bad_index=3, factor=1.01):
    grid = np.linspace(0.0, 60.0, 400)
    moments = [float(math.factorial(n)) for n in range(9)]
    moments[bad_index] *= factor
    payload = {
        "name": "corrupted",
        "grid_u": list(grid),
        "rho": list(np.exp(-grid)),
        "n_max": 8,
        "moments": moments,
    }
    path.write_text(json.dumps(payload))


_TABLE_U = np.linspace(0.0, 60.0, 601).tolist()
_TABLE_RHO = np.exp(-np.array(_TABLE_U)).tolist()
_TABLE_MOMENTS = [float(math.factorial(n)) for n in range(9)]


@pytest.mark.parametrize(
    "field,bad",
    [
        ("n_max", {"n_max": True}),
        ("n_max", {"n_max": 8.9}),
        ("rho", {"rho": _TABLE_RHO[:300] + [math.nan] + _TABLE_RHO[301:]}),
        ("rho", {"rho": _TABLE_RHO[:300] + [math.inf] + _TABLE_RHO[301:]}),
        ("grid_u", {"grid_u": _TABLE_U[:300] + [math.nan] + _TABLE_U[301:]}),
        ("moments", {"moments": _TABLE_MOMENTS[:3] + [math.nan] + _TABLE_MOMENTS[4:]}),
        ("moments", {"moments": _TABLE_MOMENTS[:3] + [-6.0] + _TABLE_MOMENTS[4:]}),
        ("moment table", {"moments": 5.0}),
    ],
    ids=[
        "n_max-bool",
        "n_max-float",
        "rho-nan",
        "rho-inf",
        "grid_u-nan",
        "moments-nan",
        "moments-negative",
        "moments-scalar",
    ],
)
def test_bad_family_file_value_is_config_error(tmp_path, field, bad):
    family = tmp_path / "family.json"
    payload = {"name": "tab-exp", "grid_u": _TABLE_U, "rho": _TABLE_RHO, "n_max": 8, **bad}
    family.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "hcs.cli", "moments", "--family", str(family), "--out", str(tmp_path / "m.json")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert re.search(rf"configuration error: (declared )?{field}\b", proc.stderr)
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "field,bad",
    [
        ("rho", {"rho": {"a": 1}}),
        ("moments", {"moments": {"a": 1}}),
        ("grid_u", {"grid_u": "abc"}),
        ("rho", {"rho": [True] * len(_TABLE_U)}),
    ],
    ids=["rho-object", "moments-object", "grid_u-string", "rho-bools"],
)
def test_non_numeric_family_field_is_config_error(tmp_path, field, bad):
    family = tmp_path / "family.json"
    payload = {"name": "tab-exp", "grid_u": _TABLE_U, "rho": _TABLE_RHO, "n_max": 8, **bad}
    family.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "hcs.cli", "moments", "--family", str(family), "--out", str(tmp_path / "m.json")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert re.search(rf"configuration error: .*\b{field}\b.* must be a flat list of numbers", proc.stderr)
    assert "Traceback" not in proc.stderr


class TestVerify:
    def test_defaults_pass(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out), "--seed", "0"]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert all(c["pass"] for c in report["checks"])
        names = [c["name"] for c in report["checks"]]
        assert "temporal-stability" in names and "hydrogen-resolution" in names

    def test_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--out", str(a), "--seed", "7"]) == 0
        assert main(["verify", "--out", str(b), "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_deep_shells_pass(self, tmp_path):
        # the angular Gram at n_max 24 works per axis, with no (2n+1)^3 point table
        out = tmp_path / "report.json"
        assert main(["verify", "--n-max", "24", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["n_max"] == 24
        assert all(c["pass"] for c in report["checks"])

    def test_azimuth_flipped_mutant_fails_the_report(self, monkeypatch):
        # a flipped azimuth keeps every norm and Gram entry; only angular-coherence sees it
        from hcs import angular, cli

        original = angular._channel_coefficients

        def flipped(l_max, theta_bar, phi_bar, psi_bar):
            return original(l_max, theta_bar, -np.asarray(phi_bar), psi_bar)

        monkeypatch.setattr(angular, "_channel_coefficients", flipped)
        angular.angular_cs.cache_clear()
        try:
            report, code = cli.run_verify(_build_config("verify", {}, {"seed": 0}))
        finally:
            angular.angular_cs.cache_clear()
        assert code == 1
        failed = [c for c in report["checks"] if not c["pass"]]
        assert [c["name"] for c in failed] == ["angular-coherence"]
        assert failed[0]["measured"] > 1.0

    @pytest.mark.parametrize("kind", ["inverse-square", "oscillator"])
    def test_evolution_sign_mutant_fails_temporal_stability(self, monkeypatch, kind):
        # label_cs forms the label phases itself, so conjugating one branch of the evolution
        # moves the evolved states off their shifted labels
        from hcs import cli, fock1d

        original = fock1d.Spectrum.evolution_phases

        def conjugated(self, count, t):
            phases = original(self, count, t)
            return phases.conj() if self.kind == kind else phases

        monkeypatch.setattr(fock1d.Spectrum, "evolution_phases", conjugated)
        for name in ("exponential", "sqrt-exponential"):
            assert cli.stability_sweep(builtin_family(name), np.random.default_rng(0)) > 5e-15
        report, code = cli.run_verify(_build_config("verify", {}, {"seed": 0}))
        assert code == 1
        failed = [c for c in report["checks"] if not c["pass"]]
        assert [c["name"] for c in failed] == ["temporal-stability"]
        assert failed[0]["measured"] > 1.0

    def test_shell_norm_labels_are_the_scalar_draws(self, monkeypatch):
        from hcs import angular, cli

        seen = []
        coefficients = angular._channel_coefficients

        def record(n, *angles):
            seen.append(np.stack(angles, axis=1))
            return coefficients(n, *angles)

        monkeypatch.setattr(angular, "_channel_coefficients", record)
        cfg = _build_config("verify", {}, {})
        cli._checks_shell_norms(cfg, None, np.random.default_rng([0, 4]))
        rng = np.random.default_rng([0, 4])
        assert len(seen) == 7
        for labels in seen:
            scalar = [
                [rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)]
                for _ in range(100)
            ]
            assert labels.tobytes() == np.array(scalar).tobytes()

    def test_coarse_radial_rule_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(position, "_NORM_RULE_NODES", 12)
        assert main(["verify", "--out", str(tmp_path / "r.json")]) == 3
        assert "radial rule of 12 nodes" in capsys.readouterr().err

    def test_parseval_is_relative_to_the_norm(self, tmp_path, monkeypatch):
        # this rule misses the squared norm of about 5 by 1.9e-8: 3.9e-9 relative, inside 1e-8
        monkeypatch.setattr(position, "_NORM_RULE_NODES", 56)
        out = tmp_path / "r.json"
        assert main(["verify", "--out", str(out)]) == 0
        entry = next(c for c in json.loads(out.read_text())["checks"] if c["name"] == "position-parseval")
        assert 1e-9 < entry["measured"] <= 1e-8

    def test_corrupted_moments_fail_named(self, tmp_path):
        family = tmp_path / "corrupt.json"
        _write_corrupt_family(family)
        out = tmp_path / "report.json"
        assert main(["verify", "--family", str(family), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        failing = [c for c in report["checks"] if not c["pass"]]
        assert any(c["name"] == "family-moments" and "n=3" in c["detail"] for c in failing)

    def test_node_count_keys_are_unknown(self, tmp_path, capsys):
        # the angular rule always runs at its exactness threshold 2n+1
        cfg = tmp_path / "config.json"
        for key in ("theta_nodes", "phi_nodes", "psi_nodes"):
            cfg.write_text(json.dumps({key: 40}))
            assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
            err = capsys.readouterr().err
            assert f"unknown config keys: {key}" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_unknown_family(self, tmp_path):
        assert main(["verify", "--family", "nope", "--out", str(tmp_path / "r.json")]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n_mxa": 4}))
        assert main(["verify", "--config", str(cfg)]) == 2

    def test_non_list_grid_axis(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": {"r": 5}}))
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == 2
        assert "grid.r must be a list of numbers" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seed": 1, "gamma_window": 1e4}))
        out = tmp_path / "r.json"
        assert main(["verify", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["seed"] == 9
        assert report["gamma_window"] == 1e4


class TestMoments:
    def test_sqrt_exponential_table(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["moments", "--family", "sqrt-exponential", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for row in report["moments"]:
            assert row["stored"] == float(math.factorial(2 * row["n"] + 1))
            assert row["rel_dev"] <= 1e-9

    def test_corrupted_table_exits_one(self, tmp_path):
        family = tmp_path / "corrupt.json"
        _write_corrupt_family(family)
        out = tmp_path / "m.json"
        assert main(["moments", "--family", str(family), "--n-max", "8", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert any(c["name"] == "family-moments" and not c["pass"] for c in report["checks"])

    def test_vanishing_weight_names_the_grid_rule(self, tmp_path, capsys):
        # a grid family integrates over its cells, whatever node count a built-in would take
        family = tmp_path / "zero.json"
        family.write_text(json.dumps({"name": "zero", "grid_u": _TABLE_U, "rho": [0.0] * 601, "n_max": 4}))
        out = tmp_path / "m.json"
        assert main(["moments", "--family", str(family), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "quadrature for rho_0 returned 0.0 with the 600-cell x 8-point composite rule on grid_u" in err
        assert "nodes" not in err and not out.exists()

    def test_one_moment_table(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["moments", "--n-max", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert [row["n"] for row in report["moments"]] == [0]

    @pytest.mark.parametrize("family,limit", [("exponential", 126), ("sqrt-exponential", 63)])
    def test_n_max_past_the_quadrature_cap_names_n_max(self, tmp_path, capsys, family, limit):
        out = tmp_path / "m.json"
        assert main(["moments", "--family", family, "--n-max", str(limit + 1), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"n_max = {limit + 1} is past {limit}" in err and "Traceback" not in err
        assert not out.exists()
        assert main(["moments", "--family", family, "--n-max", str(limit), "--out", str(out)]) == 0


class TestEval:
    def test_ground_state_rows(self, tmp_path):
        out = tmp_path / "density.csv"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": {"r": [0.5, 1.0, 2.0], "theta": [0.9], "phi": [0.0]}}))
        assert main(["eval", "--config", str(cfg), "--s", "0", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,r,theta,phi,re_psi,im_psi,density"
        assert len(lines) == 4
        for line in lines[1:]:
            fields = [float(v) for v in line.split(",")]
            assert fields[6] == pytest.approx(math.exp(-2 * fields[1]) / math.pi, rel=1e-12)

    def test_file_matches_reference_writer(self, tmp_path):
        # 2 times x 24 x 16 x 16 points = 12,288 rows, three formatting blocks
        grid = {
            "r": np.linspace(0.25, 20.0, 24).tolist(),
            "theta": np.linspace(0.0, math.pi, 16).tolist(),
            "phi": (2 * math.pi * np.arange(16) / 16).tolist(),
        }
        config = {"n_max": 24, "s": 0.9, "gamma": 0.4, "theta_bar": 1.1, "phi_bar": 0.7}
        config.update({"psi_bar": 2.3, "omega": 1.3, "times": [0.0, 3.7], "grid": grid})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "density.csv"
        assert main(["eval", "--config", str(path), "--out", str(out)]) == 0

        label = HydrogenLabel(0.9, 0.4, EulerAngles(1.1, 0.7, 2.3))
        state = hydrogen_cs(label, builtin_family("exponential"), 24)
        axes = GridSpec(grid["r"], grid["theta"], grid["phi"])
        psi = export_density_grid(state, axes, [0.0, 3.7], 1.3)
        assert psi.shape == (12288,)
        _reference_csv(tmp_path / "reference.csv", DENSITY_CSV_HEADER, _density_rows([0.0, 3.7], axes, psi))
        assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_pole_samples_repeat_along_phi(self, tmp_path):
        # at theta = 0 only m = 0 survives, so each (t, r) repeats one psi along phi
        grid = {"r": [0.5, 1.0, 3.0], "theta": [0.0, 1.0], "phi": [0.0, 1.5, 3.0, 4.5]}
        config = {"s": 0.8, "gamma": 0.4, "theta_bar": 1.1, "phi_bar": 0.7, "psi_bar": 2.3}
        config.update({"times": [0.0, 1.5], "grid": grid})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "density.csv"
        assert main(["eval", "--config", str(path), "--out", str(out)]) == 0

        state = hydrogen_cs(HydrogenLabel(0.8, 0.4, EulerAngles(1.1, 0.7, 2.3)), builtin_family("exponential"), 24)
        axes = GridSpec(grid["r"], grid["theta"], grid["phi"])
        psi = export_density_grid(state, axes, [0.0, 1.5])
        pole = psi.reshape(2, 3, 2, 4)[:, :, 0, :]
        assert np.all(pole == pole[..., :1]) and len(np.unique(pole)) == 6
        _reference_csv(tmp_path / "reference.csv", DENSITY_CSV_HEADER, _density_rows([0.0, 1.5], axes, psi))
        assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_truncation_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "density.csv"
        assert main(["eval", "--s", "2.5", "--n-max", "8", "--out", str(out)]) == 3
        assert "truncation" in capsys.readouterr().err.lower()

    def test_unconverged_family_series_is_numerical_failure(self, tmp_path, capsys):
        # a 7-moment table sums M^2 from 7 terms: at s^2 = 4 the last is 0.117 of the sum
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"name": "tab-exp", "grid_u": _TABLE_U, "rho": _TABLE_RHO, "n_max": 6}))
        out = tmp_path / "density.csv"
        assert main(["eval", "--family", str(family), "--s", "2", "--out", str(out)]) == 3
        assert "normalization series tail at u=4.0 not converged" in capsys.readouterr().err

    def test_underflowing_m_squared_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "density.csv"
        assert main(["eval", "--s", "50", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "M^2(s^2)" in err
        assert not out.exists()

    def test_far_radius_at_deep_shell_is_finite(self, tmp_path):
        # r = 5e5 lies inside 2 N^2 of shell 600, where the Laguerre recurrence used to overflow
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": {"r": [1, 500000], "theta": [1], "phi": [0.5]}}))
        out = tmp_path / "density.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--n-max", "600", "--s", "3", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 and np.all(np.isfinite(rows))


def _reference_csv(path, header, rows):
    """The per-row CSV writer whose bytes ``write_csv`` keeps: csv.writer, %.17g per value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" for v in row])


def _density_rows(times, grid, psi):
    """The eval CSV's rows (t, r, theta, phi, Re psi, Im psi, |psi|^2), t-major."""
    axes = np.meshgrid(times, grid.r, grid.theta, grid.phi, indexing="ij")
    return np.column_stack([axis.ravel() for axis in axes] + [psi.real, psi.imag, np.abs(psi) ** 2])


_AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
_AWKWARD += [math.nan, math.inf, -math.inf, 1.0, 0.1, -2.5, 1e-300, 123456789.0]


def _awkward_rows(n_rows, n_cols, seed=5):
    """Rows over a small value pool (repeats within and across rows) plus random fill."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([_AWKWARD, rng.standard_normal(64) * 10.0 ** rng.integers(-20, 20, 64)])
    values = rng.choice(pool, size=(n_rows, n_cols))
    values[:, -1] = rng.standard_normal(n_rows)
    # both zeros in one column of one block, and again across the block boundary
    values[:4, 0] = [-0.0, 0.0, 0.0, -0.0]
    values[4094:4098, 1] = [0.0, -0.0, -0.0, 0.0]
    return values


class TestWriteCsv:
    @pytest.mark.parametrize("kind", ["array", "tuples"])
    def test_bytes_match_reference_writer(self, tmp_path, kind):
        # plain columns: numpy arrays, or python lists of the row tuples' values
        values = _awkward_rows(5000, 7 if kind == "array" else 5)
        rows = values if kind == "array" else [tuple(row) for row in values.tolist()]
        columns = list(values.T) if kind == "array" else [list(column) for column in zip(*rows)]
        header = [f"c{i}" for i in range(values.shape[1])]
        write_csv(tmp_path / "block.csv", header, columns)
        _reference_csv(tmp_path / "reference.csv", header, rows)
        written = (tmp_path / "block.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        for text in (b"\r\n-0,", b"\r\n0,", b",-0,", b"4.9406564584124654e-324", b"e+308", b"nan", b"-inf"):
            assert text in written

    def test_header_only(self, tmp_path):
        write_csv(tmp_path / "empty.csv", ("t", "x", "y"), [([0.5], np.empty(0, int)), np.empty(0), []])
        assert (tmp_path / "empty.csv").read_bytes() == b"t,x,y\r\n"

    @pytest.mark.parametrize(
        "levels,n_rows",
        [
            ([-0.0, 0.0], 300),
            ([2.5, -1e-7, 2.5, 2.5], 300),
            ([math.nan, math.inf, -math.inf, 1e300], 300),
            ([0.1, 7.0], 0),
            ([0.1, -3e-5, 1e22], 4096),
            ([0.1, -3e-5, 1e22], 4097),
        ],
        ids=["signed-zeros", "repeated-level", "non-finite", "no-rows", "one-block", "one-block-and-a-row"],
    )
    def test_coded_column_matches_expanded_column(self, tmp_path, levels, n_rows):
        rng = np.random.default_rng(n_rows)
        codes = rng.integers(0, len(levels), n_rows)
        expanded = np.array(levels)[codes]
        plain = rng.standard_normal(n_rows)
        write_csv(tmp_path / "coded.csv", ("a", "b", "c"), [(levels, codes), plain, (levels, codes[::-1])])
        write_csv(tmp_path / "expanded.csv", ("a", "b", "c"), [expanded, plain, expanded[::-1]])
        _reference_csv(tmp_path / "reference.csv", ("a", "b", "c"), zip(expanded, plain, expanded[::-1]))
        written = (tmp_path / "coded.csv").read_bytes()
        assert written == (tmp_path / "expanded.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert written.count(b"\r\n") == n_rows + 1


# a fresh writer's minor page faults over 65,536 rows of the eval columns (16 blocks)
_HEAP_CHILD = """
import resource, sys
import numpy as np
from hcs.cli import write_csv
codes = np.indices((2, 8, 64, 64), dtype=np.int32).reshape(4, -1)
levels = [np.linspace(0.0, 1.0, size) for size in (2, 8, 64, 64)]
psi = np.random.default_rng(0).standard_normal((2, codes.shape[1]))
columns = [*zip(levels, codes), psi[0], psi[1], psi[0] ** 2 + psi[1] ** 2]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
write_csv(sys.argv[1], "t r theta phi re im density".split(), columns)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's dynamic mmap threshold")
def test_writer_blocks_reuse_heap_pages(tmp_path):
    # measured 847 faults (the formatter tables and the first block's pages); with each block's
    # temporaries unmapped or trimmed and faulted in again, 4746: the bound sits 2.4x from each
    child = [sys.executable, "-c", _HEAP_CHILD, str(tmp_path / "heap.csv")]
    proc = subprocess.run(child, capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2000


def _vector_text(values):
    """The formatter's text of each value, field padding dropped."""
    text = _text_fields(np.asarray(values, dtype=float))
    text[:, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def _mismatches(values):
    values = np.asarray(values, dtype=float)
    mismatched = []
    for start in range(0, len(values), 100_000):  # bounded memory at a million values
        chunk = values[start : start + 100_000].tolist()
        mismatched += [(v, t) for v, t in zip(chunk, _vector_text(chunk)) if t != "%.17g" % v]
    return mismatched


def _powers_of_ten():
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    return np.concatenate([powers, below, above, -powers, -below, -above])


_FORMAT_EDGES = [1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0, 9999999999999998.0, 0.0001, 0.00001]
_FORMAT_EDGES += [123456789012345678.0, 1234567890123456.7, 0.5, 100.0, 1e100, 1e-100, 1e280, 1e-280]
# exact ties: 18 significant digits, the last a 5
_TIES = [1 + 2**-17, 1 + 3 * 2**-17, -(1 + 77 * 2**-17), 9 + 2**-17]


class TestFormatter:
    """Every text the vector formatter writes is byte for byte that of "%.17g" % v."""

    def test_powers_of_ten_and_neighbours(self):
        values = _powers_of_ten()
        assert _mismatches(values) == []
        certified = _decimal_digits(values)[2]
        assert certified.any() and not certified.all()

    def test_notation_edges(self):
        edges = np.array(_FORMAT_EDGES)
        values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        assert _mismatches(np.concatenate([values, -values])) == []

    def test_exact_ties_take_the_fallback(self):
        values = np.array(_TIES)
        for v in _TIES:
            digits = decimal.Decimal(v).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        assert _vector_text([1 + 2**-17]) == ["1.0000076293945312"]
        assert not _decimal_digits(values)[2].any()
        assert _mismatches(values) == []

    def test_special_values(self):
        nan_with_sign = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float)
        special = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        special += [math.inf, -math.inf, math.nan, *nan_with_sign.tolist()]
        assert _vector_text(special) == ["0", "-0", "4.9406564584124654e-324", "-4.9406564584124654e-324",
                                         "1.7976931348623157e+308", "-1.7976931348623157e+308",
                                         "inf", "-inf", "nan", "nan", "nan"]
        assert not _decimal_digits(np.array(special))[2].any()

    def test_million_random_bit_patterns(self):
        values = np.random.default_rng(2024).integers(0, 2**64, 10**6, dtype=np.uint64).view(float)
        certified = _decimal_digits(values)[2]
        # the vector path carries most patterns; NaN, inf and subnormals fall back
        assert 0.85 < certified.mean() < 0.95
        assert _mismatches(values) == []

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=20))
    def test_any_floats(self, values):
        assert _mismatches(values) == []

    def test_digit_patterns_match_the_string_construction(self):
        # the 4-digit groups and exponents come from integer arithmetic, bit for bit "%04d" and "%+04d"
        patterns = _format_tables()[1].view(np.uint8).reshape(-1, 8)
        groups = np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), np.uint8).reshape(-1, 4)
        exponents = np.frombuffer("".join(f"{j:+04d}" for j in range(-400, 401)).encode(), np.uint8)
        assert np.array_equal(patterns[:_LEADS, ::2], groups)
        assert np.array_equal(patterns[_EXPONENTS - 400 :, :4], exponents.reshape(-1, 4))
        assert np.all(patterns[:_LEADS, 1::2] == 255) and np.all(patterns[_EXPONENTS - 400 :, 4:] == 255)


class TestEvolve:
    def test_residual_column_within_contract(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--s", "0.8", "--gamma", "0.3", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,residual,re_autocorr,im_autocorr,abs_autocorr"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert all(row[1] <= 5e-15 for row in rows)
        assert rows[0][4] == pytest.approx(1.0, abs=1e-12)
        assert all(row[4] <= 1.0 + 1e-12 for row in rows)

    def test_large_phase_stays_within_its_bound(self, tmp_path):
        # eps |gamma + omega t| = 2.2e-8 rad: usable phases, a residual far above 5e-15
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--gamma", "1e8", "--out", str(out)]) == 0
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
        bounds = [RESIDUAL_EPS_PER_RAD * np.finfo(float).eps * abs(1e8 + t) for t, *_ in rows]
        assert all(row[1] <= bound for row, bound in zip(rows, bounds))
        assert max(row[1] for row in rows) > 5e-15

    def test_residual_breach_exits_one_and_names_the_row(self, tmp_path, capsys, monkeypatch):
        from hcs import hydrogen

        residual = hydrogen._coefficient_residual
        calls = []

        def breach_at_one(*args):  # the third time, t = 1
            calls.append(None)
            return 1e-9 if len(calls) == 3 else residual(*args)

        monkeypatch.setattr(hydrogen, "_coefficient_residual", breach_at_one)
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "row 3 (t = 1): residual 1e-09 above its bound" in err and err.count("evolve: row") == 1
        assert len(out.read_text().splitlines()) == 12

    def test_autocorrelation_matches_the_flat_vdot(self):
        cfg = _build_config("evolve", {"n_max": 48, "s": 3.0, "gamma": 0.4, "theta_bar": 1.1, "phi_bar": 0.7}, {})
        rows, code = run_evolve(cfg)
        assert code == 0
        state = hydrogen_cs(cfg.label(), builtin_family("exponential"), 48)
        flat = state.coeffs

        def vdot(a, b):
            # exactly summed: np.vdot's own running sum is off by up to 1.1e-15 here
            products = np.conj(a) * b
            return complex(math.fsum(products.real), math.fsum(products.imag))

        for t, _, re_auto, im_auto, _ in rows:
            expected = vdot(flat, evolve_hydrogen(state, cfg.omega, t).coeffs) / vdot(flat, flat).real
            assert abs(complex(re_auto, im_auto) - expected) <= 1e-15

    def test_last_finite_angular_shell_bounds_n_max(self, tmp_path, capsys):
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--n-max", "1027", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "shell 1027 is past 1026" in err and "Traceback" not in err
        assert not out.exists()

    def test_oversize_shell_is_refused_before_any_per_shell_work(self, tmp_path, capsys, monkeypatch):
        from hcs import hydrogen

        def per_shell_work(*args, **kwargs):
            raise AssertionError("shell amplitudes built before the shell limit was checked")

        monkeypatch.setattr(hydrogen, "label_cs", per_shell_work)
        out = tmp_path / "evolve.csv"
        for n_max in ("1027", "20000000"):
            assert main(["evolve", "--n-max", n_max, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"shell {n_max} is past 1026" in err and "Traceback" not in err
        assert not out.exists()

    def test_repeated_time_repeats_its_row(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n_max": 48, "s": 3.0, "times": [0.5, 2.0, 0.5]}))
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert rows[0] == rows[2] != rows[1]

    @pytest.mark.parametrize("command", ["evolve", "eval"])
    @pytest.mark.parametrize("flag", ["--gamma=1e17", "--omega=1e300", "--gamma=-5e9"])
    def test_phase_without_digits_is_config_error(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out.csv"
        times = tmp_path / "config.json"
        times.write_text(json.dumps({"times": [0.0, 5.0]}))
        assert main([command, flag, "--config", str(times), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{flag[2:flag.index('=')]} too large" in err and "phase accuracy" in err
        assert not out.exists()


class TestMemoryBudget:
    def test_estimates_stay_below_the_budget_for_default_runs(self):
        for command in ("verify", "eval", "evolve", "moments"):
            assert estimated_bytes(_build_config(command, {}, {})) < 2**20

    def test_verify_budget_admits_n_max_80(self):
        # 734 MiB measured at n_max 64
        assert 734 * 2**20 < estimated_bytes(_build_config("verify", {}, {"n_max": 64})) < 2**30
        assert estimated_bytes(_build_config("verify", {}, {"n_max": 80})) <= MEMORY_BUDGET_BYTES
        with pytest.raises(ConfigurationError, match="memory budget"):
            _build_config("verify", {}, {"n_max": 81})

    def test_deep_verify_refused_before_any_math(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--n-max", "200", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "run too large" in err and "72.97 GiB" in err and "Traceback" not in err
        assert not out.exists()

    def test_eval_rows_count_against_the_budget(self, tmp_path, capsys):
        # 6e7 rows of psi, codes and |psi|^2 pass the budget on their own
        grid = {"r": [1.0] * 1000, "theta": [0.5] * 1000, "phi": [0.0] * 60}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": grid}))
        run = RunConfig("eval", grid_r=grid["r"], grid_theta=grid["theta"], grid_phi=grid["phi"], times=(0.0,))
        assert estimated_bytes(run) > 40 * 6e7 > MEMORY_BUDGET_BYTES
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == 2
        assert "memory budget" in capsys.readouterr().err

    def test_eval_angle_tables_count_against_the_budget(self, tmp_path, capsys):
        # 3e5 rows, but a power table of 601 powers of xi at 3e5 angles
        grid = {"r": [1.0], "theta": [0.5] * 1000, "phi": [0.0] * 300}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": grid}))
        run = RunConfig("eval", n_max=600, grid_r=grid["r"], grid_theta=grid["theta"], grid_phi=grid["phi"], times=(0.0,))
        assert estimated_bytes(run) > 16 * 601 * 3e5 > MEMORY_BUDGET_BYTES > 100 * 40 * 3e5
        assert main(["eval", "--n-max", "600", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == 2
        assert "memory budget" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
    def test_deep_eval_runs_within_its_estimate(self, tmp_path):
        # n_max 96 on 16x64x128 at one time (131,072 rows): a Ylm table there was 1.2 GB and the
        # run was refused at 2.31 GiB; the peak measured 15 MiB above an n_max 0 run, estimate 22 MiB
        grid = {
            "r": [0.5 + 2.0 * i for i in range(16)],
            "theta": [math.pi * i / 63 for i in range(64)],
            "phi": [2 * math.pi * i / 128 for i in range(128)],
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": grid}))

        def peak_bytes(out, *args):
            child = [sys.executable, "-c", _PEAK_CHILD, "eval", *args, "--out", str(out)]
            proc = subprocess.run(child, capture_output=True, text=True, env=_child_env())
            assert proc.returncode == 0, proc.stderr
            return int(proc.stdout.split()[-1])

        estimate = estimated_bytes(_build_config("eval", {"grid": grid}, {"n_max": 96}))
        assert estimate < 2**25
        deep, small = tmp_path / "deep.csv", tmp_path / "small.csv"
        assert peak_bytes(deep, "--n-max", "96", "--config", str(cfg)) - peak_bytes(small, "--n-max", "0", "--s", "0") < estimate
        assert sum(1 for _ in open(deep, "rb")) == 131_073

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
    def test_evolve_builds_no_per_channel_array(self, tmp_path):
        # at the last admitted shell one complex channel vector would be 16.9 MB; the peak measured
        # within 0.4 MiB of an n_max 0 run
        def peak_bytes(n_max):
            args = ["evolve", "--n-max", str(n_max), "--s", str(3 * min(n_max, 1)), "--theta-bar", "1.1"]
            proc = subprocess.run(
                [sys.executable, "-c", _PEAK_CHILD, *args, "--out", str(tmp_path / "e.csv")],
                capture_output=True,
                text=True,
                env=_child_env(),
            )
            assert proc.returncode == 0, proc.stderr
            return int(proc.stdout.split()[-1])

        assert estimated_bytes(_build_config("evolve", {}, {"n_max": 1026})) == 0
        assert peak_bytes(1026) - peak_bytes(0) < 2**21


# VmHWM, not ru_maxrss: a child's ru_maxrss counts the resident size of the
# process that forked it
_PEAK_CHILD = """
import sys
from hcs.cli import main
assert main(sys.argv[1:]) == 0
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) * 1024)
"""


@pytest.mark.parametrize("command", ["verify", "moments", "eval", "evolve"])
def test_unwritable_out_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out"
    assert main([command, "--n-max", "2", "--s", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: cannot write" in err and str(out) in err
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "command,config,field",
    [
        ("verify", {"s": "abc"}, "s"),
        ("eval", {"s": "abc"}, "s"),
        ("evolve", {"s": "abc"}, "s"),
        ("moments", {"s": "abc"}, "s"),
        ("eval", {"gamma": None}, "gamma"),
        ("verify", {"n_max": True}, "n_max"),
        ("verify", {"radial_nodes": 96}, "radial_nodes"),  # the radial rule is fixed: an unknown key
        ("verify", {"gamma_window": math.inf}, "gamma_window"),
        ("eval", {"s": math.nan}, "s"),
        ("eval", {"times": []}, "times"),
        ("evolve", {"times": []}, "times"),
        ("evolve", {"times": None}, "times"),
    ],
)
def test_bad_config_value_is_config_error(tmp_path, capsys, command, config, field):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    message = rf"\b{field} must be" if field in _CONFIG_KEYS else rf"unknown config keys: {field}\b"
    assert re.search(message, err) and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "evolve"])
def test_integer_s_past_the_double_range_is_numerical_failure(tmp_path, capsys, command):
    # a JSON integer s = 10^300: s^2 passes the double range, as the float 1e300 does
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"s": 10**300}))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err
    assert not out.exists()


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["verify", "eval", "evolve", "moments"]),
    file_cfg=st.dictionaries(st.sampled_from(sorted(_CONFIG_KEYS)), _JSON_SCALARS, max_size=6),
)
def test_build_config_types_or_config_error(command, file_cfg):
    try:
        cfg = _build_config(command, file_cfg, {})
    except ConfigurationError:
        return
    for name in ("n_max", "seed"):
        assert type(getattr(cfg, name)) is int and getattr(cfg, name) >= 0
    for name in ("s", "gamma", "theta_bar", "phi_bar", "psi_bar", "omega", "gamma_window"):
        value = getattr(cfg, name)
        assert type(value) in (int, float) and math.isfinite(value)
    assert isinstance(cfg.family, str) and isinstance(cfg.out, str)
    assert cfg.times and all(type(t) is float and math.isfinite(t) for t in cfg.times)


# plausible configs with edge values; poison then sets up to two keys, known or stray, to the
# wrong type, NaN or inf
_FLOAT = st.floats(-1e3, 1e3) | st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10, 10)
_AXIS = st.lists(st.floats(0.0, 50.0), max_size=4, unique=True).map(sorted) | st.lists(_FLOAT, max_size=4)
_PLAUSIBLE = st.fixed_dictionaries(
    {},
    optional={
        "family": st.sampled_from(["exponential", "sqrt-exponential", "no-such-family"]),
        "n_max": st.integers(-1, 6),
        "s": st.floats(0.0, 3.0) | _FLOAT,
        "theta_bar": st.floats(0.0, math.pi) | _FLOAT,
        **{name: _FLOAT for name in ("gamma", "phi_bar", "psi_bar")},
        **{name: st.floats(1e-3, 1e3) | _FLOAT for name in ("omega", "gamma_window")},
        "seed": st.integers(-1, 2**64),
        "grid": st.fixed_dictionaries({}, optional={axis: _AXIS for axis in ("r", "theta", "phi")}),
        "times": st.lists(st.floats(-50.0, 50.0) | _FLOAT, max_size=3),
    },
)
_ODD = (
    st.none() | st.booleans() | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=3)
    | st.lists(st.integers(0, 3) | st.sampled_from([math.nan, True]), max_size=2) | st.just({})
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["verify", "eval", "evolve", "moments"]),
    file_cfg=_PLAUSIBLE,
    poison=st.dictionaries(st.sampled_from(sorted(_CONFIG_KEYS - {"out"})) | st.text(max_size=4), _ODD, max_size=2),
)
def test_main_exits_with_a_documented_code(tmp_path_factory, command, file_cfg, poison):
    # the whole CLI on a hostile config: a documented exit code, never a traceback
    folder = tmp_path_factory.mktemp("fuzz")
    cfg = folder / "config.json"
    cfg.write_text(json.dumps({**file_cfg, **poison}))
    assert main([command, "--config", str(cfg), "--out", str(folder / "out")]) in (0, 1, 2, 3)


def test_console_entry_point(tmp_path):
    out = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "hcs.cli", "moments", "--family", "exponential", "--out", str(out)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["passed"] is True


def _child_env():
    """Environment whose python imports the same hcs as this process, installed or not."""
    package_root = os.path.dirname(os.path.dirname(hcs.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


_SCIPY_BLOCKED_CHILD = """
import json, sys
sys.modules["scipy"] = None  # from here on, any scipy import raises ImportError
import numpy as np
import hcs, hcs.cli
codes = [
    hcs.cli.main(["verify", "--out", "v.json"]),
    hcs.cli.main(["eval", "--out", "e.csv"]),
    hcs.cli.main(["evolve", "--out", "t.csv"]),
    hcs.cli.main(["moments", "--out", "m.json"]),
]
grid = np.linspace(0.0, 40.0, 200)
family = hcs.tabulated_family("tab", grid, np.exp(-grid), 4)
codes.append(0 if abs(family.moment(2) - 2.0) < 1e-4 else 1)
loaded = sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded, "blocked": sys.modules["scipy"] is None}))
"""


def test_runs_with_scipy_blocked(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED_CHILD],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0, 0], "scipy": ["scipy"], "blocked": True}


_IMPORT_CHILD = """
import json, sys
import hcs
lazy = "hcs.cli" not in sys.modules
import hcs.cli
caches = (
    hcs.cli._format_tables,
    hcs.angular._theta_weights,
    hcs.angular._channels,
    hcs.angular.angular_cs,
    hcs.position._radial_operators,
    hcs.position._shell_operators,
)
print(json.dumps({"cli_lazy": lazy, "tables": [cache.cache_info().currsize for cache in caches]}))
"""


def test_import_builds_no_formatter_table():
    # nor any per-n_max table: each is built on first use
    child = [sys.executable, "-c", _IMPORT_CHILD]
    proc = subprocess.run(child, capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"cli_lazy": True, "tables": [0, 0, 0, 0, 0, 0]}


_STATE_BYTES_CHILD = """
import hashlib, sys
from hcs.angular import EulerAngles
from hcs.hydrogen import HydrogenLabel, evolve_hydrogen, hydrogen_cs
from hcs.weights import builtin_family
for theta_bar in sys.argv[1:]:
    label = HydrogenLabel(0.7, 0.3, EulerAngles(float(theta_bar), 1.0, 2.0))
    print(hashlib.sha256(hydrogen_cs(label, builtin_family("exponential"), 6, check_tail=False).coeffs.tobytes()).hexdigest())
"""


def test_signed_zero_labels_give_fresh_process_bytes_in_either_order():
    # +0.0 and -0.0 are equal labels and share one cache entry, so they must give equal bytes
    def state_bytes(*thetas):
        child = [sys.executable, "-c", _STATE_BYTES_CHILD, *thetas]
        proc = subprocess.run(child, capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    fresh = {theta: state_bytes(theta) for theta in ("0.0", "-0.0")}
    assert state_bytes("0.0", "-0.0") == fresh["0.0"] + fresh["-0.0"]
    assert state_bytes("-0.0", "0.0") == fresh["-0.0"] + fresh["0.0"]
    assert math.copysign(1.0, EulerAngles(-0.0, 0.0, 0.0).theta_bar) == 1.0


def test_evolve_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the residual and autocorrelation are shell sums; neither may depend on the thread count
    traces = []
    for threads in ("1", "2"):
        out = tmp_path / f"evolve-{threads}.csv"
        command = [sys.executable, "-m", "hcs.cli", "evolve", "--n-max", "48", "--s", "3", "--out", str(out)]
        proc = subprocess.run(command, capture_output=True, text=True, env={**_child_env(), "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        traces.append(out.read_bytes())
    assert traces[0] == traces[1]
