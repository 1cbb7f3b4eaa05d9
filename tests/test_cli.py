import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcs
from hcs.angular import EulerAngles
from hcs.cli import _CONFIG_KEYS, _build_config, main, write_csv
from hcs.errors import ConfigurationError
from hcs.fock1d import Spectrum
from hcs.hydrogen import HydrogenLabel, hydrogen_cs
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

    def test_threads_do_not_change_bytes(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--out", str(a), "--seed", "3"]) == 0
        monkeypatch.setenv("HCS_THREADS", "4")
        assert main(["verify", "--out", str(b), "--seed", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_corrupted_moments_fail_named(self, tmp_path):
        family = tmp_path / "corrupt.json"
        _write_corrupt_family(family)
        out = tmp_path / "report.json"
        assert main(["verify", "--family", str(family), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        failing = [c for c in report["checks"] if not c["pass"]]
        assert any(c["name"] == "family-moments" and "n=3" in c["detail"] for c in failing)

    def test_node_threshold_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"psi_nodes": 4}))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        assert "exactness threshold" in capsys.readouterr().err

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
        rows = export_density_grid(state, axes, [0.0, 3.7], Spectrum("inverse-square", 1.3))
        assert rows.shape == (12288, 7)
        _reference_csv(tmp_path / "reference.csv", DENSITY_CSV_HEADER, rows)
        assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_truncation_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "density.csv"
        assert main(["eval", "--s", "2.5", "--n-max", "8", "--out", str(out)]) == 3
        assert "truncation" in capsys.readouterr().err.lower()


def _reference_csv(path, header, rows):
    """The per-row CSV writer whose bytes ``write_csv`` keeps: csv.writer, %.17g per value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" for v in row])


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
        values = _awkward_rows(5000, 7 if kind == "array" else 5)
        rows = values if kind == "array" else [tuple(row) for row in values.tolist()]
        header = [f"c{i}" for i in range(values.shape[1])]
        write_csv(tmp_path / "block.csv", header, rows)
        _reference_csv(tmp_path / "reference.csv", header, rows)
        written = (tmp_path / "block.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        for text in (b"\r\n-0,", b"\r\n0,", b",-0,", b"4.9406564584124654e-324", b"e+308", b"nan", b"-inf"):
            assert text in written

    def test_header_only(self, tmp_path):
        write_csv(tmp_path / "empty.csv", ("t", "x"), [])
        assert (tmp_path / "empty.csv").read_bytes() == b"t,x\r\n"


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
        ("verify", {"radial_nodes": True}, "radial_nodes"),
        ("verify", {"gamma_window": math.inf}, "gamma_window"),
        ("eval", {"s": math.nan}, "s"),
    ],
)
def test_bad_config_value_is_config_error(tmp_path, capsys, command, config, field):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"\b{field} must be", err) and "Traceback" not in err
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
    for name in ("n_max", "seed", "radial_nodes"):
        assert type(getattr(cfg, name)) is int and getattr(cfg, name) >= 0
    for name in ("theta_nodes", "phi_nodes", "psi_nodes"):
        value = getattr(cfg, name)
        assert value is None or (type(value) is int and value >= 1)
    for name in ("s", "gamma", "theta_bar", "phi_bar", "psi_bar", "omega", "gamma_window"):
        value = getattr(cfg, name)
        assert type(value) in (int, float) and math.isfinite(value)
    assert isinstance(cfg.family, str) and isinstance(cfg.out, str)
    assert cfg.times and all(type(t) is float and math.isfinite(t) for t in cfg.times)


def test_console_entry_point(tmp_path):
    out = tmp_path / "m.json"
    # the child imports the same hcs as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(hcs.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hcs.cli", "moments", "--family", "exponential", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["passed"] is True
