"""Output gates: each returns the list of problems found, empty when the output passes.

These are consistency checks on what the program wrote, not an independent
oracle: a verify report must pass every entry, an eval CSV must hold the
requested grid in t-major order and agree with the library on sampled rows,
and a library state must satisfy its own identities.
"""

from __future__ import annotations

import json
import math

import numpy as np

DENSITY_HEADER = "t,r,theta,phi,re_psi,im_psi,density"
SAMPLED_ROWS = 64


def check_verify(code: int, report: bytes, seed: int, n_max: int) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"verify exited {code}")
    try:
        payload = json.loads(report)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if payload.get("seed") != seed or payload.get("n_max") != n_max:
        problems.append(f"report is for seed {payload.get('seed')} n_max {payload.get('n_max')}")
    if payload.get("passed") is not True:
        problems.append("report says passed != true")
    checks = payload.get("checks") or []
    if not checks:
        problems.append("report has no checks")
    for entry in checks:
        if entry.get("pass") is not True:
            problems.append(f"check {entry.get('name')} failed: {entry.get('measured')}")
    return problems


def eval_axes(config: dict) -> tuple[np.ndarray, ...]:
    """Expected (t, r, theta, phi) columns of the export, in t-major order."""
    grid = config["grid"]
    t, r, theta, phi = np.meshgrid(
        config["times"], grid["r"], grid["theta"], grid["phi"], indexing="ij"
    )
    return t.ravel(), r.ravel(), theta.ravel(), phi.ravel()


def check_eval(code: int, csv_path, config: dict, reference, rng) -> tuple[list[str], int]:
    """Gate one ``hcs eval`` export; returns (problems, rows read).

    ``reference(config, t, r, theta, phi)`` gives the library's complex
    wavefunction at aligned sample points.
    """
    if code != 0:
        return [f"eval exited {code}"], 0
    with open(csv_path) as fh:
        header = fh.readline().strip()
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            return [f"unreadable CSV: {exc}"], 0
    problems = []
    if header != DENSITY_HEADER:
        problems.append(f"header {header!r}")
    expected = eval_axes(config)
    rows = data.shape[0]
    if rows != expected[0].size or data.shape[1] != 7:
        return problems + [f"{rows} rows x {data.shape[1]} columns, expected {expected[0].size} x 7"], rows
    for col, (name, want) in enumerate(zip(("t", "r", "theta", "phi"), expected)):
        if not np.array_equal(data[:, col], want):
            problems.append(f"column {name} is not the t-major grid")
    re, im, density = data[:, 4], data[:, 5], data[:, 6]
    modulus = re * re + im * im
    bad = np.abs(density - modulus) > 1e-12 * np.maximum(density, modulus)
    if bad.any():
        problems.append(f"density != re^2 + im^2 on {int(bad.sum())} rows")
    picks = rng.choice(rows, size=min(SAMPLED_ROWS, rows), replace=False)
    psi = reference(config, *(data[picks, c] for c in range(4)))
    scale = math.sqrt(float(np.max(density))) if rows else 0.0
    err = float(np.max(np.abs(psi - (re[picks] + 1j * im[picks]))))
    if not err <= 1e-10 * scale:
        problems.append(f"sampled rows differ from the library by {err:.3e} (max|psi| {scale:.3e})")
    return problems, rows


def check_library(reply: dict) -> list[str]:
    if "error" in reply:
        return [reply["error"]]
    problems = []
    if not reply["residual"] <= 5e-15:
        problems.append(f"stability residual {reply['residual']:.3e} > 5e-15")
    closed = reply["state_norm"] ** 2
    for key in ("norm_sq", "evolved_norm_sq"):
        if not abs(reply[key] - closed) <= 1e-12 * closed:
            problems.append(f"{key} {reply[key]!r} != state_norm^2 {closed!r}")
    if not reply["product"] >= 0.25:
        problems.append(f"uncertainty product {reply['product']!r} < 1/4")
    return problems
