"""Child interpreter for the benchmark: one CLI call or a library-state loop.

    python bench/child.py --mode cli --trace 0|1 --meta M.json [--spans S.npz] -- verify ...
    python bench/child.py --mode library --trace 0|1 --meta M.json [--spans S.npz] \
        --family NAME --n-max N

``cli`` runs ``hcs.cli.main`` on the arguments after ``--`` and times it in
process.  ``library`` reads one JSON label per stdin line, runs the state
pipeline of the README's library example on it and answers with one JSON
line; it stops at end of input.  Set-up (importing ``hcs.cli`` and resolving
the family) comes before any timing.  With ``--trace 1`` every layer call is
recorded (see ``spans.py``) and the spans are written to ``--spans`` at exit.
The summary goes to ``--meta``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import hcs
import hcs.cli

from spans import Tracer, per_call_overhead_s


def _written(cli_args: list[str]) -> tuple[int, int]:
    """Rows and bytes of the file the CLI call wrote (its ``--out``)."""
    path = cli_args[cli_args.index("--out") + 1]
    with open(path, "rb") as fh:
        data = fh.read()
    rows = data.count(b"\n") - 1 if path.endswith(".csv") else 0
    return rows, len(data)


def run_cli(cli_args: list[str], meta: dict) -> int:
    t0 = time.perf_counter()
    code = hcs.cli.main(cli_args)
    meta["in_process_s"] = time.perf_counter() - t0
    meta["units"] = 1
    if code == 0:
        meta["rows_written"], meta["bytes_written"] = _written(cli_args)
    return code


def run_library(family_name: str, n_max: int, meta: dict) -> int:
    family = hcs.builtin_family(family_name)
    states = 0
    total = 0.0
    for line in sys.stdin:
        item = json.loads(line)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            label = hcs.HydrogenLabel(
                item["s"],
                item["gamma"],
                hcs.EulerAngles(item["theta_bar"], item["phi_bar"], item["psi_bar"]),
            )
            state = hcs.hydrogen_cs(label, family, n_max)
            evolved = hcs.evolve_hydrogen(state, item["omega"], item["t"])
            residual = hcs.hydrogen_stability_residual(label, family, item["omega"], item["t"], n_max)
            norm = hcs.state_norm(label, family, n_max)
            product = hcs.radial_uncertainty_product(evolved)
            reply = {
                "residual": residual,
                "norm_sq": state.norm_squared(),
                "evolved_norm_sq": evolved.norm_squared(),
                "state_norm": norm,
                "product": product,
            }
        except Exception as exc:  # reported to the parent as a failed unit
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - t0
        reply["in_process_s"] = elapsed
        reply["cpu_s"] = time.process_time() - c0
        total += elapsed
        states += 1
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    meta["in_process_s"] = total
    meta["units"] = states
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("cli", "library"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--meta", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--family", default="exponential")
    parser.add_argument("--n-max", dest="n_max", type=int, default=48)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    meta: dict = {}
    tracer = None
    if args.trace:
        meta["per_call_overhead_s"] = per_call_overhead_s()
        tracer = Tracer()
        tracer.install()
    if args.mode == "cli":
        code = run_cli(cli_args, meta)
    else:
        code = run_library(args.family, args.n_max, meta)
    meta["exit"] = code
    if tracer is not None:
        meta["names"] = tracer.names
        meta["counters"] = tracer.counters
        tracer.save(args.spans)
    with open(args.meta, "w") as fh:
        json.dump(meta, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
