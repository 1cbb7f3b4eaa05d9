"""Self-test of the benchmark at toy sizes.

    python3 bench/selftest.py        (from the root of a checkout)

Checks that the JSON result carries exactly the metrics and units named in
BENCHMARK.json and the report prints every metric, on each workload,
untraced and traced; that a corrupted CSV digit and a
failing verify-report entry are counted as failed units; and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

# small enough to finish in seconds; eval keeps n_max 24 and library 48,
# because the seeded labels need them to pass the truncation guard
TOY = {
    "verify-deep": {"n_max": 3},
    "eval-export": {"grid": (4, 3, 3, 2)},
    "library-states": {},
}
SEED = 7
SECONDS = 1.0


def corrupt_csv_digit(path: Path) -> None:
    """Change the first digit of the density on the first data row."""
    lines = path.read_text().split("\n")
    fields = lines[1].split(",")
    density = fields[6]
    at = next(i for i, ch in enumerate(density) if ch.isdigit())
    fields[6] = density[:at] + str((int(density[at]) + 1) % 10) + density[at + 1 :]
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines))


def fail_report_entry(path: Path) -> None:
    report = json.loads(path.read_text())
    report["checks"][0]["pass"] = False
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "BENCHMARK.json names every workload")
    for name, sizes in TOY.items():
        toy = dataclasses.replace(WORKLOADS[name], **sizes)
        for trace in (0, 1):
            result, values, bench = run.run_benchmark(toy, SEED, SECONDS, bool(trace), root)
            what = f"{name} trace {trace}"
            check(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                  f"{what}: {result['attempted']} units pass their gates {bench.tally.problems[:3]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace], f"{what}: metrics and units match BENCHMARK.json")
            check(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                  f"{what}: every metric is a finite number")
            printed = run.PER_LAYER_UNITS if trace else run.REPORT_UNITS
            text = run.render(what, values, printed, bench.tally, bench.notes)
            check(all(f"  {m} " in text for m in printed) and "failed_ratio" in text,
                  f"{what}: the report prints every metric")

    for name, tamper in (("eval-export", corrupt_csv_digit), ("verify-deep", fail_report_entry)):
        toy = dataclasses.replace(WORKLOADS[name], **TOY[name])
        result, _, _ = run.run_benchmark(toy, SEED, SECONDS, False, root, tamper=tamper)
        check(not result["correct"] and result["failed"] == result["attempted"] >= 1,
              f"{name}: {tamper.__name__} counts every unit as failed "
              f"({result['failed']}/{result['attempted']})")

    empty = root / ".bench_work" / "empty"
    empty.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(run.__file__).resolve()), "--workload", "verify-deep",
             "--seed", "1", "--seconds", "1"],
            cwd=empty, capture_output=True, text=True, timeout=60,
        )
    finally:
        empty.rmdir()
        try:
            empty.parent.rmdir()
        except OSError:
            pass
    check(proc.returncode != 0 and not proc.stdout.strip(), "refuses to run without src/hcs")

    print(f"selftest: {'FAILED ' + str(len(failures)) if failures else 'all passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
