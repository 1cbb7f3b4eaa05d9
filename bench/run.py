"""The hcs benchmark: one workload, closed loop, one child process at a time.

    python3 bench/run.py --workload verify-deep|eval-export|library-states \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  One benchmark process drives one child at a time and waits for
each reply before sending the next (a closed loop with one client);
``HCS_THREADS`` is left unset.  Every output is gated (see ``gates.py``).

``--trace 0`` prints the end-to-end metrics, measured untraced.  ``--trace 1``
runs each input twice in a child that times itself in process, once plain
and once with every layer call recorded (see ``spans.py``), and prints the
per-layer metrics.  Both print a readable report and, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gates
import spans
from workloads import WORKLOADS, Inputs, Workload

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
SETUP_LAUNCHES = 5
# every child is killed at this many seconds after the benchmark started
HARD_LIMIT_S = 170.0

REPORT_UNITS = {
    "setup_s": "s",
    "wall_rel": "ratio",
    "wall_s": "s",
    "wall_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
}
# The JSON result carries only these. On a shared host whose speed drifts by
# up to a factor of two over minutes, the seconds (wall_s, wall_tail_s, cpu_s
# and items_per_s) move with the host between runs; wall_rel, which divides
# each unit by speed probes timed beside it, does not.
END_TO_END_UNITS = {name: REPORT_UNITS[name] for name in ("setup_s", "wall_rel", "peak_rss_mb")}
ITEM_NAMES = {"verify": "checks_per_s", "eval": "rows_per_s", "library": "states_per_s"}

IMPORT_GROUPS = ("numpy", "scipy", "hcs")
PER_LAYER_UNITS = {
    "import.total_s": "s",
    **{f"import.{top}_s": "s" for top in IMPORT_GROUPS},
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    **{f"{layer}.calls": "count" for layer in spans.LAYERS if layer != "cli"},
    **{name: "count" for name in spans.COUNTERS},
    "hydrogen.gram_bytes": "B",
    "cli.rows_written": "count",
    "cli.bytes_written": "B",
    "trace.overhead_ratio": "ratio",
}


_PROBE_ARRAY = np.random.default_rng(0).standard_normal(200_000)


def speed_probe() -> float:
    """Wall time of fixed work, about 0.15 s on the host this was tuned on.

    The work mixes what ``hcs`` does: numpy on large arrays, a pure-Python
    loop, and many numpy calls on small arrays. It runs no ``hcs`` code, so
    only the speed of the host moves it.
    """
    t0 = time.perf_counter()
    for _ in range(12):
        np.exp(np.sin(_PROBE_ARRAY)).sum()
    total = 0
    for i in range(500_000):
        total += i * i
    small = _PROBE_ARRAY[:2000]
    for _ in range(8_000):
        np.dot(small, small)
        (small * 2.0).sum()
    return time.perf_counter() - t0


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts later, to one CPU.

    The units and the speed probes then share a CPU and see the same
    contention from the rest of the host. ``hcs`` runs one thread unless
    ``HCS_THREADS`` says otherwise, and the children get one BLAS thread.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With 10 samples or fewer no percentile has that many beyond it; the
    maximum (percentile 100) is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def import_times(stderr: str) -> dict[str, float]:
    """Self import time per module, in seconds, from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:") :].split("|")
        out[name.strip()] = int(self_us) * 1e-6
    return out


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stderr: str


class Runner:
    """Starts children from the checkout root and reaps each with ``os.wait4``.

    ``os.wait4`` gives the rusage of that one child; ``RUSAGE_CHILDREN``
    would be a running maximum over all of them.
    """

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "HCS_THREADS"}
        self.env["PYTHONPATH"] = str(root / "src")
        # one core per child: an idle OpenBLAS worker spins on the other core,
        # which charges CPU time to the child and slows its main thread
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self._count = 0

    def _stderr_file(self) -> Path:
        self._count += 1
        return self.work / f"stderr-{self._count}.txt"

    def run(self, argv: list[str]) -> Child:
        err_path = self._stderr_file()
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            return self.reap(proc, t0, err_path)

    def start(self, argv: list[str]) -> tuple[subprocess.Popen, Path]:
        err_path = self._stderr_file()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        return proc, err_path

    def kill_at_deadline(self, proc: subprocess.Popen) -> threading.Timer:
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        timer.daemon = True
        timer.start()
        return timer

    def reap(self, proc: subprocess.Popen, t0: float, err_path: Path) -> Child:
        timer = self.kill_at_deadline(proc)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            err_path.read_text(errors="replace"),
        )


class LibraryChild:
    """A ``child.py --mode library`` process answering one label at a time."""

    def __init__(self, runner: Runner, argv: list[str]):
        self.runner = runner
        self.t0 = time.perf_counter()
        self.proc, self.err_path = runner.start(argv)
        # a hung child would block ``ask`` on its reply
        self.timer = runner.kill_at_deadline(self.proc)
        self.result: Child | None = None

    def ask(self, label: dict) -> tuple[dict, float]:
        t0 = time.perf_counter()
        try:
            self.proc.stdin.write(json.dumps(label) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError as exc:
            return {"error": f"child pipe: {exc}"}, time.perf_counter() - t0
        wall = time.perf_counter() - t0
        if not line:
            return {"error": "child closed its output"}, wall
        return json.loads(line), wall

    def close(self) -> Child:
        if self.result is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            self.proc.stdout.read()
            self.proc.stdout.close()
            self.result = self.runner.reap(self.proc, self.t0, self.err_path)
            self.timer.cancel()
        return self.result

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.result is None and exc[0] is not None:
            self.proc.kill()
        self.close()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"unit {self.attempted - 1}: " + "; ".join(problems))


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float, root: Path, work: Path,
                 tamper=None):
        self.workload = workload
        self.seconds = seconds
        self.root = root
        self.work = work
        self.inputs = Inputs(workload, seed)
        self.runner = Runner(root, work, time.monotonic() + HARD_LIMIT_S)
        self.tally = Tally()
        # test hook: called on each unit's output file before it is gated
        self.tamper = tamper
        self.notes: list[str] = []
        self.probes: list[float] = []
        self._hcs = None
        self._first_report = b""

    # -- shared pieces ---------------------------------------------------

    def _closed_loop(self, step, min_units: int, walls: list[float] | None = None) -> list[float]:
        """Call ``step(i)`` until the next call would end past ``--seconds``.

        With ``walls``, the list to which each step appends its unit's wall
        time, a speed probe runs first and after every unit. Each unit's wall
        time is divided by the mean of the probes before and after it; those
        ratios are returned, and the probe times are kept in ``self.probes``.
        """
        start = time.perf_counter()
        if walls is not None:
            self.probes.append(speed_probe())
        ratios: list[float] = []
        longest = 0.0
        i = 0
        while i < min_units or time.perf_counter() - start + longest <= self.seconds:
            t0 = time.perf_counter()
            step(i)
            if walls is not None:
                self.probes.append(speed_probe())
                ratios.append(walls[-1] / (0.5 * (self.probes[-2] + self.probes[-1])))
            longest = max(longest, time.perf_counter() - t0)
            i += 1
        return ratios

    def _python(self, *args) -> list[str]:
        return [sys.executable, *map(str, args)]

    def _reference_hcs(self):
        """The checkout's ``hcs``, imported into this process for reference values."""
        if self._hcs is None:
            sys.path.insert(0, str(self.root / "src"))
            import hcs

            self._hcs = hcs
        return self._hcs

    def setup_s(self, launches: int = SETUP_LAUNCHES) -> float:
        """Median wall time of fresh interpreters importing hcs.cli and resolving the family.

        One extra launch comes first and is not timed: it writes the bytecode
        cache and checks that ``hcs`` is imported from this checkout.
        """
        code = (
            "import sys, hcs.cli, hcs; hcs.builtin_family(%r); print(hcs.__file__, file=sys.stderr)"
            % self.workload.family
        )
        walls = []
        for i in range(launches + 1):
            child = self.runner.run(self._python("-c", code))
            location = Path(child.stderr.strip()).resolve()
            if child.code != 0 or (self.root / "src") not in location.parents:
                raise SystemExit(f"set-up failed: hcs imported from {child.stderr.strip()!r}")
            if i > 0:
                walls.append(child.wall_s)
        return statistics.median(walls) if walls else math.nan

    def _reference(self, config, t, r, theta, phi) -> np.ndarray:
        hcs = self._reference_hcs()
        label = hcs.HydrogenLabel(
            config["s"],
            config["gamma"],
            hcs.EulerAngles(config["theta_bar"], config["phi_bar"], config["psi_bar"]),
        )
        state = hcs.hydrogen_cs(label, hcs.builtin_family(config["family"]), config["n_max"])
        psi = np.empty(t.size, dtype=complex)
        for tv in np.unique(t):
            sel = t == tv
            evolved = hcs.evolve_hydrogen(state, config["omega"], float(tv))
            psi[sel] = hcs.eval_hydrogen_cs_position(evolved, r[sel], theta[sel], phi[sel])
        return psi

    def _verify_argv(self, seed: int, out: Path) -> list[str]:
        return ["verify", "--n-max", str(self.workload.n_max), "--seed", str(seed), "--out", str(out)]

    def _gate_verify(self, code: int, out: Path, seed: int, unit: int) -> tuple[list[str], int]:
        if self.tamper is not None and out.exists():
            self.tamper(out)
        report = self._read(out)
        problems = gates.check_verify(code, report, seed, self.workload.n_max)
        if unit == 0:
            self._first_report = report
        elif unit == 1 and report != self._first_report:
            problems.append("the repeated seed gave a different report")
        try:
            entries = len(json.loads(report)["checks"])
        except (ValueError, KeyError, TypeError):
            entries = 0
        return problems, entries

    def _eval_inputs(self, unit: int) -> tuple[dict, Path, Path]:
        config = self.inputs.eval_config()
        path = self.work / f"eval-{unit}.json"
        path.write_text(json.dumps(config))
        return config, path, self.work / f"eval-{unit}.csv"

    def _gate_eval(self, code: int, out: Path, config: dict) -> tuple[list[str], int]:
        if not out.exists():
            return [f"eval exited {code} without output"], 0
        if self.tamper is not None:
            self.tamper(out)
        return gates.check_eval(code, out, config, self._reference, self.inputs.rng)

    def _library_argv(self, trace: int, meta: Path, spans_path: Path | None = None,
                      importtime: bool = False) -> list[str]:
        argv = self._python(*(["-X", "importtime"] if importtime else []), CHILD,
                            "--mode", "library", "--trace", trace, "--meta", meta,
                            "--family", self.workload.family, "--n-max", self.workload.n_max)
        return argv + (["--spans", str(spans_path)] if spans_path else [])

    # -- end-to-end run (--trace 0) ---------------------------------------

    def run(self) -> dict:
        setup = self.setup_s()
        walls, cpus, rates, rss = [], [], [], []

        def record(child_wall, child_cpu, problems, items):
            walls.append(child_wall)
            cpus.append(child_cpu)
            rates.append(items / child_wall)
            self.tally.add(problems)

        kind = self.workload.kind
        if kind == "verify":

            def step(i):
                seed = self.inputs.verify_seed(i)
                out = self.work / f"verify-{i}.json"
                child = self.runner.run(self._python("-m", "hcs.cli", *self._verify_argv(seed, out)))
                problems, entries = self._gate_verify(child.code, out, seed, i)
                rss.append(child.maxrss_mb)
                record(child.wall_s, child.cpu_s, problems, entries)

            ratios = self._closed_loop(step, min_units=2, walls=walls)
        elif kind == "eval":

            def step(i):
                config, cfg_path, out = self._eval_inputs(i)
                child = self.runner.run(
                    self._python("-m", "hcs.cli", "eval", "--config", cfg_path, "--out", out)
                )
                problems, rows = self._gate_eval(child.code, out, config)
                out.unlink(missing_ok=True)
                rss.append(child.maxrss_mb)
                record(child.wall_s, child.cpu_s, problems, rows)

            ratios = self._closed_loop(step, min_units=1, walls=walls)
        else:
            with LibraryChild(self.runner, self._library_argv(0, self.work / "meta.json")) as lib:

                def step(i):
                    reply, wall = lib.ask(self.inputs.library_label())
                    record(wall, reply.get("cpu_s", math.nan), gates.check_library(reply), 1)

                ratios = self._closed_loop(step, min_units=1, walls=walls)
            child = lib.close()
            if child.code != 0:
                self.tally.add([f"library child exited {child.code}: {child.stderr[-500:]}"])
            rss.append(child.maxrss_mb)

        tail_value, tail_pct = tail(walls)
        self.notes.append(f"wall_tail_s is percentile {tail_pct:.1f} of {len(walls)} samples")
        self.notes.append(
            f"wall_rel is the median of {len(ratios)} unit/probe ratios; "
            f"median probe {statistics.median(self.probes):.4f} s"
        )
        self.notes.append(f"{ITEM_NAMES[kind]} = items_per_s (median over units of items / unit wall)")
        return {
            "setup_s": setup,
            "wall_rel": statistics.median(ratios),
            "wall_s": statistics.median(walls),
            "wall_tail_s": tail_value,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": max(rss),
            "items_per_s": statistics.median(rates),
        }

    # -- traced run (--trace 1) -------------------------------------------

    def run_traced(self) -> dict:
        self.setup_s(launches=0)
        plain_s, traced_s = [], []
        imports: list[dict] = []
        layers: list[dict] = []
        kind = self.workload.kind

        def child_pair(cli_args_for, unit):
            """Run one input untraced then traced, both timing themselves in process."""
            metas = []
            for trace in (0, 1):
                meta = self.work / f"meta-{unit}-{trace}.json"
                span_file = self.work / f"spans-{unit}.npz"
                argv = self._python("-X", "importtime", CHILD, "--mode", "cli", "--trace", trace,
                                    "--meta", meta, "--spans", span_file, "--", *cli_args_for(trace))
                child = self.runner.run(argv)
                imports.append(import_times(child.stderr))
                info = json.loads(meta.read_text()) if meta.exists() else {"exit": child.code}
                metas.append(info)
                if trace and info.get("names") and span_file.exists():
                    layers.append(self._layer_metrics(info, span_file, imports[-1]))
            plain_s.append(metas[0].get("in_process_s", math.nan))
            traced_s.append(metas[1].get("in_process_s", math.nan))
            return metas

        if kind == "verify":

            def step(i):
                seed = self.inputs.verify_seed(i)
                outs = [self.work / f"verify-{i}-{trace}.json" for trace in (0, 1)]
                metas = child_pair(lambda trace: self._verify_argv(seed, outs[trace]), i)
                problems, _ = self._gate_verify(metas[0]["exit"], outs[0], seed, i)
                problems += gates.check_verify(metas[1]["exit"], self._read(outs[1]), seed,
                                               self.workload.n_max)
                if self._read(outs[0]) != self._read(outs[1]):
                    problems.append("traced report differs from the untraced one")
                self.tally.add(problems)

            self._closed_loop(step, min_units=1)
        elif kind == "eval":

            def step(i):
                config, cfg_path, _ = self._eval_inputs(i)
                outs = [self.work / f"eval-{i}-{trace}.csv" for trace in (0, 1)]
                metas = child_pair(
                    lambda trace: ["eval", "--config", str(cfg_path), "--out", str(outs[trace])], i
                )
                same = self._read(outs[0]) == self._read(outs[1])
                problems, _ = self._gate_eval(metas[0]["exit"], outs[0], config)
                if metas[1]["exit"] != 0 or not same:
                    problems.append("traced export differs from the untraced one")
                for out in outs:
                    out.unlink(missing_ok=True)
                self.tally.add(problems)

            self._closed_loop(step, min_units=1)
        else:
            span_file = self.work / "spans.npz"
            metas = [self.work / f"meta-{trace}.json" for trace in (0, 1)]
            with LibraryChild(self.runner, self._library_argv(0, metas[0], importtime=True)) as plain, \
                    LibraryChild(self.runner, self._library_argv(1, metas[1], span_file, True)) as traced:

                def step(i):
                    label = self.inputs.library_label()
                    a, _ = plain.ask(label)
                    b, _ = traced.ask(label)
                    problems = gates.check_library(a)
                    keys = ("residual", "norm_sq", "evolved_norm_sq", "state_norm", "product")
                    if any(a.get(k) != b.get(k) for k in keys):
                        problems.append("traced state differs from the untraced one")
                    plain_s.append(a.get("in_process_s", math.nan))
                    traced_s.append(b.get("in_process_s", math.nan))
                    self.tally.add(problems)

                self._closed_loop(step, min_units=1)
            for proc, meta in ((plain.close(), metas[0]), (traced.close(), metas[1])):
                imports.append(import_times(proc.stderr))
                if proc.code != 0 or not meta.exists():
                    self.tally.add([f"library child exited {proc.code}: {proc.stderr[-500:]}"])
            if metas[1].exists() and span_file.exists():
                info = json.loads(metas[1].read_text())
                layers.append(self._layer_metrics(info, span_file, imports[-1]))

        if not layers:
            raise SystemExit("the traced run recorded no spans: " + "; ".join(self.tally.problems[:3]))

        out = {
            "import.total_s": statistics.median(sum(t.values()) for t in imports),
            **{
                f"import.{top}_s": statistics.median(
                    sum(v for k, v in t.items() if k.split(".")[0] == top) for t in imports
                )
                for top in IMPORT_GROUPS
            },
        }
        for name in PER_LAYER_UNITS:
            if name not in out and name != "trace.overhead_ratio":
                out[name] = statistics.median(layer[name] for layer in layers)
        out["trace.overhead_ratio"] = sum(traced_s) / sum(plain_s)
        self.notes.extend(self._hot_helpers(layers[-1], sum(traced_s) / len(traced_s)))
        return out

    @staticmethod
    def _read(path: Path) -> bytes:
        return path.read_bytes() if path.exists() else b""

    def _layer_metrics(self, info: dict, span_file: Path, loaded: dict) -> dict:
        """Per-unit layer metrics of one traced child.

        A layer's self time adds the self import time of its module, so a
        layer that is loaded but never called still reads its load time.
        """
        with np.load(span_file) as data:
            per_function = spans.layer_self_times(data, info["names"])
        units = max(1, info.get("units", 1))
        out = {name: 0.0 for name in PER_LAYER_UNITS if name.split(".")[0] in spans.LAYERS}
        for layer in spans.LAYERS:
            out[f"{layer}.self_s"] = loaded.get(f"hcs.{layer}", 0.0)
        for name, (calls, self_s) in per_function.items():
            layer = name.split(".")[0]
            out[f"{layer}.self_s"] += self_s
            if f"{layer}.calls" in out:
                out[f"{layer}.calls"] += calls
        for name, value in info["counters"].items():
            out[name] = value
        out["cli.rows_written"] = info.get("rows_written", 0)
        out["cli.bytes_written"] = info.get("bytes_written", 0)
        for name in out:
            if name not in spans.PEAK_COUNTERS:
                out[name] /= units
        out["_functions"] = {name: calls / units for name, (calls, _) in per_function.items()}
        out["_per_call_s"] = info.get("per_call_overhead_s", 0.0)
        return out

    @staticmethod
    def _hot_helpers(layer: dict, traced_unit_s: float) -> list[str]:
        hot = sorted(layer["_functions"].items(), key=lambda kv: -kv[1])[:4]
        lines = [f"wrapper cost {layer['_per_call_s'] * 1e6:.2f} us per call; hottest helpers:"]
        for name, calls in hot:
            cost = calls * layer["_per_call_s"]
            lines.append(
                f"  {name}: {calls:,.0f} calls/unit, ~{cost:.3f} s "
                f"({100 * cost / traced_unit_s:.1f}% of traced in-process time)"
            )
        return lines


def render(title: str, values: dict, units: dict, tally: Tally, notes: list[str]) -> str:
    lines = [title]
    width = max(map(len, units)) + 2
    for name, unit in units.items():
        lines.append(f"  {name:<{width}}{values[name]:>16.6g} {unit}")
    ratio = tally.failed / tally.attempted if tally.attempted else math.nan
    lines.append(f"  {'failed_ratio':<{width}}{ratio:>16.6g} ({tally.failed}/{tally.attempted} units)")
    lines.extend(f"  {note}" for note in notes)
    lines.extend(f"  FAILED {p}" for p in tally.problems[:20])
    return "\n".join(lines)


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool, root: Path,
                  tamper=None) -> tuple[dict, dict, Bench]:
    """Run one benchmark; return (JSON result, metric values, the finished Bench)."""
    cpu = pin_to_one_cpu()
    work = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, seconds, root, work, tamper)
        values = bench.run_traced() if trace else bench.run()
        bench.notes.append(f"benchmark and children pinned to CPU {cpu}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, values, bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hcs benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hcs" / "__init__.py").is_file():
        print(f"no hcs sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result, values, bench = run_benchmark(workload, args.seed, args.seconds, bool(args.trace), root)
    units = PER_LAYER_UNITS if args.trace else REPORT_UNITS
    title = f"workload {workload.name} (seed {args.seed}, {args.seconds} s, trace {args.trace})"
    print(render(title, values, units, bench.tally, bench.notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
