"""In-memory span tracer for the hcs layers, installed from outside the package.

Every function in a layer module's ``__all__``, every method of the classes
listed there, and ``cli.run_*``/``cli.main`` are replaced by a wrapper that
records one span (function id, parent span, start, end).  ``from .x import f``
binds early, so each wrapper is rebound in every ``hcs.*`` namespace that
holds the original.  Spans stay in memory and are written once, at the end.

A few wrappers also count the work a call does (points evaluated, Gram
sizes, rules built), read from the call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("specfun", "weights", "fock1d", "angular", "hydrogen", "position", "cli")

COUNTERS = (
    "angular.cs_builds",
    "angular.gram_nodes",
    "angular.gram_ops",
    "hydrogen.states_built",
    "hydrogen.gram_dim",
    "hydrogen.gram_bytes",
    "position.rows_built",
    "specfun.radial_points",
    "specfun.ylm_points",
    "specfun.rules_built",
    "weights.moment_quadratures",
)

# counters that hold the largest value seen rather than a sum
PEAK_COUNTERS = frozenset({"hydrogen.gram_dim", "hydrogen.gram_bytes"})


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _angular_gram(args, kwargs, result):
    n = _arg(args, kwargs, 0, "n")
    nodes = 1
    for pos, name in ((1, "theta_nodes"), (2, "phi_nodes"), (3, "psi_nodes")):
        count = _arg(args, kwargs, pos, name)
        nodes *= 2 * n + 1 if count is None else count
    dim = (n + 1) ** 2
    return {"angular.gram_nodes": nodes, "angular.gram_ops": dim * dim * nodes}


def _hydrogen_gram(args, kwargs, result):
    dim = int(result.dimension)
    return {"hydrogen.gram_dim": dim, "hydrogen.gram_bytes": dim * dim * 24}


def _radial_points(args, kwargs, result):
    return {"specfun.radial_points": int(np.size(_arg(args, kwargs, 2, "r")))}


def _ylm_table_points(args, kwargs, result):
    l_max = _arg(args, kwargs, 0, "l_max")
    return {"specfun.ylm_points": (l_max + 1) ** 2 * int(np.size(_arg(args, kwargs, 1, "theta")))}


def _ylm_points(args, kwargs, result):
    return {"specfun.ylm_points": int(np.size(result))}


# qualified name -> function of (args, kwargs, result) giving counter increments
_COUNTED = {
    "angular.angular_cs": lambda a, k, r: {"angular.cs_builds": 1},
    "angular.angular_resolution_check": _angular_gram,
    "hydrogen.hydrogen_cs": lambda a, k, r: {"hydrogen.states_built": 1},
    "hydrogen.hydrogen_resolution_check": _hydrogen_gram,
    "position.export_density_grid": lambda a, k, r: {"position.rows_built": len(r)},
    "specfun.radial_eigenfunction": _radial_points,
    "specfun.radial_eigenfunction_deriv": _radial_points,
    "specfun.spherical_harmonic_table": _ylm_table_points,
    "specfun.spherical_harmonic": _ylm_points,
    "specfun.make_quadrature": lambda a, k, r: {"specfun.rules_built": 1},
    "weights.WeightFamily.moment_by_quadrature": lambda a, k, r: {"weights.moment_quadratures": 1},
}


class Tracer:
    """Span recorder; ``wrap`` returns a recording stand-in for a function."""

    def __init__(self):
        self.names: list[str] = []
        self.fid: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]

    def wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends, stack = self.fid, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns
        count = _COUNTED.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    if key in PEAK_COUNTERS:
                        counters[key] = max(counters[key], value)
                    else:
                        counters[key] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and methods."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"hcs.{layer}"]
            names = list(getattr(module, "__all__", ()))
            if layer == "cli":
                names = [n for n in vars(module) if n.startswith("run_") or n == "main"]
            for name in names:
                obj = getattr(module, name)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    originals[id(obj)] = self.wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and not attr.startswith("__"):
                            setattr(obj, attr, self.wrap(member, f"{layer}.{name}.{attr}"))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "hcs" or mod_name.startswith("hcs.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def save(self, path) -> None:
        np.savez(
            path,
            fid=np.asarray(self.fid, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start, dtype=np.int64),
            end=np.asarray(self.end, dtype=np.int64),
        )


def per_call_overhead_s(calls: int = 50_000) -> float:
    """Seconds one wrapper adds to a call, from timing a wrapped no-op."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "calibration")
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def layer_self_times(spans, names: list[str]) -> dict:
    """Per-function call counts and self times (duration minus child spans)."""
    fid = spans["fid"]
    parent = spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(float) * 1e-9
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=fid.size)
    self_s = np.bincount(fid, weights=dur - child, minlength=len(names))
    calls = np.bincount(fid, minlength=len(names))
    return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(names)}
