"""Span tracer that times the fbconv layers from outside the package.

`install` replaces every public function of the given modules with a wrapper
that records a span (name, start, end, parent, op).  The wrapper is put into
every module namespace that holds the function, so a call made through an
imported name is traced too: `converses_ptp` and `converses_sw` call
`lp_core.solve` as `solve`, and the LP inside `meta_sw` is charged to
`lp_core`.  A span's self time is its duration minus the durations of its
direct children; calls never overlap in one thread, so the children's sum is
the part of the interval they cover.

Spans are kept in memory and written out by the caller when the run ends.
Self times and call counts are summed only for spans recorded while `op` is
set, that is inside the timed loop.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op]
        self._stack = []       # [span index, summed child duration]
        self.op = None         # index of the timed op being run, or None
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.a_matrix_bytes = 0

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])

    def exit(self) -> None:
        end = time.perf_counter()
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        if self._stack:
            self._stack[-1][1] += dur
        if span[4] is not None:
            self.self_s[span[0]] += dur - child
            self.calls[span[0]] += 1

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, fn):
        records_model = name.startswith("relaxations.build_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if records_model:
                self.a_matrix_bytes = max(self.a_matrix_bytes, out.a_matrix.nbytes)
            return out

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def install(tracer: Tracer, modules):
    """Wrap the public functions of `modules`; returns the undo list for
    `uninstall`."""
    wrapped = {}
    for mod in modules:
        for attr, val in vars(mod).items():
            if (inspect.isfunction(val) and val.__module__ == mod.__name__
                    and not attr.startswith("_")):
                layer = mod.__name__.rsplit(".", 1)[-1]
                wrapped[val] = tracer.wrap(f"{layer}.{attr}", val)
    undo = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])
                undo.append((mod, attr, val))
    return undo


def uninstall(undo) -> None:
    for mod, attr, val in undo:
        setattr(mod, attr, val)


SYNTHESIS = {"combine_feasible", "mk_flows", "embed_sid_feasible", "embed_je_feasible"}


def _group(name: str):
    """Per-layer metric a traced function's self time is charged to."""
    layer, _, func = name.partition(".")
    if layer == "relaxations":
        if func.startswith("build_"):
            return "relaxations.build_ms"
        if func.startswith("dual_point_"):
            return "relaxations.dual_ms"
        if func.startswith("check_"):
            return "relaxations.check_ms"
        return None
    if layer == "lp_core":
        return "lp_core.solve_ms"
    if layer == "converses_ptp":
        return "converses_ptp.self_ms"
    if layer == "converses_sw":
        return ("converses_sw.synthesis_self_ms" if func in SYNTHESIS
                else "converses_sw.bounds_self_ms")
    if layer == "dsbs":
        return "dsbs.self_ms"
    return None


def per_layer_metrics(tracer: Tracer, ops: int, instance_ms: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, per timed op."""
    out = {k: 0.0 for k in (
        "relaxations.build_ms", "lp_core.solve_ms", "relaxations.dual_ms",
        "relaxations.check_ms", "converses_ptp.self_ms",
        "converses_sw.bounds_self_ms", "converses_sw.synthesis_self_ms",
        "dsbs.self_ms")}
    for name, secs in tracer.self_s.items():
        key = _group(name)
        if key is not None:
            out[key] += 1e3 * secs / ops
    out["lp_core.solve_calls"] = tracer.calls["lp_core.solve"] / ops
    out["relaxations.a_matrix_mb"] = tracer.a_matrix_bytes / 2**20
    out["probability.instance_ms"] = instance_ms
    return out


def self_time_by_name(tracer: Tracer, ops: int) -> dict:
    """Self ms per op of every traced name, for the full breakdown."""
    return {name: 1e3 * secs / ops
            for name, secs in sorted(tracer.self_s.items(), key=lambda kv: -kv[1])}
