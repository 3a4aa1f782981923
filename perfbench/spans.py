"""In-memory spans around the calls one ``sparsetf`` module makes into another.

``install`` replaces module-level names such as ``sparsetf.ridge.cwt`` or
``sparsetf.pursuit.solve_p2`` with wrappers that record one span per call.
Every binding of a wrapped function in every loaded ``sparsetf`` module is
replaced, so calls between modules and calls inside a module through its own
globals are both seen.  Nothing under ``src/`` changes.

A span is recorded only while an operation is open (``Tracer.op``); calls
made to score outputs afterwards pass straight through.  Spans of one
operation share its id, stay in memory, and are written out by ``dump`` when
the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

#: Functions wrapped per module; ``None`` means every function in ``__all__``.
TARGETS = {
    "sparsetf.wavelet": ("cwt", "concentration_error", "moments"),
    "sparsetf.ridge": ("extract_ridges", "recover_components"),
    "sparsetf.pursuit": ("solve_p2", "matching_pursuit"),
    "sparsetf.separation": None,
    "sparsetf.io": None,
    "sparsetf.svg": None,
    "sparsetf.cli": ("main",),
}


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "attrs")

    def __init__(self, id, parent, op, name):
        self.id, self.parent, self.op, self.name = id, parent, op, name
        self.start = time.perf_counter()
        self.end = None
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "op": self.op, "name": self.name,
                "start": self.start, "end": self.end, "attrs": self.attrs}


def _cwt_attrs(args, kwargs, out):
    n, scales = out.coeffs.shape
    return {"n": n, "scales": scales}


def _solve_p2_attrs(args, kwargs, out):
    r = args[0] if args else kwargs["r"]
    return {"iterations": out.iterations, "converged": bool(out.converged),
            "grid": [r.t0, r.t1, r.n]}


#: Counts read from a wrapped call's arguments and result.
ATTRS = {
    "wavelet.cwt": _cwt_attrs,
    "ridge.extract_ridges": lambda args, kwargs, out: {"curves": len(out)},
    "ridge.recover_components": lambda args, kwargs, out: {"pairs": len(out)},
    "pursuit.solve_p2": _solve_p2_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def _push(self, name, op):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), None if parent is None else parent.id,
                    op if parent is None else parent.op, name)
        self.spans.append(span)
        self._open.append(span)
        return span

    def _pop(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def op(self, op_id: int, grid):
        """Root span of one operation; ``grid`` is its input's (t0, t1, n)."""
        span = self._push("op", op_id)
        span.attrs = {"grid": list(grid)}
        try:
            yield span
        finally:
            self._pop(span)

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            span = self._push(name, None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._pop(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, out)
            return out

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_dict() for s in self.spans], fh)


def install(tracer: Tracer) -> int:
    """Wrap every binding of the target functions; returns the bindings replaced."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "sparsetf" or name.startswith("sparsetf."))]
    replaced = 0
    for modname, names in TARGETS.items():
        mod = sys.modules[modname]
        layer = modname.split(".", 1)[1]
        if names is None:
            names = [n for n in mod.__all__
                     if callable(getattr(mod, n)) and not isinstance(getattr(mod, n), type)]
        for fname in names:
            fn = getattr(mod, fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", fn)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapper)
                        replaced += 1
    return replaced


def _busy(spans) -> float:
    """Length of the union of the spans' intervals (nested calls count once)."""
    total, reach = 0.0, -float("inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end > reach:
            total += s.end - max(s.start, reach)
            reach = s.end
    return total


def layer_metrics(tracer: Tracer, solve_s: float) -> dict:
    """Per-layer counts and times of one traced pass, keyed by metric name."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def named(name):
        return by_name.get(name, [])

    def prefixed(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    def self_s(name):
        return sum(s.duration - child_time[s.id] for s in named(name))

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    roots = {s.id for s in named("op")}
    grid_of_op = {s.op: s.attrs["grid"] for s in named("op")}
    cwt = named("wavelet.cwt")
    coeffs = sum(s.attrs.get("n", 0) * s.attrs.get("scales", 0) for s in cwt)
    cwt_busy = _busy(cwt)
    pairs = total("ridge.recover_components", "pairs")
    # a seeding call inside the pursuit uses only the dominant pair
    used = sum(min(s.attrs.get("pairs", 0), 1) for s in named("ridge.recover_components"))
    solves = named("pursuit.solve_p2")
    segment = sum(1 for s in solves if s.attrs.get("grid", grid_of_op[s.op]) != grid_of_op[s.op])
    top = sum(s.duration for s in spans if s.parent in roots)
    return {
        "wavelet.cwt.calls": len(cwt),
        "wavelet.cwt.busy_s": cwt_busy,
        "wavelet.cwt.scales": total("wavelet.cwt", "scales"),
        "wavelet.cwt.ns_per_coeff": 1e9 * cwt_busy / coeffs if coeffs else 0.0,
        "wavelet.cwt.out_mb_max": max((16 * s.attrs.get("n", 0) * s.attrs.get("scales", 0) / 1e6
                                       for s in cwt), default=0.0),
        "wavelet.concentration_error.calls": len(named("wavelet.concentration_error")),
        "wavelet.concentration_error.self_s": self_s("wavelet.concentration_error"),
        "wavelet.moments.calls": len(named("wavelet.moments")),
        "wavelet.moments.busy_s": _busy(named("wavelet.moments")),
        "ridge.extract_ridges.calls": len(named("ridge.extract_ridges")),
        "ridge.extract_ridges.busy_s": _busy(named("ridge.extract_ridges")),
        "ridge.extract_ridges.curves": total("ridge.extract_ridges", "curves"),
        "ridge.recover_components.calls": len(named("ridge.recover_components")),
        "ridge.recover_components.self_s": self_s("ridge.recover_components"),
        "ridge.recover_components.pairs": pairs,
        "ridge.pairs_used_frac": used / pairs if pairs else 0.0,
        "pursuit.solve_p2.calls": len(solves),
        "pursuit.solve_p2.self_s": self_s("pursuit.solve_p2"),
        "pursuit.solve_p2.iterations": total("pursuit.solve_p2", "iterations"),
        "pursuit.solve_p2.converged_frac":
            sum(s.attrs.get("converged", False) for s in solves) / len(solves) if solves else 0.0,
        "pursuit.solve_p2.segment_calls": segment,
        "pursuit.matching_pursuit.self_s": self_s("pursuit.matching_pursuit"),
        "separation.calls": len(prefixed("separation.")),
        "separation.busy_s": _busy(prefixed("separation.")),
        "io.busy_s": _busy(prefixed("io.")),
        "svg.line_plot.calls": len(named("svg.line_plot")),
        "svg.line_plot.busy_s": _busy(named("svg.line_plot")),
        "cli.self_s": self_s("cli.main"),
        "trace.covered_frac": top / solve_s if solve_s > 0 else 0.0,
    }
