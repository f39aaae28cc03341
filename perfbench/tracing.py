"""In-memory span tracing around the layer boundaries of ``delayflow``.

Tracing is installed from outside the library: each probe replaces a name
that a ``delayflow`` module looks up at call time (for example
``delayflow.algorithms.solve_lp``) with a wrapper that records a span, and
``uninstall`` puts the originals back. Nothing in ``delayflow`` is edited.

A span is (id, name, start, end, parent, call, attrs, tail). ``call`` numbers
the benchmark's solver call that caused it, so all spans of one call share
it. ``tail`` is the time the probe itself spent right after ``end``.
Per-layer metrics are derived from the finished spans by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    call: int | None
    attrs: dict = field(default_factory=dict)
    #: Seconds of probe work (``annotate``) right after ``end``: outside the
    #: span, and not counted as the parent's own time either.
    tail: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of one traced pass; not thread-safe (one caller)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._call: int | None = None
        self._next_call = 0

    def span(self, name: str, fn, *args, annotate=None, new_call=False, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``annotate(span, args, kwargs, result)`` may attach counts to the
        span once ``fn`` returns; it runs after the span's end is stamped and
        its time goes to ``tail``, so it counts neither as the layer's work
        nor as its parent's own time. ``new_call`` starts a new call id,
        which later spans keep until the next one starts (so the
        verification of a call's report shares its id).
        """
        if new_call:
            self._call = self._next_call
            self._next_call += 1
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self._call)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            result = fn(*args, **kwargs)
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
        if annotate is not None:
            annotate(sp, args, kwargs, result)
            sp.tail = time.perf_counter() - sp.end
        return result

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "call": s.call,
                **({"attrs": s.attrs} if s.attrs else {}),
                **({"tail": s.tail} if s.tail else {}),
            }
            for s in self.spans
        ]


def _lp_shape(sp: Span, args, kwargs, result) -> None:
    lp = args[0] if args else kwargs["lp"]
    rows = lp.rows
    m, n = rows.shape
    nnz = getattr(rows, "nnz", None)
    sp.attrs.update(
        rows=m,
        cols=n,
        # Dense tableau the two-phase simplex would allocate: one slack and
        # at most one artificial column per row, plus objective row and rhs.
        cells=(m + 1) * (n + 2 * m + 2),
        dense_mb=m * n * 8 / 1e6,
        nnz=int(nnz if nnz is not None else np.count_nonzero(rows)),
        status=result.status,
    )


def _counterpart_shape(sp: Span, args, kwargs, result) -> None:
    lp = result[0]
    sp.attrs.update(rows=lp.rows.shape[0], cols=lp.rows.shape[1])


def _path_count(sp: Span, args, kwargs, result) -> None:
    sp.attrs["paths"] = len(result)


#: (module, attribute, span name, annotate). A probe whose attribute is
#: missing is skipped, so a layer that a later version removes reads as 0.
PROBES = (
    ("delayflow.algorithms", "solve_lp", "lp", _lp_shape),
    ("delayflow.baselines", "solve_lp", "lp", _lp_shape),
    ("delayflow.lp", "simplex_iterations", "lp.engine.simplex", None),
    ("delayflow.lp", "linprog", "lp.engine.highs", None),
    ("delayflow.algorithms", "build_counterpart", "problem.build_counterpart", _counterpart_shape),
    ("delayflow.algorithms", "evaluate_metrics", "problem.evaluate_metrics", None),
    ("delayflow.baselines", "evaluate_metrics", "problem.evaluate_metrics", None),
    ("delayflow.cli", "evaluate_metrics", "problem.evaluate_metrics", None),
    ("delayflow.algorithms", "cancel_cycles", "decompose.cancel_cycles", None),
    ("delayflow.algorithms", "decompose", "decompose.decompose", _path_count),
    ("delayflow.algorithms", "delete_slowest", "algorithms.delete_slowest", None),
    ("delayflow.baselines", "delete_slowest", "algorithms.delete_slowest", None),
    ("delayflow.baselines", "shortest_path_by_delay", "graph.shortest_path", None),
)


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every probe's name; returns what ``uninstall`` needs."""
    saved = []
    for mod_name, attr, span_name, annotate in PROBES:
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr, None)
        if original is None:
            continue

        def wrapper(*args, _fn=original, _name=span_name, _ann=annotate, **kwargs):
            return recorder.span(_name, _fn, *args, annotate=_ann, **kwargs)

        functools.update_wrapper(wrapper, original)
        saved.append((mod, attr, original))
        setattr(mod, attr, wrapper)
    return saved


def uninstall(saved) -> None:
    for mod, attr, original in reversed(saved):
        setattr(mod, attr, original)


# -- derived metrics ---------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children
    (each child with its ``tail``)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor, s.start), min(c.end + c.tail, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


#: Solver span names (set by the benchmark) -> layer that owns their self time.
PASS_SOLVERS = ("solver.PASS", "solver.PASS-M", "solver.PASS-T")

#: Every per-layer metric name with its unit, in report order.
LAYER_METRICS = {
    "lp.calls": "count",
    "lp.busy_s": "s",
    "lp.simplex.calls": "count",
    "lp.simplex.busy_s": "s",
    "lp.highs.calls": "count",
    "lp.highs.busy_s": "s",
    "lp.cells": "count",
    "lp.dense_mb": "MB",
    "lp.nnz_max": "count",
    "lp.status.infeasible": "count",
    "problem.build_counterpart.calls": "count",
    "problem.build_counterpart.busy_s": "s",
    "problem.counterpart.rows_max": "count",
    "problem.counterpart.cols_max": "count",
    "problem.evaluate_metrics.calls": "count",
    "problem.evaluate_metrics.busy_s": "s",
    "decompose.cancel_cycles.calls": "count",
    "decompose.cancel_cycles.busy_s": "s",
    "decompose.decompose.calls": "count",
    "decompose.decompose.busy_s": "s",
    "decompose.paths": "count",
    "algorithms.delete_slowest.calls": "count",
    "algorithms.delete_slowest.busy_s": "s",
    "algorithms.self_s": "s",
    "baselines.exact.calls": "count",
    "baselines.exact.lp_calls": "count",
    "baselines.exact.lp_s": "s",
    "baselines.exact.self_s": "s",
    "baselines.greedy.calls": "count",
    "baselines.greedy.busy_s": "s",
    "graph.shortest_path.calls": "count",
    "graph.shortest_path.busy_s": "s",
    "cli.report_to_json.calls": "count",
    "cli.report_to_json.busy_s": "s",
    "cli.verify_report.calls": "count",
    "cli.verify_report.busy_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and busy times of one traced pass."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)

    def solver_of(s: Span) -> str | None:
        p = s.parent
        while p is not None:
            if by_id[p].name.startswith("solver."):
                return by_id[p].name
            p = by_id[p].parent
        return None

    m = dict.fromkeys(LAYER_METRICS, 0.0)

    def tally(prefix: str, s: Span) -> None:
        m[prefix + ".calls"] += 1
        m[prefix + ".busy_s"] += s.duration

    simple = {
        "problem.build_counterpart",
        "problem.evaluate_metrics",
        "decompose.cancel_cycles",
        "decompose.decompose",
        "algorithms.delete_slowest",
        "graph.shortest_path",
        "cli.report_to_json",
        "cli.verify_report",
    }
    for s in spans:
        if s.name in simple:
            tally(s.name, s)
        if s.name == "lp":
            tally("lp", s)
            engines = {c.name for c in kids.get(s.id, ())}
            if "lp.engine.highs" in engines:
                tally("lp.highs", s)
            elif "lp.engine.simplex" in engines:
                tally("lp.simplex", s)
            a = s.attrs
            m["lp.cells"] += a["cells"]
            m["lp.dense_mb"] = max(m["lp.dense_mb"], a["dense_mb"])
            m["lp.nnz_max"] = max(m["lp.nnz_max"], a["nnz"])
            m["lp.status.infeasible"] += a["status"] == "infeasible"
            if solver_of(s) == "solver.EXACT":
                m["baselines.exact.lp_calls"] += 1
                m["baselines.exact.lp_s"] += s.duration
        elif s.name == "problem.build_counterpart":
            m["problem.counterpart.rows_max"] = max(
                m["problem.counterpart.rows_max"], s.attrs["rows"]
            )
            m["problem.counterpart.cols_max"] = max(
                m["problem.counterpart.cols_max"], s.attrs["cols"]
            )
        elif s.name == "decompose.decompose":
            m["decompose.paths"] += s.attrs["paths"]
        elif s.name in PASS_SOLVERS:
            m["algorithms.self_s"] += own[s.id]
        elif s.name == "solver.EXACT":
            m["baselines.exact.calls"] += 1
            m["baselines.exact.self_s"] += own[s.id]
        elif s.name == "solver.GREEDY":
            tally("baselines.greedy", s)
    return m
