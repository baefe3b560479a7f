"""Per-layer tracing of the polarsolve package, applied from outside.

The tracer wraps every public function of the package's layer modules at
every ``polarsolve.*`` module attribute through which it is reachable
(``polarsolve.solver.grid_best_response`` is the oracle's function bound
into the solver module, so it is wrapped there too).  The source is never
edited, and :meth:`Tracer.uninstall` puts the original functions back.

* The leaf layers (gaussmath, model, calculus) keep only a call count and
  summed self time per function: they run millions of times per workload.
* The upper layers (solver, analysis, oracle, verify, cli) record a span
  per call: name, parent span, op id, start, end, self time, the error
  class it raised, and a few attributes read from its arguments or result.

Self time is a call's duration minus the part of it that its traced
children cover.  Children that ran on another thread (``sweep_w``'s worker
pool) are attached to the span the main thread has open and are
subtracted as the union of their intervals, so concurrent rows are not
subtracted twice.  State is kept per thread and merged at the end, so
counts never lose an update to a thread switch.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("gaussmath", "model", "calculus", "solver", "analysis", "oracle", "verify", "cli")
LEAF_LAYERS = ("gaussmath", "model", "calculus")
SOLVES = ("solver.solve_symmetric", "solver.solve_asymmetric")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class _ThreadState:
    __slots__ = ("stack", "spans", "counts")

    def __init__(self) -> None:
        self.stack: list[float] = []  # child time of each open call, innermost last
        self.spans: list[tuple[int, list]] = []  # open spans: (id, cross-thread child intervals)
        self.counts: dict[str, list] = defaultdict(lambda: [0, 0.0])


def _describe(name: str, fn, args: tuple, kwargs: dict, result) -> dict | None:
    """Attributes a span keeps, read from the call's arguments or result."""
    if name in SOLVES:
        return {"iterations": result.iterations, "certified": result.certified}
    if name == "analysis.sweep_w":
        return {"rows": len(result), "rows_failed": sum(1 for r in result if math.isnan(r.p_L))}
    if name in ("oracle.grid_best_response", "oracle.mc_win_probability"):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if name == "oracle.mc_win_probability":
            return {"samples": a["n_samples"]}
        lo, hi = a["span"]
        return {"points": int(round((hi - lo) / a["grid_step"])) + 1}
    return None


class Tracer:
    """Wraps the package's public functions; see the module docstring."""

    def __init__(self) -> None:
        self.op = -1  # id of the op in progress; see next_op
        self.spans: list[list] = []  # [id, parent, op, name, t0, t1, self_s, error, attrs]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._main = self._state()
        self._patched: list[tuple[object, str, object]] = []
        self._next_id = iter(range(1, 1 << 62)).__next__

    def next_op(self) -> None:
        """Start a new op: the spans that follow share its id."""
        self.op += 1

    def _state(self) -> _ThreadState:
        st = _ThreadState()
        self._local.state = st
        with self._lock:
            self._states.append(st)
        return st

    def _orphan_parent(self, t0: float, t1: float) -> int | None:
        """A call on a worker thread with nothing open there: attach its
        interval to the innermost span the main thread has open."""
        if not self._main.spans:
            return None
        span_id, intervals = self._main.spans[-1]
        intervals.append((t0, t1))
        return span_id

    # -- wrappers -------------------------------------------------------

    def _leaf(self, fn, key: str):
        local, main, clock = self._local, self._main, time.perf_counter

        def wrapper(*args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = self._state()
            stack = st.stack
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                c = st.counts[key]
                c[0] += 1
                c[1] += dt - child
                if stack:
                    stack[-1] += dt
                elif st is not main:
                    self._orphan_parent(t0, t0 + dt)

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, fn, name: str):
        local, main, clock = self._local, self._main, time.perf_counter

        def wrapper(*args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = self._state()
            stack, spans = st.stack, st.spans
            span_id = self._next_id()
            parent = spans[-1][0] if spans else None
            intervals: list[tuple[float, float]] = []
            spans.append((span_id, intervals))
            stack.append(0.0)
            error = result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                child = stack.pop()
                spans.pop()
                self_s = (t1 - t0) - child - _covered(intervals)
                if stack:
                    stack[-1] += t1 - t0
                elif st is not main:
                    parent = self._orphan_parent(t0, t1)
                attrs = None if error else _describe(name, fn, args, kwargs, result)
                self.spans.append([span_id, parent, self.op, name, t0, t1, self_s, error, attrs])

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"polarsolve.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    key = f"{layer}.{attr}"
                    make = self._leaf if layer in LEAF_LAYERS else self._span
                    wrappers[id(fn)] = make(fn, key)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "polarsolve" and not mod_name.startswith("polarsolve."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def counts(self) -> dict[str, tuple[int, float]]:
        merged: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for st in self._states:
            for key, (calls, self_s) in st.counts.items():
                merged[key][0] += calls
                merged[key][1] += self_s
        return {k: (v[0], v[1]) for k, v in merged.items()}

    def dump(self, path: Path) -> None:
        """Write spans and leaf counters as gzipped JSON."""
        payload = {
            "span_fields": ["id", "parent", "op", "name", "t0", "t1", "self_s", "error", "attrs"],
            "spans": self.spans,
            "leaf_counts": {k: {"calls": c, "self_s": s} for k, (c, s) in self.counts().items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, by name: (value, unit).

    Every metric is present on every workload; a layer that did not run
    reads 0.
    """
    counts = tracer.counts()
    by_id = {s[0]: s for s in tracer.spans}
    by_name: dict[str, list] = defaultdict(list)
    for s in tracer.spans:
        by_name[s[3]].append(s)

    def calls(*keys: str) -> int:
        return sum(counts.get(k, (0, 0.0))[0] + len(by_name.get(k, ())) for k in keys)

    def self_s(*keys: str) -> float:
        return sum(counts.get(k, (0, 0.0))[1] + sum(s[6] for s in by_name.get(k, ())) for k in keys)

    def layer_self(layer: str) -> float:
        return sum(v[1] for k, v in counts.items() if k.startswith(layer + "."))

    def parent_name(s: list) -> str | None:
        p = by_id.get(s[1])
        return p[3] if p else None

    def children_of(parent: str, layer_or_name: str) -> int:
        return sum(
            1 for s in tracer.spans
            if (s[3] == layer_or_name or s[3].startswith(layer_or_name + "."))
            and parent_name(s) == parent
        )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # solves whose outcome left the solver layer (not nested in another solver call)
    top_solver = [
        s for s in tracer.spans
        if s[3].startswith("solver.") and not (parent_name(s) or "").startswith("solver.")
    ]
    top_solves = [s for s in top_solver if s[3] in SOLVES]
    asym_ok = [s for s in by_name.get("solver.solve_asymmetric", ()) if s[8]]
    sweeps = by_name.get("analysis.sweep_w", ())
    rows = sum(s[8]["rows"] for s in sweeps if s[8])

    m: dict[str, tuple[float, str]] = {
        "gaussmath.std_normal_cdf.calls": (calls("gaussmath.std_normal_cdf"), "count"),
        "gaussmath.std_normal_pdf.calls": (calls("gaussmath.std_normal_pdf"), "count"),
        "gaussmath.self_s": (layer_self("gaussmath"), "s"),
        "model.expected_utility.calls": (
            calls("model.expected_utility_L", "model.expected_utility_R"), "count"),
        "model.expected_utility.self_s": (
            self_s("model.expected_utility_L", "model.expected_utility_R"), "s"),
        "model.win_margin.calls": (calls("model.win_margin"), "count"),
        "calculus.foc.calls": (calls("calculus.d_euL_d_pL", "calculus.d_euR_d_pR"), "count"),
        "calculus.soc.calls": (calls("calculus.d2_euL_d_pL2", "calculus.d2_euR_d_pR2"), "count"),
        "calculus.foc_symmetric.calls": (calls("calculus.foc_symmetric"), "count"),
        "calculus.self_s": (layer_self("calculus"), "s"),
        "solver.best_response.calls": (calls("solver.best_response"), "count"),
        "solver.best_response.self_s": (self_s("solver.best_response"), "s"),
        "solver.best_response.per_solve": (ratio(
            children_of("solver.solve_asymmetric", "solver.best_response"),
            calls("solver.solve_asymmetric")), "ratio"),
        "solver.solve_asymmetric.calls": (calls("solver.solve_asymmetric"), "count"),
        "solver.solve_asymmetric.self_s": (self_s("solver.solve_asymmetric"), "s"),
        "solver.solve_asymmetric.iterations_mean": (
            statistics.fmean(s[8]["iterations"] for s in asym_ok) if asym_ok else 0.0, "count"),
        "solver.symmetric_foc_root.calls": (calls("solver.symmetric_foc_root"), "count"),
        "solver.symmetric_foc_root.self_s": (self_s("solver.symmetric_foc_root"), "s"),
        "solver.solve_symmetric.calls": (calls("solver.solve_symmetric"), "count"),
        "solver.errors.UnboundedResponseError": (
            sum(1 for s in top_solver if s[7] == "UnboundedResponseError"), "count"),
        "solver.errors.ConvergenceError": (
            sum(1 for s in top_solver if s[7] == "ConvergenceError"), "count"),
        "solver.certified_ratio": (ratio(
            sum(1 for s in top_solves if s[8] and s[8]["certified"]), len(top_solves)), "ratio"),
        "analysis.sweep_w.self_s": (self_s("analysis.sweep_w"), "s"),
        "analysis.sweep_w.rows_failed": (sum(s[8]["rows_failed"] for s in sweeps if s[8]), "count"),
        "analysis.solves_per_row": (ratio(children_of("analysis.sweep_w", "solver"), rows), "ratio"),
        "analysis.w_tilde.calls": (calls("analysis.w_tilde"), "count"),
        "analysis.w_tilde.self_s": (self_s("analysis.w_tilde"), "s"),
        "analysis.w_tilde.foc_root_calls": (
            children_of("analysis.w_tilde", "solver.symmetric_foc_root"), "count"),
        "analysis.w_tilde.errors": (
            sum(1 for s in by_name.get("analysis.w_tilde", ()) if s[7]), "count"),
        "oracle.grid_best_response.calls": (calls("oracle.grid_best_response"), "count"),
        "oracle.grid_best_response.self_s": (self_s("oracle.grid_best_response"), "s"),
        "oracle.grid_best_response.points": (sum(
            s[8]["points"] for s in by_name.get("oracle.grid_best_response", ()) if s[8]), "count"),
        "oracle.peak_scan.calls": (calls("oracle.peak_scan"), "count"),
        "oracle.peak_scan.self_s": (self_s("oracle.peak_scan"), "s"),
        "oracle.mc_win_probability.calls": (calls("oracle.mc_win_probability"), "count"),
        "oracle.mc_win_probability.self_s": (self_s("oracle.mc_win_probability"), "s"),
        "oracle.mc_win_probability.samples": (sum(
            s[8]["samples"] for s in by_name.get("oracle.mc_win_probability", ()) if s[8]), "count"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    }
    return m
