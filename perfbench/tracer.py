"""Span tracer that instruments the program from outside.

Wraps public entry points of the ``repro`` layers (class methods and
module functions) with timing shims.  Every wrapped call becomes a
span ``(id, name, start, end, parent id, request id)`` kept in memory
and written out by :meth:`Tracer.dump`; per-name aggregates (calls,
busy seconds and self seconds = busy minus the time covered by child
spans on the same thread) are kept alongside, so the summary stays
exact after the span buffer fills.

The tracer is off until :meth:`Tracer.enable`; disabled shims cost
one attribute test.  Forked worker processes inherit the shims but
never record (spans are kept only in the process that installed
them), so layers that run inside process pools are measured from the
parent side.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: Spans kept in memory; past this only the aggregates grow.
MAX_SPANS = 100_000


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self.dropped = 0
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, busy_s, self_s]
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- control ------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def active(self) -> bool:
        return self.enabled and os.getpid() == self.pid

    def set_request(self, request_id: Optional[str]) -> None:
        """Tag the spans this thread records from now on."""
        self._local.request = request_id

    def count(self, name: str, amount: float = 1) -> None:
        if not self.active():
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        if not self.active():
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        frame = [span_id, 0.0]  # id, seconds covered by child spans
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            busy = end - start
            if stack:
                stack[-1][1] += busy
            request = getattr(self._local, "request", None)
            with self._lock:
                entry = self.stats.get(name)
                if entry is None:
                    entry = self.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += busy
                entry[2] += busy - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, name, start, end, parent, request))
                else:
                    self.dropped += 1

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording shim."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def shim(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, original, *args, **kwargs)

        setattr(owner, attr, shim)

    def wrap_function(self, module: Any, attr: str, name: str,
                      after: Optional[Callable[[Any, tuple], None]] = None) -> Callable:
        """Wrap a module-level function everywhere it was imported.

        ``from x import f`` copies the binding, so every loaded module
        holding the same function object is re-pointed at the shim.
        ``after(result, args)`` runs on each traced call's result.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def shim(*args: Any, **kwargs: Any) -> Any:
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None and tracer.active():
                after(result, args)
            return result

        for loaded in list(sys.modules.values()):
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, shim)
        return shim

    # -- output -------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "stats": {name: list(entry) for name, entry in self.stats.items()},
                "counters": dict(self.counters),
                "spans": len(self.spans),
                "dropped": self.dropped,
            }

    def dump(self, path: str) -> None:
        """Write the spans and the aggregates as one JSON document."""
        with self._lock:
            document = {
                "pid": self.pid,
                "fields": ["id", "name", "start", "end", "parent", "request"],
                "spans": self.spans,
                "dropped": self.dropped,
                "stats": self.stats,
                "counters": self.counters,
            }
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the benchmark measures."""
    from repro import api
    from repro.exec import dag
    from repro.experiments import common, fig11, runner, table3
    from repro.mapping import incremental, metrics
    from repro.optim import design_optimizer
    from repro.sched import list_scheduler
    from repro.store import run_store
    from repro.taskgraph import graph

    # taskgraph: TaskGraph.compiled() memoizes; count only real builds.
    compiled = graph.TaskGraph.compiled

    @functools.wraps(compiled)
    def compiled_shim(self):
        if self._compiled_cache is None and tracer.active():
            return tracer.call("taskgraph.compile", compiled, self)
        return compiled(self)

    graph.TaskGraph.compiled = compiled_shim

    tracer.wrap(list_scheduler.ListScheduler, "schedule", "sched.schedule")

    # mapping: both evaluate entry points, with the LRU's hit/miss deltas.
    evaluator = metrics.MappingEvaluator
    for attr in ("evaluate", "evaluate_signature"):
        original = getattr(evaluator, attr)

        def evaluate_shim(self, *args, _original=original, **kwargs):
            if not tracer.active():
                return _original(self, *args, **kwargs)
            hits, misses = self.cache_hits, self.cache_misses
            try:
                return tracer.call("mapping.evaluate", _original, self, *args, **kwargs)
            finally:
                tracer.count("mapping.cache.hits", self.cache_hits - hits)
                tracer.count("mapping.cache.misses", self.cache_misses - misses)

        setattr(evaluator, attr, functools.wraps(original)(evaluate_shim))

    state = incremental.IncrementalMappingState
    for attr in ("estimate_current", "estimate_move", "estimate_move_index",
                 "estimate_swap", "estimate_swap_index", "estimate_mapping"):
        tracer.wrap(state, attr, "mapping.preview")

    # optim: one optimize = one sweep; one mapper call or restart plan =
    # one scaling assessment started (the plan's leaves run elsewhere).
    optimize = design_optimizer.DesignOptimizer.optimize

    @functools.wraps(optimize)
    def optimize_shim(self, *args, **kwargs):
        outcome = tracer.call("optim.optimize", optimize, self, *args, **kwargs)
        tracer.count("optim.scalings.used", len(outcome.assessments))
        # Work unit of the references: an evaluation schedules every task.
        tracer.count("optim.task_evaluations", outcome.evaluations * self.graph.num_tasks)
        return outcome

    design_optimizer.DesignOptimizer.optimize = optimize_shim
    tracer.wrap(design_optimizer.SEAMapper, "__call__", "optim.search")
    tracer.wrap(design_optimizer.SEAMapper, "restart_plan", "optim.search")

    # experiments: grid fan-out and whole-experiment entry points.
    tracer.wrap_function(
        common, "run_cells", "experiments.run_cells",
        after=lambda result, args: tracer.count("experiments.cells", len(args[0])),
    )
    for module, attr in ((table3, "run_table3"), (fig11, "run_fig11"),
                         (runner, "run_experiment"), (api, "execute_run"),
                         (api, "run_submitted")):
        shim = tracer.wrap_function(module, attr, "experiments.run")
        for key, value in list(runner._RUNNERS.items()):
            if value is getattr(shim, "__wrapped__", None):
                runner._RUNNERS[key] = shim

    # exec: the parent side of every leaf batch.
    tracer.wrap(dag.DagExecutor, "map_stream", "exec.map")

    # store and api.
    tracer.wrap(run_store.RunStore, "record_result", "store.append")
    tracer.wrap_function(api, "list_runs", "store.list")
    tracer.wrap_function(api, "submit_run", "api.submit")
    tracer.wrap_function(api, "run_status", "api.status")
    tracer.wrap_function(api, "fetch_report", "api.report")
