"""Unified work-stealing DAG executor: the one dispatch layer.

The experiment layer is parallel at three nesting levels — experiment
cells, annealing restarts inside a cell's mapping search, and scaling
assessments inside a cell's sweep.  Rather than giving each cut a pool
of its own (a cell dispatched to a pool would have to force its inner
cuts serial to avoid nested pools, leaving most cores idle on a small
grid), this module flattens the task DAG.  Cell *orchestration* (the
cheap coordination code: building jobs, replaying rankings and
early-exit policies) runs on lightweight coordinator threads, while
every *leaf* task — an annealing restart or a scaling assessment — is
submitted to one shared :class:`DagExecutor`.  The executor's single
ready-queue is shared by all cells, so an idle worker picks up inner
work from whichever cell still has tasks in flight: work stealing
without a scheduler, just one queue.

Determinism contract
--------------------
The house invariant survives unchanged because the executor never
*decides* anything:

* every leaf task carries the same per-item seed the serial code path
  would use, and rebuilds private state (evaluators) in the worker;
* :meth:`DagExecutor.map` returns results in submission order whatever
  the completion order (stable task ids = list indices per batch);
* best-of selection and early-exit policies are replayed by the
  *callers* over those ordered results.

So a DAG-executed grid reassembles bit-identical reports to a serial
run; only wall-clock and the operational :class:`ExecutorStats`
change.

Transports
----------
Where leaves physically run is pluggable behind :class:`Transport`, a
two-method interface (``submit(fn, *args) -> Future`` + ``close()``).
:class:`SerialTransport` runs inline (the reference), and
:class:`PoolTransport` wraps the in-process thread/process pools.  A
socket or queue transport only has to return objects honouring the
``concurrent.futures.Future`` result/cancel protocol — no caller
changes required.

Ambient wiring
--------------
The executor of the innermost :func:`executor_scope` is the only
source of parallelism.  Inner code (``DesignOptimizer.optimize``,
``SimulatedAnnealingMapper.run``) asks :func:`current_executor` and
nothing else: with an executor in scope it ships its leaves there,
tagged with :func:`current_source`; with none it runs its serial
loop.  ``executor_scope(None)`` masks an enclosing scope — serial
profiles run under it, and so does every leaf (:func:`_dag_leaf`), so
a leaf never re-dispatches into the executor that is running it.
Scopes are thread-local, so each cell orchestration thread tags its
submissions with its own source label (that is what the steal counter
measures).
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

TRANSPORT_NAMES = ("serial", "thread", "process", "auto")

#: Thread-local state of the *worker* executing leaves: remembers the
#: last source label so a worker can report, accurately and without
#: coordinator-side guessing, that it just switched cells (= a steal).
_WORKER_STATE = threading.local()


def payload_picklable(probe: Any) -> bool:
    """Whether ``probe`` round-trips through pickle (process-pool food)."""
    try:
        pickle.dumps(probe)
    except Exception:
        return False
    return True


def _dag_leaf(source: str, fn: Callable[[Any], Any], item: Any):
    """Instrumented leaf trampoline (module-level: process pools pickle it).

    Returns ``(worker tag, stolen, fn(item))`` where ``stolen`` flags
    that this worker's previous leaf came from a different source
    (another cell) — the work-stealing observability hook.  The leaf
    runs under a masked scope, so it never re-dispatches into the
    executor running it: :class:`SerialTransport` runs it inline on the
    coordinator thread, and fork-started process workers inherit the
    scope stack of the thread that spawned them.
    """
    thread = threading.current_thread()
    tag = f"pid{os.getpid()}:{thread.name}"
    previous = getattr(_WORKER_STATE, "source", None)
    _WORKER_STATE.source = source
    stolen = previous is not None and previous != source
    stack = _scope_stack()  # executor_scope(None), minus the generator cost
    stack.append((None, None))
    try:
        return tag, stolen, fn(item)
    finally:
        stack.pop()


# ---------------------------------------------------------------------------
# Transports: where leaf tasks physically run.
# ---------------------------------------------------------------------------


class Transport(ABC):
    """Pluggable submission boundary for leaf tasks.

    ``submit`` enqueues one call and returns a
    :class:`concurrent.futures.Future`-compatible handle; that is the
    whole interface, so an out-of-process transport (socket, queue)
    can replace the in-process pools without touching any caller.
    """

    name: str = "abstract"

    @abstractmethod
    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Enqueue ``fn(*args)``; the returned future resolves to its result."""

    def close(self) -> None:
        """Release transport resources (no-op for poolless transports)."""

    def recover(self, exc: BaseException) -> bool:
        """Attempt to heal the transport after a worker-loss failure.

        Called by the executor before retrying a leaf whose failure
        was retryable.  Returns ``True`` when something was actually
        rebuilt (surfaced as ``worker_restarts`` in the stats).  The
        base implementation has nothing to heal.
        """
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialTransport(Transport):
    """Inline execution in the submitting thread — the reference transport."""

    name = "serial"

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: B036 - mirrored into the future
            future.set_exception(exc)
        return future


class PoolTransport(Transport):
    """In-process pool transport over the stdlib executors.

    ``kind`` is ``"thread"`` or ``"process"``.  The pool is created
    lazily and sized from the machine (or the explicit cap) — it is
    shared by *every* cell of a DAG run, which is the whole point:
    one queue, all workers, any cell's leaves.
    """

    _EXECUTORS = {"thread": ThreadPoolExecutor, "process": ProcessPoolExecutor}

    def __init__(self, kind: str, max_workers: Optional[int] = None) -> None:
        if kind not in self._EXECUTORS:
            raise ValueError(f"unknown pool transport {kind!r}; choose thread/process")
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.name = kind
        self.max_workers = max_workers
        self._executor = None
        self._lock = threading.Lock()

    def workers(self) -> int:
        """The pool size this transport runs (or would run) with."""
        return self.max_workers or max(os.cpu_count() or 1, 1)

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        for retry in (False, True):
            with self._lock:
                if self._executor is None:
                    self._executor = self._EXECUTORS[self.name](
                        max_workers=self.workers()
                    )
                executor = self._executor
            try:
                return executor.submit(fn, *args)
            except BrokenExecutor:
                # A worker died while the pool was idle enough that the
                # breakage surfaces at submit time: discard the carcass
                # and resubmit on a fresh pool (once).
                if retry:
                    raise
                self._discard(executor)
        raise AssertionError("unreachable")  # pragma: no cover

    def _discard(self, executor) -> None:
        """Drop ``executor`` so the next submit builds a fresh pool."""
        with self._lock:
            if self._executor is executor:
                self._executor = None
        executor.shutdown(wait=False)

    def recover(self, exc: BaseException) -> bool:
        """Rebuild the pool when a dead worker broke it.

        ``ProcessPoolExecutor`` marks itself broken when a worker dies;
        every in-flight future fails with ``BrokenProcessPool`` and no
        new work is accepted.  Discarding the broken pool here lets the
        executor resubmit the lost leaves on a fresh one.
        """
        with self._lock:
            executor = self._executor
        if executor is None or not getattr(executor, "_broken", False):
            return False
        self._discard(executor)
        return True

    def close(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


def resolve_transport(
    spec: Optional[str],
    max_workers: Optional[int] = None,
    payload_probe: Any = None,
) -> Transport:
    """Turn a transport spec into a transport instance.

    ``"auto"`` (and ``None``) prefers processes when the machine has
    more than one CPU and the probe (when given) pickles, degrading to
    inline execution otherwise: on one CPU worker processes only add
    overhead, and unpicklable (GIL-bound, pure-Python) payloads would
    gain nothing from threads either.
    """
    name = (spec or "auto").lower()
    if name not in TRANSPORT_NAMES:
        raise ValueError(
            f"unknown transport {spec!r}; choose from {TRANSPORT_NAMES}"
        )
    if name == "serial":
        return SerialTransport()
    if name in ("thread", "process"):
        return PoolTransport(name, max_workers=max_workers)
    cpus = os.cpu_count() or 1
    if cpus <= 1:
        return SerialTransport()
    if payload_probe is not None and not payload_picklable(payload_probe):
        return SerialTransport()
    return PoolTransport("process", max_workers=max_workers)


# ---------------------------------------------------------------------------
# Executor statistics: the observable side of work stealing.
# ---------------------------------------------------------------------------


@dataclass
class ExecutorStats:
    """Utilization counters of one :class:`DagExecutor`.

    Operational data only — deliberately *not* part of any report body
    covered by the byte-identical determinism contract (worker tags
    and steal counts vary run to run by construction).
    """

    submitted: int = 0  # leaf tasks handed to the transport (incl. retries)
    tasks: int = 0  # leaf tasks completed successfully
    steals: int = 0  # completions where the worker switched source
    queue_high_water: int = 0  # max leaves in flight at once
    retries: int = 0  # leaf attempts re-submitted after a retryable failure
    worker_restarts: int = 0  # transport rebuilds after worker death
    per_worker: Dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> "ExecutorStats":
        return ExecutorStats(
            submitted=self.submitted,
            tasks=self.tasks,
            steals=self.steals,
            queue_high_water=self.queue_high_water,
            retries=self.retries,
            worker_restarts=self.worker_restarts,
            per_worker=dict(self.per_worker),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready view (what the run-store manifest records)."""
        return {
            "submitted": self.submitted,
            "tasks": self.tasks,
            "steals": self.steals,
            "queue_high_water": self.queue_high_water,
            "retries": self.retries,
            "worker_restarts": self.worker_restarts,
            "workers": len(self.per_worker),
            "per_worker": {
                tag: self.per_worker[tag] for tag in sorted(self.per_worker)
            },
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ExecutorStats":
        return cls(
            submitted=int(raw.get("submitted", 0)),
            tasks=int(raw.get("tasks", 0)),
            steals=int(raw.get("steals", 0)),
            queue_high_water=int(raw.get("queue_high_water", 0)),
            retries=int(raw.get("retries", 0)),
            worker_restarts=int(raw.get("worker_restarts", 0)),
            per_worker={
                str(tag): int(count)
                for tag, count in dict(raw.get("per_worker", {})).items()
            },
        )

    def summary(self) -> str:
        """One-line human summary for CLI surfaces."""
        workers = len(self.per_worker)
        if workers:
            counts = sorted(self.per_worker.values())
            spread = f"{counts[0]}-{counts[-1]} tasks/worker"
        else:
            spread = "no tasks"
        line = (
            f"{self.tasks} tasks over {workers} worker(s) ({spread}), "
            f"{self.steals} steals, queue high-water {self.queue_high_water}"
        )
        if self.retries or self.worker_restarts:
            line += (
                f", {self.retries} retries,"
                f" {self.worker_restarts} worker restart(s)"
            )
        return line


# ---------------------------------------------------------------------------
# The executor.
# ---------------------------------------------------------------------------


class DagExecutor:
    """One shared worker pool for a whole task DAG.

    Thread-safe: any number of cell orchestration threads may call
    :meth:`map` / :meth:`map_stream` concurrently; all their leaves
    funnel into the transport's single queue.  Each call reassembles
    its own batch in submission order — stable ids are just the batch
    indices, so callers replay serial policies over ordered results.
    """

    def __init__(
        self,
        transport: Transport,
        retry_policy: Optional["RetryPolicy"] = None,
    ) -> None:
        if retry_policy is None:
            from repro.exec.resilience import RetryPolicy

            retry_policy = RetryPolicy()
        self.transport = transport
        self.retry_policy = retry_policy
        self._lock = threading.Lock()
        self._stats = ExecutorStats()
        self._pending = 0

    @classmethod
    def from_spec(
        cls,
        spec: Optional[str] = None,
        max_workers: Optional[int] = None,
        payload_probe: Any = None,
        retry_policy: Optional["RetryPolicy"] = None,
    ) -> "DagExecutor":
        """An executor over :func:`resolve_transport`'s choice for ``spec``.

        When ``REPRO_CHAOS`` is set in the environment the transport is
        wrapped in a :class:`~repro.exec.resilience.FaultInjectingTransport`
        so chaos runs need no code changes anywhere above this call.
        """
        from repro.exec.resilience import FaultInjectingTransport, FaultPlan

        transport = resolve_transport(spec, max_workers, payload_probe)
        plan = FaultPlan.from_env()
        if plan is not None:
            transport = FaultInjectingTransport(transport, plan)
        return cls(transport, retry_policy=retry_policy)

    @property
    def stats(self) -> ExecutorStats:
        with self._lock:
            return self._stats.snapshot()

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        source: Optional[str] = None,
    ) -> List[Any]:
        """Submit one batch of leaves; return results in item order."""
        return self.map_stream(fn, items, callback=None, source=source)

    def map_stream(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        callback: Optional[Callable[[int, Any], None]] = None,
        source: Optional[str] = None,
    ) -> List[Any]:
        """:meth:`map` with a completion-order callback.

        ``callback(index, result)`` fires once per item in *completion*
        order — the streaming hook the run store uses to persist each
        experiment cell the moment it finishes — and runs in the
        submitting thread.  The returned list keeps item order.  If
        the callback or a leaf raises, outstanding leaves of *this
        batch* are cancelled and in-flight ones drained before the
        exception propagates — no work leaks past the call.

        Worker-loss failures (a dead pool worker, an injected chaos
        crash, a leaf deadline) are *retried* under the executor's
        :class:`~repro.exec.resilience.RetryPolicy` instead of
        propagating: the transport is given a chance to heal
        (:meth:`Transport.recover`), the backoff delay elapses, and the
        same item is resubmitted.  Leaves are pure, so a retried leaf
        reproduces the lost result exactly and the batch stays
        byte-identical; only ``retries`` / ``worker_restarts`` in the
        stats record that anything happened.  Exceptions raised *by the
        leaf function* are not retryable and propagate immediately.
        """
        items = list(items)
        if not items:
            return []
        label = source or current_source() or "tasks"
        policy = self.retry_policy
        with self._lock:
            self._pending += len(items)
            self._stats.submitted += len(items)
            if self._pending > self._stats.queue_high_water:
                self._stats.queue_high_water = self._pending
        active: Dict[Future, int] = {}
        deadlines: Dict[Future, float] = {}
        failures = [0] * len(items)

        def _submit(index: int) -> None:
            future = self.transport.submit(_dag_leaf, label, fn, items[index])
            active[future] = index
            if policy.leaf_timeout_s is not None:
                deadlines[future] = time.monotonic() + policy.leaf_timeout_s

        def _handle_failure(index: int, exc: BaseException) -> None:
            """Resubmit ``index`` after a retryable failure, or raise."""
            failures[index] += 1
            if not policy.retryable(exc) or failures[index] >= policy.max_attempts:
                raise exc
            if self.transport.recover(exc):
                with self._lock:
                    self._stats.worker_restarts += 1
            with self._lock:
                self._stats.retries += 1
                self._stats.submitted += 1
            delay = policy.delay_s(failures[index], key=f"{label}:{index}")
            if delay:
                time.sleep(delay)
            _submit(index)

        for index in range(len(items)):
            _submit(index)
        results: List[Any] = [None] * len(items)
        completed = 0
        try:
            while active:
                timeout = None
                if deadlines:
                    timeout = max(
                        0.0, min(deadlines.values()) - time.monotonic()
                    )
                done, _ = wait(
                    list(active), timeout=timeout, return_when=FIRST_COMPLETED
                )
                for future in done:
                    index = active.pop(future)
                    deadlines.pop(future, None)
                    try:
                        tag, stolen, value = future.result()
                    except BaseException as exc:  # noqa: B036 - classified below
                        _handle_failure(index, exc)
                        continue
                    completed += 1
                    with self._lock:
                        self._pending -= 1
                        self._stats.tasks += 1
                        self._stats.per_worker[tag] = (
                            self._stats.per_worker.get(tag, 0) + 1
                        )
                        if stolen:
                            self._stats.steals += 1
                    results[index] = value
                    if callback is not None:
                        callback(index, value)
                if deadlines:
                    # A leaf past its deadline is treated as lost: drop
                    # the straggler future (its late result is ignored —
                    # leaves are pure, the retry reproduces it) and
                    # resubmit under the retry policy.
                    from repro.exec.resilience import LeafTimeoutError

                    now = time.monotonic()
                    expired = [
                        future
                        for future, deadline in deadlines.items()
                        if deadline <= now and future in active
                    ]
                    for future in expired:
                        index = active.pop(future)
                        deadlines.pop(future, None)
                        future.cancel()
                        _handle_failure(
                            index,
                            LeafTimeoutError(
                                f"leaf {label}:{index} exceeded "
                                f"{policy.leaf_timeout_s}s deadline"
                            ),
                        )
        except BaseException:
            for future in active:
                future.cancel()
            wait(list(active))
            with self._lock:
                self._pending -= len(items) - completed
            raise
        return results

    def close(self) -> None:
        """Shut the transport down (waits for in-flight leaves)."""
        self.transport.close()

    def __enter__(self) -> "DagExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Ambient scope: how inner code finds the shared executor.
# ---------------------------------------------------------------------------

_AMBIENT = threading.local()


def _scope_stack() -> list:
    stack = getattr(_AMBIENT, "stack", None)
    if stack is None:
        stack = []
        _AMBIENT.stack = stack
    return stack


def current_executor() -> Optional[DagExecutor]:
    """The executor of the innermost active scope on this thread."""
    stack = _scope_stack()
    return stack[-1][0] if stack else None


def current_source() -> Optional[str]:
    """The source label of the innermost active scope on this thread."""
    stack = _scope_stack()
    return stack[-1][1] if stack else None


@contextmanager
def executor_scope(executor: Optional[DagExecutor], source: Optional[str] = None):
    """Make ``executor`` ambient on this thread for the ``with`` body.

    ``source`` labels submissions made under the scope (steal
    attribution).  Scopes nest and are strictly thread-local — a cell
    orchestration thread must open its own scope, which
    ``run_cells`` does.  ``None`` masks every enclosing scope: code in
    the body sees no executor and runs its serial loops.
    """
    stack = _scope_stack()
    stack.append((executor, source))
    try:
        yield executor
    finally:
        stack.pop()
