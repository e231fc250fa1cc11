"""The job layer: a bounded queue feeding one shared DagExecutor.

:class:`JobManager` accepts submissions (validated payloads or
:class:`~repro.api.RunSpec`\\ s), registers them through
:func:`repro.api.submit_run` and executes them on a small pool of
worker threads.  Each worker opens an
:func:`~repro.exec.dag.executor_scope` around its job, so every run's
leaf tasks — annealing restarts, scaling assessments, experiment
cells — funnel into the *one* shared work-stealing
:class:`~repro.exec.dag.DagExecutor` owned by the manager: the
concurrency limit is the worker count, the machine's parallelism is
the executor's transport, and an idle worker steals inner work from
whichever run is busiest.

Dedup happens twice, both through the facade: completed runs are
served from the store (``cached=True``, nothing enqueued) and runs
already queued or executing are *joined* (the second tenant gets the
same run id and polls the same manifests).  Beyond the worker count,
submissions queue rather than reject; only a full queue (the
``queue_size`` backstop) refuses with :class:`QueueFullError`.
"""

from __future__ import annotations

import queue
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro import api
from repro.exec.dag import DagExecutor, executor_scope

_SENTINEL = object()


class QueueFullError(api.ApiError):
    """The bounded job queue is at capacity; retry later."""

    code = "queue-full"
    http_status = 503
    retryable = True
    retry_after_s: Optional[float] = 1.0

    def __init__(
        self,
        message: str,
        field: Optional[str] = None,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(message, field=field)
        if retry_after_s is not None:
            self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`JobManager`.

    ``max_concurrency`` bounds in-flight runs (worker threads);
    ``queue_size`` bounds runs waiting behind them; ``transport``
    picks the shared executor's transport (``"thread"``,
    ``"process"``, ``"serial"`` or ``"auto"``); ``default_exec_plan``
    is applied to submissions that do not pin an ``exec_plan`` of
    their own — it is an execution knob, outside the run identity, so
    it never affects dedup or results (the DAG determinism contract).
    ``resume_orphans`` arms supervisor re-attach: on :meth:`start` the
    manager adopts queued/running records whose previous owner died
    and re-dispatches them (the store's fingerprint-keyed resume skips
    their completed cells).  ``retry_after_s`` is the backoff hint a
    full queue sends clients (the 503 ``Retry-After`` header).
    """

    store_root: str
    max_concurrency: int = 2
    queue_size: int = 64
    transport: str = "thread"
    default_exec_plan: Optional[str] = "dag"
    resume_orphans: bool = True
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if self.retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")


class JobManager:
    """Bounded job queue + worker pool over one service store root."""

    def __init__(self, config: Union[ServiceConfig, str, Path]) -> None:
        if not isinstance(config, ServiceConfig):
            config = ServiceConfig(store_root=str(config))
        self.config = config
        self.store_root = Path(config.store_root)
        self.store_root.mkdir(parents=True, exist_ok=True)
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=config.queue_size)
        self._lock = threading.Lock()
        self._active: Dict[str, str] = {}  # run id -> "queued" | "running"
        self._executor: Optional[DagExecutor] = None
        self._workers: List[threading.Thread] = []
        self._closed = False
        self._skip_queued = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "JobManager":
        """Open the shared executor and start the worker threads."""
        with self._lock:
            if self._workers:
                return self
            if self._closed:
                raise RuntimeError("JobManager is closed")
            # One walk at startup heals whatever state the index was
            # left in (crash mid-write, deleted, stale); from here on
            # every record/manifest write refreshes it incrementally
            # and the polling endpoints answer from it without
            # re-walking runs/.  A store the index cannot be built for
            # (unwritable, retired sharded layout) refuses to start.
            api.rebuild_index(self.store_root)
            adopted: List[str] = []
            if self.config.resume_orphans:
                # Supervisor re-attach: claim runs a dead server left
                # queued/running and re-dispatch them.  Fingerprint-keyed
                # resume makes this cheap — completed cells are read
                # back, only missing ones execute.
                adopted = api.reattach_pending(self.store_root)
            self._executor = DagExecutor.from_spec(self.config.transport)
            for run_id in adopted:
                try:
                    self._queue.put_nowait(run_id)
                except queue.Full:
                    # Leave the rest queued on disk; a later restart
                    # (or manual resubmission) picks them up.
                    print(
                        f"[service] queue full during re-attach; "
                        f"run {run_id} stays queued on disk",
                        file=sys.stderr,
                    )
                    break
                self._active[run_id] = "queued"
            if adopted:
                print(
                    f"[service] re-attached {len(adopted)} orphaned run(s)",
                    file=sys.stderr,
                )
            for index in range(self.config.max_concurrency):
                worker = threading.Thread(
                    target=self._work,
                    name=f"repro-job-worker-{index}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
        return self

    def close(self, execute_queued: bool = True) -> None:
        """Drain the workers and shut the shared executor down.

        ``execute_queued=True`` (the default) lets the workers finish
        the whole backlog before stopping.  ``execute_queued=False`` is
        the graceful-drain mode (SIGTERM): in-flight runs finish —
        their cells are streaming to the store either way — but queued
        runs are *skipped*, staying ``queued`` on disk for the next
        boot's supervisor re-attach.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._skip_queued = not execute_queued
            workers = list(self._workers)
        for _ in workers:
            self._queue.put(_SENTINEL)
        for worker in workers:
            worker.join()
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "JobManager":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the service surface ------------------------------------------------

    def submit(
        self,
        payload: Union[api.RunSpec, str, Mapping[str, Any]],
        tenant: str = "default",
    ) -> api.RunSubmission:
        """Validate, dedup and (when fresh) enqueue one submission.

        Returns immediately: ``cached=True`` submissions were served
        complete from the store; everything else is queued, running,
        or joined — poll :meth:`status` with the returned run id.
        """
        spec = api.RunSpec.coerce(payload)
        with self._lock:
            if self._closed:
                raise RuntimeError("JobManager is closed")
            in_flight = self._active.get(spec.run_id())
            if in_flight in ("queued", "running"):
                # Joined in-process: keep the record's tenant labels
                # fresh but do not requeue.
                submission = api.submit_run(
                    spec, self.store_root, tenant=tenant, wait=False
                )
                return api.RunSubmission(
                    run_id=submission.run_id,
                    state=in_flight,
                    cached=submission.cached,
                    report=submission.report,
                )
            submission = api.submit_run(
                spec, self.store_root, tenant=tenant, wait=False
            )
            if not submission.scheduled:
                return submission
            try:
                self._queue.put_nowait(submission.run_id)
            except queue.Full:
                api.cancel_run(self.store_root, submission.run_id)
                raise QueueFullError(
                    f"job queue is full ({self.config.queue_size} waiting); "
                    "retry later",
                    retry_after_s=self.config.retry_after_s,
                ) from None
            self._active[submission.run_id] = "queued"
        return submission

    def status(self, run_id: str) -> api.RunStatus:
        return api.run_status(self.store_root, run_id)

    def report(self, run_id: str) -> str:
        return api.fetch_report(self.store_root, run_id)

    def runs(self, tenant: Optional[str] = None) -> List[api.RunStatus]:
        return api.list_runs(self.store_root, tenant=tenant)

    def cancel(self, run_id: str) -> api.RunStatus:
        status = api.cancel_run(self.store_root, run_id)
        with self._lock:
            if self._active.get(run_id) == "queued":
                self._active[run_id] = "cancelled"
        return status

    def job_states(self) -> Dict[str, str]:
        """In-flight runs by id (``queued``/``running``) — observability."""
        with self._lock:
            return dict(self._active)

    def stats(self) -> Dict[str, Any]:
        """Queue + executor utilization for the health endpoint."""
        with self._lock:
            states = list(self._active.values())
            executor = self._executor
        return {
            "queued": states.count("queued"),
            "running": states.count("running"),
            "queue_capacity": self.config.queue_size,
            "max_concurrency": self.config.max_concurrency,
            "executor": executor.stats.to_dict() if executor else None,
        }

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued/running job drained (tests, shutdown)."""
        import time

        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if not self._active:
                    return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.02)

    # -- the worker loop ----------------------------------------------------

    def _work(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _SENTINEL:
                    return
                run_id = str(item)
                with self._lock:
                    if self._skip_queued:
                        # Graceful drain: leave the record queued on
                        # disk for the next boot's re-attach.
                        self._active.pop(run_id, None)
                        continue
                    if self._active.get(run_id) != "queued":
                        self._active.pop(run_id, None)
                        continue  # cancelled while waiting
                    self._active[run_id] = "running"
                    executor = self._executor
                try:
                    if executor is not None:
                        with executor_scope(executor, run_id):
                            api.run_submitted(
                                self.store_root,
                                run_id,
                                exec_plan=self.config.default_exec_plan,
                            )
                    else:  # pragma: no cover - executor always set by start()
                        api.run_submitted(
                            self.store_root,
                            run_id,
                            exec_plan=self.config.default_exec_plan,
                        )
                except Exception as exc:
                    # The facade already marked the record failed; the
                    # service stays up and the error is pollable.
                    print(
                        f"[service] run {run_id} failed: "
                        f"{type(exc).__name__}: {exc}",
                        file=sys.stderr,
                    )
                finally:
                    with self._lock:
                        self._active.pop(run_id, None)
            finally:
                self._queue.task_done()
