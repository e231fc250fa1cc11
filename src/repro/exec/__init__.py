"""Parallel execution substrate for design-space sweeps.

:mod:`repro.exec.dag` is the one dispatch layer: a work-stealing DAG
executor that flattens experiment cells, annealing restarts and
scaling assessments into one shared worker pool, reached through the
thread-local :func:`executor_scope` / :func:`current_executor` pair.
:meth:`repro.optim.design_optimizer.DesignOptimizer.optimize` is the
canonical consumer: with an executor in scope, independent work items
are assessed concurrently with the same per-item seeds as the serial
loop, and the serial selection/early-exit policies are replayed over
the ordered results, so serial and parallel sweeps select the
identical design.
"""

from repro.exec.dag import (
    TRANSPORT_NAMES,
    DagExecutor,
    ExecutorStats,
    PoolTransport,
    SerialTransport,
    Transport,
    current_executor,
    executor_scope,
    payload_picklable,
    resolve_transport,
)
from repro.exec.resilience import (
    CHAOS_ENV,
    FaultInjectingTransport,
    FaultPlan,
    InjectedTransientError,
    InjectedWorkerCrash,
    LeafTimeoutError,
    RetryPolicy,
    TransientWorkerError,
)

__all__ = [
    "TRANSPORT_NAMES",
    "DagExecutor",
    "ExecutorStats",
    "PoolTransport",
    "SerialTransport",
    "Transport",
    "current_executor",
    "executor_scope",
    "payload_picklable",
    "resolve_transport",
    "CHAOS_ENV",
    "FaultInjectingTransport",
    "FaultPlan",
    "InjectedTransientError",
    "InjectedWorkerCrash",
    "LeafTimeoutError",
    "RetryPolicy",
    "TransientWorkerError",
]
