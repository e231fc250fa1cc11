"""Execution dispatch: the ambient DAG executor and the sweep determinism contract.

The ambient :func:`~repro.exec.dag.executor_scope` is the only source
of parallelism; these tests pin its transports, its ``auto`` policy
and the serial/parallel design-sweep parity under it.
"""

import os
import pickle
import time
from pathlib import Path

import pytest

from repro.arch import MPSoC
from repro.exec import (
    TRANSPORT_NAMES,
    DagExecutor,
    PoolTransport,
    SerialTransport,
    current_executor,
    executor_scope,
    payload_picklable,
    resolve_transport,
)
from repro.experiments import ExperimentProfile
from repro.experiments.common import EXEC_PLANS
from repro.mapping import Mapping, MappingEvaluator
from repro.optim import (
    AnnealingConfig,
    DesignOptimizer,
    RegisterUsageObjective,
    SEUObjective,
    SimulatedAnnealingMapper,
    baseline_mapper,
    sea_mapper,
)
from repro.taskgraph import mpeg2_decoder
from repro.taskgraph.mpeg2 import MPEG2_DEADLINE_S


def _square(value):
    return value * value


class TestBackends:
    @pytest.mark.parametrize(
        "backend", [SerialTransport(), PoolTransport("thread", max_workers=2)]
    )
    def test_map_preserves_order(self, backend):
        with DagExecutor(backend) as executor:
            assert executor.map(_square, list(range(20))) == [
                value * value for value in range(20)
            ]

    def test_process_map_preserves_order(self):
        with DagExecutor.from_spec("process", max_workers=2) as executor:
            assert executor.map(_square, list(range(8))) == [
                value * value for value in range(8)
            ]

    def test_empty_and_single_item(self):
        with DagExecutor.from_spec("thread") as executor:
            assert executor.map(_square, []) == []
            assert executor.map(_square, [3]) == [9]

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            PoolTransport("thread", max_workers=0)
        with pytest.raises(ValueError, match="exec_max_workers"):
            ExperimentProfile.fast().with_max_workers(0)

    def test_pool_not_sized_by_first_batch(self):
        # Regression: a small first map() must not throttle later,
        # larger batches for the lifetime of the pool.
        transport = PoolTransport("thread", max_workers=4)
        with DagExecutor(transport) as executor:
            executor.map(_square, [1, 2])
            assert transport._executor._max_workers == 4
            executor.map(_square, list(range(16)))
            assert transport._executor._max_workers == 4


def _mark_and_sleep(payload):
    """Touch a per-item marker file, then linger briefly (worker food)."""
    directory, name = payload
    (Path(directory) / name).touch()
    time.sleep(0.05)
    return name


class TestMapStreamCancellation:
    """A raising callback must not leak queued work into the pool.

    Regression for the streaming store path: when persisting cell k
    fails mid-grid, the remaining queued leaves must be cancelled and
    in-flight ones drained — otherwise they keep executing (and a
    store keeps appending) behind an exception the caller already saw.
    """

    # One worker, eight items: the first completion triggers the
    # raising callback, at which point only in-flight work can still
    # run — one extra item for a thread pool, a few more for a process
    # pool (its call queue prefetches and prefetched items cannot be
    # cancelled).  Everything beyond that must have been cancelled —
    # with all eight executed the bug is back.
    @pytest.mark.parametrize(
        "kind,uncancellable",
        [("thread", 2), ("process", 6)],
        ids=["ThreadPool-2", "ProcessPool-6"],
    )
    def test_callback_failure_cancels_queued_items(
        self, kind, uncancellable, tmp_path
    ):
        items = [(str(tmp_path), f"item{i}") for i in range(8)]

        def explode(index, result):
            raise RuntimeError("persist failed")

        with DagExecutor(PoolTransport(kind, max_workers=1)) as executor:
            with pytest.raises(RuntimeError, match="persist failed"):
                executor.map_stream(_mark_and_sleep, items, callback=explode)
        executed = sorted(p.name for p in tmp_path.iterdir())
        assert 1 <= len(executed) <= uncancellable, executed
        assert "item7" not in executed
        # close() already waited: the pool is quiescent, so no marker
        # appears after the fact.
        time.sleep(0.2)
        assert sorted(p.name for p in tmp_path.iterdir()) == executed


class TestResolveBackend:
    """Transport resolution and the ambient-scope lookup."""

    def test_none_and_serial(self):
        assert isinstance(resolve_transport("serial"), SerialTransport)
        # No scope: inner code finds no executor and runs serially.
        assert current_executor() is None

    def test_explicit_names(self):
        assert resolve_transport("thread").name == "thread"
        assert resolve_transport("process").name == "process"

    def test_instance_passthrough(self):
        with DagExecutor(SerialTransport()) as executor:
            with executor_scope(executor, "cell") as scoped:
                assert scoped is executor
                assert current_executor() is executor
        assert current_executor() is None

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown transport"):
            resolve_transport("gpu")
        with pytest.raises(ValueError, match="unknown exec_plan"):
            ExperimentProfile.fast().with_exec_plan("dag:gpu")

    def test_auto_serial_for_tiny_batches(self):
        # A single-restart search never reaches the executor, whatever
        # is in scope: one leaf would only add dispatch overhead.
        graph = mpeg2_decoder()
        mapper = SimulatedAnnealingMapper(
            MappingEvaluator(
                graph, MPSoC.paper_reference(4), deadline_s=MPEG2_DEADLINE_S
            ),
            SEUObjective(),
            config=AnnealingConfig(max_iterations=100, restarts=1),
            seed=0,
        )
        with DagExecutor.from_spec("thread", max_workers=2) as executor:
            with executor_scope(executor):
                mapper.run(Mapping.round_robin(graph, 4), (1, 1, 1, 1))
            assert executor.stats.submitted == 0

    def test_auto_respects_cpu_count(self):
        resolved = resolve_transport("auto", payload_probe=(1, 2))
        if (os.cpu_count() or 1) <= 1:
            assert isinstance(resolved, SerialTransport)
        else:
            assert isinstance(resolved, PoolTransport)
            assert resolved.name == "process"

    def test_auto_goes_serial_for_unpicklable_payload(self):
        # Unpicklable work can't reach processes, and the search loops
        # are GIL-bound, so threads would be pure overhead.
        probe = lambda: None  # noqa: E731 - deliberately unpicklable
        resolved = resolve_transport("auto", payload_probe=probe)
        assert isinstance(resolved, SerialTransport)

    def test_backend_names_constant(self):
        assert set(TRANSPORT_NAMES) == {"serial", "thread", "process", "auto"}
        assert set(EXEC_PLANS) == {
            "percut",
            "dag",
            "dag:serial",
            "dag:thread",
            "dag:process",
            "dag:auto",
        }

    def test_payload_picklable(self):
        assert payload_picklable((1, "a"))
        assert not payload_picklable(lambda: None)


class TestParallelDesignSweep:
    """Serial and executor sweeps must select the identical design."""

    def _optimizer(self, **kwargs):
        return DesignOptimizer(
            mpeg2_decoder(),
            MPSoC.paper_reference(4),
            deadline_s=MPEG2_DEADLINE_S,
            mapper=sea_mapper(search_iterations=200),
            stop_after_feasible=3,
            seed=0,
            **kwargs,
        )

    @staticmethod
    def _optimize_on(optimizer, spec):
        with DagExecutor.from_spec(spec, max_workers=2) as executor:
            with executor_scope(executor):
                outcome = optimizer.optimize()
            assert executor.stats.tasks > 0  # the sweep really shipped leaves
        return outcome

    def _assert_same_outcome(self, first, second):
        assert first.best is not None and second.best is not None
        assert first.best.mapping == second.best.mapping
        assert first.best.scaling == second.best.scaling
        assert first.best.power_mw == second.best.power_mw
        assert first.best.expected_seus == second.best.expected_seus
        assert len(first.assessments) == len(second.assessments)
        for a, b in zip(first.assessments, second.assessments):
            assert a.scaling == b.scaling
            assert a.feasible == b.feasible
            assert a.point.makespan_s == b.point.makespan_s
            assert a.point.power_mw == b.point.power_mw

    def test_thread_matches_serial(self):
        serial = self._optimizer().optimize()
        threaded = self._optimize_on(self._optimizer(), "thread")
        self._assert_same_outcome(serial, threaded)

    def test_process_matches_serial(self):
        serial = self._optimizer().optimize()
        processed = self._optimize_on(self._optimizer(), "process")
        self._assert_same_outcome(serial, processed)

    def test_fixed_mapping_flow_matches_serial(self):
        def build():
            return DesignOptimizer(
                mpeg2_decoder(),
                MPSoC.paper_reference(4),
                deadline_s=MPEG2_DEADLINE_S,
                mapper=baseline_mapper(RegisterUsageObjective()),
                remap_per_scaling=False,
                seed=1,
            )

        serial = build().optimize()
        threaded = self._optimize_on(build(), "thread")
        self._assert_same_outcome(serial, threaded)

    def test_auto_backend_runs(self):
        outcome = self._optimize_on(self._optimizer(), "auto")
        assert outcome.best is not None

    def test_parallel_evaluations_cover_serial_work(self):
        serial = self._optimizer().optimize()
        threaded = self._optimize_on(self._optimizer(), "thread")
        # An executor sweep cannot early-exit mid-wave, so it spends
        # at least the serial effort.
        assert threaded.evaluations >= serial.evaluations

    def test_scaling_jobs_are_picklable(self):
        optimizer = self._optimizer()
        job = optimizer._scaling_job((1, 1, 1, 1), None)
        assert pickle.loads(pickle.dumps(job)).scaling == (1, 1, 1, 1)


class TestProfilePlumbing:
    def test_profile_backend_reaches_optimizer(self):
        # A dag plan reaches the optimizer through the scope run_cells
        # opens: its sweep's leaves land on that executor.
        from repro.experiments.common import build_optimizer, run_cells

        class Cell:
            def __init__(self, profile):
                self.profile = profile

            def run(self):
                optimizer = build_optimizer(
                    mpeg2_decoder(), 4, MPEG2_DEADLINE_S, self.profile
                )
                return current_executor(), optimizer.optimize().best

        profile = ExperimentProfile.smoke().with_exec_plan("dag:thread")
        ((executor, best),) = run_cells([Cell(profile)], profile)
        assert isinstance(executor, DagExecutor)
        assert executor.stats.tasks > 0
        assert best is not None

    def test_with_backend_keeps_other_fields(self):
        profile = ExperimentProfile.fast(seed=3).with_exec_plan("dag:auto")
        assert profile.exec_plan == "dag:auto"
        assert profile.seed == 3
        assert profile.name == "fast"

    def test_default_profile_is_serial(self):
        profile = ExperimentProfile.fast()
        assert profile.exec_plan is None
        assert not profile.uses_dag_executor()
