"""Restart-level parallelism: determinism contract and screening stats."""

import os
import pickle
from dataclasses import dataclass

import pytest

from repro.arch import MPSoC
from repro.exec import (
    DagExecutor,
    current_executor,
    executor_scope,
    resolve_transport,
)
from repro.mapping import Mapping, MappingEvaluator
from repro.optim import (
    AnnealingConfig,
    DesignOptimizer,
    OptimizedMappingSearch,
    RegisterUsageObjective,
    SEAMapper,
    SEUObjective,
    SimulatedAnnealingMapper,
    baseline_mapper,
    sea_mapper,
)
from repro.taskgraph import mpeg2_decoder
from repro.taskgraph.mpeg2 import MPEG2_DEADLINE_S

SCALING = (2, 2, 3, 2)


@pytest.fixture(scope="module")
def mpeg2():
    return mpeg2_decoder()


def _mapper(graph, screening=False, restarts=3, **kwargs):
    evaluator = MappingEvaluator(
        graph, MPSoC.paper_reference(4), deadline_s=MPEG2_DEADLINE_S
    )
    return SimulatedAnnealingMapper(
        evaluator,
        SEUObjective(),
        config=AnnealingConfig(max_iterations=250, restarts=restarts),
        seed=11,
        deadline_penalty=True,
        require_all_cores=True,
        screening=screening,
        **kwargs,
    )


def _on(spec, fn, *args):
    """``fn(*args)`` with a ``spec`` executor (2 workers) in scope.

    Asserts the call really shipped leaves to the executor.
    """
    with DagExecutor.from_spec(spec, max_workers=2) as executor:
        with executor_scope(executor, "test"):
            result = fn(*args)
        assert executor.stats.tasks > 0
    return result


def _assert_same_point(first, second):
    assert first.mapping == second.mapping
    assert first.scaling == second.scaling
    assert first.power_mw == second.power_mw
    assert first.expected_seus == second.expected_seus
    assert first.makespan_s == second.makespan_s


class TestParallelRestartParity:
    """Restarts run on a thread or process executor select the serial design."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backend_matches_serial(self, mpeg2, backend):
        initial = Mapping.round_robin(mpeg2, 4)
        serial_mapper = _mapper(mpeg2)
        parallel_mapper = _mapper(mpeg2)
        serial = serial_mapper.run(initial, SCALING)
        parallel = _on(backend, parallel_mapper.run, initial, SCALING)
        _assert_same_point(serial, parallel)
        assert (
            parallel_mapper.restart_evaluations == serial_mapper.restart_evaluations
        )

    def test_screened_stats_match_serial(self, mpeg2):
        initial = Mapping.round_robin(mpeg2, 4)
        serial_mapper = _mapper(mpeg2, screening=True, screen_threshold=0.5)
        thread_mapper = _mapper(mpeg2, screening=True, screen_threshold=0.5)
        _assert_same_point(
            serial_mapper.run(initial, SCALING),
            _on("thread", thread_mapper.run, initial, SCALING),
        )
        assert serial_mapper.screened_moves > 0
        assert (
            thread_mapper.screened_moves_per_restart
            == serial_mapper.screened_moves_per_restart
        )
        assert thread_mapper.screened_moves == serial_mapper.screened_moves

    def test_single_restart_stays_serial(self, mpeg2):
        # One restart never pays dispatch overhead, whatever is in scope.
        initial = Mapping.round_robin(mpeg2, 4)
        mapper = _mapper(mpeg2, restarts=1)
        serial = _mapper(mpeg2, restarts=1)
        with DagExecutor.from_spec("process", max_workers=2) as executor:
            with executor_scope(executor):
                point = mapper.run(initial, SCALING)
            assert executor.stats.submitted == 0
        _assert_same_point(serial.run(initial, SCALING), point)

    def test_restart_jobs_are_picklable(self, mpeg2):
        mapper = _mapper(mpeg2, screening=True)
        job = mapper._restart_job(Mapping.round_robin(mpeg2, 4), SCALING, 2)
        clone = pickle.loads(pickle.dumps(job))
        assert clone.restart == 2
        assert clone.scaling == SCALING

    def test_restart_job_reproduces_run_once(self, mpeg2):
        mapper = _mapper(mpeg2)
        initial = Mapping.round_robin(mpeg2, 4)
        job = mapper._restart_job(initial, SCALING, 1)
        point, screened, evaluations, hits, misses, inner = job.run()
        _assert_same_point(point, mapper._run_once(initial, SCALING, 1))
        assert screened == 0
        assert evaluations > 0
        assert evaluations == hits + misses
        assert inner.moves_drawn > 0
        assert inner.materialized_mappings > 0

    def test_reference_restart_job_matches_descriptor_job(self, mpeg2):
        mapper = _mapper(mpeg2)
        initial = Mapping.round_robin(mpeg2, 4)
        descriptor = mapper._restart_job(initial, SCALING, 1)
        reference = mapper._restart_job(initial, SCALING, 1, reference=True)
        point_d, *counts_d, inner_d = descriptor.run()
        point_r, *counts_r, inner_r = reference.run()
        _assert_same_point(point_d, point_r)
        assert counts_d == counts_r  # screened/evaluations/hits/misses
        assert inner_r.moves_drawn == 0  # reference loop is uninstrumented


class TestScreenedMovesReset:
    """Regression: screening stats must reset on every run()."""

    def test_annealer_second_run_not_inflated(self, mpeg2):
        mapper = _mapper(mpeg2, screening=True, screen_threshold=0.5)
        initial = Mapping.round_robin(mpeg2, 4)
        mapper.run(initial, SCALING)
        first = mapper.screened_moves
        first_per_restart = list(mapper.screened_moves_per_restart)
        assert first > 0
        assert sum(first_per_restart) == first
        assert len(first_per_restart) == mapper.config.restarts
        mapper.run(initial, SCALING)
        assert mapper.screened_moves == first
        assert mapper.screened_moves_per_restart == first_per_restart

    def test_optimized_search_second_run_not_inflated(self, mpeg2):
        evaluator = MappingEvaluator(
            mpeg2, MPSoC.paper_reference(4), deadline_s=MPEG2_DEADLINE_S
        )
        search = OptimizedMappingSearch(
            evaluator, max_iterations=250, seed=3, screen_moves=True
        )
        initial = Mapping.round_robin(mpeg2, 4)
        first = search.run(initial, SCALING)
        count = search.screened_moves
        second = search.run(initial, SCALING)
        assert search.screened_moves == count
        assert first.screened_moves == count
        assert second.screened_moves == count


class TestRestartKnobs:
    def test_config_stays_picklable(self):
        config = AnnealingConfig(restarts=4, max_iterations=321)
        assert pickle.loads(pickle.dumps(config)) == config

    def test_sea_mapper_restart_override(self, mpeg2):
        evaluator = MappingEvaluator(
            mpeg2, MPSoC.paper_reference(4), deadline_s=MPEG2_DEADLINE_S
        )
        mapper = sea_mapper(search_iterations=120, restarts=3)
        assert mapper.restarts == 3
        with pytest.raises(ValueError, match="restarts"):
            sea_mapper(restarts=0)
        point = mapper(evaluator, (1, 1, 1, 1), 0)
        assert point.expected_seus > 0

    def test_sea_mapper_backend_parity(self, mpeg2):
        evaluator = MappingEvaluator(
            mpeg2, MPSoC.paper_reference(4), deadline_s=MPEG2_DEADLINE_S
        )
        serial = sea_mapper(search_iterations=120, restarts=2)(
            evaluator, (1, 1, 1, 1), 5
        )
        threaded = _on(
            "thread",
            sea_mapper(search_iterations=120, restarts=2),
            evaluator,
            (1, 1, 1, 1),
            5,
        )
        _assert_same_point(serial, threaded)

    def test_baseline_mapper_restart_override(self, mpeg2):
        evaluator = MappingEvaluator(
            mpeg2, MPSoC.paper_reference(4), deadline_s=MPEG2_DEADLINE_S
        )
        config = AnnealingConfig(max_iterations=150)
        serial = baseline_mapper(
            RegisterUsageObjective(), config=config, restarts=2
        )(evaluator, (1, 1, 1, 1), 5)
        threaded = _on(
            "thread",
            baseline_mapper(RegisterUsageObjective(), config=config, restarts=2),
            evaluator,
            (1, 1, 1, 1),
            5,
        )
        _assert_same_point(serial, threaded)
        with pytest.raises(ValueError, match="restarts"):
            baseline_mapper(RegisterUsageObjective(), restarts=-1)


class TestEvaluationAccounting:
    def test_parallel_restarts_fold_counts_into_evaluator(self, mpeg2):
        # The stats contract: an executor changes wall-clock only, so
        # the shared evaluator must report the same total either way.
        initial = Mapping.round_robin(mpeg2, 4)
        serial_mapper = _mapper(mpeg2)
        thread_mapper = _mapper(mpeg2)
        serial_mapper.run(initial, SCALING)
        _on("thread", thread_mapper.run, initial, SCALING)
        assert (
            thread_mapper.evaluator.evaluations
            == serial_mapper.evaluator.evaluations
        )
        # The hit/miss *split* may differ (serial restarts share one
        # cache, workers start cold) but the accounting invariant must
        # hold on both sides.
        for evaluator in (serial_mapper.evaluator, thread_mapper.evaluator):
            assert (
                evaluator.evaluations
                == evaluator.cache_hits + evaluator.cache_misses
            )


#: What the planless mapper saw as the ambient executor, per call.
_SEEN_EXECUTORS = []


@dataclass(frozen=True)
class _PlanlessMapper:
    """A mapper without a ``restart_plan`` hook: the DAG sweep ships
    each of its scalings as one whole-search leaf."""

    inner: SEAMapper

    def __call__(self, evaluator, scaling, seed):
        _SEEN_EXECUTORS.append(current_executor())
        return self.inner(evaluator, scaling, seed)


class TestNestedPoolGuard:
    """A leaf never re-dispatches into the executor that runs it."""

    def test_parallel_sweep_jobs_carry_serial_restarts(self, mpeg2):
        # dag:serial runs leaves inline on the coordinator thread, the
        # one place a scope could leak into a leaf: the scaling leaves'
        # two-restart searches must still run serially inside them.
        def build():
            return DesignOptimizer(
                mpeg2,
                MPSoC.paper_reference(4),
                deadline_s=MPEG2_DEADLINE_S,
                mapper=_PlanlessMapper(sea_mapper(search_iterations=120, restarts=2)),
                stop_after_feasible=2,
                seed=0,
            )

        serial = build().optimize()
        _SEEN_EXECUTORS.clear()
        with DagExecutor.from_spec("serial") as executor:
            with executor_scope(executor, "sweep"):
                inline = build().optimize()
            stats = executor.stats
        # Every leaf is one scaling search (none is a restart), and no
        # search saw the executor running it.
        assert stats.tasks == len(_SEEN_EXECUTORS) >= len(serial.assessments)
        assert set(_SEEN_EXECUTORS) == {None}
        _assert_same_point(serial.best, inline.best)
        assert inline.evaluations >= serial.evaluations

    def test_combined_cuts_still_match_serial(self, mpeg2):
        def build():
            return DesignOptimizer(
                mpeg2,
                MPSoC.paper_reference(4),
                deadline_s=MPEG2_DEADLINE_S,
                mapper=sea_mapper(search_iterations=120, restarts=2),
                stop_after_feasible=2,
                seed=0,
            )

        serial = build().optimize()
        combined = _on("thread", build().optimize)
        assert serial.best is not None and combined.best is not None
        _assert_same_point(serial.best, combined.best)


class _PickleCounter:
    """A payload probe that records every attempt to pickle it."""

    def __init__(self):
        self.calls = 0

    def __reduce__(self):
        self.calls += 1
        return (_PickleCounter, ())


class TestLazyProbe:
    """Regression: work is only built or probed when it will be dispatched."""

    def test_probe_factory_untouched_for_explicit_specs(self):
        probe = _PickleCounter()
        for spec in ("serial", "thread", "process"):
            resolve_transport(spec, payload_probe=probe).close()
        assert probe.calls == 0
        resolve_transport("auto", payload_probe=probe).close()
        assert probe.calls == (1 if (os.cpu_count() or 1) > 1 else 0)

    def test_optimizer_serial_sweep_builds_no_jobs(self, mpeg2, monkeypatch):
        optimizer = DesignOptimizer(
            mpeg2,
            MPSoC.paper_reference(4),
            deadline_s=MPEG2_DEADLINE_S,
            mapper=sea_mapper(search_iterations=120),
            stop_after_feasible=2,
            seed=0,
        )
        calls = []
        original = optimizer._scaling_job

        def counting(scaling, fixed_mapping):
            calls.append(scaling)
            return original(scaling, fixed_mapping)

        monkeypatch.setattr(optimizer, "_scaling_job", counting)
        assert optimizer.optimize().best is not None
        assert calls == []

    def test_annealer_serial_run_builds_no_jobs(self, mpeg2, monkeypatch):
        mapper = _mapper(mpeg2)
        monkeypatch.setattr(
            mapper,
            "_restart_job",
            lambda *args, **kwargs: pytest.fail("serial run built a restart job"),
        )
        assert mapper.run(Mapping.round_robin(mpeg2, 4), SCALING) is not None


class TestMaxWorkersPlumbing:
    def test_optimizer_rejects_bad_max_workers(self):
        # The cap is validated where it is set, the profile, so a bad
        # value never reaches an optimizer or an executor.
        from repro.experiments import ExperimentProfile

        for bad in (0, -2):
            with pytest.raises(ValueError, match="exec_max_workers"):
                ExperimentProfile.smoke().with_max_workers(bad)
            with pytest.raises(ValueError, match="exec_max_workers"):
                ExperimentProfile(exec_max_workers=bad, exec_plan="dag:thread")

    def test_optimizer_max_workers_reaches_backend(self, mpeg2):
        # The profile's worker cap sizes the executor the optimizer's
        # leaves run on.
        from repro.experiments import ExperimentProfile
        from repro.experiments.common import build_optimizer, run_cells

        class Cell:
            def __init__(self, profile):
                self.profile = profile

            def run(self):
                optimizer = build_optimizer(
                    mpeg2, 4, MPEG2_DEADLINE_S, self.profile
                )
                return current_executor(), optimizer.optimize().best

        profile = ExperimentProfile.smoke().with_exec_plan("dag:thread")
        profile = profile.with_max_workers(2)
        ((executor, best),) = run_cells([Cell(profile)], profile)
        assert executor.transport.workers() == 2
        assert executor.stats.tasks > 0
        assert best is not None
