"""Experiment-level fan-out: reports must be byte-identical to serial."""

import pickle
from dataclasses import dataclass

import pytest

from repro.exec import DagExecutor, current_executor, executor_scope
from repro.experiments import ExperimentProfile, run_fig10, run_table3
from repro.experiments.common import run_cells
from repro.experiments.runner import render_report, run_all
from repro.experiments.table3 import _Table3CellJob
from repro.taskgraph import RandomGraphConfig, random_task_graph


@pytest.fixture(scope="module")
def tiny_profile():
    return ExperimentProfile(
        name="tiny",
        search_iterations=150,
        sa_iterations=300,
        fig3_mappings=40,
        stop_after_feasible=2,
        seed=0,
    )


@pytest.fixture(scope="module")
def tiny_app():
    config = RandomGraphConfig(num_tasks=12)
    return random_task_graph(config, seed=3), config.deadline_s


@dataclass(frozen=True)
class _ScopeProbeCell:
    """Reports the executor its cell body sees."""

    profile: ExperimentProfile

    def run(self):
        return current_executor()


class TestWorkerProfile:
    def test_forces_all_cuts_serial(self, tiny_profile, tiny_app):
        # A serial profile ("percut" is its alias) runs with no executor
        # even inside an enclosing scope (the service opens one per
        # job), so its sweeps and restarts take the serial loops.
        graph, deadline_s = tiny_app
        applications = [("tiny", graph, deadline_s)]
        reference = run_table3(
            tiny_profile, core_counts=(2,), applications=applications
        )
        for plan in (None, "percut"):
            profile = tiny_profile.with_exec_plan(plan)
            with DagExecutor.from_spec("thread", max_workers=2) as executor:
                with executor_scope(executor, "job"):
                    seen = run_cells([_ScopeProbeCell(profile)] * 2, profile)
                    scoped = run_table3(
                        profile, core_counts=(2,), applications=applications
                    )
                assert executor.stats.submitted == 0
            assert seen == [None, None]
            assert scoped.format_table() == reference.format_table()

    def test_run_cells_empty(self, tiny_profile):
        assert run_cells([], tiny_profile.with_exec_plan("dag:thread")) == []


class TestTable3FanOut:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_report_byte_identical(self, tiny_profile, tiny_app, backend):
        graph, deadline_s = tiny_app
        applications = [("tiny", graph, deadline_s)]
        serial = run_table3(
            tiny_profile, core_counts=(2, 3), applications=applications
        )
        parallel = run_table3(
            tiny_profile.with_exec_plan(f"dag:{backend}").with_max_workers(2),
            core_counts=(2, 3),
            applications=applications,
        )
        assert serial.format_table() == parallel.format_table()
        assert serial.apps() == parallel.apps()
        assert serial.shape_checks() == parallel.shape_checks()
        assert render_report("table3", serial, tiny_profile) == render_report(
            "table3", parallel, tiny_profile
        )

    def test_profile_backend_is_the_default_spec(self, tiny_profile, tiny_app):
        graph, deadline_s = tiny_app
        applications = [("tiny", graph, deadline_s)]
        serial = run_table3(
            tiny_profile, core_counts=(2,), applications=applications
        )
        via_profile = run_table3(
            tiny_profile.with_exec_plan("dag:thread"),
            core_counts=(2,),
            applications=applications,
        )
        assert serial.format_table() == via_profile.format_table()

    def test_cell_jobs_are_picklable(self, tiny_profile, tiny_app):
        graph, deadline_s = tiny_app
        job = _Table3CellJob(
            label="tiny",
            graph=graph,
            deadline_s=deadline_s,
            num_cores=2,
            seed_offset=2,
            profile=tiny_profile,
        )
        clone = pickle.loads(pickle.dumps(job))
        assert clone.label == "tiny"
        assert clone.num_cores == 2


class TestFig10FanOut:
    def test_report_byte_identical(self, tiny_profile, tiny_app):
        graph, deadline_s = tiny_app
        serial = run_fig10(
            tiny_profile, graph=graph, deadline_s=deadline_s, core_counts=(2, 3)
        )
        threaded = run_fig10(
            tiny_profile.with_exec_plan("dag:thread"),
            graph=graph,
            deadline_s=deadline_s,
            core_counts=(2, 3),
        )
        assert serial.format_table() == threaded.format_table()
        assert serial.seu_reduction_percent() == threaded.seu_reduction_percent()
        assert serial.power_premium_percent() == threaded.power_premium_percent()


class TestRunAllFanOut:
    # fig3 + table2 are the two cheapest experiments; the contract is
    # per-cell, so a subset proves the same plumbing the full set uses.
    IDS = ("fig3", "table2")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_reports_byte_identical(self, tiny_profile, backend):
        serial = run_all(tiny_profile, ids=self.IDS)
        parallel = run_all(
            tiny_profile.with_exec_plan(f"dag:{backend}").with_max_workers(2),
            ids=self.IDS,
        )
        assert list(serial) == list(parallel) == list(self.IDS)
        for experiment_id in self.IDS:
            assert serial[experiment_id][1] == parallel[experiment_id][1]

    def test_subset_preserves_order(self, tiny_profile):
        results = run_all(tiny_profile, ids=("table2", "fig3"))
        assert list(results) == ["table2", "fig3"]

    def test_unknown_id_raises(self, tiny_profile):
        with pytest.raises(KeyError, match="fig99"):
            run_all(tiny_profile, ids=("fig99",))
