"""The unified work-stealing DAG executor and its determinism contract.

Covers the transport layer, the executor's ordered-reassembly and
stats accounting, the ambient executor scope, the
``exec_plan`` profile field, optimizer-level serial/DAG parity
(including exact evaluator-counter parity), and nested-grid
byte-identical reports over thread and process transports.
"""

import json
from dataclasses import dataclass, replace

import pytest

from repro.exec import (
    DagExecutor,
    ExecutorStats,
    PoolTransport,
    SerialTransport,
    current_executor,
    executor_scope,
    resolve_transport,
)
from repro.exec.dag import current_source
from repro.experiments import ExperimentProfile, run_table3
from repro.experiments.common import EXEC_PLANS, build_optimizer, run_cells
from repro.experiments.runner import render_report, run_all
from repro.taskgraph import RandomGraphConfig, random_task_graph


def _square(value):
    return value * value


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


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class TestTransports:
    def test_serial_transport_runs_inline(self):
        transport = SerialTransport()
        future = transport.submit(_square, 7)
        assert future.done() and future.result() == 49

    def test_serial_transport_captures_exceptions(self):
        transport = SerialTransport()
        future = transport.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            future.result()

    def test_pool_transport_thread(self):
        transport = PoolTransport("thread", max_workers=2)
        try:
            futures = [transport.submit(_square, n) for n in range(6)]
            assert [f.result() for f in futures] == [n * n for n in range(6)]
        finally:
            transport.close()

    def test_pool_transport_rejects_bad_args(self):
        with pytest.raises(ValueError, match="unknown pool transport"):
            PoolTransport("gpu")
        with pytest.raises(ValueError, match="must be positive"):
            PoolTransport("thread", max_workers=0)

    def test_resolve_transport_explicit(self):
        assert isinstance(resolve_transport("serial"), SerialTransport)
        thread = resolve_transport("thread", max_workers=3)
        assert isinstance(thread, PoolTransport) and thread.name == "thread"
        process = resolve_transport("process")
        assert isinstance(process, PoolTransport) and process.name == "process"

    def test_resolve_transport_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown transport"):
            resolve_transport("gpu")

    def test_resolve_transport_auto_unpicklable_degrades(self):
        probe = lambda: None  # noqa: E731 - deliberately unpicklable
        assert isinstance(
            resolve_transport("auto", payload_probe=probe), SerialTransport
        )


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class TestDagExecutor:
    def test_map_preserves_order(self):
        with DagExecutor.from_spec("thread", max_workers=3) as executor:
            assert executor.map(_square, list(range(20))) == [
                n * n for n in range(20)
            ]

    def test_empty_batch(self):
        with DagExecutor(SerialTransport()) as executor:
            assert executor.map(_square, []) == []
            assert executor.stats.submitted == 0

    def test_stats_accounting(self):
        with DagExecutor.from_spec("thread", max_workers=2) as executor:
            executor.map(_square, list(range(10)), source="a")
            executor.map(_square, list(range(5)), source="a")
        stats = executor.stats
        assert stats.submitted == 15
        assert stats.tasks == 15
        assert sum(stats.per_worker.values()) == 15
        assert 1 <= len(stats.per_worker) <= 2
        assert stats.queue_high_water >= 10

    def test_steals_counted_on_source_switch(self):
        # One worker alternating between two sources: every switch is
        # a steal by definition — the worker picked up another cell's
        # leaf.  Serial batches from distinct sources force N-1
        # switches deterministically.
        with DagExecutor.from_spec("thread", max_workers=1) as executor:
            executor.map(_square, [1, 2], source="cell-a")
            executor.map(_square, [3, 4], source="cell-b")
            executor.map(_square, [5, 6], source="cell-a")
        stats = executor.stats
        assert stats.steals == 2
        assert stats.tasks == 6

    def test_map_stream_callback_in_caller_thread(self):
        import threading

        seen = []
        caller = threading.current_thread()

        def record(index, value):
            assert threading.current_thread() is caller
            seen.append((index, value))

        with DagExecutor.from_spec("thread", max_workers=2) as executor:
            results = executor.map_stream(_square, [1, 2, 3], callback=record)
        assert results == [1, 4, 9]
        assert sorted(seen) == [(0, 1), (1, 4), (2, 9)]

    def test_leaf_failure_propagates_and_pending_resets(self):
        def explode(value):
            if value == 3:
                raise ValueError("leaf boom")
            return value

        with DagExecutor.from_spec("thread", max_workers=1) as executor:
            with pytest.raises(ValueError, match="leaf boom"):
                executor.map(explode, [1, 2, 3, 4, 5])
            # The failed batch's pending count was unwound, so the
            # queue high-water of a later batch starts from zero.
            assert executor.map(_square, [2]) == [4]
        assert executor.stats.submitted == 6

    def test_stats_roundtrip_and_summary(self):
        stats = ExecutorStats(
            submitted=9,
            tasks=8,
            steals=2,
            queue_high_water=5,
            per_worker={"w1": 5, "w0": 3},
        )
        raw = stats.to_dict()
        assert raw["workers"] == 2
        assert list(raw["per_worker"]) == ["w0", "w1"]  # sorted for JSON
        assert ExecutorStats.from_dict(raw) == stats
        assert json.loads(json.dumps(raw)) == raw
        text = stats.summary()
        assert "8 tasks" in text and "2 steals" in text and "3-5" in text


# ---------------------------------------------------------------------------
# Ambient scope wiring
# ---------------------------------------------------------------------------


class TestAmbientScope:
    def test_dag_spec_degrades_to_serial_outside_scope(self):
        # No scope (or a masking ``None`` scope): inner code finds no
        # executor and runs its serial loops.
        assert current_executor() is None
        with DagExecutor(SerialTransport()) as executor:
            with executor_scope(executor, "outer"):
                with executor_scope(None):
                    assert current_executor() is None
                    assert current_source() is None
                assert current_executor() is executor

    def test_dag_spec_binds_to_scoped_executor(self):
        with DagExecutor(SerialTransport()) as executor:
            with executor_scope(executor, "test-cell"):
                assert current_executor() is executor
                assert current_source() == "test-cell"
                assert executor.map(_square, [2, 3]) == [4, 9]
        assert current_executor() is None
        assert executor.stats.per_worker  # leaves actually went through

    def test_scopes_nest(self):
        outer = DagExecutor(SerialTransport())
        inner = DagExecutor(SerialTransport())
        with executor_scope(outer, "outer"):
            with executor_scope(inner, "inner"):
                assert current_executor() is inner
            assert current_executor() is outer

    def test_scope_is_thread_local(self):
        import threading

        observed = []
        with DagExecutor(SerialTransport()) as executor:
            with executor_scope(executor, "main"):
                thread = threading.Thread(
                    target=lambda: observed.append(current_executor())
                )
                thread.start()
                thread.join()
        assert observed == [None]

    def test_shared_backend_close_is_noop(self):
        # The executor belongs to whoever opened the scope: the grids
        # and sweeps that use it must leave it open.
        transport = PoolTransport("thread", max_workers=2)
        with DagExecutor(transport) as executor:
            executor.map(_square, [1])
            pool = transport._executor
            with executor_scope(executor, "owner"):
                cells = [_Echo(ExperimentProfile.fast().with_exec_plan("dag"))] * 2
                assert run_cells(cells, cells[0].profile) == ["echo", "echo"]
            assert transport._executor is pool  # still the same, open pool
            assert executor.map(_square, [5]) == [25]


@dataclass(frozen=True)
class _Echo:
    profile: ExperimentProfile

    def run(self):
        return "echo"


@dataclass(frozen=True)
class _LeafScopeProbe:
    """A cell whose one leaf reports the executor it sees."""

    profile: ExperimentProfile

    def run(self):
        return current_executor().map(_leaf_scope, [0, 1])


def _leaf_scope(_):
    return current_executor()


class TestLeafScope:
    """A leaf never sees an ambient executor, whatever its transport."""

    @pytest.mark.parametrize("plan", ["dag:serial", "dag:thread", "dag:process"])
    def test_leaves_run_with_an_empty_scope(self, plan):
        profile = ExperimentProfile.fast().with_exec_plan(plan).with_max_workers(2)
        assert run_cells([_LeafScopeProbe(profile)], profile) == [[None, None]]


# ---------------------------------------------------------------------------
# The exec_plan profile field
# ---------------------------------------------------------------------------


class TestExecPlan:
    def test_default_is_percut(self):
        # The default plan is serial; "percut" names the same thing.
        for plan in (None, "percut"):
            profile = ExperimentProfile.fast().with_exec_plan(plan)
            assert not profile.uses_dag_executor()

    def test_dag_plan_routes_all_cuts(self):
        profile = ExperimentProfile.fast().with_exec_plan("dag:thread")
        assert profile.uses_dag_executor()
        assert profile.dag_transport() == "thread"

    def test_bare_dag_defaults_to_auto_transport(self):
        assert ExperimentProfile.fast().with_exec_plan("dag").dag_transport() == "auto"

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="unknown exec_plan"):
            ExperimentProfile.fast().with_exec_plan("threads")

    def test_percut_plan_keeps_legacy_dispatch(self):
        profile = ExperimentProfile.fast().with_exec_plan("percut")
        assert not profile.uses_dag_executor()
        with pytest.raises(ValueError, match="not a dag plan"):
            profile.dag_transport()

    def test_fingerprint_excludes_exec_plan(self, tiny_profile):
        # A store written serially must resume under the DAG executor.
        assert (
            tiny_profile.with_exec_plan("dag:process").result_fingerprint()
            == tiny_profile.result_fingerprint()
        )


# ---------------------------------------------------------------------------
# Optimizer-level parity: serial vs DAG, including evaluator counters
# ---------------------------------------------------------------------------


class TestOptimizerParity:
    def _graph(self):
        config = RandomGraphConfig(num_tasks=10)
        return random_task_graph(config, seed=3), config.deadline_s

    def _run(self, profile, graph, deadline_s, objective=None):
        if profile.uses_dag_executor():
            with DagExecutor.from_spec("thread", max_workers=3) as executor:
                with executor_scope(executor, "parity"):
                    outcome = build_optimizer(
                        graph, 3, deadline_s, profile, objective=objective
                    ).optimize()
                assert executor.stats.tasks > 0  # leaves really shipped
                return outcome
        return build_optimizer(
            graph, 3, deadline_s, profile, objective=objective
        ).optimize()

    def test_sea_flow_identical_with_exact_counters(self):
        # stop_after_feasible=None runs one full wave, so the DAG path
        # must reproduce not just the selected design but the *exact*
        # evaluator totals (restart-level leaves fold their counts
        # back precisely).
        graph, deadline_s = self._graph()
        profile = ExperimentProfile(
            name="parity",
            search_iterations=120,
            sa_iterations=200,
            stop_after_feasible=None,
            seed=0,
        )
        serial = self._run(profile, graph, deadline_s)
        dag = self._run(profile.with_exec_plan("dag:thread"), graph, deadline_s)
        assert serial.best == dag.best
        assert serial.assessments == dag.assessments
        assert serial.evaluations == dag.evaluations

    def test_baseline_flow_identical_with_exact_counters(self):
        from repro.optim import RegisterUsageObjective

        graph, deadline_s = self._graph()
        profile = ExperimentProfile(
            name="parity",
            search_iterations=120,
            sa_iterations=200,
            stop_after_feasible=None,
            seed=0,
        )
        objective = RegisterUsageObjective()
        serial = self._run(profile, graph, deadline_s, objective)
        dag = self._run(
            profile.with_exec_plan("dag:thread"), graph, deadline_s, objective
        )
        assert serial.best == dag.best
        assert serial.assessments == dag.assessments
        assert serial.evaluations == dag.evaluations

    def test_early_exit_replay_matches_serial(self):
        # With the early-exit policy active the wave tail may cost
        # extra (uncounted-in-report) evaluations — but the selected
        # design and the assessment list must still replay the serial
        # decisions.
        graph, deadline_s = self._graph()
        profile = ExperimentProfile(
            name="parity",
            search_iterations=120,
            sa_iterations=200,
            stop_after_feasible=2,
            seed=0,
        )
        serial = self._run(profile, graph, deadline_s)
        dag = self._run(profile.with_exec_plan("dag:thread"), graph, deadline_s)
        assert serial.best == dag.best
        assert serial.assessments == dag.assessments


# ---------------------------------------------------------------------------
# Nested grids: byte-identical reports over real transports
# ---------------------------------------------------------------------------


class TestNestedGridDeterminism:
    @pytest.mark.parametrize("plan", ["dag:thread", "dag:process"])
    def test_table3_reports_byte_identical(self, tiny_profile, tiny_app, plan):
        graph, deadline_s = tiny_app
        applications = [("tiny", graph, deadline_s)]
        serial = run_table3(
            tiny_profile, core_counts=(2, 3), applications=applications
        )
        dag = run_table3(
            tiny_profile.with_exec_plan(plan),
            core_counts=(2, 3),
            applications=applications,
        )
        assert serial.format_table() == dag.format_table()
        assert serial.shape_checks() == dag.shape_checks()
        assert render_report("table3", serial, tiny_profile) == render_report(
            "table3", dag, tiny_profile
        )

    def test_randomized_grids_byte_identical(self, tiny_profile):
        # Several random grids (different sizes and seeds), serial vs
        # the shared executor with an oversubscribed thread transport:
        # every report byte-identical, per the house contract.
        for num_tasks, seed in ((8, 1), (10, 5)):
            config = RandomGraphConfig(num_tasks=num_tasks)
            graph = random_task_graph(config, seed=seed)
            applications = [(f"rand{num_tasks}", graph, config.deadline_s)]
            profile = replace(tiny_profile, seed=seed)
            serial = run_table3(
                profile, core_counts=(2, 3), applications=applications
            )
            dag = run_table3(
                profile.with_exec_plan("dag:thread").with_max_workers(4),
                core_counts=(2, 3),
                applications=applications,
            )
            assert serial.format_table() == dag.format_table()

    def test_run_all_subset_byte_identical(self, tiny_profile):
        ids = ("fig3", "table2")
        serial = run_all(tiny_profile, ids=ids)
        dag = run_all(tiny_profile.with_exec_plan("dag:thread"), ids=ids)
        assert list(serial) == list(dag)
        for experiment_id in ids:
            assert serial[experiment_id][1] == dag[experiment_id][1]


# ---------------------------------------------------------------------------
# Store integration: streaming, resume, executor stats in the manifest
# ---------------------------------------------------------------------------


class TestDagStoreIntegration:
    def test_stored_run_matches_and_records_stats(
        self, tiny_profile, tiny_app, tmp_path
    ):
        graph, deadline_s = tiny_app
        applications = [("tiny", graph, deadline_s)]
        serial = run_table3(
            tiny_profile, core_counts=(2, 3), applications=applications
        )
        stored_profile = tiny_profile.with_exec_plan("dag:thread").with_store(
            tmp_path
        )
        stored = run_table3(
            stored_profile, core_counts=(2, 3), applications=applications
        )
        assert serial.format_table() == stored.format_table()
        manifest = json.loads(
            (tmp_path / "table3" / "manifest.json").read_text()
        )
        assert manifest["run_status"] == "complete"
        executor = manifest["executor"]
        assert executor["tasks"] == executor["submitted"] > 0
        assert sum(executor["per_worker"].values()) == executor["tasks"]

    def test_serial_store_resumes_under_dag(
        self, tiny_profile, tiny_app, tmp_path
    ):
        # exec_plan is excluded from the resume identity: a grid
        # streamed serially resumes under the DAG executor and
        # reassembles the identical report without re-running cells.
        graph, deadline_s = tiny_app
        applications = [("tiny", graph, deadline_s)]
        serial = run_table3(
            tiny_profile.with_store(tmp_path),
            core_counts=(2, 3),
            applications=applications,
        )
        resumed = run_table3(
            tiny_profile.with_exec_plan("dag:thread").with_store(
                tmp_path, resume=True
            ),
            core_counts=(2, 3),
            applications=applications,
        )
        assert serial.format_table() == resumed.format_table()
        manifest = json.loads(
            (tmp_path / "table3" / "manifest.json").read_text()
        )
        # Nothing was pending, so the executor ran zero leaves.
        assert manifest["executor"]["tasks"] == 0


# ---------------------------------------------------------------------------
# Grid error semantics under the DAG path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BoomCell:
    profile: ExperimentProfile
    ok: bool

    def run(self):
        if not self.ok:
            raise ValueError("cell boom")
        return "fine"


class TestDagGridErrors:
    def test_storeless_failure_propagates_original_type(self, tiny_profile):
        profile = tiny_profile.with_exec_plan("dag:serial")
        cells = [_BoomCell(profile, True), _BoomCell(profile, False)]
        with pytest.raises(ValueError, match="cell boom"):
            run_cells(cells, profile, label="boom")

    def test_stored_failure_recorded_and_resumable(self, tiny_profile, tmp_path):
        profile = tiny_profile.with_exec_plan("dag:serial").with_store(tmp_path)
        cells = [_BoomCell(profile, True), _BoomCell(profile, False)]
        with pytest.raises(RuntimeError, match="1 of 2 cell"):
            run_cells(cells, profile, label="boom")
        manifest = json.loads((tmp_path / "boom" / "manifest.json").read_text())
        assert manifest["run_status"] == "failed"
        assert manifest["completed"] == 1
        # Resume re-dispatches only the failure (still failing here).
        resume_profile = replace(profile, resume=True)
        with pytest.raises(RuntimeError, match="1 of 2 cell"):
            run_cells(cells, resume_profile, label="boom")


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


class TestCliExecPlan:
    def test_exec_plan_lands_on_profile(self):
        from repro.cli import _profile_from, build_parser

        args = build_parser().parse_args(
            ["experiment", "fig3", "--exec-plan", "dag:thread"]
        )
        profile = _profile_from(args)
        assert profile.exec_plan == "dag:thread"
        assert profile.uses_dag_executor()

    def test_exec_plan_choices_match_profile_constants(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "fig3", "--exec-plan", "threads"]
            )
        assert "percut" in EXEC_PLANS

    def test_conflicting_percut_flags_fail_fast(self):
        # The per-cut pool flags are gone: argparse rejects them before
        # any profile is built, so no second owner of parallelism can
        # reach a run.
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["experiment", "fig3", "--exec-plan", "dag", "--backend", "process"]
            )
        assert excinfo.value.code == 2

    def test_runs_subcommand_prints_executor_stats(self, tmp_path, capsys):
        from repro.cli import main
        from repro.store import RunStore

        store = RunStore.open(
            tmp_path / "grid", label="grid", fingerprint="f" * 16, keys=["000:c"]
        )
        store.record_result("000:c", 0, "x")
        store.set_executor_stats(
            {
                "submitted": 4,
                "tasks": 4,
                "steals": 1,
                "queue_high_water": 3,
                "workers": 2,
                "per_worker": {"w0": 3, "w1": 1},
            }
        )
        store.finalize()
        assert main(["runs", "--store-dir", str(tmp_path), "--run", "grid"]) == 0
        out = capsys.readouterr().out
        assert "executor: 4 tasks over 2 worker(s)" in out
        assert "1 steals" in out
        assert "w0: 3 task(s)" in out
