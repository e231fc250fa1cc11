"""The repro.api facade: validation, run identity, dedup, byte-identity.

The acceptance contract for the service stack: a report fetched
through the facade is byte-identical to the same profile run through
``run_experiment`` directly, and an identical resubmission is served
from the result cache without re-executing a single cell.
"""

import dataclasses
import json

import pytest

from repro import api
from repro.experiments.common import ExperimentProfile
from repro.experiments.runner import run_experiment
from repro.taskgraph import RandomGraphConfig, random_task_graph
from repro.taskgraph.serialize import graph_to_dict


@pytest.fixture(scope="module")
def tiny_graph_payload():
    config = RandomGraphConfig(num_tasks=8)
    graph = random_task_graph(config, seed=5)
    return graph_to_dict(graph), config.deadline_s


# ---------------------------------------------------------------------------
# RunSpec: payload validation and the run-identity contract.
# ---------------------------------------------------------------------------


class TestRunSpecValidation:
    def test_coerce_experiment_id_string(self):
        spec = api.RunSpec.coerce("fig3")
        assert spec.kind == "experiment"
        assert spec.experiment_id == "fig3"

    def test_coerce_rejects_other_types(self):
        with pytest.raises(api.ValidationError):
            api.RunSpec.coerce(42)

    def test_unknown_experiment(self):
        with pytest.raises(api.ValidationError) as excinfo:
            api.RunSpec.from_payload({"experiment": "fig99"})
        assert excinfo.value.field == "experiment"
        assert excinfo.value.http_status == 400
        assert "fig99" in str(excinfo.value)

    def test_experiment_and_graph_mutually_exclusive(self, tiny_graph_payload):
        graph, _ = tiny_graph_payload
        with pytest.raises(api.ValidationError, match="exactly one"):
            api.RunSpec.from_payload({"experiment": "fig3", "graph": graph})
        with pytest.raises(api.ValidationError, match="exactly one"):
            api.RunSpec.from_payload({})

    def test_unknown_fields_rejected(self):
        with pytest.raises(api.ValidationError) as excinfo:
            api.RunSpec.from_payload({"experiment": "fig3", "colour": "red"})
        assert excinfo.value.field == "colour"

    def test_unknown_profile_platform_technode_plan(self):
        for key, value in (
            ("profile", "huge"),
            ("platform", "riscv"),
            ("tech_node", "3nm-bogus"),
            ("exec_plan", "threads"),
        ):
            with pytest.raises(api.ValidationError) as excinfo:
                api.RunSpec.from_payload({"experiment": "fig3", key: value})
            assert excinfo.value.field == key

    def test_bad_integers(self):
        for key, value in (("seed", -1), ("num_cores", 0), ("restarts", "x")):
            with pytest.raises(api.ValidationError) as excinfo:
                api.RunSpec.from_payload({"experiment": "fig3", key: value})
            assert excinfo.value.field == key

    def test_graph_requires_deadline(self, tiny_graph_payload):
        graph, _ = tiny_graph_payload
        with pytest.raises(api.ValidationError) as excinfo:
            api.RunSpec.from_payload({"graph": graph})
        assert excinfo.value.field == "deadline_s"
        with pytest.raises(api.ValidationError, match="positive"):
            api.RunSpec.from_payload({"graph": graph, "deadline_s": -1})

    def test_experiment_rejects_deadline(self):
        with pytest.raises(api.ValidationError, match="task-graph"):
            api.RunSpec.from_payload({"experiment": "fig3", "deadline_s": 1.0})

    def test_malformed_graph(self):
        with pytest.raises(api.ValidationError) as excinfo:
            api.RunSpec.from_payload(
                {"graph": {"tasks": [{"bogus": 1}]}, "deadline_s": 1.0}
            )
        assert excinfo.value.field == "graph"

    def test_payload_round_trip(self, tiny_graph_payload):
        graph, deadline = tiny_graph_payload
        for payload in (
            {"experiment": "table3", "profile": "smoke", "seed": 2,
             "platform": "biglittle", "tech_node": "22nm"},
            {"graph": graph, "deadline_s": deadline, "num_cores": 3,
             "profile": "smoke", "exec_plan": "dag:thread"},
        ):
            spec = api.RunSpec.from_payload(payload)
            assert api.RunSpec.from_payload(spec.to_payload()) == spec

    def test_error_to_dict_shape(self):
        error = api.ValidationError("bad", field="seed")
        assert error.to_dict() == {
            "code": "invalid-request",
            "message": "bad",
            "field": "seed",
            "retryable": False,
        }
        assert api.UnknownRunError("gone").http_status == 404
        assert api.RunConflictError("busy").http_status == 409

    def test_retryable_errors_carry_the_flag(self):
        from repro.service.jobs import QueueFullError

        assert not api.ValidationError("bad").retryable
        assert not api.RunConflictError("busy").retryable
        error = QueueFullError("full", retry_after_s=2.5)
        assert error.retryable
        assert error.retry_after_s == 2.5
        assert error.to_dict()["retryable"] is True


class TestRunIdentity:
    def test_deterministic(self):
        a = api.RunSpec.coerce({"experiment": "fig3", "profile": "smoke"})
        b = api.RunSpec.coerce({"experiment": "fig3", "profile": "smoke"})
        assert a.run_id() == b.run_id()
        assert a.run_id().startswith("fig3-")

    def test_exec_knobs_excluded(self):
        base = api.RunSpec.coerce({"experiment": "fig3", "profile": "smoke"})
        dag = api.RunSpec.coerce(
            {"experiment": "fig3", "profile": "smoke",
             "exec_plan": "dag:process", "max_workers": 7}
        )
        # Execution knobs change wall-clock only — identical results,
        # one shared cache entry.
        assert base.run_id() == dag.run_id()

    def test_result_inputs_included(self, tiny_graph_payload):
        graph, deadline = tiny_graph_payload
        base = api.RunSpec.coerce({"experiment": "fig3", "profile": "smoke"})
        assert base.run_id() != api.RunSpec.coerce(
            {"experiment": "fig3", "profile": "smoke", "seed": 1}
        ).run_id()
        assert base.run_id() != api.RunSpec.coerce(
            {"experiment": "fig3", "profile": "smoke", "platform": "biglittle"}
        ).run_id()
        g3 = api.RunSpec.coerce(
            {"graph": graph, "deadline_s": deadline, "num_cores": 3,
             "profile": "smoke"}
        )
        g4 = api.RunSpec.coerce(
            {"graph": graph, "deadline_s": deadline, "num_cores": 4,
             "profile": "smoke"}
        )
        assert g3.run_id() != g4.run_id()

    def test_optimize_label_sanitized(self, tiny_graph_payload):
        graph, deadline = tiny_graph_payload
        spec = api.RunSpec.coerce(
            {"graph": graph, "deadline_s": deadline, "profile": "smoke"}
        )
        assert spec.label.startswith("optimize-")
        assert "/" not in spec.run_id()


# ---------------------------------------------------------------------------
# submit / status / fetch: the result-cache contract.
# ---------------------------------------------------------------------------


@pytest.fixture()
def counting_run_experiment(monkeypatch):
    """Count real experiment executions through the facade."""
    calls = []
    real = api.run_experiment

    def counting(experiment_id, profile=None):
        calls.append(experiment_id)
        return real(experiment_id, profile)

    monkeypatch.setattr(api, "run_experiment", counting)
    return calls


class TestSubmitRun:
    def test_submit_poll_fetch_byte_identical(self, tmp_path):
        submission = api.submit_run(
            {"experiment": "fig3", "profile": "smoke"}, tmp_path
        )
        assert submission.state == "complete"
        assert submission.cached is False
        status = api.run_status(tmp_path, submission.run_id)
        assert status.state == "complete"
        assert status.total == status.completed > 0
        assert status.failed == 0
        fetched = api.fetch_report(tmp_path, submission.run_id)
        _, direct = run_experiment("fig3", ExperimentProfile.smoke())
        assert fetched == direct + "\n"
        assert submission.report == fetched

    def test_duplicate_served_from_cache(
        self, tmp_path, counting_run_experiment
    ):
        first = api.submit_run(
            {"experiment": "fig3", "profile": "smoke"}, tmp_path, tenant="alice"
        )
        assert counting_run_experiment == ["fig3"]
        second = api.submit_run(
            {"experiment": "fig3", "profile": "smoke"}, tmp_path, tenant="bob"
        )
        # Served from disk: same run id, no second execution.
        assert second.cached is True
        assert second.run_id == first.run_id
        assert second.report == first.report
        assert counting_run_experiment == ["fig3"]
        status = api.run_status(tmp_path, first.run_id)
        assert set(status.tenants) == {"alice", "bob"}

    def test_exec_knob_variant_hits_same_cache_entry(
        self, tmp_path, counting_run_experiment
    ):
        first = api.submit_run(
            {"experiment": "fig3", "profile": "smoke"}, tmp_path
        )
        variant = api.submit_run(
            {"experiment": "fig3", "profile": "smoke",
             "exec_plan": "dag:thread"},
            tmp_path,
        )
        assert variant.cached is True
        assert variant.run_id == first.run_id
        assert counting_run_experiment == ["fig3"]

    def test_percut_plan_accepted_and_stored(
        self, tmp_path, counting_run_experiment
    ):
        # "percut" stays a valid plan in payloads and stored records:
        # it is the serial plan, so it wins over a service-wide dag
        # default and shares the serial run's cache entry.
        spec = api.RunSpec.coerce(
            {"experiment": "fig3", "profile": "smoke", "exec_plan": "percut"}
        )
        assert spec.build_profile().exec_plan == "percut"
        assert not spec.build_profile().uses_dag_executor()
        queued = api.submit_run(spec, tmp_path, wait=False)
        record = json.loads(
            (tmp_path / "runs" / queued.run_id / "run.json").read_text()
        )
        assert record["spec"]["exec_plan"] == "percut"
        done = api.run_submitted(tmp_path, queued.run_id, exec_plan="dag:thread")
        assert done.state == "complete"
        _, direct = run_experiment("fig3", ExperimentProfile.smoke())
        assert api.fetch_report(tmp_path, queued.run_id) == direct + "\n"
        assert counting_run_experiment == ["fig3"]
        serial = api.submit_run({"experiment": "fig3", "profile": "smoke"}, tmp_path)
        assert serial.run_id == queued.run_id and serial.cached is True

    def test_fetch_report_unknown_and_incomplete(self, tmp_path):
        with pytest.raises(api.UnknownRunError):
            api.fetch_report(tmp_path, "nope-000000000000")
        queued = api.submit_run(
            {"experiment": "fig3", "profile": "smoke"}, tmp_path, wait=False
        )
        assert queued.state == "queued"
        assert queued.scheduled is True
        with pytest.raises(api.RunConflictError, match="queued"):
            api.fetch_report(tmp_path, queued.run_id)

    def test_queued_then_run_submitted(self, tmp_path):
        queued = api.submit_run(
            {"experiment": "fig3", "profile": "smoke"}, tmp_path, wait=False
        )
        done = api.run_submitted(tmp_path, queued.run_id)
        assert done.state == "complete"
        _, direct = run_experiment("fig3", ExperimentProfile.smoke())
        assert api.fetch_report(tmp_path, queued.run_id) == direct + "\n"

    def test_cancel_queued_run(self, tmp_path, counting_run_experiment):
        queued = api.submit_run(
            {"experiment": "fig3", "profile": "smoke"}, tmp_path, wait=False
        )
        cancelled = api.cancel_run(tmp_path, queued.run_id)
        assert cancelled.state == "cancelled"
        # The worker path honors the marker instead of executing.
        outcome = api.run_submitted(tmp_path, queued.run_id)
        assert outcome.state == "cancelled"
        assert counting_run_experiment == []
        # Resubmission clears the cancellation and runs for real.
        again = api.submit_run(
            {"experiment": "fig3", "profile": "smoke"}, tmp_path
        )
        assert again.state == "complete"
        assert counting_run_experiment == ["fig3"]

    def test_cancel_complete_run_is_left_untouched(self, tmp_path):
        done = api.submit_run(
            {"experiment": "fig3", "profile": "smoke"}, tmp_path
        )
        status = api.cancel_run(tmp_path, done.run_id)
        assert status.state == "complete"
        assert api.fetch_report(tmp_path, done.run_id) == done.report

    def test_cancel_unknown_run(self, tmp_path):
        with pytest.raises(api.UnknownRunError):
            api.cancel_run(tmp_path, "nope-000000000000")

    def test_failed_run_records_error_and_requeues(
        self, tmp_path, monkeypatch
    ):
        def boom(experiment_id, profile=None):
            raise RuntimeError("evaluator exploded")

        monkeypatch.setattr(api, "run_experiment", boom)
        with pytest.raises(RuntimeError, match="evaluator exploded"):
            api.submit_run({"experiment": "fig3", "profile": "smoke"}, tmp_path)
        spec = api.RunSpec.coerce({"experiment": "fig3", "profile": "smoke"})
        status = api.run_status(tmp_path, spec.run_id())
        assert status.state == "failed"
        assert "evaluator exploded" in (status.error or "")
        monkeypatch.undo()
        # A resubmission retries instead of serving the failure.
        retry = api.submit_run(
            {"experiment": "fig3", "profile": "smoke"}, tmp_path
        )
        assert retry.state == "complete"


class TestOptimizeRuns:
    def test_submit_optimize_and_dedup(
        self, tmp_path, tiny_graph_payload, counting_run_experiment
    ):
        graph, deadline = tiny_graph_payload
        payload = {
            "graph": graph,
            "deadline_s": deadline,
            "num_cores": 3,
            "profile": "smoke",
        }
        first = api.submit_run(payload, tmp_path, tenant="alice")
        assert first.state == "complete"
        report = api.fetch_report(tmp_path, first.run_id)
        assert report.startswith("Optimization —")
        assert f"{3} cores" in report.splitlines()[0]
        second = api.submit_run(payload, tmp_path, tenant="bob")
        assert second.cached is True
        assert second.run_id == first.run_id
        # Optimize runs never touch run_experiment at all.
        assert counting_run_experiment == []
        status = api.run_status(tmp_path, first.run_id)
        assert status.total == status.completed == 1


class TestListRuns:
    def test_lists_service_and_flat_stores(self, tmp_path):
        api.submit_run(
            {"experiment": "fig3", "profile": "smoke"}, tmp_path, tenant="t1"
        )
        # A bare CLI-layout grid next to the service runs.
        profile = ExperimentProfile.smoke().with_store(str(tmp_path))
        run_experiment("fig3", profile)
        statuses = api.list_runs(tmp_path)
        labels = sorted(status.label for status in statuses)
        assert labels == ["fig3", "fig3"]
        states = {status.state for status in statuses}
        assert states == {"complete"}
        # Tenant filtering applies to service records.
        assert len(api.list_runs(tmp_path, tenant="t1")) == 1
        assert api.list_runs(tmp_path, tenant="nobody") == []

    def test_flat_store_status_lookup(self, tmp_path):
        profile = ExperimentProfile.smoke().with_store(str(tmp_path))
        run_experiment("fig3", profile)
        status = api.run_status(tmp_path, "fig3")
        assert status.state == "complete"
        assert status.label == "fig3"
        with pytest.raises(api.UnknownRunError):
            api.run_status(tmp_path, "table99")

    def test_format_runs_table_matches_cli_columns(self, tmp_path):
        api.submit_run({"experiment": "fig3", "profile": "smoke"}, tmp_path)
        table = api.format_runs_table(api.list_runs(tmp_path))
        header = table.splitlines()[0].split()
        assert header == [
            "Run", "Status", "Done", "Failed", "Profile", "Seed", "Fingerprint",
        ]
        assert "complete" in table

    def test_status_to_dict_is_json_ready(self, tmp_path):
        api.submit_run({"experiment": "fig3", "profile": "smoke"}, tmp_path)
        (status,) = api.list_runs(tmp_path)
        document = json.loads(json.dumps(status.to_dict()))
        assert document["state"] == "complete"
        assert document["cells"]["pending"] == 0
        assert document["tenants"] == ["default"]


class TestExecuteRun:
    def test_serial_and_dag_reports_identical(self):
        profile = ExperimentProfile.smoke()
        serial = api.execute_run("fig3", profile)
        assert serial.executor_stats is None
        dag = api.execute_run("fig3", profile.with_exec_plan("dag:thread"))
        assert dag.executor_stats is not None
        assert dag.report == serial.report

    def test_reuses_ambient_executor(self):
        from repro.exec.dag import DagExecutor, executor_scope

        profile = ExperimentProfile.smoke().with_exec_plan("dag:thread")
        with DagExecutor.from_spec("thread") as executor:
            with executor_scope(executor, "test"):
                outcome = api.execute_run("fig3", profile)
            # The ambient executor was reused, not a private one: the
            # facade reports the shared pool's stats.
            assert outcome.executor_stats is not None
            assert (
                outcome.executor_stats.to_dict() == executor.stats.to_dict()
            )

    def test_serial_profile_masks_ambient_executor(self, monkeypatch):
        # The service opens an executor scope around every job; a job
        # whose plan is serial ("percut" is its alias) must not reach
        # it, even in experiments that sweep outside any grid (table2).
        from repro.exec.dag import DagExecutor, current_executor, executor_scope

        seen = []
        real = api.run_experiment

        def probing(experiment_id, profile=None):
            seen.append(current_executor())
            return real(experiment_id, profile)

        monkeypatch.setattr(api, "run_experiment", probing)
        reference = api.execute_run("table2", ExperimentProfile.smoke()).report
        for plan in (None, "percut"):
            profile = ExperimentProfile.smoke().with_exec_plan(plan)
            with DagExecutor.from_spec("thread", max_workers=2) as executor:
                with executor_scope(executor, "job"):
                    outcome = api.execute_run("table2", profile)
                assert executor.stats.submitted == 0
            assert outcome.executor_stats is None
            assert outcome.report == reference
        assert seen == [None, None, None]

    def test_run_spec_frozen(self):
        spec = api.RunSpec.coerce("fig3")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 1
