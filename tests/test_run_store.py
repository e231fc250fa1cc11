"""The streaming run store: persistence, crash signatures, exact resume.

The acceptance contract: a run interrupted after k of N cells and
resumed produces **byte-identical** reports to an uninterrupted run,
on the serial and ``dag:process`` plans alike — and the report rendered
from a fully resumed store matches the in-memory path for every
experiment module.
"""

import json
import pickle

import pytest

from repro.exec import DagExecutor
from repro.experiments import (
    ExperimentProfile,
    run_fig3,
    run_fig9,
    run_fig10,
    run_fig11,
    run_table3,
)
from repro.experiments.common import run_cells
from repro.experiments.runner import render_report, run_all
from repro.store import (
    MANIFEST_NAME,
    RECORDS_NAME,
    RunStore,
    StoreMismatchError,
    cell_key,
    fingerprint_payload,
    iter_manifests,
    read_manifest,
    scan_records,
)
from repro.taskgraph import RandomGraphConfig, random_task_graph


# Parts of this module deliberately exercise the deprecated per-cut
# pools — they remain the legacy-parity reference paths.
pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


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


def records_file(store_dir, label):
    return store_dir / label / RECORDS_NAME


def manifest_file(store_dir, label):
    return store_dir / label / MANIFEST_NAME


# ---------------------------------------------------------------------------
# Fingerprint
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_stable_across_backend_choices(self, tiny_profile):
        """Execution fields never change results, so never the print."""
        base = tiny_profile.result_fingerprint()
        for plan in ("percut", "dag", "dag:process"):
            assert tiny_profile.with_exec_plan(plan).result_fingerprint() == base
        assert tiny_profile.with_max_workers(2).result_fingerprint() == base
        assert tiny_profile.with_store("/tmp/x", resume=True).result_fingerprint() == base

    def test_sensitive_to_result_fields(self, tiny_profile):
        base = tiny_profile.result_fingerprint()
        assert tiny_profile.with_seed(1).result_fingerprint() != base
        from dataclasses import replace

        assert (
            replace(tiny_profile, search_iterations=151).result_fingerprint()
            != base
        )
        assert replace(tiny_profile, batch_eval=8).result_fingerprint() != base

    def test_payload_hash_is_order_insensitive(self):
        assert fingerprint_payload({"a": 1, "b": 2}) == fingerprint_payload(
            {"b": 2, "a": 1}
        )
        assert fingerprint_payload({"a": 1}) != fingerprint_payload({"a": 2})


class TestCellKey:
    def test_scalars_and_graphs_contribute(self, tiny_profile, tiny_app):
        from repro.experiments.table3 import _Table3CellJob

        graph, deadline_s = tiny_app
        job = _Table3CellJob(
            label="tiny",
            graph=graph,
            deadline_s=deadline_s,
            num_cores=3,
            seed_offset=7,
            profile=tiny_profile,
        )
        key = cell_key(job, 4)
        assert key.startswith("004:_Table3CellJob(")
        assert "label=tiny" in key
        assert "num_cores=3" in key
        assert graph.name in key  # graph identity, not object repr
        assert "profile=" not in key  # covered by the fingerprint instead

    def test_graph_content_changes_the_key(self, tiny_profile):
        """Same graph name + size, different edges => different identity.

        Without the content digest a caller could edit a graph in
        place and silently resume stale results computed for the old
        one.
        """
        from repro.experiments.fig11 import _Fig11LevelJob
        from repro.taskgraph import TaskGraph

        def build(extra_edge):
            graph = TaskGraph(name="twin")
            for name in ("a", "b", "c"):
                graph.add_task(name, cycles=1000)
            graph.add_edge("a", "b", comm_cycles=10)
            if extra_edge:
                graph.add_edge("b", "c", comm_cycles=10)
            return graph

        keys = {
            cell_key(
                _Fig11LevelJob(
                    graph=build(extra),
                    deadline_s=1.0,
                    num_cores=2,
                    num_levels=3,
                    profile=tiny_profile,
                ),
                0,
            )
            for extra in (False, True)
        }
        assert len(keys) == 2

    def test_index_disambiguates_identical_cells(self, tiny_profile, tiny_app):
        from repro.experiments.table3 import _Table3CellJob

        graph, deadline_s = tiny_app
        job = _Table3CellJob(
            label="tiny",
            graph=graph,
            deadline_s=deadline_s,
            num_cores=3,
            seed_offset=7,
            profile=tiny_profile,
        )
        assert cell_key(job, 0) != cell_key(job, 1)


# ---------------------------------------------------------------------------
# RunStore primitives
# ---------------------------------------------------------------------------


class TestRunStore:
    KEYS = ("000:a", "001:b", "002:c")

    def open_store(self, tmp_path, resume=False, fingerprint="f" * 16, keys=KEYS):
        return RunStore.open(
            tmp_path / "run",
            label="run",
            fingerprint=fingerprint,
            keys=keys,
            profile_summary={"name": "tiny", "seed": 0},
            resume=resume,
        )

    def test_roundtrip(self, tmp_path):
        store = self.open_store(tmp_path)
        store.record_result("000:a", 0, {"value": 1})
        store.record_result("001:b", 1, [1, 2, 3])
        store.finalize()

        resumed = self.open_store(tmp_path, resume=True)
        loaded = resumed.load_results()
        assert loaded["000:a"].payload == {"value": 1}
        assert loaded["001:b"].payload == [1, 2, 3]
        assert "002:c" not in loaded
        assert resumed.statuses() == {
            "000:a": "done",
            "001:b": "done",
            "002:c": "pending",
        }

    def test_manifest_tracks_completion(self, tmp_path):
        store = self.open_store(tmp_path)
        store.record_result("000:a", 0, 1)
        manifest = read_manifest(store.manifest_path)
        assert manifest["completed"] == 1
        assert manifest["total"] == 3
        assert manifest["run_status"] == "running"
        assert manifest["status"]["000:a"] == "done"
        store.record_result("001:b", 1, 2)
        store.record_result("002:c", 2, 3)
        store.finalize()
        assert read_manifest(store.manifest_path)["run_status"] == "complete"

    def test_torn_tail_is_discarded(self, tmp_path):
        store = self.open_store(tmp_path)
        store.record_result("000:a", 0, 1)
        store.record_result("001:b", 1, 2)
        text = store.records_path.read_text()
        lines = text.splitlines(keepends=True)
        store.records_path.write_text(lines[0] + lines[1][: len(lines[1]) // 2])

        resumed = self.open_store(tmp_path, resume=True)
        loaded = resumed.load_results()
        assert set(loaded) == {"000:a"}  # the torn record re-runs

    def test_error_records_resurface_as_failed(self, tmp_path):
        store = self.open_store(tmp_path)
        store.record_result("000:a", 0, 1)
        store.record_error("001:b", 1, "ValueError: boom")
        store.finalize()
        assert read_manifest(store.manifest_path)["run_status"] == "failed"

        resumed = self.open_store(tmp_path, resume=True)
        assert set(resumed.load_results()) == {"000:a"}
        assert resumed.statuses()["001:b"] == "failed"

    def test_resume_rejects_other_fingerprint(self, tmp_path):
        store = self.open_store(tmp_path)
        store.record_result("000:a", 0, 1)
        with pytest.raises(StoreMismatchError, match="fingerprint"):
            self.open_store(tmp_path, resume=True, fingerprint="0" * 16)

    def test_resume_rejects_other_grid(self, tmp_path):
        store = self.open_store(tmp_path)
        store.record_result("000:a", 0, 1)
        with pytest.raises(StoreMismatchError, match="grid"):
            self.open_store(tmp_path, resume=True, keys=("000:a", "001:z"))

    def test_resume_with_lost_manifest_refuses_to_destroy_records(self, tmp_path):
        from repro.store import RunStoreError

        store = self.open_store(tmp_path)
        store.record_result("000:a", 0, 1)
        store.manifest_path.unlink()  # manifest lost; records survive
        with pytest.raises(RunStoreError, match="missing or unreadable"):
            self.open_store(tmp_path, resume=True)
        # the completed work was NOT deleted
        assert store.records_path.exists()
        assert "000:a" in store.records_path.read_text()

    def test_fresh_open_discards_stale_records(self, tmp_path):
        store = self.open_store(tmp_path)
        store.record_result("000:a", 0, 1)
        fresh = self.open_store(tmp_path, resume=False)
        assert fresh.load_results() == {}

    def test_iter_manifests(self, tmp_path):
        for label in ("beta", "alpha"):
            RunStore.open(
                tmp_path / label,
                label=label,
                fingerprint="f" * 16,
                keys=("000:x",),
                resume=False,
            )
        found = list(iter_manifests(tmp_path))
        assert [manifest["label"] for _path, manifest in found] == ["alpha", "beta"]
        # A single run directory works too.
        single = list(iter_manifests(tmp_path / "alpha"))
        assert len(single) == 1 and single[0][1]["label"] == "alpha"


# ---------------------------------------------------------------------------
# map_stream
# ---------------------------------------------------------------------------


class TestMapStream:
    @pytest.mark.parametrize("transport", ["serial", "thread"])
    def test_callback_covers_every_item_and_order_is_kept(self, transport):
        seen = {}
        with DagExecutor.from_spec(transport) as executor:
            results = executor.map_stream(
                lambda x: x * 10, [1, 2, 3, 4], callback=seen.__setitem__
            )
        assert results == [10, 20, 30, 40]
        assert seen == {0: 10, 1: 20, 2: 30, 3: 40}

    def test_no_callback_matches_map(self):
        with DagExecutor.from_spec("serial") as executor:
            assert executor.map_stream(str, [1, 2]) == executor.map(str, [1, 2])

    def test_single_item_short_circuit(self):
        seen = {}
        with DagExecutor.from_spec("thread") as executor:
            assert executor.map_stream(str, [7], callback=seen.__setitem__) == ["7"]
        assert seen == {0: "7"}


# ---------------------------------------------------------------------------
# run_cells streaming + failure persistence
# ---------------------------------------------------------------------------


from dataclasses import dataclass  # noqa: E402 - test-local cell definitions


@dataclass(frozen=True)
class _SquareJob:
    value: int
    profile: ExperimentProfile

    def run(self) -> int:
        return self.value * self.value


@dataclass(frozen=True)
class _ProfileProbe:
    """Returns the profile its cell runs under."""

    profile: ExperimentProfile

    def run(self) -> ExperimentProfile:
        return self.profile


@dataclass(frozen=True)
class _FlakyJob:
    """Fails while a sentinel file exists — a transient, external fault.

    The cell's fields (and hence its key) are identical across the
    original and the resumed run; only the external sentinel changes,
    so the resume re-dispatches the *same* cell and it heals — the
    flaky-cell retry scenario.
    """

    value: int
    sentinel: str
    profile: ExperimentProfile

    def run(self) -> int:
        import os

        if self.value == 1 and os.path.exists(self.sentinel):
            raise ValueError(f"cell {self.value} exploded")
        return self.value


class TestRunCellsStore:
    def test_streams_one_record_per_cell(self, tmp_path, tiny_profile):
        profile = tiny_profile.with_store(str(tmp_path))
        jobs = [_SquareJob(value, profile) for value in range(4)]
        assert run_cells(jobs, profile, label="grid") == [0, 1, 4, 9]
        lines = records_file(tmp_path, "grid").read_text().splitlines()
        assert len(lines) == 4
        manifest = read_manifest(manifest_file(tmp_path, "grid"))
        assert manifest["run_status"] == "complete"
        assert manifest["completed"] == 4

    def test_resume_runs_only_missing_cells(self, tmp_path, tiny_profile):
        profile = tiny_profile.with_store(str(tmp_path))
        jobs = [_SquareJob(value, profile) for value in range(4)]
        run_cells(jobs, profile, label="grid")
        records = records_file(tmp_path, "grid")
        lines = records.read_text().splitlines(keepends=True)
        records.write_text("".join(lines[:2]))  # crash after 2 of 4 cells

        resumed_profile = tiny_profile.with_store(str(tmp_path), resume=True)
        jobs = [_SquareJob(value, resumed_profile) for value in range(4)]
        assert run_cells(jobs, resumed_profile, label="grid") == [0, 1, 4, 9]
        # exactly the two missing cells were re-run and appended
        assert len(records.read_text().splitlines()) == 4

    def test_failures_are_persisted_then_raised(self, tmp_path, tiny_profile):
        sentinel = tmp_path / "fault-injected"
        sentinel.touch()
        store_root = tmp_path / "stores"
        profile = tiny_profile.with_store(str(store_root))
        jobs = [_FlakyJob(value, str(sentinel), profile) for value in range(3)]
        with pytest.raises(RuntimeError, match="exploded"):
            run_cells(jobs, profile, label="grid")
        manifest = read_manifest(manifest_file(store_root, "grid"))
        assert manifest["run_status"] == "failed"
        assert manifest["completed"] == 2  # good cells persisted anyway
        assert manifest["failed"] == 1

        # the fault clears; resume re-dispatches only the failed cell
        sentinel.unlink()
        resumed_profile = tiny_profile.with_store(str(store_root), resume=True)
        jobs = [
            _FlakyJob(value, str(sentinel), resumed_profile) for value in range(3)
        ]
        assert run_cells(jobs, resumed_profile, label="grid") == [0, 1, 2]
        assert read_manifest(manifest_file(store_root, "grid"))["run_status"] == (
            "complete"
        )

    def test_no_label_means_no_store(self, tmp_path, tiny_profile):
        profile = tiny_profile.with_store(str(tmp_path))
        jobs = [_SquareJob(value, profile) for value in range(2)]
        assert run_cells(jobs, profile) == [0, 1]
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Kill/resume determinism — the acceptance criterion
# ---------------------------------------------------------------------------


class TestKillResumeDeterminism:
    """Interrupted after k of N cells + resumed == uninterrupted, byte for byte."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_table3_resumes_byte_identical(
        self, tmp_path, tiny_profile, tiny_app, backend
    ):
        # "serial": the serial store path; "process": the dag:process one.
        plan = None if backend == "serial" else f"dag:{backend}"
        graph, deadline_s = tiny_app
        applications = [("tiny", graph, deadline_s)]
        core_counts = (2, 3)
        reference = render_report(
            "table3",
            run_table3(
                tiny_profile, core_counts=core_counts, applications=applications
            ),
            tiny_profile,
        )

        stored_profile = tiny_profile.with_store(str(tmp_path)).with_exec_plan(plan)
        run_table3(
            stored_profile, core_counts=core_counts, applications=applications
        )
        records = records_file(tmp_path, "table3")
        lines = records.read_text().splitlines(keepends=True)
        assert len(lines) == len(core_counts)
        # crash signature: k=1 whole record + a torn half-line
        records.write_text(lines[0] + lines[1][: len(lines[1]) // 2])

        resumed_profile = tiny_profile.with_store(
            str(tmp_path), resume=True
        ).with_exec_plan(plan)
        resumed = run_table3(
            resumed_profile, core_counts=core_counts, applications=applications
        )
        assert render_report("table3", resumed, tiny_profile) == reference
        # exactly one cell re-ran
        assert len(records.read_text().splitlines()) == len(core_counts)

    def test_fig10_resumes_byte_identical(self, tmp_path, tiny_profile, tiny_app):
        graph, deadline_s = tiny_app
        reference = run_fig10(
            tiny_profile, graph=graph, deadline_s=deadline_s, core_counts=(2, 3)
        ).format_table()
        stored = tiny_profile.with_store(str(tmp_path))
        run_fig10(stored, graph=graph, deadline_s=deadline_s, core_counts=(2, 3))
        records = records_file(tmp_path, "fig10")
        lines = records.read_text().splitlines(keepends=True)
        records.write_text(lines[0])
        resumed = run_fig10(
            tiny_profile.with_store(str(tmp_path), resume=True),
            graph=graph,
            deadline_s=deadline_s,
            core_counts=(2, 3),
        )
        assert resumed.format_table() == reference


# ---------------------------------------------------------------------------
# Reporting round-trips: resumed store == in-memory, every module
# ---------------------------------------------------------------------------


class TestReportingRoundTrips:
    """Rendered report from a resumed store == the in-memory path."""

    def roundtrip(self, tmp_path, tiny_profile, experiment_id, runner, **kwargs):
        in_memory = runner(tiny_profile, **kwargs)
        reference = render_report(experiment_id, in_memory, tiny_profile)
        runner(tiny_profile.with_store(str(tmp_path)), **kwargs)
        resumed = runner(
            tiny_profile.with_store(str(tmp_path), resume=True), **kwargs
        )
        assert render_report(experiment_id, resumed, tiny_profile) == reference
        manifest = read_manifest(manifest_file(tmp_path, experiment_id))
        assert manifest["run_status"] == "complete"

    def test_fig3(self, tmp_path, tiny_profile):
        self.roundtrip(tmp_path, tiny_profile, "fig3", run_fig3)

    def test_fig9(self, tmp_path, tiny_profile):
        self.roundtrip(tmp_path, tiny_profile, "fig9", run_fig9)

    def test_fig10(self, tmp_path, tiny_profile, tiny_app):
        graph, deadline_s = tiny_app
        self.roundtrip(
            tmp_path,
            tiny_profile,
            "fig10",
            run_fig10,
            graph=graph,
            deadline_s=deadline_s,
            core_counts=(2, 3),
        )

    def test_fig11(self, tmp_path, tiny_profile, tiny_app):
        graph, deadline_s = tiny_app
        self.roundtrip(
            tmp_path,
            tiny_profile,
            "fig11",
            run_fig11,
            graph=graph,
            deadline_s=deadline_s * 1.6,
            num_cores=3,
        )

    def test_table3(self, tmp_path, tiny_profile, tiny_app):
        graph, deadline_s = tiny_app
        self.roundtrip(
            tmp_path,
            tiny_profile,
            "table3",
            run_table3,
            core_counts=(2, 3),
            applications=[("tiny", graph, deadline_s)],
        )

    def test_run_all_covers_table2_and_nested_stores(self, tmp_path, tiny_profile):
        """run_all streams whole experiments (table2 included) and the
        cell-level experiments nest their own stores below the same root."""
        ids = ("fig3", "table2")
        in_memory = run_all(tiny_profile, ids=ids)
        run_all(tiny_profile.with_store(str(tmp_path)), ids=ids)
        assert (tmp_path / "all").is_dir()
        assert (tmp_path / "fig3").is_dir()  # nested per-experiment store
        resumed = run_all(
            tiny_profile.with_store(str(tmp_path), resume=True), ids=ids
        )
        for experiment_id in ids:
            assert resumed[experiment_id][1] == in_memory[experiment_id][1]


# ---------------------------------------------------------------------------
# Profile plumbing
# ---------------------------------------------------------------------------


class TestProfilePlumbing:
    def test_with_store(self, tiny_profile):
        stored = tiny_profile.with_store("/tmp/s", resume=True)
        assert stored.store_dir == "/tmp/s"
        assert stored.resume is True
        assert tiny_profile.store_dir is None  # original untouched

    def test_worker_profile_keeps_store_settings(self, tiny_profile):
        # Cells run under their own profile on every plan (nothing
        # re-profiles them), so nested grids keep streaming and resuming.
        stored = tiny_profile.with_store("/tmp/s", resume=True)
        for plan in (None, "dag:thread"):
            profile = stored.with_exec_plan(plan)
            (seen,) = run_cells([_ProfileProbe(profile)], profile)
            assert seen.store_dir == "/tmp/s"
            assert seen.resume is True
            assert seen.exec_plan == plan

    def test_smoke_profile(self):
        smoke = ExperimentProfile.smoke(seed=3)
        assert smoke.name == "smoke"
        assert smoke.seed == 3
        assert smoke.search_iterations < ExperimentProfile.fast().search_iterations

    def test_profiles_remain_picklable(self, tiny_profile):
        stored = tiny_profile.with_store("/tmp/s", resume=True)
        assert pickle.loads(pickle.dumps(stored)) == stored


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCLI:
    def test_store_flags_plumb_into_profile(self):
        from repro.cli import _profile_from, build_parser

        args = build_parser().parse_args(
            [
                "experiment",
                "fig3",
                "--profile",
                "smoke",
                "--store-dir",
                "/tmp/stores",
                "--resume",
            ]
        )
        profile = _profile_from(args)
        assert profile.name == "smoke"
        assert profile.store_dir == "/tmp/stores"
        assert profile.resume is True

    def test_resume_requires_store_dir(self):
        from repro.cli import _profile_from, build_parser

        args = build_parser().parse_args(["experiment", "fig3", "--resume"])
        with pytest.raises(SystemExit, match="--store-dir"):
            _profile_from(args)

    def test_runs_subcommand_lists_manifests(self, tmp_path, capsys):
        from repro.cli import main

        store = RunStore.open(
            tmp_path / "table3",
            label="table3",
            fingerprint="f" * 16,
            keys=("000:a", "001:b"),
            profile_summary={"name": "tiny", "seed": 0},
            resume=False,
        )
        store.record_result("000:a", 0, 1)
        store.finalize()
        assert main(["runs", "--store-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "1/2" in out
        assert "partial" in out

    def test_runs_subcommand_cell_detail(self, tmp_path, capsys):
        from repro.cli import main

        store = RunStore.open(
            tmp_path / "grid",
            label="grid",
            fingerprint="f" * 16,
            keys=("000:a", "001:b"),
            resume=False,
        )
        store.record_result("000:a", 0, 1)
        store.finalize()
        code = main(
            ["runs", "--store-dir", str(tmp_path), "--run", "grid", "--cells"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "000:a" in out
        assert "pending" in out

    def test_runs_subcommand_missing_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["runs", "--store-dir", str(tmp_path / "nope")]) == 1
        assert "no such store" in capsys.readouterr().err

    def test_cli_store_resume_report_identical(self, tmp_path, capsys):
        """The CI e2e job's contract, in-process: store, truncate, resume."""
        from repro.cli import main

        profile_args = ["experiment", "fig3", "--profile", "smoke"]
        assert main(profile_args) == 0
        reference = capsys.readouterr().out

        store_dir = tmp_path / "stores"
        assert main(profile_args + ["--store-dir", str(store_dir)]) == 0
        capsys.readouterr()
        records = records_file(store_dir, "fig3")
        lines = records.read_text().splitlines(keepends=True)
        records.write_text(lines[0])  # keep 1 of 2 panel cells
        assert (
            main(profile_args + ["--store-dir", str(store_dir), "--resume"]) == 0
        )
        assert capsys.readouterr().out == reference


# ---------------------------------------------------------------------------
# Record format stability (what external tooling may rely on)
# ---------------------------------------------------------------------------


class TestRecordFormat:
    def test_records_are_json_lines_with_known_fields(self, tmp_path, tiny_profile):
        profile = tiny_profile.with_store(str(tmp_path))
        run_cells([_SquareJob(3, profile)], profile, label="grid")
        (line,) = records_file(tmp_path, "grid").read_text().splitlines()
        record = json.loads(line)
        assert record["status"] == "ok"
        assert record["index"] == 0
        assert record["key"].startswith("000:_SquareJob(")
        assert "payload" in record

    def test_manifest_has_documented_fields(self, tmp_path, tiny_profile):
        profile = tiny_profile.with_store(str(tmp_path))
        run_cells([_SquareJob(3, profile)], profile, label="grid")
        manifest = read_manifest(manifest_file(tmp_path, "grid"))
        for field in (
            "format",
            "label",
            "fingerprint",
            "profile",
            "cells",
            "status",
            "completed",
            "failed",
            "total",
            "run_status",
        ):
            assert field in manifest
        assert manifest["fingerprint"] == profile.result_fingerprint()


# ---------------------------------------------------------------------------
# Concurrent readers: the service polls stores a live writer is
# streaming into — every reader degrades to "fewer records", never
# raises.
# ---------------------------------------------------------------------------


class TestConcurrentReaders:
    def _store(self, tmp_path):
        return RunStore.open(
            tmp_path / "run",
            label="run",
            fingerprint="f" * 16,
            keys=("000:a", "001:b", "002:c"),
            resume=False,
        )

    def test_scan_records_tolerates_mid_append_partial_line(self, tmp_path):
        store = self._store(tmp_path)
        store.record_result("000:a", 0, 1)
        store.record_result("001:b", 1, 2)
        # A writer mid-append: the tail line has no newline yet and is
        # cut inside its JSON document.
        whole = store.records_path.read_text()
        with store.records_path.open("a") as handle:
            handle.write(whole.splitlines()[0][:20])
        records = list(scan_records(store.records_path, decode=True))
        assert [record.key for record in records] == ["000:a", "001:b"]
        assert records[0].payload == 1

    def test_scan_records_missing_file(self, tmp_path):
        assert list(scan_records(tmp_path / "never" / "records.jsonl")) == []

    def test_scan_records_skips_undecodable_payload(self, tmp_path):
        store = self._store(tmp_path)
        store.record_result("000:a", 0, 1)
        lines = store.records_path.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["payload"] = "!!not-base64!!"
        doc["key"] = "001:b"
        with store.records_path.open("a") as handle:
            handle.write(json.dumps(doc) + "\n")
        decoded = list(scan_records(store.records_path, decode=True))
        assert [record.key for record in decoded] == ["000:a"]

    def test_load_results_with_live_writer_tail(self, tmp_path):
        store = self._store(tmp_path)
        store.record_result("000:a", 0, 1)
        with store.records_path.open("a") as handle:
            handle.write('{"key": "001:b", "status": "ok", "payl')
            handle.flush()
            # A second reader opens the store while the writer's half
            # record is durable on disk.
            reader = RunStore.open(
                tmp_path / "run",
                label="run",
                fingerprint="f" * 16,
                keys=("000:a", "001:b", "002:c"),
                resume=True,
            )
            assert set(reader.load_results()) == {"000:a"}

    def test_read_manifest_tolerates_partial_document(self, tmp_path):
        target = tmp_path / MANIFEST_NAME
        target.write_text('{"label": "run", "tot')  # torn mid-write copy
        assert read_manifest(target) is None
        target.write_text("[1, 2, 3]")  # valid JSON, wrong shape
        assert read_manifest(target) is None
        assert read_manifest(tmp_path / "absent.json") is None

    def test_iter_manifests_finds_nested_service_layout(self, tmp_path):
        # Service layout: <root>/runs/<run id>/<label>/manifest.json
        deep = tmp_path / "runs" / "fig3-abc123" / "fig3"
        RunStore.open(
            deep, label="fig3", fingerprint="a" * 16, keys=("000:x",),
            resume=False,
        )
        # Flat CLI layout next to it: <root>/<label>/manifest.json
        RunStore.open(
            tmp_path / "table3", label="table3", fingerprint="b" * 16,
            keys=("000:y",), resume=False,
        )
        found = {manifest["label"] for _path, manifest in iter_manifests(tmp_path)}
        assert found == {"fig3", "table3"}

    def test_iter_manifests_does_not_descend_below_a_manifest(self, tmp_path):
        outer = tmp_path / "outer"
        RunStore.open(
            outer, label="outer", fingerprint="a" * 16, keys=("000:x",),
            resume=False,
        )
        RunStore.open(
            outer / "inner", label="inner", fingerprint="b" * 16,
            keys=("000:y",), resume=False,
        )
        labels = [manifest["label"] for _p, manifest in iter_manifests(tmp_path)]
        assert labels == ["outer"]

    def test_iter_manifests_depth_limit(self, tmp_path):
        deep = tmp_path / "a" / "b" / "c" / "d" / "e"
        RunStore.open(
            deep, label="deep", fingerprint="a" * 16, keys=("000:x",),
            resume=False,
        )
        assert list(iter_manifests(tmp_path, max_depth=2)) == []
        assert [
            manifest["label"] for _p, manifest in iter_manifests(tmp_path)
        ] == []  # default depth 4 stops above e/
        assert [
            manifest["label"]
            for _p, manifest in iter_manifests(tmp_path, max_depth=8)
        ] == ["deep"]
