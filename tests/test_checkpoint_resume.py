"""Intra-cell checkpoints: per-scaling resume, byte-identical reports.

The acceptance contract: a ``full``-style cell killed mid-scaling-sweep
and resumed recomputes only the scalings after the last durable
checkpoint, and the final report is **byte-identical** to an
uninterrupted run — the same determinism bar the cell-level resume
already meets, pushed inside the cell.

The kill is simulated with a ``BaseException`` raised from inside the
checkpoint append: it flies past every ``except Exception`` guard in
the cell runner (exactly like SIGKILL never reaches them) and leaves
the store with completed cells, a partial checkpoint file and a
manifest still marked running.  The CI ``e2e-store`` leg repeats the
experiment with a real ``SIGKILL``-ed subprocess.
"""

import base64
import json
import shutil
from pathlib import Path

import pytest

from repro.experiments import ExperimentProfile, run_table3
from repro.experiments.runner import render_report
from repro.store import RECORDS_NAME
from repro.store.checkpoint import (
    CellCheckpoint,
    checkpoint_path,
    checkpoint_scope,
    clear_checkpoints,
    current_checkpoint,
    discard_cell_checkpoint,
)
from repro.taskgraph import RandomGraphConfig, random_task_graph

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def tiny_profile():
    return ExperimentProfile(
        name="tiny",
        search_iterations=150,
        sa_iterations=300,
        stop_after_feasible=2,
        seed=0,
    )


@pytest.fixture(scope="module")
def tiny_app():
    config = RandomGraphConfig(num_tasks=12)
    return random_task_graph(config, seed=3), config.deadline_s


# ---------------------------------------------------------------------------
# The checkpoint file itself.
# ---------------------------------------------------------------------------


class TestCellCheckpoint:
    def open(self, tmp_path, fingerprint="f" * 16, cell="000:a"):
        return CellCheckpoint(
            tmp_path / "cell-000.jsonl", fingerprint=fingerprint, cell_key=cell
        )

    def test_record_restore_roundtrip(self, tmp_path):
        checkpoint = self.open(tmp_path)
        checkpoint.record(-1, ("baseline", 3))
        checkpoint.record(0, ("scaling-0", 7))
        fresh = self.open(tmp_path)
        assert set(fresh.positions()) == {-1, 0}
        assert fresh.restore(-1) == ("baseline", 3)
        assert fresh.restore(0) == ("scaling-0", 7)
        assert fresh.restore(1) is None

    def test_fingerprint_mismatch_invalidates_everything(self, tmp_path):
        self.open(tmp_path).record(0, ("value", 1))
        other = self.open(tmp_path, fingerprint="0" * 16)
        assert set(other.positions()) == set()
        assert other.restore(0) is None

    def test_cell_key_mismatch_invalidates_everything(self, tmp_path):
        self.open(tmp_path).record(0, ("value", 1))
        other = self.open(tmp_path, cell="001:b")
        assert set(other.positions()) == set()

    def test_torn_tail_keeps_earlier_records(self, tmp_path):
        checkpoint = self.open(tmp_path)
        checkpoint.record(0, ("kept", 1))
        checkpoint.record(1, ("also kept", 2))
        with checkpoint.path.open("a", encoding="utf-8") as handle:
            handle.write('{"position": 2, "payl')  # interrupted append
        fresh = self.open(tmp_path)
        assert set(fresh.positions()) == {0, 1}
        assert fresh.restore(0) == ("kept", 1)

    def test_sweeps_are_isolated(self, tmp_path):
        """One cell, several optimizations: sweep n restores only sweep n.

        ``run_all`` cells execute whole experiments (``table2`` runs
        several optimizations back to back); without the sweep key,
        invocation 2 would restore invocation 1's positions.
        """
        checkpoint = self.open(tmp_path)
        assert (checkpoint.next_sweep(), checkpoint.next_sweep()) == (0, 1)
        checkpoint.record(0, ("first sweep", 1), 0)
        checkpoint.record(0, ("second sweep", 2), 1)
        fresh = self.open(tmp_path)
        assert fresh.restore(0, 0) == ("first sweep", 1)
        assert fresh.restore(0, 1) == ("second sweep", 2)
        assert fresh.restore(0, 2) is None
        assert set(fresh.positions(0)) == {0}
        assert set(fresh.positions(1)) == {0}
        # The counter restarts with each object (one per cell
        # execution, resume included), keeping invocations aligned.
        assert fresh.next_sweep() == 0

    def test_latest_record_wins_per_position(self, tmp_path):
        checkpoint = self.open(tmp_path)
        checkpoint.record(0, ("first", 1))
        checkpoint.record(0, ("second", 2))
        assert self.open(tmp_path).restore(0) == ("second", 2)

    def test_discard_removes_the_file(self, tmp_path):
        checkpoint = self.open(tmp_path)
        checkpoint.record(0, ("value", 1))
        assert checkpoint.path.exists()
        checkpoint.discard()
        assert not checkpoint.path.exists()
        assert set(self.open(tmp_path).positions()) == set()

    def test_scope_is_thread_local(self, tmp_path):
        import threading

        checkpoint = self.open(tmp_path)
        seen = {}

        def worker():
            seen["worker"] = current_checkpoint()

        with checkpoint_scope(checkpoint):
            assert current_checkpoint() is checkpoint
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert current_checkpoint() is None
        assert seen["worker"] is None  # scopes never leak across threads

    def test_clear_checkpoints_empties_the_grid_directory(self, tmp_path):
        grid = tmp_path / "grid"
        for index in (0, 3):
            path = checkpoint_path(grid, index)
            CellCheckpoint(
                path, fingerprint="f" * 16, cell_key=f"{index:03d}:a"
            ).record(0, ("value", 1))
        assert checkpoint_path(grid, 0).exists()
        clear_checkpoints(grid)
        assert not checkpoint_path(grid, 0).exists()
        assert not checkpoint_path(grid, 3).exists()

    def test_discard_cell_checkpoint_targets_one_cell(self, tmp_path):
        grid = tmp_path / "grid"
        for index in (0, 1):
            CellCheckpoint(
                checkpoint_path(grid, index),
                fingerprint="f" * 16,
                cell_key=f"{index:03d}:a",
            ).record(0, ("value", 1))
        discard_cell_checkpoint(grid, 0)
        assert not checkpoint_path(grid, 0).exists()
        assert checkpoint_path(grid, 1).exists()


# ---------------------------------------------------------------------------
# Mid-cell kill -> resume, end to end through run_cells + the store.
# ---------------------------------------------------------------------------


class _MidCellKill(BaseException):
    """Flies past ``except Exception`` guards, like SIGKILL would."""


def _arm_bomb(monkeypatch, after_records):
    """Kill the process-in-miniature after N durable checkpoint appends."""
    counter = {"appends": 0}
    original = CellCheckpoint.record

    def exploding_record(self, position, value, sweep=0):
        original(self, position, value, sweep)
        counter["appends"] += 1
        if counter["appends"] >= after_records:
            raise _MidCellKill()

    monkeypatch.setattr(CellCheckpoint, "record", exploding_record)
    return counter


class TestMidCellResume:
    CORE_COUNTS = (2, 3)

    def _reference(self, tiny_profile, tiny_app):
        graph, deadline_s = tiny_app
        result = run_table3(
            tiny_profile,
            core_counts=self.CORE_COUNTS,
            applications=[("tiny", graph, deadline_s)],
        )
        return render_report("table3", result, tiny_profile)

    def _run_stored(self, profile, tiny_app):
        graph, deadline_s = tiny_app
        result = run_table3(
            profile,
            core_counts=self.CORE_COUNTS,
            applications=[("tiny", graph, deadline_s)],
        )
        return render_report("table3", result, profile)

    def test_kill_mid_cell_resumes_at_last_scaling_byte_identical(
        self, tmp_path, tiny_profile, tiny_app, monkeypatch
    ):
        reference = self._reference(tiny_profile, tiny_app)
        stored = tiny_profile.with_store(str(tmp_path))

        counter = _arm_bomb(monkeypatch, after_records=2)
        with pytest.raises(_MidCellKill):
            self._run_stored(stored, tiny_app)
        monkeypatch.undo()
        assert counter["appends"] == 2

        # The kill left a partial checkpoint (baseline + 1 scaling) for
        # the first cell, and no completed cell records.
        partial = checkpoint_path(tmp_path / "table3", 0)
        assert partial.exists()
        assert len(partial.read_text().splitlines()) == 2
        records = tmp_path / "table3" / RECORDS_NAME
        assert not records.exists() or records.read_text() == ""

        # Count restores during the resume: the recorded scalings must
        # be served from the checkpoint, not recomputed.
        restores = {"hits": 0}
        original_restore = CellCheckpoint.restore

        def counting_restore(self, position, sweep=0):
            value = original_restore(self, position, sweep)
            if value is not None:
                restores["hits"] += 1
            return value

        monkeypatch.setattr(CellCheckpoint, "restore", counting_restore)
        resumed = tiny_profile.with_store(str(tmp_path), resume=True)
        assert self._run_stored(resumed, tiny_app) == reference
        monkeypatch.undo()
        assert restores["hits"] == 2  # baseline + the one durable scaling

        # Completion discarded the checkpoint; the grid is complete.
        assert not partial.exists()
        assert len(records.read_text().splitlines()) == len(self.CORE_COUNTS)

    def test_resume_under_dag_plan_is_byte_identical_too(
        self, tmp_path, tiny_profile, tiny_app, monkeypatch
    ):
        """Kill under the serial plan, resume under ``dag`` — same bytes."""
        reference = self._reference(tiny_profile, tiny_app)
        stored = tiny_profile.with_store(str(tmp_path))

        _arm_bomb(monkeypatch, after_records=3)
        with pytest.raises(_MidCellKill):
            self._run_stored(stored, tiny_app)
        monkeypatch.undo()
        assert checkpoint_path(tmp_path / "table3", 0).exists()

        resumed = tiny_profile.with_store(
            str(tmp_path), resume=True
        ).with_exec_plan("dag:serial")
        assert self._run_stored(resumed, tiny_app) == reference

    def test_fresh_run_ignores_other_fingerprints_checkpoints(
        self, tmp_path, tiny_profile, tiny_app, monkeypatch
    ):
        """A profile change invalidates checkpoints instead of reusing them."""
        reference = self._reference(tiny_profile, tiny_app)
        stored = tiny_profile.with_store(str(tmp_path))

        _arm_bomb(monkeypatch, after_records=2)
        with pytest.raises(_MidCellKill):
            self._run_stored(stored, tiny_app)
        monkeypatch.undo()

        # Poison the checkpoint with a different fingerprint: resume
        # must treat it as absent and still reproduce reference bytes.
        partial = checkpoint_path(tmp_path / "table3", 0)
        poisoned = partial.read_text().replace(
            '"fingerprint": "', '"fingerprint": "dead'
        )
        partial.write_text(poisoned, encoding="utf-8")
        resumed = tiny_profile.with_store(str(tmp_path), resume=True)
        assert self._run_stored(resumed, tiny_app) == reference

    def test_fresh_open_clears_stale_checkpoints(
        self, tmp_path, tiny_profile, tiny_app, monkeypatch
    ):
        stored = tiny_profile.with_store(str(tmp_path))
        _arm_bomb(monkeypatch, after_records=2)
        with pytest.raises(_MidCellKill):
            self._run_stored(stored, tiny_app)
        monkeypatch.undo()
        assert checkpoint_path(tmp_path / "table3", 0).exists()

        # A *fresh* (non-resume) open restarts the grid from scratch:
        # stale intra-cell progress must go with the stale records.
        self._run_stored(stored, tiny_app)
        assert not checkpoint_path(tmp_path / "table3", 0).exists()


# ---------------------------------------------------------------------------
# Checkpoints written while DesignPoint still carried its Schedule.
# ---------------------------------------------------------------------------

#: Cell 0 of ``TestMidCellResume``'s grid, killed after two durable
#: appends, as written before design points dropped their ``schedule``
#: field: every payload pickles a full :class:`Schedule`.
LEGACY_CHECKPOINT = (
    Path(__file__).parent / "fixtures" / "checkpoint-with-schedule.jsonl"
)


class TestLegacyCheckpoint:
    def test_payloads_carry_schedules(self):
        lines = LEGACY_CHECKPOINT.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for line in lines:
            raw = base64.b64decode(json.loads(line)["payload"])
            assert b"Schedule" in raw

    def test_resumes_byte_identical(
        self, tmp_path, tiny_profile, tiny_app, monkeypatch
    ):
        runs = TestMidCellResume()
        reference = runs._reference(tiny_profile, tiny_app)
        # A killed run leaves the store mid-grid; its cell-0 checkpoint
        # is then replaced by the legacy one.
        _arm_bomb(monkeypatch, after_records=2)
        with pytest.raises(_MidCellKill):
            runs._run_stored(tiny_profile.with_store(str(tmp_path)), tiny_app)
        monkeypatch.undo()
        partial = checkpoint_path(tmp_path / "table3", 0)
        shutil.copyfile(LEGACY_CHECKPOINT, partial)

        restored = []
        original_restore = CellCheckpoint.restore

        def recording_restore(self, position, sweep=0):
            value = original_restore(self, position, sweep)
            if value is not None:
                restored.append(value)
            return value

        monkeypatch.setattr(CellCheckpoint, "restore", recording_restore)
        resumed = tiny_profile.with_store(str(tmp_path), resume=True)
        assert runs._run_stored(resumed, tiny_app) == reference
        monkeypatch.undo()
        # Both legacy positions were served, not silently recomputed,
        # and loaded without the dropped field.
        assert len(restored) == 2
        for point, _ in restored:
            assert point.makespan_s > 0
            assert not hasattr(point, "schedule")
