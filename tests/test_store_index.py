"""The SQLite store index: parity, fail-loud writes, concurrency,
compaction, and the refusal of the retired sharded layout.

The contract under test (see :mod:`repro.store.index`): every listing
is answered from the index, and that answer must be **identical** to
the statuses built from the directory walk (:func:`collect_entries`);
deleting ``index.sqlite`` must cost one listing (never an answer); a
failed index write must raise, never leave the listing silently
stale; concurrent appenders must never lose cell updates; and a reader
racing compaction must see the old records file or the new one, never
a torn view.
"""

import json
import shutil
import threading
from dataclasses import dataclass

import pytest

from repro import api
from repro.experiments import ExperimentProfile
from repro.experiments.common import run_cells
from repro.service import JobManager
from repro.store import (
    MANIFEST_NAME,
    RECORDS_NAME,
    RUN_RECORD_NAME,
    RunStore,
    StoreIndex,
    StoreIndexError,
    collect_entries,
    compact_records,
    compact_store,
    iter_manifests,
    scan_records,
)
from repro.store.index import grid_entry, service_run_entry
from repro.store.run_store import FORMAT_VERSION


NUM_GRIDS = 4
CELLS_PER_GRID = 8


def _write_grid(directory, label, *, statuses=None, duplicates=0):
    """One bare grid in the exact on-disk formats (manifest + records)."""
    directory.mkdir(parents=True, exist_ok=True)
    keys = [f"{index:03d}:{label}" for index in range(CELLS_PER_GRID)]
    status = statuses or {key: "done" for key in keys}
    done = sum(1 for value in status.values() if value == "done")
    failed = sum(1 for value in status.values() if value == "failed")
    manifest = {
        "format": FORMAT_VERSION,
        "label": label,
        "fingerprint": f"{abs(hash(label)):016x}"[:16],
        "profile": {"name": "tiny", "seed": 0},
        "cells": keys,
        "status": status,
        "completed": done,
        "failed": failed,
        "total": len(keys),
        "run_status": "complete" if done == len(keys) else "running",
    }
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    with (directory / RECORDS_NAME).open("w", encoding="utf-8") as handle:
        for _ in range(duplicates + 1):
            for key in keys:
                handle.write(
                    json.dumps({"key": key, "status": "ok", "payload": ""})
                    + "\n"
                )
    return manifest


@pytest.fixture
def store_root(tmp_path):
    root = tmp_path / "store"
    for index in range(NUM_GRIDS):
        _write_grid(root / f"grid-{index:02d}", f"grid-{index:02d}")
    return root


def _sidecar_files(root):
    return [root / name for name in
            ("index.sqlite", "index.sqlite-wal", "index.sqlite-shm")]


def _dicts(statuses):
    return [status.to_dict() for status in statuses]


def _walked(root):
    """The statuses the directory walk yields: the listing's oracle."""
    return [api._status_from_entry(entry) for entry in collect_entries(root)]


def _write_service_run(root, run_id, tenants=("t",), state="complete"):
    """One service run directory: ``run.json`` plus one labelled grid."""
    run_dir = root / "runs" / run_id
    _write_grid(run_dir / "optimize", "optimize")
    record = {
        "run_id": run_id,
        "label": run_id,
        "state": state,
        "tenants": list(tenants),
        "error": None,
        "spec": {"graph": {"tasks": [{"name": "t0"}] * 4}},
    }
    (run_dir / RUN_RECORD_NAME).write_text(json.dumps(record), encoding="utf-8")
    return run_dir


# ---------------------------------------------------------------------------
# Walk/index parity: the cache must be invisible.
# ---------------------------------------------------------------------------


class TestListingParity:
    def test_index_listing_identical_to_walk(self, store_root):
        indexed = api.list_runs(store_root)
        walked = _walked(store_root)
        assert _dicts(indexed) == _dicts(walked)
        assert [s.directory for s in indexed] == [s.directory for s in walked]
        assert [s.cells for s in indexed] == [s.cells for s in walked]

    def test_deleting_sidecar_costs_one_listing_never_an_answer(
        self, store_root
    ):
        reference = _dicts(api.list_runs(store_root))
        for path in _sidecar_files(store_root):
            if path.exists():
                path.unlink()
        assert _dicts(api.list_runs(store_root)) == reference
        # ... and the answer rebuilt the sidecar on its way out.
        assert (store_root / "index.sqlite").exists()

    def test_stale_schema_is_rebuilt_before_answering(self, store_root):
        import sqlite3

        api.list_runs(store_root)
        _write_grid(store_root / "grid-99", "grid-99")
        connection = sqlite3.connect(str(store_root / "index.sqlite"))
        with connection:
            connection.execute("UPDATE meta SET value = '0'")
        connection.close()
        with pytest.raises(StoreIndexError, match="stale schema"):
            StoreIndex.at(store_root).entries()
        assert _dicts(api.list_runs(store_root)) == _dicts(_walked(store_root))
        assert len(api.list_runs(store_root)) == NUM_GRIDS + 1

    def test_missing_index_raises_instead_of_answering(self, tmp_path):
        index = StoreIndex.at(tmp_path)
        with pytest.raises(StoreIndexError, match="no index"):
            index.entries()
        with pytest.raises(StoreIndexError, match="no index"):
            index.lookup_run("grid-00")

    def test_rebuild_index_counts_runs(self, store_root):
        assert api.rebuild_index(store_root) == NUM_GRIDS

    def test_entries_identical_to_collect_entries(self, store_root):
        index = StoreIndex.ensure(store_root)
        walked = collect_entries(store_root)
        index.replace_all(walked)
        assert index.entries() == walked

    def test_stale_index_is_corrected_by_rebuild(self, store_root):
        index = StoreIndex.ensure(store_root)
        # A new grid lands without touching the index (simulated
        # out-of-band writer): the walk sees it, the stale index not.
        _write_grid(store_root / "grid-99", "grid-99")
        assert len(index.entries()) == NUM_GRIDS
        assert index.rebuild() == NUM_GRIDS + 1
        assert len(index.entries()) == NUM_GRIDS + 1

    def test_lookup_run_by_directory_name_and_label(self, store_root):
        index = StoreIndex.ensure(store_root)
        entry = index.lookup_run("grid-02")
        assert entry is not None
        assert entry.total == CELLS_PER_GRID
        assert index.lookup_run("no-such-run") is None

    def test_lookup_run_finds_bare_grids_only(self, store_root):
        _write_service_run(store_root, "grid-02")  # a service run, same id
        entry = StoreIndex.ensure(store_root).lookup_run("grid-02")
        assert (entry.kind, entry.directory) == ("grid", store_root / "grid-02")
        assert api.run_status(store_root, "grid-02").directory == str(
            store_root / "runs" / "grid-02"
        )


class TestCollectEntries:
    @staticmethod
    def _reference(root):
        """The walk as it was before the grid pass skipped ``runs/``."""
        runs = root / "runs"
        entries = []
        if runs.is_dir():
            for run_dir in sorted(runs.iterdir(), key=lambda p: p.name):
                if (run_dir / RUN_RECORD_NAME).exists():
                    entries.append(service_run_entry(run_dir))
        for directory, manifest in iter_manifests(root):
            if directory == runs or runs in directory.parents:
                continue
            entries.append(grid_entry(directory, manifest))
        return entries

    def test_mixed_store_matches_the_full_walk(self, tmp_path):
        root = tmp_path / "store"
        for run in ("run-b", "run-a", "run-c"):
            _write_service_run(root, run)
        _write_grid(root / "beside", "beside")
        _write_grid(root / "group" / "sub" / "deep", "deep")
        entries = collect_entries(root)
        assert [entry.run_id for entry in entries] == [
            "run-a",
            "run-b",
            "run-c",
            "beside",
            "deep",
        ]
        assert entries == self._reference(root)

    def test_root_holding_a_manifest_is_one_grid(self, store_root):
        grid = store_root / "grid-01"
        assert collect_entries(grid) == self._reference(grid)
        assert [entry.run_id for entry in collect_entries(grid)] == ["grid-01"]


class TestIncrementalUpdates:
    """RunStore appends keep the sidecar fresh without a rebuild."""

    @staticmethod
    def _profile(root):
        return ExperimentProfile(
            name="tiny", search_iterations=10, sa_iterations=10, seed=0
        ).with_store(str(root))

    def test_run_cells_streams_into_the_index(self, tmp_path):
        profile = self._profile(tmp_path)
        jobs = [_SquareJob(value, profile) for value in range(3)]
        assert run_cells(jobs, profile, label="grid") == [0, 1, 4]
        index = StoreIndex.at(tmp_path)
        assert index.exists()
        entry = index.lookup_run("grid")
        assert entry is not None
        assert (entry.state, entry.completed) == ("complete", 3)
        # No rebuild between: the entry matches the walk field for field.
        assert index.entries() == collect_entries(tmp_path)

    def test_second_run_lands_in_an_indexed_store_and_is_listed(
        self, tmp_path, monkeypatch
    ):
        profile = self._profile(tmp_path)
        run_cells([_SquareJob(2, profile)], profile, label="first")
        assert len(api.list_runs(tmp_path)) == 1
        # The variable that used to switch index writes off is inert.
        monkeypatch.setenv("REPRO_STORE_NO_INDEX", "1")
        run_cells([_SquareJob(3, profile)], profile, label="second")
        listed = api.list_runs(tmp_path)
        assert [status.label for status in listed] == ["first", "second"]
        assert _dicts(listed) == _dicts(_walked(tmp_path))

    def test_failed_index_write_raises_and_resume_heals(
        self, tmp_path, monkeypatch
    ):
        real = StoreIndex.update_grid_cell
        calls = []

        def locked_once(self, *args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise StoreIndexError("database is locked")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(StoreIndex, "update_grid_cell", locked_once)
        profile = self._profile(tmp_path)
        jobs = [_SquareJob(value, profile) for value in range(3)]
        with pytest.raises(StoreIndexError, match="database is locked"):
            run_cells(jobs, profile, label="grid")
        # The failed cell's record is durable; its index row is behind.
        assert [r.key for r in scan_records(tmp_path / "grid" / RECORDS_NAME)]
        resumed = profile.with_store(str(tmp_path), resume=True)
        assert run_cells(jobs, resumed, label="grid") == [0, 1, 4]
        (status,) = api.list_runs(tmp_path)
        assert (status.state, status.completed) == ("complete", 3)
        assert _dicts([status]) == _dicts(_walked(tmp_path))

    def test_index_failure_ends_a_service_run_failed(
        self, tmp_path, monkeypatch
    ):
        api.list_runs(tmp_path)  # the store has an index from here on

        def locked(self, *args, **kwargs):
            raise StoreIndexError("database is locked")

        monkeypatch.setattr(StoreIndex, "update_grid", locked)
        spec = api.RunSpec.coerce({"experiment": "fig3", "profile": "smoke"})
        with pytest.raises(StoreIndexError, match="database is locked"):
            api.submit_run(spec, tmp_path)
        status = api.run_status(tmp_path, spec.run_id())
        assert status.state == "failed"
        assert status.error == "StoreIndexError: database is locked"
        (listed,) = api.list_runs(tmp_path)
        assert (listed.state, listed.error) == (status.state, status.error)

    def test_index_built_mid_run_is_kept_in_sync(self, tmp_path):
        """A writer that found no index probes again on its next write."""
        run_dir = _write_service_run(tmp_path, "run-x", state="running")
        store = RunStore.open(
            run_dir / "live",
            label="live",
            fingerprint="f" * 16,
            keys=["000:a", "001:b"],
        )
        store.record_result("000:a", 0, 1)
        assert not (tmp_path / "index.sqlite").exists()
        api.list_runs(tmp_path)  # builds the index mid-run
        store.record_result("001:b", 1, 2)
        store.finalize()
        (status,) = api.list_runs(tmp_path)
        assert status.completed == CELLS_PER_GRID + 2
        assert _dicts([status]) == _dicts(_walked(tmp_path))

    def test_no_sidecar_inside_grid_directories(self, tmp_path):
        profile = self._profile(tmp_path)
        run_cells([_SquareJob(2, profile)], profile, label="grid")
        assert (tmp_path / "index.sqlite").exists()
        assert not (tmp_path / "grid" / "index.sqlite").exists()

    def test_fresh_sidecar_is_seeded_with_preexisting_runs(self, tmp_path):
        """Existence implies completeness.

        A grid opened in a store that already holds runs (but no
        sidecar yet) must not create an index containing only its own
        row — readers trust an existing index, so the older runs
        would silently vanish from every listing.
        """
        _write_grid(tmp_path / "older", "older")
        assert not (tmp_path / "index.sqlite").exists()
        profile = self._profile(tmp_path)
        run_cells([_SquareJob(3, profile)], profile, label="newer")
        index = StoreIndex.at(tmp_path)
        assert index.exists()
        assert {entry.run_id for entry in index.entries()} == {
            "older",
            "newer",
        }
        assert index.entries() == collect_entries(tmp_path)


@dataclass(frozen=True)
class _SquareJob:
    value: int
    profile: ExperimentProfile

    def run(self):
        return self.value * self.value


# ---------------------------------------------------------------------------
# Concurrency: WAL + busy retries must never lose an update.
# ---------------------------------------------------------------------------


class TestConcurrency:
    def test_two_threads_appending_to_same_label_lose_nothing(
        self, store_root
    ):
        """Interleaved per-cell upserts from two threads all land."""
        directory = store_root / "grid-00"
        manifest = _write_grid(
            directory,
            "grid-00",
            statuses={
                f"{index:03d}:grid-00": "pending"
                for index in range(CELLS_PER_GRID)
            },
        )
        StoreIndex.ensure(store_root).replace_all(collect_entries(store_root))
        barrier = threading.Barrier(2)
        errors = []

        def worker(offset):
            index = StoreIndex.at(store_root)
            barrier.wait()
            try:
                for position in range(offset, CELLS_PER_GRID, 2):
                    index.update_grid_cell(
                        directory,
                        manifest,
                        f"{position:03d}:grid-00",
                        "done",
                    )
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        entry = StoreIndex.at(store_root).lookup_run("grid-00")
        assert entry is not None
        assert all(
            entry.cell_status[key] == "done" for key in entry.cells
        ), entry.cell_status

    def test_rebuild_walks_under_the_write_lock(self, store_root, monkeypatch):
        """A writer cannot slip an upsert between the walk and the replace."""
        import sqlite3

        from repro.store import index as index_module

        StoreIndex.ensure(store_root)
        blocked = []

        def walk_while_probing(root):
            probe = sqlite3.connect(str(store_root / "index.sqlite"), timeout=0)
            try:
                probe.execute("BEGIN IMMEDIATE")
            except sqlite3.OperationalError as exc:
                blocked.append(str(exc))
            finally:
                probe.close()
            return collect_entries(root)

        monkeypatch.setattr(index_module, "collect_entries", walk_while_probing)
        assert StoreIndex.at(store_root).rebuild() == NUM_GRIDS
        assert blocked == ["database is locked"]

    def test_writer_waits_out_a_held_write_lock(self, store_root):
        """The BEGIN IMMEDIATE retry + busy_timeout ride out a writer."""
        import sqlite3
        import time

        index = StoreIndex.ensure(store_root)
        index.replace_all(collect_entries(store_root))
        holder = sqlite3.connect(
            str(store_root / "index.sqlite"), check_same_thread=False
        )
        holder.execute("BEGIN IMMEDIATE")
        released = threading.Event()

        def release_soon():
            time.sleep(0.3)
            holder.commit()
            holder.close()
            released.set()

        thread = threading.Thread(target=release_soon)
        thread.start()
        directory = store_root / "grid-01"
        manifest = json.loads(
            (directory / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        # Blocks on the held lock, then succeeds — never raises.
        index.update_grid_cell(directory, manifest, "000:grid-01", "failed")
        thread.join()
        assert released.is_set()
        entry = index.lookup_run("grid-01")
        assert entry.cell_status["000:grid-01"] == "failed"


# ---------------------------------------------------------------------------
# Compaction: latest-wins rewrite, atomic against readers.
# ---------------------------------------------------------------------------


class TestCompaction:
    def test_keeps_final_record_per_key_verbatim(self, tmp_path):
        records = tmp_path / RECORDS_NAME
        lines = [
            json.dumps({"key": "a", "status": "error", "error": "boom"}),
            json.dumps({"key": "b", "status": "ok", "payload": "YmI="}),
            json.dumps({"key": "a", "status": "ok", "payload": "YWE="}),
        ]
        records.write_text("\n".join(lines) + "\n" + '{"torn', encoding="utf-8")
        result = compact_records(records)
        assert (result.kept, result.dropped) == (2, 2)
        kept = records.read_text(encoding="utf-8").splitlines()
        # Final record per key, first-appearance order, byte-verbatim.
        assert kept == [lines[2], lines[1]]

    def test_already_compact_file_is_untouched(self, tmp_path):
        records = tmp_path / RECORDS_NAME
        records.write_text(
            json.dumps({"key": "a", "status": "ok", "payload": ""}) + "\n",
            encoding="utf-8",
        )
        before = records.stat().st_mtime_ns
        result = compact_records(records)
        assert (result.kept, result.dropped) == (1, 0)
        assert records.stat().st_mtime_ns == before  # no churn

    def test_compact_store_walks_every_records_file(self, store_root):
        shutil.rmtree(store_root / "grid-03")
        _write_grid(store_root / "grid-03", "grid-03", duplicates=1)
        results = compact_store(store_root)
        assert len(results) == NUM_GRIDS
        changed = [result for result in results if result.changed]
        assert len(changed) == 1
        assert changed[0].dropped == CELLS_PER_GRID

    def test_reader_mid_compaction_sees_old_or_new_never_torn(self, tmp_path):
        """scan_records racing compact_records: full key set either way."""
        records = tmp_path / RECORDS_NAME
        keys = [f"{index:03d}:x" for index in range(20)]
        duplicated = "".join(
            json.dumps({"key": key, "status": "ok", "payload": ""}) + "\n"
            for key in keys * 2
        ) + '{"torn'
        records.write_text(duplicated, encoding="utf-8")
        expected = set(keys)
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                seen = {record.key for record in scan_records(records)}
                if seen != expected:  # pragma: no cover - the failure mode
                    failures.append(seen)
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            import os

            for _ in range(60):
                # Restore atomically too — the test races the reader
                # against compaction's rewrite, not against a torn
                # restore of the fixture bytes.
                staging = tmp_path / "staging.jsonl"
                staging.write_text(duplicated, encoding="utf-8")
                os.replace(staging, records)
                result = compact_records(records)
                assert result.kept == len(keys)
        finally:
            stop.set()
            thread.join()
        assert not failures, f"torn read: {failures[0] ^ expected}"


# ---------------------------------------------------------------------------
# The retired sharded layout is refused, never half-listed.
# ---------------------------------------------------------------------------


class TestRetiredShardedLayout:
    def test_sharded_run_directory_fails_listing_lookup_and_start(
        self, tmp_path
    ):
        _write_service_run(tmp_path, "run-flat")
        _write_service_run(tmp_path / "runs", "run-sharded")  # runs/runs/…
        shard = tmp_path / "runs" / "3f"
        (tmp_path / "runs" / "runs").rename(shard)
        move = r"runs/<run id>"
        with pytest.raises(StoreIndexError, match=move):
            api.list_runs(tmp_path)
        with pytest.raises(StoreIndexError, match=move):
            api.run_status(tmp_path, "run-sharded")
        with pytest.raises(StoreIndexError, match=move):
            JobManager(tmp_path).start()

    def test_shard_marker_fails_even_with_a_current_index(self, store_root):
        api.list_runs(store_root)
        (store_root / "runs").mkdir()
        (store_root / "runs" / ".sharded").touch()
        with pytest.raises(StoreIndexError, match=r"runs/<run id>"):
            api.list_runs(store_root)
        with pytest.raises(StoreIndexError, match=r"runs/<run id>"):
            api.run_status(store_root, "grid-00")


# ---------------------------------------------------------------------------
# The CLI surface over all of it.
# ---------------------------------------------------------------------------


class TestCliRuns:
    @staticmethod
    def _run(argv):
        from repro.cli import main

        return main(argv)

    def test_runs_listing_identical_with_and_without_index(
        self, store_root, capsys
    ):
        walked = json.dumps(_dicts(_walked(store_root)), indent=2, sort_keys=True)
        argv = ["runs", "--store-dir", str(store_root), "--json"]
        assert self._run(argv) == 0
        built = capsys.readouterr().out
        assert self._run(argv) == 0
        incremental = capsys.readouterr().out
        assert built == incremental == walked + "\n"

    def test_runs_refuses_a_sharded_store(self, store_root, capsys):
        (store_root / "runs").mkdir()
        (store_root / "runs" / ".sharded").touch()
        assert self._run(["runs", "--store-dir", str(store_root)]) == 1
        assert "runs/<run id>" in capsys.readouterr().err

    def test_rebuild_and_compact_flags(self, store_root, capsys):
        shutil.rmtree(store_root / "grid-00")
        _write_grid(store_root / "grid-00", "grid-00", duplicates=1)
        assert self._run(
            [
                "runs",
                "--store-dir",
                str(store_root),
                "--rebuild-index",
                "--compact",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert f"rebuilt index: {NUM_GRIDS} run(s)" in captured.err
        assert "compacted 1/" in captured.err
