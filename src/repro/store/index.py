"""The SQLite index every run listing of a store root is answered from.

The run store's source of truth is per-run ``records.jsonl`` +
``manifest.json`` files (plus ``run.json`` for service runs); listing
them means walking directories and parsing every one of them — on a
service store, every ``run.json`` carries the submitted graph spec.
:class:`StoreIndex` keeps one ``index.sqlite`` (WAL mode) at the store
root holding a row per run (fingerprint, label, state, completion
counters, profile summary, timestamps) and a row per cell (key +
status, in listing order), so "list my runs" is one query instead of
a walk.

Authority and listing contract
------------------------------
The index is **never** an authority.  Every row is derived from
``records.jsonl``/``manifest.json``/``run.json`` and can be rebuilt
from them at any time (:meth:`StoreIndex.rebuild` over
:func:`collect_entries`); deleting ``index.sqlite`` loses nothing.
It is, however, the **only** listing path: every run listing and
bare-grid lookup is answered from it, through
:meth:`StoreIndex.ensure`, which first rebuilds an index that is
missing or from another schema version.  The walk exists to build the
index (and as the test oracle), so an index-served listing equals the
walk by construction.

Writers keep the index fresh incrementally — :class:`~repro.store.
run_store.RunStore` upserts its run row on every cell append, the
service facade upserts on every run-state transition — and an index
write that fails raises :class:`StoreIndexError` to the writer; no
write is best-effort.  A rebuild walks the store while holding the
index's write lock, so a writer's upsert lands either before the walk
(which then re-reads the same manifests) or after it (overwriting
the walked row with fresher state); a writer that found no index wrote
its manifest before the rebuild's walk began.

Compaction
----------
``records.jsonl`` accumulates torn tails (interrupted appends) and
superseded records (a cell re-run after a failure appends a second
line; the loader's latest-wins rule hides the first).
:func:`compact_records` rewrites a records file to exactly the lines
the loader would keep — the *final* record per cell key, verbatim
bytes, in first-appearance order — via a temp file + ``os.replace``,
so a concurrent reader sees either the old file or the new one,
never a torn view.  Compact only quiescent stores: a live writer's
append between the read and the replace would be dropped.

Layout
------
Service runs live under ``<root>/runs/<run id>``; bare grids anywhere
else under the root (``<root>/<label>``, as ``--store-dir`` writes
them).  Stores written with the retired sharded layout
(``runs/<hh>/<run id>``, ``runs/.sharded``) are refused with an error
naming the move, never listed with those runs missing.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.store.run_store import (
    MANIFEST_NAME,
    RECORDS_NAME,
    iter_manifests,
)

INDEX_NAME = "index.sqlite"
RUN_RECORD_NAME = "run.json"
RUNS_DIRNAME = "runs"

#: Bump when the schema changes; a mismatched index is rebuilt from
#: the walk by the next :meth:`StoreIndex.ensure`.
INDEX_SCHEMA_VERSION = 1

#: Ancestor levels walked when attaching a grid directory to the store
#: root's index (``<root>/runs/<run id>/<label>`` is three deep).
_ATTACH_DEPTH = 4

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    directory  TEXT PRIMARY KEY,  -- relative to the store root
    kind       TEXT NOT NULL,     -- 'service' | 'grid'
    sort_key   TEXT NOT NULL,
    run_id     TEXT NOT NULL,
    label      TEXT NOT NULL,
    state      TEXT NOT NULL,
    total      INTEGER NOT NULL,
    completed  INTEGER NOT NULL,
    failed     INTEGER NOT NULL,
    fingerprint TEXT,
    profile    TEXT NOT NULL,     -- JSON (name, seed, platform, ...)
    executor   TEXT,              -- JSON or NULL
    tenants    TEXT NOT NULL,     -- JSON list
    error      TEXT,
    updated_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_by_id ON runs (run_id);
CREATE INDEX IF NOT EXISTS runs_by_fingerprint ON runs (fingerprint);
CREATE TABLE IF NOT EXISTS cells (
    directory TEXT NOT NULL,
    position  INTEGER NOT NULL,
    key       TEXT NOT NULL,
    status    TEXT NOT NULL,
    PRIMARY KEY (directory, position)
);
CREATE INDEX IF NOT EXISTS cells_by_key ON cells (directory, key);
"""


class StoreIndexError(RuntimeError):
    """The index could not be read or written, or the layout is retired."""


# ---------------------------------------------------------------------------
# Run entries: the one shape shared by the walk and the index.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunEntry:
    """One run as the listing sees it, whatever produced it.

    :func:`collect_entries` builds these from a directory walk;
    :meth:`StoreIndex.entries` round-trips them through SQLite.  The
    two must agree field for field — that equivalence is what makes
    an incrementally maintained listing byte-identical to a freshly
    rebuilt one, and the CI ``e2e-store`` index leg diffs exactly that.
    """

    kind: str  # "service" | "grid"
    directory: Path
    run_id: str
    label: str
    state: str
    total: int = 0
    completed: int = 0
    failed: int = 0
    fingerprint: Optional[str] = None
    profile: Mapping[str, Any] = field(default_factory=dict)
    executor: Optional[Mapping[str, Any]] = None
    tenants: Tuple[str, ...] = ()
    error: Optional[str] = None
    cells: Tuple[str, ...] = ()
    cell_status: Mapping[str, str] = field(default_factory=dict)


def read_run_record(run_dir: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """Parse one ``run.json``; ``None`` when absent or unreadable."""
    try:
        record = json.loads(
            (Path(run_dir) / RUN_RECORD_NAME).read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        return None
    return record if isinstance(record, dict) else None


def _aggregate_manifests(
    manifests: Sequence[Tuple[Path, Mapping[str, Any]]],
) -> Dict[str, Any]:
    """Merge per-label manifests into one run's counters/cells view."""
    total = completed = failed = 0
    fingerprint: Optional[str] = None
    profile: Mapping[str, Any] = {}
    executor: Optional[Mapping[str, Any]] = None
    cells: List[str] = []
    cell_status: Dict[str, str] = {}
    for _, manifest in manifests:
        total += int(manifest.get("total", 0))
        completed += int(manifest.get("completed", 0))
        failed += int(manifest.get("failed", 0))
        fingerprint = fingerprint or manifest.get("fingerprint")
        profile = profile or manifest.get("profile", {})
        executor = executor or manifest.get("executor")
        cells.extend(manifest.get("cells", []))
        cell_status.update(manifest.get("status", {}))
    return {
        "total": total,
        "completed": completed,
        "failed": failed,
        "fingerprint": fingerprint,
        "profile": dict(profile),
        "executor": dict(executor) if executor else None,
        "cells": tuple(cells),
        "cell_status": cell_status,
    }


def service_run_entry(
    run_dir: Path,
    record: Optional[Mapping[str, Any]] = None,
    manifests: Optional[Sequence[Tuple[Path, Mapping[str, Any]]]] = None,
) -> Optional[RunEntry]:
    """The entry for one service-managed run directory (``run.json``)."""
    if record is None:
        record = read_run_record(run_dir)
    if record is None:
        return None
    if manifests is None:
        manifests = list(iter_manifests(run_dir))
    merged = _aggregate_manifests(manifests)
    return RunEntry(
        kind="service",
        directory=run_dir,
        run_id=str(record.get("run_id", run_dir.name)),
        label=str(record.get("label", run_dir.name)),
        state=str(record.get("state", "queued")),
        tenants=tuple(str(t) for t in record.get("tenants", [])),
        error=record.get("error"),
        **merged,
    )


def grid_entry(directory: Path, manifest: Mapping[str, Any]) -> RunEntry:
    """The entry for one bare grid directory (``manifest.json`` only)."""
    merged = _aggregate_manifests([(directory, manifest)])
    return RunEntry(
        kind="grid",
        directory=directory,
        run_id=directory.name,
        label=str(manifest.get("label", directory.name)),
        state=str(manifest.get("run_status", "?")),
        **merged,
    )


def _retired_layout(path: Path) -> StoreIndexError:
    return StoreIndexError(
        f"{path}: sharded run directories (runs/<hh>/<run id>) are no "
        "longer supported; move every run to runs/<run id> and delete "
        "runs/.sharded"
    )


def _check_flat_layout(runs_dir: Path) -> None:
    """Refuse a ``runs/`` directory that still carries the shard marker."""
    marker = runs_dir / ".sharded"
    if marker.exists():
        raise _retired_layout(marker)


def iter_service_run_dirs(runs_dir: Path) -> Iterator[Path]:
    """Service run directories (``runs/<run id>``), sorted by run id.

    A child without a ``run.json`` is skipped (a run being created)
    unless it holds run directories itself — the retired sharded
    layout, which raises :class:`StoreIndexError` rather than leaving
    those runs out.
    """
    _check_flat_layout(runs_dir)
    try:
        children = sorted(runs_dir.iterdir())
    except OSError:
        return
    for child in children:
        if (child / RUN_RECORD_NAME).exists():
            yield child
        elif child.is_dir() and any(
            (grandchild / RUN_RECORD_NAME).exists()
            for grandchild in child.iterdir()
        ):
            raise _retired_layout(child)


def collect_entries(store_root: Union[str, Path]) -> List[RunEntry]:
    """Every run under a store root, by directory walk.

    Service-managed runs first (sorted by run id), then bare grid
    directories in manifest-walk order — exactly the listing shape
    ``repro.api.list_runs`` answers with, and exactly what
    :meth:`StoreIndex.rebuild` persists.  The grid pass never descends
    into ``runs/``: the grids of service runs are folded into their
    run's entry, not listed on their own.
    """
    root = Path(store_root)
    runs_dir = root / RUNS_DIRNAME
    entries: List[RunEntry] = []
    for run_dir in iter_service_run_dirs(runs_dir):
        entry = service_run_entry(run_dir)
        if entry is not None:
            entries.append(entry)
    for directory, manifest in iter_manifests(root, skip=runs_dir):
        entries.append(grid_entry(directory, manifest))
    return entries


# ---------------------------------------------------------------------------
# The SQLite sidecar.
# ---------------------------------------------------------------------------


class StoreIndex:
    """The ``index.sqlite`` sidecar of one store root.

    Thread- and process-safe by construction: every operation opens
    its own SQLite connection (WAL journal, busy timeout), mutating
    operations run in one ``BEGIN IMMEDIATE`` transaction with a
    bounded locked-database retry, and no connection outlives a call
    — so the object itself is freely shareable and picklable-adjacent
    (only the path matters).  Every SQLite failure surfaces as
    :class:`StoreIndexError`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    @property
    def root(self) -> Path:
        return self.path.parent

    # -- construction -------------------------------------------------------

    @classmethod
    def at(cls, store_root: Union[str, Path]) -> "StoreIndex":
        """The index of a store root (the file may not exist yet)."""
        return cls(Path(store_root) / INDEX_NAME)

    @classmethod
    def ensure(cls, store_root: Union[str, Path]) -> "StoreIndex":
        """The index of a store root, ready to answer listings.

        An index that is missing, or was written under another schema
        version, is rebuilt from the walk first.  A store still
        holding the retired sharded layout raises.
        """
        index = cls.at(store_root)
        _check_flat_layout(index.root / RUNS_DIRNAME)
        if not index._current():
            index.rebuild()
        return index

    @classmethod
    def attach(cls, start_dir: Union[str, Path]) -> Optional["StoreIndex"]:
        """The index a grid stored under ``start_dir`` keeps fresh.

        Walks up from ``start_dir`` (inclusive) a few levels looking
        for an existing ``index.sqlite`` — a grid at
        ``<root>/runs/<run id>/<label>`` finds the service root's
        index.  When none exists, one is built at ``start_dir`` itself
        (:meth:`ensure`: from a full walk, since incremental writers
        only upsert their own rows) *unless* that directory is a
        service run directory (holds ``run.json``): a per-run index
        would shadow the root's, so ``None`` is returned and the
        caller probes again on its next write.
        """
        start = Path(start_dir)
        probe = start
        for _ in range(_ATTACH_DEPTH):
            candidate = probe / INDEX_NAME
            if candidate.exists():
                return cls(candidate)
            if probe.parent == probe:
                break
            probe = probe.parent
        if (start / RUN_RECORD_NAME).exists():
            return None
        return cls.ensure(start)

    def exists(self) -> bool:
        return self.path.exists()

    # -- connections --------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(str(self.path), timeout=10.0)
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute("PRAGMA busy_timeout=10000")
        return connection

    def _write(self):
        """A write transaction with bounded busy retries.

        WAL allows one writer at a time; concurrent appenders (two
        threads streaming cells into the same store) serialize here.
        ``busy_timeout`` covers intra-transaction locks; the retry
        loop covers the ``BEGIN IMMEDIATE`` itself.  The tables are
        created before the transaction opens (``executescript``
        commits whatever transaction is pending), so every statement
        inside runs under the one write lock.
        """
        index = self

        class _WriteTransaction:
            def __enter__(self) -> sqlite3.Connection:
                last: Optional[sqlite3.OperationalError] = None
                for attempt in range(5):
                    connection = index._connect()
                    try:
                        connection.executescript(_SCHEMA)
                        connection.execute("BEGIN IMMEDIATE")
                        self._connection = connection
                        return connection
                    except sqlite3.OperationalError as exc:
                        connection.close()
                        last = exc
                        time.sleep(0.05 * (attempt + 1))
                raise last  # pragma: no cover - 10s busy_timeout x 5

            def __exit__(self, exc_type, exc, tb) -> None:
                connection = self._connection
                try:
                    if exc_type is None:
                        connection.commit()
                    else:
                        connection.rollback()
                finally:
                    connection.close()

        return _WriteTransaction()

    @staticmethod
    def _schema_current(connection: sqlite3.Connection) -> bool:
        try:
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
        except sqlite3.OperationalError:
            return False  # no tables yet: a rebuild has not committed
        return row is not None and row[0] == str(INDEX_SCHEMA_VERSION)

    def _current(self) -> bool:
        """Whether the index exists and carries the current schema."""
        if not self.exists():
            return False
        try:
            connection = self._connect()
            try:
                return self._schema_current(connection)
            finally:
                connection.close()
        except sqlite3.Error as exc:
            raise StoreIndexError(f"cannot open {self.path}: {exc}") from exc

    # -- serialization ------------------------------------------------------

    def _relative(self, directory: Path) -> str:
        try:
            return directory.relative_to(self.root).as_posix()
        except ValueError:
            return directory.as_posix()

    def _absolute(self, relative: str) -> Path:
        path = Path(relative)
        return path if path.is_absolute() else self.root / path

    @staticmethod
    def _sort_key(entry: RunEntry, relative: str) -> str:
        # Service runs sort by run id (how the flat runs/ directory
        # listed them); grids sort in manifest-walk (DFS) order,
        # which \x01-joined path components reproduce under plain
        # string comparison.
        if entry.kind == "service":
            return entry.run_id
        return "\x01".join(Path(relative).parts)

    def _row_of(self, entry: RunEntry) -> Tuple:
        relative = self._relative(entry.directory)
        return (
            relative,
            entry.kind,
            self._sort_key(entry, relative),
            entry.run_id,
            entry.label,
            entry.state,
            int(entry.total),
            int(entry.completed),
            int(entry.failed),
            entry.fingerprint,
            json.dumps(dict(entry.profile), sort_keys=True),
            (
                json.dumps(dict(entry.executor), sort_keys=True)
                if entry.executor
                else None
            ),
            json.dumps(list(entry.tenants)),
            entry.error,
            time.time(),
        )

    _UPSERT = (
        "INSERT OR REPLACE INTO runs (directory, kind, sort_key, run_id, "
        "label, state, total, completed, failed, fingerprint, profile, "
        "executor, tenants, error, updated_at) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
    )

    def _entry_of(self, row: Sequence[Any]) -> RunEntry:
        (
            relative,
            kind,
            _sort_key,
            run_id,
            label,
            state,
            total,
            completed,
            failed,
            fingerprint,
            profile,
            executor,
            tenants,
            error,
            _updated_at,
            cells_json,
            statuses_json,
        ) = row
        cells = tuple(json.loads(cells_json)) if cells_json else ()
        statuses = json.loads(statuses_json) if statuses_json else []
        return RunEntry(
            kind=str(kind),
            directory=self._absolute(str(relative)),
            run_id=str(run_id),
            label=str(label),
            state=str(state),
            total=int(total),
            completed=int(completed),
            failed=int(failed),
            fingerprint=fingerprint,
            profile=json.loads(profile) if profile else {},
            executor=json.loads(executor) if executor else None,
            tenants=tuple(json.loads(tenants)) if tenants else (),
            error=error,
            cells=cells,
            cell_status=dict(zip(cells, statuses)),
        )

    _SELECT = (
        "SELECT r.directory, r.kind, r.sort_key, r.run_id, r.label, "
        "r.state, r.total, r.completed, r.failed, r.fingerprint, "
        "r.profile, r.executor, r.tenants, r.error, r.updated_at, "
        "(SELECT json_group_array(c.key) FROM (SELECT key FROM cells c "
        " WHERE c.directory = r.directory ORDER BY c.position) c), "
        "(SELECT json_group_array(c.status) FROM (SELECT status FROM cells c"
        " WHERE c.directory = r.directory ORDER BY c.position) c) "
        "FROM runs r"
    )

    # -- writes -------------------------------------------------------------

    def _write_cells(
        self, connection: sqlite3.Connection, relative: str, entry: RunEntry
    ) -> None:
        connection.execute("DELETE FROM cells WHERE directory = ?", (relative,))
        connection.executemany(
            "INSERT INTO cells (directory, position, key, status) "
            "VALUES (?, ?, ?, ?)",
            [
                (
                    relative,
                    position,
                    key,
                    str(entry.cell_status.get(key, "pending")),
                )
                for position, key in enumerate(entry.cells)
            ],
        )

    def _replace(
        self, connection: sqlite3.Connection, entries: Sequence[RunEntry]
    ) -> None:
        connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            ("schema", str(INDEX_SCHEMA_VERSION)),
        )
        connection.execute("DELETE FROM runs")
        connection.execute("DELETE FROM cells")
        for entry in entries:
            row = self._row_of(entry)
            connection.execute(self._UPSERT, row)
            self._write_cells(connection, row[0], entry)

    def rebuild(self) -> int:
        """Rebuild the whole index from a walk of the store root (atomic).

        The walk runs under the write lock, so concurrent writers stay
        in sync (see the module docstring).  Returns the number of
        indexed runs.
        """
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._write() as connection:
                entries = collect_entries(self.root)
                self._replace(connection, entries)
        except sqlite3.Error as exc:
            raise StoreIndexError(f"cannot rebuild {self.path}: {exc}") from exc
        return len(entries)

    def replace_all(self, entries: Sequence[RunEntry]) -> None:
        """Replace the whole index with already-walked entries (atomic)."""
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._write() as connection:
                self._replace(connection, entries)
        except sqlite3.Error as exc:
            raise StoreIndexError(f"cannot rebuild {self.path}: {exc}") from exc

    def update_entry(self, entry: RunEntry) -> None:
        """Upsert one run's row + cell rows (state transitions, opens)."""
        try:
            with self._write() as connection:
                row = self._row_of(entry)
                connection.execute(self._UPSERT, row)
                self._write_cells(connection, row[0], entry)
        except sqlite3.Error as exc:
            raise StoreIndexError(f"cannot update {self.path}: {exc}") from exc

    def update_grid(
        self, directory: Union[str, Path], manifest: Mapping[str, Any]
    ) -> None:
        """Upsert the row one grid feeds (grid opens and finalizes).

        A bare grid has its own row; a grid inside a service run
        directory feeds that run's aggregate row instead.
        """
        directory = Path(directory)
        owner = self._service_owner(directory)
        if owner is None:
            self.update_entry(grid_entry(directory, manifest))
            return
        entry = service_run_entry(owner)
        if entry is not None:
            self.update_entry(entry)

    def update_grid_cell(
        self,
        directory: Union[str, Path],
        manifest: Mapping[str, Any],
        key: str,
        status: str,
    ) -> None:
        """One cell append: refresh the run row, touch one cell row.

        The hot incremental path — O(1) per append instead of
        rewriting every cell row — used by ``RunStore`` as results
        stream in.  A grid inside a service run directory refreshes
        the service run's aggregate row instead (:meth:`update_grid`).
        """
        directory = Path(directory)
        if self._service_owner(directory) is not None:
            self.update_grid(directory, manifest)
            return
        entry = grid_entry(directory, manifest)
        relative = self._relative(directory)
        try:
            with self._write() as connection:
                row = self._row_of(entry)
                connection.execute(self._UPSERT, row)
                updated = connection.execute(
                    "UPDATE cells SET status = ? "
                    "WHERE directory = ? AND key = ?",
                    (status, relative, key),
                ).rowcount
                if not updated:
                    self._write_cells(connection, relative, entry)
        except sqlite3.Error as exc:
            raise StoreIndexError(f"cannot update {self.path}: {exc}") from exc

    def _service_owner(self, directory: Path) -> Optional[Path]:
        """The enclosing service run directory of a grid, if any."""
        probe = directory
        for _ in range(_ATTACH_DEPTH):
            parent = probe.parent
            if parent == probe:
                return None
            probe = parent
            if probe == self.root:
                return None
            if (probe / RUN_RECORD_NAME).exists():
                return probe

    # -- queries ------------------------------------------------------------

    def _select(self, clause: str, params: Sequence[Any] = ()) -> List[Tuple]:
        """Rows of one listing query against a current-schema index.

        A missing or stale index raises: readers go through
        :meth:`ensure` first, which rebuilds it.
        """
        if not self.exists():
            raise StoreIndexError(f"no index at {self.path}")
        try:
            connection = self._connect()
            try:
                if not self._schema_current(connection):
                    raise StoreIndexError(f"stale schema in {self.path}")
                return connection.execute(self._SELECT + clause, params).fetchall()
            finally:
                connection.close()
        except sqlite3.Error as exc:
            raise StoreIndexError(f"cannot query {self.path}: {exc}") from exc

    def entries(self, tenant: Optional[str] = None) -> List[RunEntry]:
        """Every indexed run, in listing order (services first)."""
        rows = self._select(" ORDER BY (r.kind = 'service') DESC, r.sort_key")
        entries = [self._entry_of(row) for row in rows]
        if tenant is not None:
            entries = [
                entry for entry in entries if tenant in entry.tenants
            ]
        return entries

    def lookup_run(self, run_id: str) -> Optional[RunEntry]:
        """One bare grid by label or directory name; ``None`` on a miss.

        Service runs are found by their directory (``runs/<run id>``),
        never through the index.
        """
        rows = self._select(
            " WHERE r.kind = 'grid' AND (r.run_id = ? OR r.label = ?)"
            " ORDER BY r.sort_key LIMIT 1",
            (run_id, run_id),
        )
        return self._entry_of(rows[0]) if rows else None


# ---------------------------------------------------------------------------
# Compaction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompactionResult:
    """What one records-file compaction did."""

    path: Path
    kept: int
    dropped: int

    @property
    def changed(self) -> bool:
        return self.dropped > 0


def compact_records(records_path: Union[str, Path]) -> CompactionResult:
    """Rewrite one ``records.jsonl`` to its live records only.

    Keeps, per cell key, the **final** record line — the one the
    loader's latest-wins rule would honour — verbatim (byte-for-byte:
    compaction must never re-encode payloads), in first-appearance
    order; torn tails and superseded duplicates are dropped.  The
    rewrite is atomic (temp file + ``os.replace``): a concurrent
    reader sees the old file or the new one, never a torn view.  A
    file that is already compact is left untouched (no mtime churn).

    Only compact quiescent stores — an append racing the rewrite
    window would be lost.
    """
    records_path = Path(records_path)
    try:
        raw = records_path.read_text(encoding="utf-8")
    except OSError:
        return CompactionResult(records_path, 0, 0)
    lines = raw.splitlines(keepends=True)
    final: Dict[str, str] = {}
    order: List[str] = []
    dropped = 0
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            dropped += 1  # torn tail
            continue
        if not isinstance(record, dict) or "key" not in record:
            dropped += 1
            continue
        key = str(record["key"])
        if key in final:
            dropped += 1  # superseded duplicate (latest wins below)
        else:
            order.append(key)
        if not line.endswith("\n"):
            line += "\n"
        final[key] = line
    kept = len(order)
    if dropped == 0:
        return CompactionResult(records_path, kept, 0)
    temporary = records_path.with_suffix(".jsonl.tmp")
    with temporary.open("w", encoding="utf-8") as handle:
        for key in order:
            handle.write(final[key])
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, records_path)
    return CompactionResult(records_path, kept, dropped)


def compact_store(store_root: Union[str, Path]) -> List[CompactionResult]:
    """Compact every records file under a store root (quiescent stores).

    Walks the truth (manifests), not the index — compaction must work
    on stores whose sidecar is missing or stale.  Returns one result
    per records file found, compacted or not.
    """
    results: List[CompactionResult] = []
    for directory, _ in iter_manifests(Path(store_root)):
        records = directory / RECORDS_NAME
        if records.exists():
            results.append(compact_records(records))
    return results


__all__ = [
    "INDEX_NAME",
    "INDEX_SCHEMA_VERSION",
    "MANIFEST_NAME",
    "RUNS_DIRNAME",
    "RUN_RECORD_NAME",
    "CompactionResult",
    "RunEntry",
    "StoreIndex",
    "StoreIndexError",
    "collect_entries",
    "compact_records",
    "compact_store",
    "grid_entry",
    "iter_service_run_dirs",
    "read_run_record",
    "service_run_entry",
]
