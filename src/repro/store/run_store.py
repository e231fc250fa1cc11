"""Streaming run store: crash-resilient persistence for experiment grids.

Paper-scale ``full`` runs take minutes to hours; until this subsystem
the experiment layer assembled every grid in memory and a crash lost
all of it.  A :class:`RunStore` instead streams each cell's result to
disk *as it completes* and supports **exact resume**: re-invoking the
same run skips completed cells, re-dispatches only missing or failed
ones, and reassembles results that are byte-identical to an
uninterrupted run.

On-disk layout (one directory per run label)::

    <store_dir>/<label>/
        manifest.json    # run metadata + per-cell status (atomic rewrites)
        records.jsonl    # append-only, one JSON line per completed cell

Record lines carry ``{"key", "index", "status", "payload"}`` where
``payload`` is the base64-encoded pickle of the cell's result (``"ok"``
records) or ``{"key", "index", "status": "error", "error"}`` for
failures.  The records file is the **source of truth**: a crash can at
worst tear the final line, which the loader detects (bad JSON / bad
payload) and discards, so the interrupted cell simply re-runs.  The
manifest is a derived, human-readable view — profile fingerprint,
seeds, cell keys in grid order and a per-cell status map — rewritten
atomically (temp file + ``os.replace``) after every append so external
tools (the ``repro-seu runs`` subcommand, CI artifact inspection) never
observe a torn file.  Each rewrite is also pushed into the store root's
SQLite index (:mod:`repro.store.index`), the one path listings are
answered from; an index write that fails raises rather than leaving
the listing silently behind the records.

Determinism contract
--------------------
Cells are pure functions of themselves (per-cell seeds, private
evaluators — see ``experiments/common.run_cells``), so a result loaded
from a record equals the result of re-running its cell, and a resumed
run's reassembled grid — and every report rendered from it — is
byte-identical to an uninterrupted run.  The profile fingerprint
covers exactly the result-determining profile fields; execution
fields (exec plan, worker caps) are excluded, so a store written by a
serial run resumes under ``dag:process`` and vice versa.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"


class RunStoreError(RuntimeError):
    """Base error for run-store failures."""


class StoreMismatchError(RunStoreError):
    """Resume was requested against a store written by a different run."""


def fingerprint_payload(payload: Mapping[str, Any]) -> str:
    """A short, stable hash of a JSON-serializable mapping.

    Keys are sorted and separators fixed, so the digest depends only on
    the payload's content — not on dict insertion order or Python
    version-specific ``repr`` choices (callers must pre-stringify any
    non-JSON values deterministically).
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _graph_digest(graph: Any) -> str:
    """A short content hash of a task graph (not just its name/size).

    Two graphs with the same name and task count but different edges,
    cycles or registers must never share a resume identity — loading
    one's stored results for the other would silently violate the
    byte-identical determinism contract.
    """
    from repro.taskgraph.serialize import graph_to_dict

    try:
        return fingerprint_payload(graph_to_dict(graph))[:8]
    except Exception:
        return "opaque"


def cell_key(cell: Any, index: int) -> str:
    """A stable, human-readable identity for one grid cell.

    Built from the cell's scalar dataclass fields (the profile is
    covered by the run fingerprint instead; task graphs contribute
    their name, size and a content digest).  The grid index is part of
    the key, so even two textually identical cells at different grid
    positions get distinct keys.
    """
    parts: List[str] = []
    if is_dataclass(cell):
        for field in fields(cell):
            value = getattr(cell, field.name)
            if field.name == "profile":
                continue
            if value is None or isinstance(value, (str, int, float, bool)):
                parts.append(f"{field.name}={value}")
            elif isinstance(value, tuple) and all(
                isinstance(item, (str, int, float, bool)) for item in value
            ):
                joined = ",".join(str(item) for item in value)
                parts.append(f"{field.name}=({joined})")
            elif hasattr(value, "name") and hasattr(value, "num_tasks"):
                parts.append(
                    f"{field.name}={value.name}"
                    f"[{value.num_tasks}]#{_graph_digest(value)}"
                )
    return f"{index:03d}:{type(cell).__name__}({','.join(parts)})"


@dataclass(frozen=True)
class CellRecord:
    """One decoded line of ``records.jsonl``."""

    key: str
    index: int
    status: str  # "ok" | "error"
    payload: Any = None
    error: Optional[str] = None


def _encode_payload(value: Any) -> str:
    return base64.b64encode(pickle.dumps(value)).decode("ascii")


def _decode_payload(text: str) -> Any:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


class RunStore:
    """Durable, append-only result store for one experiment grid.

    Use :meth:`open` — it validates or resets the directory according
    to the resume flag; the constructor only binds paths and state.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        label: str,
        fingerprint: str,
        keys: Sequence[str],
        profile_summary: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.directory = Path(directory)
        self.label = label
        self.fingerprint = fingerprint
        self.keys: Tuple[str, ...] = tuple(keys)
        self.profile_summary = dict(profile_summary or {})
        self._status: Dict[str, str] = {key: "pending" for key in self.keys}
        self._run_status = "running"
        self._executor_stats: Optional[Dict[str, Any]] = None
        self._index: Optional[Any] = None  # StoreIndex, once one is found

    # -- paths --------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def records_path(self) -> Path:
        return self.directory / RECORDS_NAME

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        *,
        label: str,
        fingerprint: str,
        keys: Sequence[str],
        profile_summary: Optional[Mapping[str, Any]] = None,
        resume: bool = False,
    ) -> "RunStore":
        """Open (and create or validate) a run store directory.

        Without ``resume`` any existing records are discarded and the
        run starts fresh.  With ``resume`` an existing manifest must
        match this run's fingerprint and cell-key list exactly —
        otherwise the store belongs to a *different* run and silently
        mixing results would break the determinism contract, so a
        :class:`StoreMismatchError` is raised instead.  Records with a
        missing or unreadable manifest under ``resume`` raise
        :class:`RunStoreError` rather than silently deleting completed
        work the caller explicitly asked to keep.
        """
        store = cls(
            directory,
            label=label,
            fingerprint=fingerprint,
            keys=keys,
            profile_summary=profile_summary,
        )
        store.directory.mkdir(parents=True, exist_ok=True)
        manifest = read_manifest(store.manifest_path)
        if resume and manifest is not None:
            if manifest.get("fingerprint") != fingerprint:
                raise StoreMismatchError(
                    f"store {store.directory} was written by fingerprint "
                    f"{manifest.get('fingerprint')!r}, this run is {fingerprint!r}; "
                    "refusing to resume across different profiles"
                )
            if list(manifest.get("cells", [])) != list(store.keys):
                raise StoreMismatchError(
                    f"store {store.directory} holds a different cell grid "
                    f"({len(manifest.get('cells', []))} cells vs {len(store.keys)}); "
                    "refusing to resume across different grids"
                )
            for record in store._scan_records():
                if record.key in store._status:
                    store._status[record.key] = (
                        "done" if record.status == "ok" else "failed"
                    )
        elif resume and store.records_path.exists():
            raise RunStoreError(
                f"cannot resume {store.directory}: records exist but "
                f"{MANIFEST_NAME} is missing or unreadable; restore the "
                "manifest or re-run without resume to start fresh"
            )
        else:
            # Fresh run: drop any stale records before the first append.
            if store.records_path.exists():
                store.records_path.unlink()
            # And any intra-cell checkpoints — scratch from a run this
            # fresh start is explicitly discarding.
            from repro.store.checkpoint import clear_checkpoints

            clear_checkpoints(store.directory)
        store._write_manifest()
        store._index_refresh()
        return store

    def finalize(self) -> None:
        """Mark the run complete (or failed) in the manifest."""
        statuses = set(self._status.values())
        if statuses <= {"done"}:
            self._run_status = "complete"
        elif "failed" in statuses:
            self._run_status = "failed"
        else:
            self._run_status = "partial"
        self._write_manifest()
        self._index_refresh()

    # -- store index --------------------------------------------------------

    def _index_refresh(self, key: Optional[str] = None) -> None:
        """Push this run's current state into the store's index.

        Called after every manifest rewrite.  While no index has been
        found (a grid inside a service store that nobody has listed
        yet) every call probes again, so an index a listing builds
        mid-run is kept in sync from then on.  Index failures raise
        :class:`~repro.store.index.StoreIndexError`: the record and
        the manifest are already durable, and a resume re-pushes the
        row.
        """
        from repro.store.index import StoreIndex

        if self._index is None:
            self._index = StoreIndex.attach(self.directory.parent)
            if self._index is None:
                return
        if key is None:
            self._index.update_grid(self.directory, self.manifest())
        else:
            self._index.update_grid_cell(
                self.directory, self.manifest(), key, self._status[key]
            )

    # -- records ------------------------------------------------------------

    def record_result(self, key: str, index: int, value: Any) -> None:
        """Append one completed cell's result; durable before returning."""
        self._append(
            {
                "key": key,
                "index": index,
                "status": "ok",
                "payload": _encode_payload(value),
            }
        )
        self._status[key] = "done"
        self._write_manifest()
        self._index_refresh(key)
        # The cell's final result is durable; its intra-cell scratch
        # (per-scaling checkpoints) is obsolete.
        from repro.store.checkpoint import discard_cell_checkpoint

        discard_cell_checkpoint(self.directory, index)

    def record_error(self, key: str, index: int, message: str) -> None:
        """Append one failed cell; resume re-dispatches it."""
        self._append(
            {"key": key, "index": index, "status": "error", "error": message}
        )
        self._status[key] = "failed"
        self._write_manifest()
        self._index_refresh(key)

    def load_results(self) -> Dict[str, CellRecord]:
        """Decoded ``"ok"`` records by cell key (latest record wins).

        Torn or undecodable lines — the crash signature — are skipped,
        so their cells simply count as missing and re-run.
        """
        loaded: Dict[str, CellRecord] = {}
        for record in self._scan_records(decode=True):
            if record.status == "ok":
                loaded[record.key] = record
            else:
                loaded.pop(record.key, None)
        return loaded

    def statuses(self) -> Dict[str, str]:
        """Per-cell status in grid order (``pending``/``done``/``failed``)."""
        return dict(self._status)

    def _scan_records(self, decode: bool = False) -> Iterator[CellRecord]:
        yield from scan_records(self.records_path, decode=decode)

    def _append(self, raw: Mapping[str, Any]) -> None:
        with self.records_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(raw, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # -- manifest -----------------------------------------------------------

    def set_executor_stats(self, stats: Optional[Mapping[str, Any]]) -> None:
        """Attach executor utilization stats to the manifest.

        Stats are observability, not results: they vary run to run
        (worker interleaving, steal counts), so they live only in the
        manifest — never in records or rendered reports — and do not
        participate in the resume identity.  The next manifest rewrite
        (``finalize`` or any record append) persists them.
        """
        self._executor_stats = dict(stats) if stats is not None else None

    def manifest(self) -> Dict[str, Any]:
        """The manifest document (what ``manifest.json`` holds)."""
        done = sum(1 for status in self._status.values() if status == "done")
        failed = sum(1 for status in self._status.values() if status == "failed")
        document = {
            "format": FORMAT_VERSION,
            "label": self.label,
            "fingerprint": self.fingerprint,
            "profile": self.profile_summary,
            "cells": list(self.keys),
            "status": dict(self._status),
            "completed": done,
            "failed": failed,
            "total": len(self.keys),
            "run_status": self._run_status,
        }
        if self._executor_stats is not None:
            document["executor"] = dict(self._executor_stats)
        return document

    def _write_manifest(self) -> None:
        document = json.dumps(self.manifest(), indent=2, sort_keys=True)
        temporary = self.manifest_path.with_suffix(".json.tmp")
        temporary.write_text(document + "\n", encoding="utf-8")
        os.replace(temporary, self.manifest_path)


def scan_records(
    records_path: Union[str, Path], decode: bool = False
) -> Iterator[CellRecord]:
    """Yield the decodable records of one ``records.jsonl``.

    Concurrent-reader safe: the file may be mid-append by a live
    writer in another thread or process (the service polls stores the
    executor is still streaming to).  A torn tail, a half-written
    base64 payload, or the file disappearing between ``exists`` and
    ``open`` (a fresh run unlinking stale records) all degrade to
    "fewer records", never to an exception.
    """
    records_path = Path(records_path)
    try:
        handle = records_path.open("r", encoding="utf-8")
    except OSError:
        return
    with handle:
        while True:
            try:
                line = handle.readline()
            except (OSError, UnicodeDecodeError):
                return  # reader raced a truncation/rewrite: stop cleanly
            if not line:
                return
            try:
                raw = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of an interrupted append
            if not isinstance(raw, dict) or "key" not in raw:
                continue
            status = raw.get("status", "error")
            payload = None
            if status == "ok":
                if decode:
                    try:
                        payload = _decode_payload(raw.get("payload", ""))
                    except Exception:
                        continue  # undecodable payload: treat as missing
                elif "payload" not in raw:
                    continue
            yield CellRecord(
                key=raw["key"],
                index=int(raw.get("index", -1)),
                status=status,
                payload=payload,
                error=raw.get("error"),
            )


def read_manifest(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """Parse one ``manifest.json``; ``None`` when absent or unreadable.

    Manifests are rewritten atomically (temp file + ``os.replace``), so
    a concurrent reader never sees a torn document — but it may race
    the file's creation or deletion, which reads as "absent" here
    rather than raising.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return manifest if isinstance(manifest, dict) else None


def iter_manifests(
    store_dir: Union[str, Path],
    max_depth: int = 4,
    skip: Optional[Path] = None,
) -> Iterator[Tuple[Path, Dict[str, Any]]]:
    """Yield ``(run_directory, manifest)`` for every run under a store root.

    Accepts a store root (runs in subdirectories), a single run
    directory holding ``manifest.json`` directly, or a service store
    whose grids live deeper (``runs/<run id>/<label>/manifest.json``):
    directories without a manifest are descended into, up to
    ``max_depth`` levels, and a directory holding a manifest is
    yielded without descending further.  Concurrent-reader safe —
    children appearing or vanishing mid-walk (a writer creating the
    next run directory) are skipped, not raised.  The ``skip``
    directory is not descended into.
    """
    root = Path(store_dir)
    direct = read_manifest(root / MANIFEST_NAME)
    if direct is not None:
        yield root, direct
        return
    if max_depth <= 0:
        return
    try:
        children = sorted(root.iterdir())
    except OSError:
        return
    for child in children:
        try:
            if child == skip or not child.is_dir():
                continue
        except OSError:
            continue
        yield from iter_manifests(child, max_depth=max_depth - 1, skip=skip)
