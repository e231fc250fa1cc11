"""Intra-cell checkpoints: per-scaling resume inside long ``full`` cells.

The run store resumes at *cell* granularity — a SIGKILL two hours into
a paper-scale cell re-runs the whole cell.  A :class:`CellCheckpoint`
shrinks the re-run unit to one scaling assessment: as a cell's scaling
sweep progresses, each completed position appends one durable record,
and a resumed cell restores every recorded position instead of
re-searching it.

Checkpoint identity rule
------------------------
A record is only restored when its **run fingerprint** (the store's
``result_fingerprint`` — every result-determining profile field) *and*
its **cell key** (grid position + cell scalars + graph content digest)
match the resuming cell, and then only at its exact **sweep number**
and **scaling sweep position**.  Fingerprint or key mismatch silently
invalidates the whole file — a checkpoint from a different profile or
grid must never leak results into this one.  The scaling *position*
(index into the deterministically ordered sweep) is the third key
component: the sweep order is a pure function of the profile, so
position ``i`` names the same scaling vector in every run of the
cell.  The *sweep number* (:meth:`CellCheckpoint.next_sweep`, claimed
once per optimizer invocation) is the fourth: a cell may run several
independent optimizations back to back — ``run_all`` cells execute a
whole experiment, ``table2`` several — and invocation ``n`` of a
resumed cell must restore only what invocation ``n`` recorded, never
a sibling's positions.  Invocation order within a cell is
deterministic, so the counter (which restarts at zero with every
fresh :class:`CellCheckpoint` object) aligns across runs.

Determinism contract
--------------------
A restored position yields the pickled :class:`DesignPoint` the live
search produced — the same bytes a re-run would produce (searches are
pure functions of ``(graph, platform, scaling, seed)``) — plus the
exact evaluation count the live search spent (the evaluator counts
calls, not cache misses, so the count is state-independent).  Reports
reassembled from a checkpoint-resumed cell are therefore
byte-identical to an uninterrupted run, which CI asserts end-to-end.

File format
-----------
One JSONL file per cell, ``<grid dir>/checkpoints/cell-<index>.jsonl``
— single-writer by construction (one coordinator thread or worker
process owns a cell), append-only with the same fsync + torn-tail
discipline as ``records.jsonl``.  The file is deleted the moment its
cell's final result lands in the records file, and the whole
directory is cleared when a grid starts fresh; checkpoints are pure
scratch state, never an authority.

Plumbing
--------
Checkpoints reach the optimizer without threading a parameter through
every cell signature: the cell runner opens a thread-local
:func:`checkpoint_scope` around ``cell.run()``, and
``DesignOptimizer.optimize`` probes :func:`current_checkpoint`.  Cells
carry the checkpoint *path* (the scope is re-opened on whichever
thread runs the cell), so every execution plan checkpoints alike.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import shutil
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

CHECKPOINTS_DIRNAME = "checkpoints"


def checkpoint_path(grid_dir: Union[str, Path], index: int) -> Path:
    """The checkpoint file of grid cell ``index`` under ``grid_dir``."""
    return Path(grid_dir) / CHECKPOINTS_DIRNAME / f"cell-{index:03d}.jsonl"


def clear_checkpoints(grid_dir: Union[str, Path]) -> None:
    """Drop every checkpoint of a grid (fresh, non-resume opens)."""
    shutil.rmtree(Path(grid_dir) / CHECKPOINTS_DIRNAME, ignore_errors=True)


def discard_cell_checkpoint(grid_dir: Union[str, Path], index: int) -> None:
    """Drop one cell's checkpoint (its final result just persisted)."""
    try:
        checkpoint_path(grid_dir, index).unlink()
    except OSError:
        pass


class CellCheckpoint:
    """Durable per-scaling progress of one running cell.

    Construct with the owning run's fingerprint and the cell's key;
    :meth:`restore` answers ``None`` for positions the (validated)
    file does not hold, and :meth:`record` appends one durable record
    per completed position.  The file is loaded lazily once and the
    in-memory view kept in sync, so a sweep's probe loop costs one
    file scan total.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        fingerprint: str,
        cell_key: str,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.cell_key = cell_key
        self._records: Optional[Dict[Tuple[int, int], str]] = None
        self._sweeps = 0

    # -- loading ------------------------------------------------------------

    def _load(self) -> Dict[Tuple[int, int], str]:
        if self._records is not None:
            return self._records
        records: Dict[Tuple[int, int], str] = {}
        try:
            handle = self.path.open("r", encoding="utf-8")
        except OSError:
            self._records = records
            return records
        with handle:
            for line in handle:
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail of an interrupted append
                if not isinstance(raw, dict):
                    continue
                if (
                    raw.get("fingerprint") != self.fingerprint
                    or raw.get("cell") != self.cell_key
                ):
                    # A different run's leftovers: never restore from
                    # them, and drop the whole file — mixed-identity
                    # checkpoints are worthless.
                    records.clear()
                    self._records = records
                    return records
                try:
                    position = int(raw["position"])
                    sweep = int(raw.get("sweep", 0))
                    payload = raw["payload"]
                except (KeyError, TypeError, ValueError):
                    continue
                if isinstance(payload, str):
                    records[(sweep, position)] = payload
        self._records = records
        return records

    # -- queries ------------------------------------------------------------

    def next_sweep(self) -> int:
        """Claim the next sweep number of this cell execution.

        Called once per optimizer invocation inside the cell.  The
        counter is in-memory and restarts at zero with every fresh
        object (one per cell execution, resume included); invocation
        order within a cell is deterministic, so sweep ``n`` names
        the same optimization in the recording run and the resume.
        """
        sweep = self._sweeps
        self._sweeps += 1
        return sweep

    def positions(self, sweep: int = 0) -> List[int]:
        """Recorded positions of one sweep, ascending."""
        return sorted(
            position for key, position in self._load() if key == sweep
        )

    def restore(self, position: int, sweep: int = 0) -> Optional[Any]:
        """The value recorded at ``(sweep, position)``, or ``None``.

        ``None`` on any decode failure too — a checkpoint is scratch
        state; an unreadable record degrades to "re-run the scaling",
        never to an error.
        """
        payload = self._load().get((sweep, position))
        if payload is None:
            return None
        try:
            return pickle.loads(base64.b64decode(payload.encode("ascii")))
        except Exception:
            return None

    # -- writes -------------------------------------------------------------

    def record(self, position: int, value: Any, sweep: int = 0) -> None:
        """Append one completed position; durable before returning."""
        payload = base64.b64encode(pickle.dumps(value)).decode("ascii")
        line = json.dumps(
            {
                "fingerprint": self.fingerprint,
                "cell": self.cell_key,
                "sweep": sweep,
                "position": position,
                "payload": payload,
            },
            sort_keys=True,
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        if self._records is not None:
            self._records[(sweep, position)] = payload

    def discard(self) -> None:
        """Delete the file (the cell completed; scratch is obsolete)."""
        try:
            self.path.unlink()
        except OSError:
            pass
        self._records = {}


# ---------------------------------------------------------------------------
# Thread-local plumbing: cell runner -> optimizer, without signatures.
# ---------------------------------------------------------------------------

_SCOPE = threading.local()


@contextmanager
def checkpoint_scope(checkpoint: Optional[CellCheckpoint]) -> Iterator[
    Optional[CellCheckpoint]
]:
    """Make ``checkpoint`` the ambient checkpoint of this thread.

    Thread-local on purpose: under the DAG executor each cell runs on
    its own coordinator thread, and a process-pool cell re-opens the
    scope inside the worker — in both cases exactly one thread
    orchestrates one cell's sweep, so the ambient checkpoint can never
    cross cells.
    """
    previous = getattr(_SCOPE, "current", None)
    _SCOPE.current = checkpoint
    try:
        yield checkpoint
    finally:
        _SCOPE.current = previous


def current_checkpoint() -> Optional[CellCheckpoint]:
    """The ambient :class:`CellCheckpoint`, or ``None`` outside a scope."""
    return getattr(_SCOPE, "current", None)


__all__ = [
    "CHECKPOINTS_DIRNAME",
    "CellCheckpoint",
    "checkpoint_path",
    "checkpoint_scope",
    "clear_checkpoints",
    "current_checkpoint",
    "discard_cell_checkpoint",
]
