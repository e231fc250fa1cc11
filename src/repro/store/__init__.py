"""Durable, streaming persistence for experiment runs.

See :mod:`repro.store.run_store` for the on-disk formats and the
resume determinism contract, :mod:`repro.store.index` for the SQLite
index (every listing's answer, rebuildable from records + manifests),
:mod:`repro.store.checkpoint` for intra-cell per-scaling checkpoints,
and ARCHITECTURE.md §store for the design discussion.
"""

from repro.store.checkpoint import (
    CHECKPOINTS_DIRNAME,
    CellCheckpoint,
    checkpoint_path,
    checkpoint_scope,
    clear_checkpoints,
    current_checkpoint,
    discard_cell_checkpoint,
)
from repro.store.index import (
    INDEX_NAME,
    RUN_RECORD_NAME,
    RUNS_DIRNAME,
    CompactionResult,
    RunEntry,
    StoreIndex,
    StoreIndexError,
    collect_entries,
    compact_records,
    compact_store,
)
from repro.store.run_store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    RECORDS_NAME,
    CellRecord,
    RunStore,
    RunStoreError,
    StoreMismatchError,
    cell_key,
    fingerprint_payload,
    iter_manifests,
    read_manifest,
    scan_records,
)

__all__ = [
    "CHECKPOINTS_DIRNAME",
    "FORMAT_VERSION",
    "INDEX_NAME",
    "MANIFEST_NAME",
    "RECORDS_NAME",
    "RUNS_DIRNAME",
    "RUN_RECORD_NAME",
    "CellCheckpoint",
    "CellRecord",
    "CompactionResult",
    "RunEntry",
    "RunStore",
    "RunStoreError",
    "StoreIndex",
    "StoreIndexError",
    "StoreMismatchError",
    "cell_key",
    "checkpoint_path",
    "checkpoint_scope",
    "clear_checkpoints",
    "collect_entries",
    "compact_records",
    "compact_store",
    "current_checkpoint",
    "discard_cell_checkpoint",
    "fingerprint_payload",
    "iter_manifests",
    "read_manifest",
    "scan_records",
]
