"""Benchmarks for the SQLite sidecar index over a run-store root.

The rows answer the scaling question the index exists for: at ~1k+
cells across dozens of runs, what does a listing cost from the walk
(parse every ``manifest.json``) versus from the sidecar (one SQL
query), and what does keeping the sidecar fresh cost per cell append?

The store is synthesized directly — manifests and records written in
the exact on-disk formats — because the benchmark measures the store
readers, not the optimizer; running real experiments to 1k cells
would dominate setup for no extra fidelity.

Gated rows (``check_regression.py`` pattern ``store_index``):

* ``test_bench_store_index_listing`` — the hot path `repro-seu runs`
  and the service's ``GET /v1/runs`` answer from.  This must stay an
  index query: a regression here usually means a walk crept back in.
* ``test_bench_store_index_cell_update`` — the incremental upsert the
  RunStore pays on every cell append.
* ``test_bench_store_index_lookup`` — the O(1) run-id probe backing
  the duplicate-submission cache check.

``test_bench_store_listing_walk`` is the ungated denominator: the
directory walk the index replaces (and is rebuilt from).

``test_bench_service_listing_walk`` / ``test_bench_service_listing_index``
(ungated) are the numbers behind keeping the index at all: the same
comparison on a service store of ``SERVICE_RUNS`` runs laid out like
the job service writes them (``runs/<run id>/run.json`` carrying the
submitted graph spec, plus one ``optimize`` grid directory).  The
``run.json`` parse is what makes the walk expensive there.
"""

import json

import pytest

from repro import api
from repro.store import collect_entries, compact_records
from repro.store.index import RUN_RECORD_NAME, StoreIndex, grid_entry
from repro.store.run_store import FORMAT_VERSION, MANIFEST_NAME, RECORDS_NAME

#: 40 runs x 30 cells = 1200 cells — the "service store after a month"
#: scale the acceptance criterion names (>= 1k cells).
NUM_RUNS = 40
CELLS_PER_RUN = 30

#: The service-mix benchmark workload's prefill size.
SERVICE_RUNS = 200


def _synthesize_store(root):
    """A store root holding NUM_RUNS bare grids in the on-disk formats."""
    for run in range(NUM_RUNS):
        directory = root / f"grid-{run:03d}"
        directory.mkdir(parents=True)
        keys = [f"cell-{run:03d}-{cell:02d}" for cell in range(CELLS_PER_RUN)]
        status = {key: "done" for key in keys}
        manifest = {
            "format": FORMAT_VERSION,
            "label": f"grid-{run:03d}",
            "fingerprint": f"{run:064x}",
            "profile": {"name": "bench", "seed": run},
            "cells": keys,
            "status": status,
            "completed": len(keys),
            "failed": 0,
            "total": len(keys),
            "run_status": "complete",
        }
        (directory / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        with (directory / RECORDS_NAME).open("w", encoding="utf-8") as handle:
            for key in keys:
                handle.write(
                    json.dumps({"key": key, "status": "ok", "payload": ""})
                    + "\n"
                )
            # One superseded line + one torn tail, so compaction and the
            # latest-wins loader have real work on every records file.
            handle.write(
                json.dumps({"key": keys[0], "status": "ok", "payload": ""})
                + "\n"
            )
            handle.write('{"key": "torn')
    return root


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    return _synthesize_store(tmp_path_factory.mktemp("bench_store"))


@pytest.fixture(scope="module")
def warm_index(store_root):
    """The sidecar, built once from the walk (what list_runs rebuilds)."""
    index = StoreIndex.ensure(store_root)
    index.replace_all(collect_entries(store_root))
    return index


def test_bench_store_listing_walk(benchmark, store_root):
    """The directory walk: every manifest parsed on every listing."""
    entries = benchmark(collect_entries, store_root)
    assert len(entries) == NUM_RUNS
    assert sum(entry.total for entry in entries) == NUM_RUNS * CELLS_PER_RUN


def test_bench_store_index_listing(benchmark, store_root, warm_index):
    """The same listing answered by the sidecar (no manifest I/O)."""
    entries = benchmark(warm_index.entries)
    assert len(entries) == NUM_RUNS
    assert sum(entry.total for entry in entries) == NUM_RUNS * CELLS_PER_RUN
    # Parity is the index contract: field-for-field equal to the walk.
    assert entries == collect_entries(store_root)


def test_bench_store_index_lookup(benchmark, store_root, warm_index):
    """One run-id probe — the duplicate-submission cache check shape."""
    entry = benchmark(warm_index.lookup_run, "grid-020")
    assert entry is not None and entry.state == "complete"


def test_bench_store_index_cell_update(benchmark, store_root, warm_index):
    """The incremental per-cell-append upsert the RunStore pays."""
    directory = store_root / "grid-000"
    manifest = json.loads(
        (directory / MANIFEST_NAME).read_text(encoding="utf-8")
    )

    def _touch():
        warm_index.update_grid_cell(
            directory, manifest, "cell-000-00", "done"
        )

    benchmark(_touch)
    assert warm_index.lookup_run("grid-000") is not None


def test_bench_store_index_rebuild(benchmark, store_root):
    """Walk + replace_all — the cost of deleting ``index.sqlite``."""

    def _rebuild():
        index = StoreIndex.ensure(store_root)
        entries = collect_entries(store_root)
        index.replace_all(entries)
        return entries

    entries = benchmark.pedantic(_rebuild, rounds=3, iterations=1)
    assert len(entries) == NUM_RUNS


def test_bench_store_compaction(benchmark, store_root, tmp_path):
    """One records.jsonl compaction pass (superseded + torn lines)."""
    source = store_root / "grid-001" / RECORDS_NAME
    target = tmp_path / RECORDS_NAME

    def _compact():
        target.write_bytes(source.read_bytes())
        return compact_records(target)

    result = benchmark.pedantic(_compact, rounds=5, iterations=1)
    assert result.kept == CELLS_PER_RUN
    assert result.dropped == 2  # the superseded duplicate + the torn tail


def test_bench_store_grid_entry(benchmark, store_root):
    """Manifest -> RunEntry conversion, the walk's per-run unit cost."""
    directory = store_root / "grid-000"
    manifest = json.loads(
        (directory / MANIFEST_NAME).read_text(encoding="utf-8")
    )
    entry = benchmark(grid_entry, directory, manifest)
    assert entry.total == CELLS_PER_RUN


def _synthesize_service_store(root):
    """SERVICE_RUNS completed service runs, in the job service's layout."""
    from repro.taskgraph.random_graphs import RandomGraphConfig, random_task_graph
    from repro.taskgraph.serialize import graph_to_dict

    for run in range(SERVICE_RUNS):
        run_id = f"optimize-bench-{run:012x}"
        grid = root / "runs" / run_id / "optimize"
        grid.mkdir(parents=True)
        config = RandomGraphConfig(num_tasks=4 + run % 5)
        spec = {
            "graph": graph_to_dict(random_task_graph(config, seed=run)),
            "num_cores": 1,
            "deadline_s": config.deadline_s,
            "profile": "smoke",
            "seed": run,
        }
        record = {
            "format": 1,
            "run_id": run_id,
            "label": "optimize-bench",
            "state": "complete",
            "spec": spec,
            "tenants": ["bench"],
            "error": None,
        }
        (grid.parent / RUN_RECORD_NAME).write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        key = "000:OptimizeJob(num_cores=1)"
        manifest = {
            "format": FORMAT_VERSION,
            "label": "optimize",
            "fingerprint": f"{run:016x}",
            "profile": {"name": "smoke", "seed": run},
            "cells": [key],
            "status": {key: "done"},
            "completed": 1,
            "failed": 0,
            "total": 1,
            "run_status": "complete",
        }
        (grid / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        (grid / RECORDS_NAME).write_text(
            json.dumps({"key": key, "status": "ok", "payload": ""}) + "\n",
            encoding="utf-8",
        )
    return root


@pytest.fixture(scope="module")
def service_root(tmp_path_factory):
    return _synthesize_service_store(tmp_path_factory.mktemp("bench_service"))


def test_bench_service_listing_walk(benchmark, service_root):
    """The directory walk over a service store (every run.json parsed)."""
    entries = benchmark(collect_entries, service_root)
    assert len(entries) == SERVICE_RUNS


def test_bench_service_listing_index(benchmark, service_root):
    """The same service store listed the way every listing is answered."""
    statuses = benchmark(api.list_runs, service_root)
    assert len(statuses) == SERVICE_RUNS
    assert [status.to_dict() for status in statuses] == [
        api._status_from_entry(entry).to_dict()
        for entry in collect_entries(service_root)
    ]
