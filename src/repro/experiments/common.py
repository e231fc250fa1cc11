"""Shared experiment infrastructure: profiles, builders, table rendering.

The paper's search budgets are wall-clock (40-130 minutes); ours are
iteration counts bundled into an :class:`ExperimentProfile` so every
experiment can run at CI scale (``fast``) or paper scale (``full``)
with one switch.  Helpers build the reference platform/evaluator
combinations and render aligned ASCII tables matching the paper's
reporting units (P in mW, R in kbit, T_M in cycles, Gamma in SEUs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

from repro.arch.mpsoc import MPSoC
from repro.arch.platform import DEFAULT_PLATFORM, platform_model
from repro.arch.technode import TechNode
from repro.exec.dag import executor_scope
from repro.faults.ser import SERModel
from repro.mapping.metrics import MappingEvaluator
from repro.optim.annealing import AnnealingConfig
from repro.optim.design_optimizer import (
    DesignOptimizer,
    Mapper,
    baseline_mapper,
    sea_mapper,
)
from repro.optim.objectives import Objective
from repro.taskgraph.graph import TaskGraph

#: Valid ``ExperimentProfile.exec_plan`` values.  ``None`` runs
#: serially (the reference path); ``"percut"`` is accepted as an alias
#: of ``None`` so stored runs and clients that name it keep working.
#: ``"dag"`` and its ``dag:<transport>`` variants route every parallel
#: cut through one shared work-stealing executor (repro.exec.dag).
EXEC_PLANS = (
    "percut",
    "dag",
    "dag:serial",
    "dag:thread",
    "dag:process",
    "dag:auto",
)

@dataclass(frozen=True)
class ExperimentProfile:
    """Search budgets and seeds shared by all experiments.

    Attributes
    ----------
    name:
        Profile label ("fast" / "full" / custom).
    search_iterations:
        Stage-2 ``OptimizedMapping`` budget per scaling combination.
    sa_iterations:
        Simulated-annealing budget per scaling (baselines).
    fig3_mappings:
        Number of mappings sampled for the Fig. 3 study.
    stop_after_feasible:
        Early-exit for the scaling sweep (see
        :class:`~repro.optim.design_optimizer.DesignOptimizer`);
        ``None`` explores every combination.
    seed:
        Base determinism seed.
    platform:
        Platform preset name (see :func:`repro.arch.platform_names`).
        The default ``"arm7"`` is the paper's homogeneous platform and
        reproduces the seed path bit for bit; other presets (e.g.
        ``"biglittle"``) build heterogeneous platforms.  Result-
        determining — included in the store fingerprint.
    tech_node:
        Technology node spec (``"45nm"``, ``"22nm-cons"``, ...; see
        :class:`repro.arch.TechNode`).  The default 45 nm node leaves
        every model untouched.  Result-determining — included in the
        store fingerprint.
    exec_max_workers:
        Worker cap of the executor a dag ``exec_plan`` opens (at least
        1); ``None`` sizes the pool from the machine.
    sa_restarts:
        Override for the annealing restart count used by both the
        proposed stage-2 annealer and the Exp:1-3 baselines (at least
        1); ``None`` keeps the mappers' size-derived defaults.
    batch_eval:
        Batched candidate screening chunk size for the mapping
        searchers (table3 and every experiment built through
        :func:`build_optimizer`): candidate neighbours are evaluated
        through the vectorized
        :meth:`~repro.mapping.metrics.MappingEvaluator.evaluate_batch`
        in chunks of this size.  ``1`` is bit-identical to the serial
        walk; larger chunks change the visit sequence (deterministic
        under the profile seed).  0 (default) keeps the serial loops —
        the paper artifacts.  fig3's mapping-sample study always rides
        the vectorized batch path (it is bit-identical there).
    screen_moves:
        Incremental move screening for the searchers: ``False``
        (default, the paper artifacts), ``True`` (always screen) or
        ``"auto"`` (screen only on graphs with >= 100 tasks, where the
        preview cost pays for itself — see ARCHITECTURE.md, "Screening
        policy").  Mutually exclusive with ``batch_eval``.
    store_dir:
        When set, experiment grids stream to disk — each cell's result is
        persisted to ``<store_dir>/<run label>/`` the moment it
        completes (append-only JSONL records + a manifest; see
        ARCHITECTURE.md §store) instead of living only in memory until
        the grid finishes.  ``None`` (default) keeps the in-memory
        behaviour.
    resume:
        With ``store_dir``: load completed cells from an existing
        store (same profile fingerprint and grid required) and
        re-dispatch only missing or failed ones.  Resumed runs
        reassemble byte-identical reports — the store determinism
        contract.  Without ``resume`` an existing store is overwritten.
    exec_plan:
        The execution plan, the only parallelism setting.  ``None``
        (default, or its alias ``"percut"``) runs serially, with no
        executor in scope even under an enclosing one (the service's
        per-job scope).  ``"dag"`` / ``"dag:serial"`` / ``"dag:thread"``
        / ``"dag:process"`` / ``"dag:auto"`` flatten all three parallel
        cuts — cells, restarts, scalings — into one shared
        work-stealing executor over the named transport (see
        :mod:`repro.exec.dag`), so idle workers pick up inner work from
        any cell instead of idling while their cell finishes.  Reports
        stay byte-identical to serial runs (the house determinism
        contract).
    """

    name: str = "fast"
    search_iterations: int = 2000
    sa_iterations: int = 2000
    fig3_mappings: int = 120
    stop_after_feasible: Optional[int] = 6
    seed: int = 0
    platform: str = DEFAULT_PLATFORM
    tech_node: str = "45nm"
    exec_max_workers: Optional[int] = None
    sa_restarts: Optional[int] = None
    batch_eval: int = 0
    screen_moves: object = False
    store_dir: Optional[str] = None
    resume: bool = False
    exec_plan: Optional[str] = None

    def __post_init__(self) -> None:
        # Fail fast on unknown presets/nodes — not deep inside a run.
        platform_model(self.platform)
        TechNode.parse(self.tech_node)
        if self.exec_plan is not None and self.exec_plan not in EXEC_PLANS:
            raise ValueError(
                f"unknown exec_plan {self.exec_plan!r}; choose from {EXEC_PLANS}"
            )
        for name in ("exec_max_workers", "sa_restarts"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")

    def uses_dag_executor(self) -> bool:
        """Whether this profile routes work through the shared DAG executor."""
        return self.exec_plan is not None and self.exec_plan.startswith("dag")

    def dag_transport(self) -> str:
        """The transport spec of a dag ``exec_plan`` (``"auto"`` default)."""
        if not self.uses_dag_executor():
            raise ValueError(f"exec_plan {self.exec_plan!r} is not a dag plan")
        _, _, transport = self.exec_plan.partition(":")
        return transport or "auto"

    @classmethod
    def fast(cls, seed: int = 0) -> "ExperimentProfile":
        """CI-scale budgets (seconds per experiment)."""
        return cls(name="fast", seed=seed)

    @classmethod
    def smoke(cls, seed: int = 0) -> "ExperimentProfile":
        """Pipeline-smoke budgets (sub-minute full grids).

        Small enough for end-to-end exercises of the whole pipeline —
        the CI kill-and-resume job runs every grid through the CLI on
        this profile — while still covering every cell of every grid.
        """
        return cls(
            name="smoke",
            search_iterations=150,
            sa_iterations=300,
            fig3_mappings=40,
            stop_after_feasible=2,
            seed=seed,
        )

    @classmethod
    def full(cls, seed: int = 0) -> "ExperimentProfile":
        """Paper-scale budgets (minutes per experiment)."""
        return cls(
            name="full",
            search_iterations=4000,
            sa_iterations=8000,
            fig3_mappings=120,
            stop_after_feasible=None,
            seed=seed,
        )

    def with_seed(self, seed: int) -> "ExperimentProfile":
        """A copy with a different base seed."""
        return replace(self, seed=seed)

    def with_platform(
        self, platform: Optional[str] = None, tech_node: Optional[str] = None
    ) -> "ExperimentProfile":
        """A copy on a different platform preset and/or tech node."""
        updates = {}
        if platform is not None:
            updates["platform"] = platform
        if tech_node is not None:
            updates["tech_node"] = tech_node
        return replace(self, **updates)

    def with_exec_plan(self, exec_plan: Optional[str]) -> "ExperimentProfile":
        """A copy running under a different execution plan.

        Unknown plans fail fast here (``__post_init__``), not deep
        inside a run.
        """
        return replace(self, exec_plan=exec_plan)

    def with_max_workers(self, exec_max_workers: Optional[int]) -> "ExperimentProfile":
        """A copy with a different pool-size cap."""
        return replace(self, exec_max_workers=exec_max_workers)

    def with_store(
        self, store_dir: Optional[str], resume: bool = False
    ) -> "ExperimentProfile":
        """A copy streaming its grids to ``store_dir`` (optionally resuming)."""
        return replace(
            self,
            store_dir=None if store_dir is None else str(store_dir),
            resume=resume,
        )

    def result_fingerprint(self) -> str:
        """Hash of every profile field that determines results.

        Execution fields (``exec_plan``, worker caps, the store
        settings themselves) are deliberately excluded: by the exec
        determinism contract they change wall-clock only, so a store
        written by a serial run may be resumed under the DAG executor
        and vice versa.
        ``batch_eval``/``screen_moves`` *are* included — chunked
        screening changes the candidate visit sequence — and so are
        ``platform``/``tech_node`` (format 2), which select different
        physical models entirely.  The tech node is canonicalized
        (``"45"`` == ``"45nm"`` == ``"45nm-itrs"``) so spelling
        variants of the same node resume each other's stores.
        """
        from repro.store import fingerprint_payload

        return fingerprint_payload(
            {
                "format": 2,
                "name": self.name,
                "search_iterations": self.search_iterations,
                "sa_iterations": self.sa_iterations,
                "fig3_mappings": self.fig3_mappings,
                "stop_after_feasible": self.stop_after_feasible,
                "seed": self.seed,
                "sa_restarts": self.sa_restarts,
                "batch_eval": self.batch_eval,
                "screen_moves": repr(self.screen_moves),
                "platform": self.platform,
                "tech_node": TechNode.parse(self.tech_node).name,
            }
        )

    def annealing_config(self) -> AnnealingConfig:
        """The SA configuration implied by this profile."""
        config = AnnealingConfig(max_iterations=self.sa_iterations)
        if self.sa_restarts is not None:
            config = replace(config, restarts=self.sa_restarts)
        return config


def build_platform(
    num_cores: int,
    num_levels: int = 3,
    platform: str = DEFAULT_PLATFORM,
    tech_node: str = "45nm",
) -> MPSoC:
    """A platform preset instantiated at a technology node.

    The defaults reproduce the paper's homogeneous ARM7 platform —
    bit-identical to the seed's ``MPSoC(num_cores, scaling_table=
    arm7_levels(num_levels))``.  ``num_levels`` applies to the arm7
    preset only (other presets fix their own tables).
    """
    model = platform_model(
        platform, num_levels=num_levels if platform == DEFAULT_PLATFORM else None
    )
    return model.instantiate(num_cores, tech_node=TechNode.parse(tech_node))


def build_ser_model(
    tech_node: str = "45nm", base: Optional[SERModel] = None
) -> Optional[SERModel]:
    """The node-scaled SER model, or ``None`` at the default node.

    Returning ``None`` for 45 nm lets the evaluator construct its own
    paper-default :class:`SERModel` exactly as the seed did.
    """
    node = TechNode.parse(tech_node)
    if node.is_default:
        return base
    return node.scale_ser(base if base is not None else SERModel())


def build_evaluator(
    graph: TaskGraph,
    num_cores: int,
    deadline_s: float,
    num_levels: int = 3,
    ser_model: Optional[SERModel] = None,
    platform: str = DEFAULT_PLATFORM,
    tech_node: str = "45nm",
) -> MappingEvaluator:
    """An evaluator over the reference platform."""
    return MappingEvaluator(
        graph,
        build_platform(num_cores, num_levels, platform=platform, tech_node=tech_node),
        ser_model=build_ser_model(tech_node, ser_model),
        deadline_s=deadline_s,
    )


def build_optimizer(
    graph: TaskGraph,
    num_cores: int,
    deadline_s: float,
    profile: ExperimentProfile,
    objective: Optional[Objective] = None,
    num_levels: int = 3,
    seed_offset: int = 0,
) -> DesignOptimizer:
    """A Fig. 4 optimizer: proposed mapper by default, SA baseline when
    ``objective`` is given (Exp:1-3 style)."""
    mapper: Mapper
    if objective is None:
        mapper = sea_mapper(
            search_iterations=profile.search_iterations,
            restarts=profile.sa_restarts,
            screen_moves=profile.screen_moves,
            batch_size=profile.batch_eval,
        )
    else:
        mapper = baseline_mapper(
            objective,
            config=profile.annealing_config(),
            screen_moves=profile.screen_moves,
            batch_size=profile.batch_eval,
        )
    return DesignOptimizer(
        graph,
        build_platform(
            num_cores,
            num_levels,
            platform=profile.platform,
            tech_node=profile.tech_node,
        ),
        deadline_s=deadline_s,
        ser_model=build_ser_model(profile.tech_node),
        mapper=mapper,
        stop_after_feasible=profile.stop_after_feasible,
        seed=profile.seed + seed_offset,
        tiebreak=objective,
        remap_per_scaling=objective is None,
        # The proposed flow trades a modest amount of power for fewer
        # SEUs (Table II: Exp:4 consumes ~5% more than the cheapest
        # baseline design while cutting SEUs substantially); the
        # baselines stay strictly power-first.
        power_tolerance=0.15 if objective is None else 0.02,
    )


@dataclass(frozen=True)
class _CheckpointedCell:
    """A cell wrapped in an intra-cell checkpoint scope, picklable.

    Store-backed grids wrap every pending cell so its scaling sweep can
    durably record per-scaling progress (see
    :mod:`repro.store.checkpoint`): the wrapper re-opens the
    thread-local scope wherever the cell actually runs — the caller's
    thread or a dag coordinator thread — and the optimizer inside
    picks it up via ``current_checkpoint()``.
    Carries the checkpoint *path* plus the identity pair (run
    fingerprint, cell key) the checkpoint validates against.
    """

    cell: Any
    path: str
    fingerprint: str
    cell_key: str

    def run(self) -> Any:
        from repro.store.checkpoint import CellCheckpoint, checkpoint_scope

        checkpoint = CellCheckpoint(
            self.path, fingerprint=self.fingerprint, cell_key=self.cell_key
        )
        with checkpoint_scope(checkpoint):
            return self.cell.run()


def _checkpointed_jobs(jobs: Sequence[Any], pending: Sequence[int], store) -> List[Any]:
    """Wrap each pending job with its cell's checkpoint identity."""
    from repro.store.checkpoint import checkpoint_path

    return [
        _CheckpointedCell(
            cell=job,
            path=str(checkpoint_path(store.directory, index)),
            fingerprint=store.fingerprint,
            cell_key=store.keys[index],
        )
        for job, index in zip(jobs, pending)
    ]


def _run_cell_guarded(cell: Any) -> Any:
    """Trampoline that converts cell failures into recordable outcomes.

    Store-backed runs must persist *partial* grids: one bad cell is
    recorded as failed (and re-dispatched on resume) instead of losing
    the completed cells with it.  Returns ``("ok", result)`` or
    ``("error", message)``.
    """
    try:
        return ("ok", cell.run())
    except Exception as exc:
        return ("error", f"{type(exc).__name__}: {exc}")


def _open_cell_store(profile: ExperimentProfile, label: Optional[str], cells):
    """The run store for a grid, or ``None`` when persistence is off."""
    if not profile.store_dir or label is None:
        return None
    from repro.store import RunStore, cell_key

    keys = [cell_key(cell, index) for index, cell in enumerate(cells)]
    return RunStore.open(
        Path(profile.store_dir) / label,
        label=label,
        fingerprint=profile.result_fingerprint(),
        keys=keys,
        profile_summary={"name": profile.name, "seed": profile.seed},
        resume=profile.resume,
    )


def run_cells(
    cells: Sequence[Any],
    profile: ExperimentProfile,
    label: Optional[str] = None,
) -> List[Any]:
    """Run experiment cells under the profile's execution plan, in order.

    A *cell* is a picklable object with a ``run()`` method and a
    ``profile`` field (a frozen dataclass).  Cells must be independent
    — each carries its own seeds and builds private evaluators — so
    results are a pure function of the cell itself and the returned
    list is identical whatever plan executes it.

    Without a dag ``profile.exec_plan`` the cells run one after the
    other with any enclosing executor scope masked, so their sweeps
    and restarts take the serial reference loops.  Under a dag plan
    the grid takes the executor path instead (see
    :func:`_run_cells_dag`): cells run concurrently on coordinator
    threads and their inner restart / scaling leaves share one
    work-stealing pool.

    ``label`` names the grid for the streaming run store: when
    ``profile.store_dir`` is set and a label is given, every cell's
    result is appended to ``<store_dir>/<label>/records.jsonl`` the
    moment it completes (completion order; the returned list keeps
    grid order), and with ``profile.resume`` completed cells are
    loaded from the store instead of re-run — byte-identical results
    either way, because cells are pure functions of themselves.  A
    failed cell is recorded as such and the grid raises *after* every
    other cell has run and been persisted; resuming re-dispatches
    only the failures.
    """
    cells = list(cells)
    if not cells:
        return []
    if profile.uses_dag_executor():
        return _run_cells_dag(cells, profile, label)
    store = _open_cell_store(profile, label, cells)
    with executor_scope(None):
        if store is None:
            return [cell.run() for cell in cells]
        return _run_cells_stored(cells, store)


def _run_cells_stored(cells, store) -> List[Any]:
    """Serial store-backed :func:`run_cells`: persist each cell, skip loaded ones."""
    keys = store.keys
    loaded = store.load_results()
    results: List[Any] = [None] * len(cells)
    pending: List[int] = []
    for index, key in enumerate(keys):
        record = loaded.get(key)
        if record is not None:
            results[index] = record.payload
        else:
            pending.append(index)
    jobs = _checkpointed_jobs([cells[index] for index in pending], pending, store)
    failures: List[str] = []
    for index, job in zip(pending, jobs):
        status, value = _run_cell_guarded(job)
        if status == "ok":
            store.record_result(keys[index], index, value)
            results[index] = value
        else:
            store.record_error(keys[index], index, value)
            failures.append(f"{keys[index]}: {value}")
    store.finalize()
    if failures:
        raise RuntimeError(
            f"{len(failures)} of {len(cells)} cell(s) failed; completed "
            f"cells are persisted in {store.directory} — re-run with "
            f"resume to re-dispatch only the failures: "
            + "; ".join(failures)
        )
    return results


def _run_cell_in_dag(executor, cell: Any, source: str, guarded: bool):
    """Run one cell on a coordinator thread under the shared executor.

    Opens a thread-local :func:`~repro.exec.dag.executor_scope` so the
    cell's sweeps, restarts and nested grids find the shared executor,
    tagged with this cell's source label.
    """
    with executor_scope(executor, source):
        if not guarded:
            return ("ok", cell.run())
        try:
            return ("ok", cell.run())
        except Exception as exc:
            return ("error", f"{type(exc).__name__}: {exc}")


def _run_cells_dag(
    cells: List[Any], profile: ExperimentProfile, label: Optional[str]
) -> List[Any]:
    """:func:`run_cells` on the unified DAG executor.

    Every cell's *orchestration* (job building, ranking/early-exit
    replays — cheap coordination code) runs on its own coordinator
    thread, while the cells' leaf tasks (annealing restarts, scaling
    assessments) all funnel into one shared
    :class:`~repro.exec.dag.DagExecutor` queue — so a worker that
    finishes one cell's leaves immediately steals another's instead
    of idling.

    An already-ambient executor (an enclosing grid, the CLI) is
    reused — nested grids share the one pool; otherwise one is opened
    from the profile's transport spec and closed here.  Store
    streaming mirrors the serial path: completions persist from the
    caller's thread in completion order, failures are recorded and
    the grid raises after every cell has run, and the executor's
    utilization stats land in the run manifest.
    """
    from concurrent.futures import ThreadPoolExecutor, as_completed

    from repro.exec.dag import DagExecutor, current_executor

    executor = current_executor()
    owned = executor is None
    if owned:
        executor = DagExecutor.from_spec(
            profile.dag_transport(),
            max_workers=profile.exec_max_workers,
            payload_probe=cells[0],
        )
    store = _open_cell_store(profile, label, cells)
    results: List[Any] = [None] * len(cells)
    pending = list(range(len(cells)))
    if store is not None:
        loaded = store.load_results()
        pending = []
        for index, key in enumerate(store.keys):
            record = loaded.get(key)
            if record is not None:
                results[index] = record.payload
            else:
                pending.append(index)
    grid = label or "cells"
    failures: List[Tuple[int, str]] = []
    try:
        if pending:
            # One coordinator thread per pending cell: they spend
            # their lives blocked on leaf futures, so this is
            # coordination overhead, not oversubscription — the
            # machine's parallelism lives in the executor's transport.
            with ThreadPoolExecutor(
                max_workers=len(pending), thread_name_prefix=f"repro-{grid}"
            ) as cohort:
                jobs = {
                    index: cells[index] for index in pending
                }
                if store is not None:
                    jobs = dict(
                        zip(
                            pending,
                            _checkpointed_jobs(
                                [cells[index] for index in pending], pending, store
                            ),
                        )
                    )
                futures = {
                    cohort.submit(
                        _run_cell_in_dag,
                        executor,
                        jobs[index],
                        f"{grid}[{index}]",
                        store is not None,
                    ): index
                    for index in pending
                }
                try:
                    for future in as_completed(futures):
                        index = futures[future]
                        status, value = future.result()
                        if store is not None:
                            if status == "ok":
                                store.record_result(store.keys[index], index, value)
                            else:
                                store.record_error(store.keys[index], index, value)
                        if status == "ok":
                            results[index] = value
                        else:
                            failures.append((index, value))
                except BaseException:
                    # Unguarded (storeless) mode propagates the first
                    # cell failure with its original type, like the
                    # serial path; cancel cells that have
                    # not started and let in-flight ones drain.
                    for future in futures:
                        future.cancel()
                    raise
    finally:
        if store is not None:
            store.set_executor_stats(executor.stats.to_dict())
        if owned:
            executor.close()
    if failures:
        failures.sort()
        store.finalize()
        messages = [f"{store.keys[index]}: {message}" for index, message in failures]
        raise RuntimeError(
            f"{len(failures)} of {len(cells)} cell(s) failed; completed "
            f"cells are persisted in {store.directory} — re-run with "
            f"resume to re-dispatch only the failures: " + "; ".join(messages)
        )
    if store is not None:
        store.finalize()
    return results


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render an aligned ASCII table."""
    columns = [list(column) for column in zip(headers, *rows)] if rows else [
        [header] for header in headers
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines: List[str] = []
    header_line = "  ".join(
        header.ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_mapping_groups(groups: Sequence[Sequence[str]]) -> str:
    """Render per-core task groups like Table II's "Mapped Tasks" column."""
    parts = []
    for core, tasks in enumerate(groups):
        joined = ",".join(tasks) if tasks else "-"
        parts.append(f"c{core + 1}:{joined}")
    return " | ".join(parts)


def percent_delta(value: float, reference: float) -> float:
    """Relative difference ``(value - reference) / reference`` in percent."""
    if reference == 0:
        raise ValueError("reference must be non-zero")
    return 100.0 * (value - reference) / reference
