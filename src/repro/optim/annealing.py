"""Simulated-annealing task mapper — the soft error-unaware baseline.

The paper's Exp:1-3 obtain their mappings "through simulated
annealing [13]" (Orsila et al.) with three different objectives:
register usage, parallelism (makespan) and their product.  This module
is that baseline: a classic SA over the move/swap neighbourhood with
geometric cooling, seeded and iteration-budgeted for reproducibility.

The objective is any :data:`~repro.optim.objectives.Objective`;
deadline handling uses :func:`~repro.optim.objectives.
deadline_penalized` so the walk is drawn back into the feasible region
rather than bouncing off a hard wall.

The inner loop is **allocation-free**: neighbours are
:class:`~repro.optim.moves.Move` / :class:`~repro.optim.moves.Swap`
descriptors drawn by a :class:`~repro.optim.moves.MoveSampler` from
the same RNG stream as the historical Mapping-based walk, previewed
for screening through the O(degree) index paths of
:class:`~repro.mapping.incremental.IncrementalMappingState`, keyed
into the evaluator cache via an incrementally maintained
:class:`~repro.mapping.metrics.SignatureTracker`, and a
:class:`~repro.mapping.mapping.Mapping` is only materialized on a
cache miss (where the full list-scheduled evaluation needs one).
Same seed ⇒ bit-identical accepted points, RNG consumption,
evaluation counts and cache hit/miss traffic as the Mapping-based
loop, which survives verbatim as :meth:`SimulatedAnnealingMapper.
run_reference` for the parity suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.arch.mpsoc import MPSoC
from repro.arch.power import PowerModel
from repro.exec.dag import current_executor
from repro.faults.ser import SERModel
from repro.mapping.incremental import (
    IncrementalMappingState,
    resolve_screening,
    screen_lower_bound,
)
from repro.mapping.mapping import Mapping
from repro.mapping.metrics import DesignPoint, MappingEvaluator, SignatureTracker
from repro.optim.moves import InnerLoopStats, Move, MoveSampler, random_neighbor
from repro.optim.objectives import Objective, deadline_penalized
from repro.taskgraph.graph import TaskGraph


@dataclass(frozen=True)
class AnnealingConfig:
    """Simulated-annealing hyper-parameters.

    Attributes
    ----------
    max_iterations:
        Total annealing steps.
    initial_temperature:
        Starting temperature, in units of *relative* objective change
        (0.1 accepts ~10% degradations readily at the start).
    cooling:
        Geometric cooling factor per step (0 < cooling < 1).
    restarts:
        Independent annealing runs; the best result wins.
    deadline_penalty_weight:
        Weight of the deadline-violation penalty.

    The config is picklable: restart jobs ship it to workers.
    """

    max_iterations: int = 3000
    initial_temperature: float = 0.1
    cooling: float = 0.999
    restarts: int = 1
    deadline_penalty_weight: float = 10.0

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.initial_temperature <= 0:
            raise ValueError("initial_temperature must be positive")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")
        if self.restarts <= 0:
            raise ValueError("restarts must be positive")


@dataclass(frozen=True)
class _RestartJob:
    """One worker-side annealing restart, self-contained and picklable.

    Rebuilds a private evaluator and mapper in the worker; the restart
    result is a pure function of ``(graph, platform, objective,
    config, seed + restart)``, so a worker restart returns exactly
    what the same restart of a serial :meth:`run` loop would.
    """

    graph: TaskGraph
    platform: MPSoC
    deadline_s: Optional[float]
    ser_model: SERModel
    power_model: PowerModel
    comm_model: str
    objective: Objective
    config: AnnealingConfig
    seed: Optional[int]
    deadline_penalty: bool
    require_all_cores: bool
    screening: bool
    screen_threshold: float
    batch_size: int
    initial: Mapping
    scaling: Tuple[int, ...]
    restart: int
    reference: bool = False

    def run(self) -> Tuple[DesignPoint, int, int, int, int, InnerLoopStats]:
        """Run the restart.

        Returns ``(point, screened moves, evaluations, cache hits,
        cache misses, inner-loop stats)`` — the full evaluator and
        inner-loop traffic, so the parent can fold worker stats back
        into its shared evaluator and per-restart aggregates.
        """
        evaluator = MappingEvaluator(
            self.graph,
            self.platform,
            ser_model=self.ser_model,
            power_model=self.power_model,
            deadline_s=self.deadline_s,
            comm_model=self.comm_model,
        )
        mapper = SimulatedAnnealingMapper(
            evaluator,
            self.objective,
            config=self.config,
            seed=self.seed,
            deadline_penalty=self.deadline_penalty,
            require_all_cores=self.require_all_cores,
            screening=self.screening,
            screen_threshold=self.screen_threshold,
            batch_size=self.batch_size,
        )
        loop = mapper._run_once_reference if self.reference else mapper._run_once
        point = loop(self.initial, self.scaling, self.restart)
        return (
            point,
            mapper.screened_moves,
            evaluator.evaluations,
            evaluator.cache_hits,
            evaluator.cache_misses,
            mapper._last_inner_stats,
        )


def _run_restart_job(
    job: _RestartJob,
) -> Tuple[DesignPoint, int, int, int, int, InnerLoopStats]:
    """Module-level trampoline so process pools can pickle the call."""
    return job.run()


@dataclass(frozen=True)
class RestartPlan:
    """A mapping search decomposed into restart-level leaf tasks.

    Produced by :meth:`SimulatedAnnealingMapper.restart_plan` (and the
    ``restart_plan`` hooks of the design-optimizer mappers) so the DAG
    executor can dispatch *individual restarts* of many scalings and
    cells through one shared queue instead of treating each scaling's
    whole search as an opaque unit.

    ``jobs`` are ordinary :class:`_RestartJob` items in restart order
    — run them through any ordered ``map`` — and :meth:`reduce` folds
    their ordered results back into the single
    :class:`~repro.mapping.metrics.DesignPoint` the corresponding
    serial ``run()`` call would return, replaying the serial best-of
    ranking (strict ``<`` keeps the earliest restart on ties) so the
    selection is bit-identical.
    """

    jobs: Tuple[_RestartJob, ...]
    mapper: "SimulatedAnnealingMapper"

    def reduce(
        self,
        results: Sequence[Tuple[DesignPoint, int, int, int, int, InnerLoopStats]],
    ) -> Tuple[DesignPoint, int]:
        """Fold ordered restart results into ``(best point, evaluations)``.

        ``evaluations`` totals the private evaluators' ``evaluate``
        calls — hits and misses alike — which is exactly what the same
        restarts cost a serial run on a shared evaluator, so evaluator
        totals keep matching serial runs (the hit/miss *split* may
        differ; workers start cold).
        """
        if len(results) != len(self.jobs):
            raise ValueError(
                f"restart plan expects {len(self.jobs)} results, got {len(results)}"
            )
        best = self.mapper.select_best([result[0] for result in results])
        evaluations = sum(result[2] for result in results)
        return best, evaluations


class SimulatedAnnealingMapper:
    """SA mapping optimizer for a fixed objective.

    Parameters
    ----------
    evaluator:
        Design-point evaluator.
    objective:
        Score to minimize (see :mod:`repro.optim.objectives`).
    config:
        Annealing hyper-parameters.
    seed:
        Seed for move generation and acceptance draws.
    screening:
        Opt-in incremental move screening: neighbours whose certified
        objective lower bound (register bits exactly; makespan / SEUs
        / their product bounded via
        :class:`~repro.mapping.incremental.IncrementalMappingState`)
        already proves a near-zero acceptance probability are skipped
        without a full list-scheduled evaluation.  Accepted designs
        are always authoritatively re-evaluated, but the pruning does
        change which neighbours a run visits (and its RNG stream), so
        results differ from an unscreened run with the same seed.
        Off by default — the paper artifacts use unscreened search.
        ``"auto"`` screens only on graphs with at least
        :data:`~repro.mapping.incremental.SCREENING_MIN_TASKS` tasks,
        where the preview cost pays for itself (sub-100-task compiled
        evaluations are so cheap that screening loses wall-clock).
    screen_threshold:
        Acceptance-probability cutoff below which a bounded-worse
        neighbour is pruned.
    batch_size:
        Opt-in batched candidate screening: when positive, neighbours
        are drawn ``batch_size`` at a time from the then-current
        mapping and evaluated in one vectorized
        :meth:`~repro.mapping.metrics.MappingEvaluator.evaluate_batch`
        call; the Metropolis acceptance then replays over the batch in
        draw order.  ``batch_size=1`` is bit-identical to the serial
        walk (same RNG stream, same evaluations); larger batches draw
        every candidate of a chunk from the chunk-start mapping, which
        changes the visit sequence (like ``screening``, with which it
        is mutually exclusive) but stays fully deterministic under a
        seed.  0 (default) keeps the serial loop.

    Restarts run on the ambient executor when one is in scope (see
    :meth:`run`).
    """

    def __init__(
        self,
        evaluator: MappingEvaluator,
        objective: Objective,
        config: Optional[AnnealingConfig] = None,
        seed: Optional[int] = None,
        deadline_penalty: bool = True,
        require_all_cores: bool = False,
        screening: object = False,
        screen_threshold: float = 1e-3,
        batch_size: int = 0,
    ) -> None:
        self.evaluator = evaluator
        self.raw_objective = objective
        self.config = config or AnnealingConfig()
        self.seed = seed
        self.deadline_penalty = deadline_penalty
        self.require_all_cores = require_all_cores
        self.screening = resolve_screening(screening, evaluator.graph.num_tasks)
        if not 0.0 <= screen_threshold < 1.0:
            raise ValueError("screen_threshold must be in [0, 1)")
        self.screen_threshold = screen_threshold
        if batch_size < 0:
            raise ValueError("batch_size must be non-negative")
        if batch_size and self.screening:
            raise ValueError(
                "batched candidate evaluation and incremental screening "
                "are mutually exclusive"
            )
        self.batch_size = batch_size
        self.screened_moves = 0  # neighbours pruned without evaluation
        self.screened_moves_per_restart: List[int] = []  # per run(), in restart order
        self.restart_evaluations: List[int] = []  # evaluate() calls per restart
        # Inner-loop instrumentation (descriptor walks; the reference
        # and batched loops report zeros): aggregate + per restart.
        self.inner_stats = InnerLoopStats()
        self.inner_stats_per_restart: List[InnerLoopStats] = []
        self._last_inner_stats = InnerLoopStats()  # set by each _run_once*
        deadline = evaluator.deadline_s
        if deadline is not None and deadline_penalty:
            self.objective = deadline_penalized(
                objective, deadline, self.config.deadline_penalty_weight
            )
        else:
            self.objective = objective

    def run(
        self,
        initial: Mapping,
        scaling: Optional[Sequence[int]] = None,
    ) -> DesignPoint:
        """Anneal from ``initial``; return the best design point found.

        Feasible points dominate infeasible ones regardless of raw
        score; among feasible points the raw objective decides.

        Restarts are independent seeded runs (restart *r* draws from
        ``seed + r``).  With more than one restart and an executor in
        scope (:func:`~repro.exec.dag.current_executor`) they run as
        leaves on that executor, tagged with the scope's source label;
        the serial best-of ranking is replayed over the restart-ordered
        results, making the selection bit-identical to the serial loop
        that runs them when no executor is in scope.  Stats reset
        on every call: ``screened_moves`` totals this run's pruned
        neighbours, ``screened_moves_per_restart`` /
        ``restart_evaluations`` / ``inner_stats_per_restart`` break
        the work down per restart and ``inner_stats`` aggregates the
        descriptor inner-loop counters.
        """
        return self._run(initial, scaling, reference=False)

    def run_reference(
        self,
        initial: Mapping,
        scaling: Optional[Sequence[int]] = None,
    ) -> DesignPoint:
        """:meth:`run` on the historical Mapping-based inner loop.

        Bit-identical results by the descriptor determinism contract —
        same accepted points, RNG stream, evaluation counts and cache
        hit/miss traffic — kept as the behavioural reference for the
        parity suite and the ``sa_inner_loop`` benchmark pair.  Inner-
        loop stats stay zero (the instrumentation belongs to the
        descriptor walk); ``screened_moves`` counters work as always.
        """
        return self._run(initial, scaling, reference=True)

    def _run(
        self,
        initial: Mapping,
        scaling: Optional[Sequence[int]],
        reference: bool,
    ) -> DesignPoint:
        scaling_tuple = (
            tuple(scaling) if scaling is not None else self.evaluator.platform.scaling_vector()
        )
        restarts = self.config.restarts
        self.screened_moves = 0
        self.screened_moves_per_restart = []
        self.restart_evaluations = []
        self.inner_stats = InnerLoopStats()
        self.inner_stats_per_restart = []
        loop = self._run_once_reference if reference else self._run_once
        executor = current_executor() if restarts > 1 else None
        if executor is None:
            candidates = []
            for restart in range(restarts):
                screened_before = self.screened_moves
                evaluations_before = self.evaluator.evaluations
                candidates.append(loop(initial, scaling_tuple, restart))
                self.screened_moves_per_restart.append(
                    self.screened_moves - screened_before
                )
                self.restart_evaluations.append(
                    self.evaluator.evaluations - evaluations_before
                )
                self.inner_stats_per_restart.append(self._last_inner_stats)
        else:
            jobs = [
                self._restart_job(initial, scaling_tuple, restart, reference)
                for restart in range(restarts)
            ]
            results = executor.map(_run_restart_job, jobs)
            candidates = [result[0] for result in results]
            self.screened_moves_per_restart = [result[1] for result in results]
            self.restart_evaluations = [result[2] for result in results]
            self.screened_moves = sum(self.screened_moves_per_restart)
            # Fold the workers' evaluator traffic back into the shared
            # evaluator so ``evaluations == cache_hits + cache_misses``
            # keeps holding and totals match a serial run.  The
            # hit/miss *split* can still differ from serial — serial
            # restarts share one cache while workers each start cold —
            # but the evaluation totals agree (evaluate() counts hits
            # and misses alike).
            self.evaluator.evaluations += sum(self.restart_evaluations)
            self.evaluator.cache_hits += sum(result[3] for result in results)
            self.evaluator.cache_misses += sum(result[4] for result in results)
            self.inner_stats_per_restart = [result[5] for result in results]
        for stats in self.inner_stats_per_restart:
            self.inner_stats.merge(stats)
        best = self.select_best(candidates)
        assert best is not None
        return best

    def select_best(
        self, candidates: Sequence[DesignPoint]
    ) -> Optional[DesignPoint]:
        """Replay of the serial best-of ranking over ordered candidates.

        Candidates must arrive in restart order whatever the
        completion order; strict ``<`` keeps the earliest restart on
        rank ties — exactly the serial loop's choice.  Shared by
        :meth:`run` and :meth:`RestartPlan.reduce` so the two replays
        can never drift apart.
        """
        best: Optional[DesignPoint] = None
        best_key: Optional[Tuple[int, float]] = None
        for candidate in candidates:
            key = self._rank_key(candidate)
            if best_key is None or key < best_key:
                best, best_key = candidate, key
        return best

    def restart_plan(
        self,
        initial: Mapping,
        scaling: Optional[Sequence[int]] = None,
    ) -> RestartPlan:
        """Decompose this search into restart-level leaf tasks.

        The returned plan's jobs are exactly the jobs the parallel
        branch of :meth:`run` would dispatch; running them through any
        ordered ``map`` and folding with
        :meth:`RestartPlan.reduce` returns the bit-identical design
        point :meth:`run` would.  Used by the DAG executor to flatten
        scalings x restarts into one shared queue — a single-restart
        search still becomes one leaf, so even restart-free scalings
        ship to the pool instead of serializing their cell.
        """
        scaling_tuple = (
            tuple(scaling)
            if scaling is not None
            else self.evaluator.platform.scaling_vector()
        )
        jobs = tuple(
            self._restart_job(initial, scaling_tuple, restart, False)
            for restart in range(self.config.restarts)
        )
        return RestartPlan(jobs=jobs, mapper=self)

    def _restart_job(
        self,
        initial: Mapping,
        scaling: Tuple[int, ...],
        restart: int,
        reference: bool = False,
    ) -> _RestartJob:
        evaluator = self.evaluator
        return _RestartJob(
            graph=evaluator.graph,
            platform=evaluator.platform,
            deadline_s=evaluator.deadline_s,
            ser_model=evaluator.ser_model,
            power_model=evaluator.power_model,
            comm_model=evaluator.comm_model,
            objective=self.raw_objective,
            config=self.config,
            seed=self.seed,
            deadline_penalty=self.deadline_penalty,
            require_all_cores=self.require_all_cores,
            screening=self.screening,
            screen_threshold=self.screen_threshold,
            batch_size=self.batch_size,
            initial=initial,
            scaling=scaling,
            restart=restart,
            reference=reference,
        )

    def _rank_key(self, point: DesignPoint) -> Tuple[int, float]:
        if not self.deadline_penalty:
            # Deadline-unaware mode (the paper's [13] baseline): rank
            # purely on the raw objective.
            return (0, self.raw_objective(point))
        feasible = point.meets_deadline
        feasibility_rank = 0 if feasible or feasible is None else 1
        return (feasibility_rank, self.raw_objective(point))

    def _run_once(
        self, initial: Mapping, scaling: Tuple[int, ...], restart: int
    ) -> DesignPoint:
        """One descriptor-based annealing walk (the default inner loop).

        Neighbours live as :class:`Move`/:class:`Swap` tokens drawn by
        a :class:`MoveSampler` from the same RNG stream as the
        Mapping-based loop; cache probes ride the incrementally
        maintained signature of a :class:`SignatureTracker`, and a
        ``Mapping`` is only materialized inside the evaluator on a
        cache miss.  Bit-identical to :meth:`_run_once_reference` by
        construction — the parity suite asserts it.
        """
        if self.batch_size:
            return self._run_once_batched(initial, scaling, restart)
        rng = random.Random(None if self.seed is None else self.seed + restart)
        evaluator = self.evaluator
        stats = InnerLoopStats()
        self._last_inner_stats = stats

        current = evaluator.evaluate(initial, scaling)
        current_score = self.objective(current)
        best = current
        best_key = self._rank_key(current)
        compiled = evaluator._sync_compiled()
        num_cores = initial.num_cores
        num_tasks = compiled.num_tasks
        min_used = min(num_cores, num_tasks)
        signature, signature_hash = current.mapping.signature_info(compiled)
        tracker = SignatureTracker(compiled, signature, num_cores, signature_hash)
        sampler = MoveSampler(compiled, signature, num_cores)
        state: Optional[IncrementalMappingState] = None
        if self.screening:
            state = IncrementalMappingState(evaluator, current.mapping, scaling)

        temperature = self.config.initial_temperature
        cooling = self.config.cooling
        for _ in range(self.config.max_iterations):
            descriptor = sampler.draw(rng)
            if descriptor is None:
                temperature *= cooling
                continue
            stats.moves_drawn += 1
            if (
                self.require_all_cores
                and sampler.used_cores_after(descriptor) < min_used
            ):
                temperature *= cooling
                continue
            if state is not None:
                stats.previews += 1
                if isinstance(descriptor, Move):
                    estimate = state.estimate_move_index(
                        descriptor.task, descriptor.core
                    )
                else:
                    estimate = state.estimate_swap_index(
                        descriptor.task_a, descriptor.task_b
                    )
                bound = screen_lower_bound(self.raw_objective, estimate)
                if bound is not None and bound > current_score:
                    # The bound is also a lower bound on the penalized
                    # score (the deadline penalty only inflates), so
                    # the Metropolis odds at the bound overestimate
                    # the real acceptance odds.
                    scale = max(abs(current_score), 1e-30)
                    delta = (bound - current_score) / scale
                    odds = math.exp(-delta / max(temperature, 1e-12))
                    if odds < self.screen_threshold:
                        self.screened_moves += 1
                        stats.screened_moves += 1
                        temperature *= cooling
                        continue
            if isinstance(descriptor, Move):
                neighbor_signature, neighbor_hash = tracker.preview_move(
                    descriptor.task, descriptor.core
                )
            else:
                neighbor_signature, neighbor_hash = tracker.preview_swap(
                    descriptor.task_a, descriptor.task_b
                )
            misses_before = evaluator.cache_misses
            candidate = evaluator.evaluate_signature(
                neighbor_signature,
                scaling,
                signature_hash=neighbor_hash,
                num_cores=num_cores,
                template=initial,
            )
            if evaluator.cache_misses != misses_before:
                stats.materialized_mappings += 1
            candidate_score = self.objective(candidate)

            if candidate_score <= current_score:
                accept = True
            else:
                scale = max(abs(current_score), 1e-30)
                delta = (candidate_score - current_score) / scale
                accept = rng.random() < math.exp(-delta / max(temperature, 1e-12))
            if accept:
                current, current_score = candidate, candidate_score
                tracker.commit(neighbor_signature, neighbor_hash)
                if state is not None:
                    if isinstance(descriptor, Move):
                        state.apply_move_index(descriptor.task, descriptor.core)
                    else:
                        state.apply_swap_index(
                            descriptor.task_a, descriptor.task_b
                        )
                sampler.apply(descriptor)
                key = self._rank_key(candidate)
                if key < best_key:
                    best, best_key = candidate, key
            temperature *= cooling
        stats.signature_rebuilds += tracker.rebuilds
        return best

    def _run_once_reference(
        self, initial: Mapping, scaling: Tuple[int, ...], restart: int
    ) -> DesignPoint:
        """The historical Mapping-per-neighbour loop (parity reference).

        Kept verbatim from before the descriptor rewrite: every
        neighbour is a materialized ``Mapping`` (O(N) copy), screened
        via the O(N) ``estimate_mapping`` diff and keyed into the
        cache through the full signature walk.  :meth:`_run_once`
        reproduces its results bit for bit.
        """
        if self.batch_size:
            return self._run_once_batched(initial, scaling, restart)
        rng = random.Random(None if self.seed is None else self.seed + restart)
        evaluator = self.evaluator
        graph = evaluator.graph
        self._last_inner_stats = InnerLoopStats()

        current = evaluator.evaluate(initial, scaling)
        current_score = self.objective(current)
        best = current
        best_key = self._rank_key(current)
        state: Optional[IncrementalMappingState] = None
        if self.screening:
            state = IncrementalMappingState(evaluator, current.mapping, scaling)

        temperature = self.config.initial_temperature
        for _ in range(self.config.max_iterations):
            neighbor = random_neighbor(current.mapping, graph, rng)
            if neighbor == current.mapping:
                temperature *= self.config.cooling
                continue
            if self.require_all_cores and len(neighbor.used_cores()) < min(
                neighbor.num_cores, graph.num_tasks
            ):
                temperature *= self.config.cooling
                continue
            if state is not None:
                bound = screen_lower_bound(
                    self.raw_objective, state.estimate_mapping(neighbor)
                )
                if bound is not None and bound > current_score:
                    # See _run_once: the bound under-estimates the
                    # penalized score, so these odds overestimate.
                    scale = max(abs(current_score), 1e-30)
                    delta = (bound - current_score) / scale
                    odds = math.exp(-delta / max(temperature, 1e-12))
                    if odds < self.screen_threshold:
                        self.screened_moves += 1
                        temperature *= self.config.cooling
                        continue
            candidate = evaluator.evaluate(neighbor, scaling)
            candidate_score = self.objective(candidate)

            if candidate_score <= current_score:
                accept = True
            else:
                scale = max(abs(current_score), 1e-30)
                delta = (candidate_score - current_score) / scale
                accept = rng.random() < math.exp(-delta / max(temperature, 1e-12))
            if accept:
                current, current_score = candidate, candidate_score
                if state is not None:
                    state.apply_mapping(neighbor)
                key = self._rank_key(candidate)
                if key < best_key:
                    best, best_key = candidate, key
            temperature *= self.config.cooling
        return best

    def _run_once_batched(
        self, initial: Mapping, scaling: Tuple[int, ...], restart: int
    ) -> DesignPoint:
        """The batched candidate-screening variant of :meth:`_run_once`.

        Neighbours are drawn ``batch_size`` at a time from the
        chunk-start mapping and evaluated in one vectorized
        ``evaluate_batch`` call; the Metropolis walk then replays over
        the chunk in draw order (acceptance updates ``current``
        mid-chunk, later candidates of the same chunk still derive
        from the chunk-start mapping).  With ``batch_size=1`` the RNG
        stream, evaluator traffic and returned point are bit-identical
        to the serial loop — the parity suite asserts it.
        """
        rng = random.Random(None if self.seed is None else self.seed + restart)
        evaluator = self.evaluator
        graph = evaluator.graph
        self._last_inner_stats = InnerLoopStats()

        current = evaluator.evaluate(initial, scaling)
        current_score = self.objective(current)
        best = current
        best_key = self._rank_key(current)
        temperature = self.config.initial_temperature
        cooling = self.config.cooling
        remaining = self.config.max_iterations
        while remaining > 0:
            draw = min(self.batch_size, remaining)
            remaining -= draw
            chunk: List[Optional[Mapping]] = []
            for _ in range(draw):
                neighbor = random_neighbor(current.mapping, graph, rng)
                if neighbor == current.mapping:
                    chunk.append(None)
                elif self.require_all_cores and len(neighbor.used_cores()) < min(
                    neighbor.num_cores, graph.num_tasks
                ):
                    chunk.append(None)
                else:
                    chunk.append(neighbor)
            evaluated = iter(
                evaluator.evaluate_batch(
                    [mapping for mapping in chunk if mapping is not None],
                    scaling,
                )
            )
            for neighbor in chunk:
                if neighbor is None:
                    temperature *= cooling
                    continue
                candidate = next(evaluated)
                candidate_score = self.objective(candidate)
                if candidate_score <= current_score:
                    accept = True
                else:
                    scale = max(abs(current_score), 1e-30)
                    delta = (candidate_score - current_score) / scale
                    accept = rng.random() < math.exp(-delta / max(temperature, 1e-12))
                if accept:
                    current, current_score = candidate, candidate_score
                    key = self._rank_key(candidate)
                    if key < best_key:
                        best, best_key = candidate, key
                temperature *= cooling
        return best
