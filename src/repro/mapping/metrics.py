"""Design-point metrics: Eqs. (3)-(8) of the paper.

This module turns a (mapping, scaling) pair into the quantities the
paper optimizes over:

* per-core register usage ``R_i`` (Eq. 8) — the bit-cardinality of the
  union of register sets of the tasks on core *i*;
* per-core execution time ``T_i`` in cycles (Eq. 7) — computation plus
  cross-core dependency (receive) cycles;
* the multiprocessor execution time ``T_M`` — authoritative value from
  list scheduling, with the paper's pooled-throughput estimate (Eq. 6)
  available as :func:`pooled_makespan_s`;
* the expected number of SEUs experienced ``Gamma`` (Eq. 3);
* dynamic power ``P`` (Eq. 5) using schedule-derived activity factors.

Exposure model (DESIGN.md §5)
-----------------------------
Register *state* is live — and hence exposed to upsets — for the whole
multiprocessor execution window, not only while its core is actively
computing (a register bank retains data through idle cycles).  Each
core's exposure is therefore ``R_i * T_M`` counted in the core's own
clock cycles (``T_M_s * f_i``), with the per-cycle rate ``lambda_i``
depending on the core's voltage.  Counting exposure in local cycles
makes Gamma frequency-invariant for a fixed mapping, which is exactly
how the paper reads Fig. 3(c): the ~2.5x growth at s=2 is attributed
entirely to the Vdd-lambda relationship while T_M (in wall time)
merely doubles.

:class:`MappingEvaluator` bundles the platform, SER and power models
and caches evaluations, since local search re-visits design points.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.mpsoc import MPSoC
from repro.arch.power import PowerModel
from repro.faults.ser import SERModel
from repro.mapping.mapping import Mapping
from repro.sched.batched import BatchedListScheduler
from repro.sched.list_scheduler import ListScheduler
from repro.sched.schedule import Schedule, from_arrays_validation_enabled
from repro.taskgraph.graph import TaskGraph

# ---------------------------------------------------------------------------
# Elementary metrics (pure functions of graph + mapping)
# ---------------------------------------------------------------------------


def core_register_bits(graph: TaskGraph, mapping: Mapping, core_index: int) -> int:
    """``R_i`` of Eq. (8): union bits of the register sets on one core."""
    register_map = graph.register_map()
    tasks = mapping.tasks_on(core_index)
    if not tasks:
        return 0
    return register_map.union_bits(tasks)


def per_core_register_bits(graph: TaskGraph, mapping: Mapping) -> Tuple[int, ...]:
    """``R_i`` for every core."""
    register_map = graph.register_map()
    return tuple(
        register_map.union_bits(tasks) if tasks else 0
        for tasks in mapping.core_groups()
    )


def total_register_bits(graph: TaskGraph, mapping: Mapping) -> int:
    """Overall register usage ``R = sum_i R_i`` (bits).

    Shared sets mapped across cores are counted once *per core* — the
    duplication effect of Section III.
    """
    return sum(per_core_register_bits(graph, mapping))


def core_execution_cycles(graph: TaskGraph, mapping: Mapping, core_index: int) -> int:
    """``T_i`` of Eq. (7) in cycles: computation plus cross-core receives."""
    total = 0
    for name in mapping.tasks_on(core_index):
        total += graph.task(name).cycles
        for producer in graph.predecessors(name):
            if mapping.core_of(producer) != core_index:
                total += graph.comm_cycles(producer, name)
    return total


def per_core_execution_cycles(graph: TaskGraph, mapping: Mapping) -> Tuple[int, ...]:
    """``T_i`` for every core."""
    return tuple(
        core_execution_cycles(graph, mapping, core)
        for core in range(mapping.num_cores)
    )


def pooled_makespan_s(
    graph: TaskGraph, mapping: Mapping, frequencies_hz: Sequence[float]
) -> float:
    """The paper's aggregate makespan estimate, Eq. (6).

    Total busy cycles over all cores divided by the summed effective
    clock rate.  It ignores precedence stalls, so it lower-bounds the
    real (list-scheduled) makespan for balanced mappings; the
    optimizers use the scheduler's makespan as the authoritative T_M.
    """
    if len(frequencies_hz) != mapping.num_cores:
        raise ValueError(
            f"{len(frequencies_hz)} frequencies for {mapping.num_cores} cores"
        )
    total_cycles = sum(per_core_execution_cycles(graph, mapping))
    pooled_rate = sum(frequencies_hz)
    if pooled_rate <= 0:
        raise ValueError("pooled clock rate must be positive")
    return total_cycles / pooled_rate


def expected_seus(
    register_bits: Sequence[int],
    execution_cycles: Sequence[float],
    rates: Sequence[float],
) -> float:
    """``Gamma`` of Eq. (3): ``sum_i R_i * T_i * lambda_i``.

    Parameters
    ----------
    register_bits:
        ``R_i`` per core (live register bits).
    execution_cycles:
        Exposure window per core, in the core's own clock cycles
        (full-makespan exposure: ``T_M_s * f_i``).
    rates:
        ``lambda_i`` per core, SEUs per bit per cycle.
    """
    if not len(register_bits) == len(execution_cycles) == len(rates):
        raise ValueError("per-core vectors must have equal length")
    return sum(
        bits * cycles * rate
        for bits, cycles, rate in zip(register_bits, execution_cycles, rates)
    )


def _check_against_schedule(
    schedule: Schedule,
    makespan_s: float,
    busy_s: List[float],
    busy_cycles: List[int],
    makespan_cycles: int,
) -> None:
    """Assert kernel timings equal a full schedule's, bit for bit.

    The runtime half of the schedule-free evaluation contract, armed by
    ``REPRO_VALIDATE_SCHEDULES=1`` (the differential suite is the
    offline half).
    """
    cores = range(schedule.num_cores)
    checks = {
        "makespan_s": makespan_s == schedule.makespan_s(),
        "busy_s": busy_s == [schedule.busy_s(core) for core in cores],
        "busy_cycles": busy_cycles == [schedule.busy_cycles(core) for core in cores],
        "makespan_cycles": makespan_cycles == schedule.makespan_cycles(),
    }
    diverged = [name for name, ok in checks.items() if not ok]
    if diverged:
        raise AssertionError(
            f"schedule-free timings diverged from the full schedule: {diverged}"
        )


# ---------------------------------------------------------------------------
# Incremental cache signatures
# ---------------------------------------------------------------------------

#: Debug toggle: when armed (``REPRO_VALIDATE_SIGNATURES=1`` or
#: :func:`set_signature_validation`), every :class:`SignatureTracker`
#: commit and rebuild re-derives the hash from scratch and asserts the
#: incremental value matches — the runtime half of the signature-parity
#: contract (the hypothesis suite is the offline half).
_validate_signatures = os.environ.get("REPRO_VALIDATE_SIGNATURES", "") not in (
    "",
    "0",
)


def set_signature_validation(enabled: bool) -> None:
    """Toggle incremental-signature parity assertions at runtime.

    Per-process; workers of the process transport inherit the
    ``REPRO_VALIDATE_SIGNATURES`` environment variable instead.
    """
    global _validate_signatures
    _validate_signatures = bool(enabled)


class SignatureKey:
    """The evaluator's LRU cache key, with a precomputed hash.

    Content is the canonical mapping signature (core of every task in
    compiled index order), the mapping's core count and the scaling
    vector — exactly the tuple key the PR-3-era cache used.  The hash,
    however, is carried in: full builds derive it from the compiled
    view's Zobrist tables (:meth:`CompiledTaskGraph.signature_hash`)
    and the search inner loop maintains it under single-move deltas
    (:class:`SignatureTracker`), so an LRU probe for a neighbour no
    longer pays an O(N) signature walk + tuple hash.  Equality is by
    content (tuple compares at C speed), reached only on hash-bucket
    matches.
    """

    __slots__ = ("signature", "num_cores", "scaling", "hash_value")

    def __init__(
        self,
        signature: Tuple[int, ...],
        num_cores: int,
        scaling: Tuple[int, ...],
        signature_hash: int,
    ) -> None:
        self.signature = signature
        self.num_cores = num_cores
        self.scaling = scaling
        # One small-tuple hash folds the scaling/core-count identity
        # into the maintained signature hash; every construction site
        # (full build or incremental) goes through here, so the mix is
        # consistent by design.
        self.hash_value = hash((signature_hash, num_cores, scaling))

    def __hash__(self) -> int:
        return self.hash_value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignatureKey):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.num_cores == other.num_cores
            and self.scaling == other.scaling
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SignatureKey(tasks={len(self.signature)}, "
            f"cores={self.num_cores}, scaling={self.scaling})"
        )


class SignatureTracker:
    """Incrementally maintained cache signature for a search walk.

    Holds the canonical signature of the walk's *current* mapping as a
    tuple plus its Zobrist hash, both updated in O(1)/O(popcount) under
    single-move and swap deltas: :meth:`preview_move` /
    :meth:`preview_swap` return the neighbour's ``(signature, hash)``
    without touching the anchor (the tuple rebuild is one C-level
    slice-copy; the hash is two/four XORs), :meth:`commit` adopts a
    previewed neighbour on acceptance, and :meth:`rebuild` is the full
    recompute fallback (re-anchoring on an arbitrary mapping, e.g.
    intensification pulling the walk back to the best point).

    With validation armed (``REPRO_VALIDATE_SIGNATURES=1``) every
    commit re-derives the hash from scratch and asserts parity with
    :meth:`CompiledTaskGraph.signature_hash`.
    """

    __slots__ = (
        "_compiled",
        "_table",
        "_num_cores",
        "signature",
        "signature_hash",
        "rebuilds",
    )

    def __init__(
        self,
        compiled,
        signature: Sequence[int],
        num_cores: int,
        signature_hash: Optional[int] = None,
    ) -> None:
        self._compiled = compiled
        self._table = compiled.signature_table(num_cores)
        self._num_cores = num_cores
        self.signature: Tuple[int, ...] = tuple(signature)
        if len(self.signature) != compiled.num_tasks:
            raise ValueError(
                f"signature has {len(self.signature)} entries for "
                f"{compiled.num_tasks} tasks"
            )
        if signature_hash is None:
            signature_hash = compiled.signature_hash(self.signature, num_cores)
        self.signature_hash: int = signature_hash
        self.rebuilds = 0  # full-recompute fallbacks taken

    def preview_move(self, task: int, core: int) -> Tuple[Tuple[int, ...], int]:
        """(signature, hash) of the neighbour moving ``task`` to ``core``."""
        signature = self.signature
        row = self._table[task]
        new_hash = self.signature_hash ^ row[signature[task]] ^ row[core]
        new_signature = signature[:task] + (core,) + signature[task + 1 :]
        return new_signature, new_hash

    def preview_swap(self, task_a: int, task_b: int) -> Tuple[Tuple[int, ...], int]:
        """(signature, hash) of the neighbour exchanging two tasks' cores."""
        signature = self.signature
        core_a, core_b = signature[task_a], signature[task_b]
        row_a, row_b = self._table[task_a], self._table[task_b]
        new_hash = (
            self.signature_hash
            ^ row_a[core_a]
            ^ row_a[core_b]
            ^ row_b[core_b]
            ^ row_b[core_a]
        )
        entries = list(signature)
        entries[task_a] = core_b
        entries[task_b] = core_a
        return tuple(entries), new_hash

    def commit(self, signature: Tuple[int, ...], signature_hash: int) -> None:
        """Adopt a previewed neighbour as the new anchor."""
        if _validate_signatures:
            expected = self._compiled.signature_hash(signature, self._num_cores)
            assert signature_hash == expected, (
                "incremental signature hash diverged from the rebuild path: "
                f"{signature_hash} != {expected}"
            )
        self.signature = signature
        self.signature_hash = signature_hash

    def rebuild(self, signature: Sequence[int]) -> None:
        """Re-anchor on an arbitrary signature (full O(N) recompute)."""
        self.signature = tuple(signature)
        if len(self.signature) != self._compiled.num_tasks:
            raise ValueError(
                f"signature has {len(self.signature)} entries for "
                f"{self._compiled.num_tasks} tasks"
            )
        self.signature_hash = self._compiled.signature_hash(
            self.signature, self._num_cores
        )
        self.rebuilds += 1


# ---------------------------------------------------------------------------
# Design points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignPoint:
    """A fully evaluated (mapping, scaling) design.

    All of Table II's columns are here: the mapping, the per-core
    scaling coefficients, power ``P`` (mW), register usage ``R``
    (bits), multiprocessor execution time ``T_M`` (seconds and
    nominal-clock cycles) and expected SEUs ``Gamma``.  The list
    schedule behind the metrics is not kept; build it on demand with
    :meth:`MappingEvaluator.schedule_of`.
    """

    mapping: Mapping
    scaling: Tuple[int, ...]
    power_mw: float
    register_bits_per_core: Tuple[int, ...]
    register_bits_total: int
    execution_cycles_per_core: Tuple[int, ...]
    makespan_s: float
    makespan_cycles: int
    expected_seus: float
    activities: Tuple[float, ...]
    meets_deadline: Optional[bool] = None

    @classmethod
    def _trusted(cls, **fields: object) -> "DesignPoint":
        """Build from a complete field set, skipping the frozen
        ``__init__``'s per-field ``object.__setattr__`` calls (the
        evaluator's miss path; a third of the assembly cost)."""
        point = object.__new__(cls)
        point.__dict__.update(fields)
        return point

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Points pickled while DesignPoint still carried a ``schedule``
        # field (older mid-cell checkpoints) load without it.
        self.__dict__.update(state)
        self.__dict__.pop("schedule", None)

    @property
    def register_kbits_total(self) -> float:
        """R in kbits (1 kbit = 1000 bits), the paper's reporting unit."""
        return self.register_bits_total / 1000.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        deadline = (
            ""
            if self.meets_deadline is None
            else f", deadline {'met' if self.meets_deadline else 'MISSED'}"
        )
        return (
            f"P={self.power_mw:.2f}mW R={self.register_kbits_total:.1f}kb "
            f"T_M={self.makespan_s * 1e3:.1f}ms Gamma={self.expected_seus:.3e} "
            f"s={self.scaling}{deadline}"
        )


class _PendingPoint:
    """A placeholder occupying a cache slot during one batched call.

    :meth:`MappingEvaluator.evaluate_batch` replays the loop path's
    exact cache-operation sequence before the vectorized evaluation
    runs; placeholders hold the LRU positions in the meantime and are
    swapped for the real :class:`DesignPoint` in place.  They never
    escape a single ``evaluate_batch`` call.
    """

    __slots__ = ("mapping", "signature", "point")

    def __init__(self, mapping: Mapping, signature: Tuple[int, ...]) -> None:
        self.mapping = mapping
        self.signature = signature
        self.point: Optional[DesignPoint] = None


class MappingEvaluator:
    """Evaluates mappings into :class:`DesignPoint` values.

    Parameters
    ----------
    graph:
        Application task graph.
    platform:
        MPSoC platform (supplies scaling table and capacitance).
    ser_model:
        Voltage-dependent soft error rate; defaults to the paper's
        1e-9/bit/cycle nominal model.
    power_model:
        Dynamic power model; defaults to the platform's capacitance.
    deadline_s:
        Optional real-time constraint ``T_Mref``; when set, design
        points carry ``meets_deadline``.
    cache_size:
        Maximum number of cached evaluations (0 disables caching).
        Eviction is true LRU, keyed by a canonical mapping signature
        (the core of every task in compiled index order) plus the
        scaling vector; ``cache_hits`` / ``cache_misses`` count the
        traffic.
    comm_model:
        Scheduler communication model, ``"dedicated"`` (the paper's
        platform, default) or ``"shared-bus"`` (see
        :class:`~repro.sched.list_scheduler.ListScheduler`).
    """

    def __init__(
        self,
        graph: TaskGraph,
        platform: MPSoC,
        ser_model: Optional[SERModel] = None,
        power_model: Optional[PowerModel] = None,
        deadline_s: Optional[float] = None,
        cache_size: int = 4096,
        comm_model: str = "dedicated",
    ) -> None:
        graph.validate()
        self.graph = graph
        self.platform = platform
        self.ser_model = ser_model or SERModel()
        if power_model is None:
            # Heterogeneous platforms fall back to each core's own spec
            # capacitance; homogeneous ones pin the shared value (the
            # seed construction, same float everywhere).
            power_model = (
                PowerModel()
                if platform.is_heterogeneous
                else PowerModel(platform.core_spec.switched_capacitance_f)
            )
        self.power_model = power_model
        self.deadline_s = deadline_s
        self.comm_model = comm_model
        self._cache: "OrderedDict[SignatureKey, DesignPoint]" = OrderedDict()
        self._cache_size = max(cache_size, 0)
        self.evaluations = 0  # total evaluate() calls, cache hits included
        self.cache_hits = 0
        self.cache_misses = 0
        # Per-scaling memos: (frequencies, voltages, rates) and the
        # ListScheduler built for them.  A search sweep revisits the
        # same handful of scaling vectors hundreds of thousands of
        # times; rebuilding the scheduler (and its bottom-level
        # priority templates) each call was pure waste.
        self._operating_points: Dict[
            Tuple[int, ...], Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[float, ...]]
        ] = {}
        self._schedulers: Dict[Tuple[int, ...], ListScheduler] = {}
        self._batched_schedulers: Dict[Tuple[int, ...], BatchedListScheduler] = {}
        # Per-scaling metric-assembly invariants: (frequencies, rates,
        # fastest frequency, Eq. (5) power terms).
        self._assembly_memo: Dict[Tuple[int, ...], tuple] = {}
        self._scaling_memo: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        # Per-core cycle-scale factors for heterogeneous platforms;
        # None keeps every scheduler on the base-cycle seed path.
        self._cycle_scales = (
            None if platform.uniform_unit_cycles else platform.cycle_scales()
        )
        self._compiled = graph.compiled()

    def _sync_compiled(self):
        """Refresh graph-derived memos if the graph mutated.

        The scheduler memo and the design-point cache both snapshot
        graph structure; a mutation (new task/edge/registers) renews
        the graph's compiled view, and stale entries would silently
        return wrong results.
        """
        compiled = self.graph.compiled()
        if compiled is not self._compiled:
            self._compiled = compiled
            self._schedulers.clear()
            self._batched_schedulers.clear()
            self._cache.clear()
        return compiled

    # -- main entry point -----------------------------------------------------

    def _resolve_scaling(self, scaling: Optional[Sequence[int]]) -> Tuple[int, ...]:
        """Validate a scaling vector (``None`` means the platform's).

        Memoized per distinct input — search loops resolve the same
        handful of vectors hundreds of thousands of times.
        """
        if scaling is None:
            return self.platform.scaling_vector()
        key = tuple(scaling)
        cached = self._scaling_memo.get(key)
        if cached is not None:
            return cached
        scaling_vector = self.platform.validate_assignment(key)
        if len(scaling_vector) != self.platform.num_cores:
            raise ValueError(
                f"scaling vector has {len(scaling_vector)} entries for "
                f"{self.platform.num_cores} cores"
            )
        self._scaling_memo[key] = scaling_vector
        return scaling_vector

    def _cache_key(
        self, compiled, mapping: Mapping, scaling: Tuple[int, ...]
    ) -> SignatureKey:
        # num_cores is part of the key: two mappings with the same
        # per-task assignment but different platform widths must
        # not alias (the narrower one may be valid, the wider not).
        signature, sig_hash = mapping.signature_info(compiled)
        return SignatureKey(signature, mapping.num_cores, scaling, sig_hash)

    def _cache_lookup(self, key) -> Optional[DesignPoint]:
        """LRU get: counts the hit and refreshes recency on success."""
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            self._cache.move_to_end(key)
        return cached

    def _cache_store(self, key, point: DesignPoint) -> None:
        """LRU put: inserts and evicts the oldest entry past capacity."""
        self._cache[key] = point
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)  # true LRU: evict the oldest

    def evaluate(
        self, mapping: Mapping, scaling: Optional[Sequence[int]] = None
    ) -> DesignPoint:
        """Evaluate a mapping under a scaling vector (defaults to platform's).

        A miss runs the scheduler's static-order kernel
        (:meth:`ListScheduler.timings`) and assembles the metrics from
        its arrays; no :class:`Schedule` is built.  Call
        :meth:`schedule_of` on the returned point when the timeline
        itself is needed.
        """
        scaling_vector = self._resolve_scaling(scaling)
        self.evaluations += 1
        compiled = self._sync_compiled()
        if self._cache_size:
            key = self._cache_key(compiled, mapping, scaling_vector)
            cached = self._cache_lookup(key)
            if cached is not None:
                return cached
        self.cache_misses += 1
        point = self._evaluate_uncached(mapping, scaling_vector)
        if self._cache_size:
            self._cache_store(key, point)
        return point

    def evaluate_signature(
        self,
        signature: Tuple[int, ...],
        scaling: Optional[Sequence[int]] = None,
        signature_hash: Optional[int] = None,
        num_cores: Optional[int] = None,
        template: Optional[Mapping] = None,
    ) -> DesignPoint:
        """Evaluate a canonical mapping signature — :meth:`evaluate`'s twin.

        The search inner loop carries ``(signature, hash)`` pairs
        maintained by a :class:`SignatureTracker` instead of
        materialized :class:`Mapping` objects; this entry point probes
        the same LRU cache with the same key content (so the two paths
        interoperate hit-for-hit) without the per-neighbour O(N)
        signature walk.  A cache miss wraps the signature in a lazy
        :meth:`Mapping.from_signature` mapping for the
        :class:`DesignPoint` — its assignment dict is only built if
        something reads it — with ``template`` supplying the task
        insertion order so rendered artifacts match the Mapping-based
        walk's byte for byte.
        Counters (``evaluations``/``cache_hits``/``cache_misses``), LRU
        traffic and the schedule-free miss path are exactly
        :meth:`evaluate`'s.

        Parameters
        ----------
        signature:
            Core of every task, in compiled index order.
        scaling:
            Scaling vector (``None`` means the platform's).
        signature_hash:
            The signature's :meth:`CompiledTaskGraph.signature_hash`;
            derived from scratch when omitted.
        num_cores:
            Core count the signature targets (the platform's when
            omitted) — part of the cache key, exactly as
            ``mapping.num_cores`` is for :meth:`evaluate`.
        template:
            Optional mapping whose task insertion order materialized
            mappings reuse (typically the walk's initial mapping).
        """
        scaling_vector = self._resolve_scaling(scaling)
        self.evaluations += 1
        compiled = self._sync_compiled()
        signature = tuple(signature)
        if num_cores is None:
            num_cores = self.platform.num_cores
        if signature_hash is None:
            # Validate before hashing: Python's negative indexing would
            # otherwise wrap a bad entry into a silently-valid table
            # lookup.  Hot callers always supply the hash, so this O(N)
            # scan only runs on the cold path.
            bad = next(
                (c for c in signature if not 0 <= c < num_cores), None
            )
            if bad is not None:
                raise ValueError(
                    f"core index {bad} outside 0..{num_cores - 1}"
                )
            signature_hash = compiled.signature_hash(signature, num_cores)
        key: Optional[SignatureKey] = None
        if self._cache_size:
            key = SignatureKey(signature, num_cores, scaling_vector, signature_hash)
            cached = self._cache_lookup(key)
            if cached is not None:
                return cached
        self.cache_misses += 1
        mapping = Mapping.from_signature(
            compiled.names, signature, num_cores, template=template
        )
        # Seed the new mapping's signature memo — the signature is in
        # hand, and the evaluation body re-reads it.
        mapping._sig_memo = (compiled, signature, signature_hash)
        point = self._evaluate_uncached(mapping, scaling_vector)
        if key is not None:
            self._cache_store(key, point)
        return point

    def evaluate_batch(
        self,
        mappings: Sequence[Mapping],
        scaling: Optional[Sequence[int]] = None,
    ) -> List[DesignPoint]:
        """Evaluate many mappings under one scaling vector, vectorized.

        Returns one :class:`DesignPoint` per mapping, in input order,
        with results, cache contents and the ``evaluations`` /
        ``cache_hits`` / ``cache_misses`` counters exactly as if
        :meth:`evaluate` had been called per mapping.  Internally the
        whole batch of cache misses is list-scheduled in **one**
        numpy pass through :class:`~repro.sched.batched.
        BatchedListScheduler` — bit-identical metrics (same IEEE-754
        operations, see the module docstring there), several times
        faster than the per-mapping loop, which survives as
        :meth:`evaluate_batch_reference` for parity testing.  Points are
        assembled by the
        same function as :meth:`evaluate`'s; :meth:`schedule_of` builds
        a point's schedule on demand.
        """
        scaling_vector = self._resolve_scaling(scaling)
        compiled = self._sync_compiled()
        mappings = list(mappings)
        if not mappings:
            return []
        batched = self.batched_scheduler_for(scaling_vector)
        num_cores = self.platform.num_cores
        cache_size = self._cache_size
        # Phase 1 — replay the per-call cache sequence (lookups, hit
        # counting, LRU stores and evictions) with placeholder points,
        # so cache state and counters end up exactly as a loop of
        # evaluate() calls would leave them; only the evaluation work
        # itself is deferred to one vectorized shot.
        pending: "OrderedDict[Tuple[int, ...], _PendingPoint]" = OrderedDict()
        slots: List[object] = []
        stored: List[Tuple[object, "_PendingPoint"]] = []
        try:
            for mapping in mappings:
                self.evaluations += 1
                if cache_size:
                    key = self._cache_key(compiled, mapping, scaling_vector)
                    cached = self._cache_lookup(key)
                    if cached is not None:
                        slots.append(cached)
                        continue
                    signature = key.signature
                    self.cache_misses += 1
                else:
                    self.cache_misses += 1
                    signature = compiled.signature(mapping)
                if mapping.num_cores != num_cores:
                    raise ValueError(
                        f"mapping targets {mapping.num_cores} cores, scheduler "
                        f"has {num_cores}"
                    )
                placeholder = pending.get(signature)
                if placeholder is None:
                    placeholder = _PendingPoint(mapping, signature)
                    pending[signature] = placeholder
                if cache_size:
                    self._cache_store(key, placeholder)
                    stored.append((key, placeholder))
                slots.append(placeholder)
            # Phase 2 — one vectorized scheduling pass over the misses.
            if pending:
                self._evaluate_pending(pending, scaling_vector, batched)
        except Exception:
            # Leave no placeholder behind: the cache must only ever
            # hand out real design points.
            for key, placeholder in stored:
                if self._cache.get(key) is placeholder:
                    del self._cache[key]
            raise
        # Phase 3 — swap computed points in under their keys without
        # touching LRU order (in-place assignment preserves position).
        for key, placeholder in stored:
            if self._cache.get(key) is placeholder:
                self._cache[key] = placeholder.point
        return [
            slot.point if isinstance(slot, _PendingPoint) else slot
            for slot in slots
        ]

    def _evaluate_pending(
        self,
        pending: "OrderedDict[Tuple[int, ...], _PendingPoint]",
        scaling: Tuple[int, ...],
        batched: BatchedListScheduler,
    ) -> None:
        """Schedule all pending signatures in one shot and build points.

        Rows go through :meth:`_design_point`, the scalar path's
        metric assembly, so batched points are bit-identical to the
        loop path's.
        """
        compiled = self._compiled
        num_cores = self.platform.num_cores
        result = batched.run(list(pending.keys()))
        # One bulk conversion to Python scalars for the whole batch —
        # exact, and far cheaper than per-row numpy scalar reads.
        makespans = result.makespans.tolist()
        busy_s_rows = result.busy_s.tolist()
        busy_cycles_rows = result.busy_cycles.tolist()
        # Per-core register unions vectorize when every mask fits an
        # int64 lane (<= 63 distinct registers); the bitwise ORs are
        # the same ones core_masks performs, in any order.
        mask_rows = None
        if 0 < len(compiled.registers) <= 63:
            task_masks = np.asarray(
                compiled.task_register_masks, dtype=np.int64
            )
            cores_array = result.cores
            mask_rows = np.stack(
                [
                    np.bitwise_or.reduce(
                        np.where(cores_array == core, task_masks, 0), axis=1
                    )
                    for core in range(num_cores)
                ],
                axis=1,
            ).tolist()
        for row, placeholder in enumerate(pending.values()):
            if mask_rows is not None:
                core_masks = mask_rows[row]
            else:
                core_masks = compiled.core_masks(placeholder.signature, num_cores)
            placeholder.point = self._design_point(
                placeholder.mapping,
                scaling,
                makespans[row],
                busy_s_rows[row],
                busy_cycles_rows[row],
                core_masks,
            )

    def evaluate_batch_reference(
        self, mappings: Sequence[Mapping], scaling: Optional[Sequence[int]] = None
    ) -> List[DesignPoint]:
        """The per-mapping loop path (one compiled evaluation per entry).

        Behaviourally identical to calling :meth:`evaluate` in a loop
        (results, cache traffic and counters), with the per-call fixed
        costs amortized.  Kept as the behavioural reference for the
        vectorized :meth:`evaluate_batch` — the parity suite asserts
        bit-identical points and counter parity between the two.
        """
        scaling_vector = self._resolve_scaling(scaling)
        compiled = self._sync_compiled()
        scheduler = self.scheduler_for(scaling_vector)
        cache_size = self._cache_size
        points: List[DesignPoint] = []
        for mapping in mappings:
            self.evaluations += 1
            if cache_size:
                key = self._cache_key(compiled, mapping, scaling_vector)
                cached = self._cache_lookup(key)
                if cached is not None:
                    points.append(cached)
                    continue
            self.cache_misses += 1
            point = self._evaluate_with(mapping, scaling_vector, scheduler)
            if cache_size:
                self._cache_store(key, point)
            points.append(point)
        return points

    def _operating_point(
        self, scaling: Tuple[int, ...]
    ) -> Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[float, ...]]:
        """Memoized (frequencies, voltages, lambda rates) for a scaling."""
        cached = self._operating_points.get(scaling)
        if cached is None:
            # Per-core tables: one shared object on homogeneous
            # platforms, so the floats are exactly the seed path's.
            tables = self.platform.core_tables
            frequencies = tuple(
                table.frequency_hz(coefficient)
                for table, coefficient in zip(tables, scaling)
            )
            voltages = tuple(
                table.vdd_v(coefficient)
                for table, coefficient in zip(tables, scaling)
            )
            rates = tuple(self.ser_model.rate(vdd) for vdd in voltages)
            cached = (frequencies, voltages, rates)
            self._operating_points[scaling] = cached
        return cached

    def scheduler_for(self, scaling: Tuple[int, ...]) -> ListScheduler:
        """The (memoized) list scheduler for one scaling vector."""
        self._sync_compiled()
        scheduler = self._schedulers.get(scaling)
        if scheduler is None:
            frequencies, _, _ = self._operating_point(scaling)
            scheduler = ListScheduler(
                self.graph,
                frequencies,
                comm_model=self.comm_model,
                cycle_scales=self._cycle_scales,
            )
            self._schedulers[scaling] = scheduler
        return scheduler

    def _assembly_terms(self, scaling: Tuple[int, ...]) -> tuple:
        """Memoized per-scaling invariants of :meth:`_design_point`."""
        terms = self._assembly_memo.get(scaling)
        if terms is None:
            frequencies, _, rates = self._operating_point(scaling)
            terms = (
                frequencies,
                rates,
                max(frequencies),
                self.power_model.platform_terms(self.platform, scaling),
            )
            self._assembly_memo[scaling] = terms
        return terms

    def batched_scheduler_for(self, scaling: Tuple[int, ...]) -> BatchedListScheduler:
        """The (memoized) vectorized batch scheduler for one scaling."""
        self._sync_compiled()
        batched = self._batched_schedulers.get(scaling)
        if batched is None:
            frequencies, _, _ = self._operating_point(scaling)
            batched = BatchedListScheduler(
                self.graph,
                frequencies,
                comm_model=self.comm_model,
                cycle_scales=self._cycle_scales,
            )
            self._batched_schedulers[scaling] = batched
        return batched

    def schedule_of(self, point: DesignPoint) -> Schedule:
        """The full list schedule behind ``point``, built on demand.

        Design points carry metrics only; consumers of the timeline
        (recovery slack, Gantt rendering) call this.  The schedule's
        makespan and busy sums are bit-identical to the ones the
        point's metrics were assembled from.
        """
        return self.scheduler_for(point.scaling).schedule(point.mapping)

    def _evaluate_uncached(
        self, mapping: Mapping, scaling: Tuple[int, ...]
    ) -> DesignPoint:
        return self._evaluate_with(mapping, scaling, self.scheduler_for(scaling))

    def _evaluate_with(
        self, mapping: Mapping, scaling: Tuple[int, ...], scheduler: ListScheduler
    ) -> DesignPoint:
        """The scalar miss path: static-order timings, then assembly."""
        compiled = self._compiled
        cores, _ = mapping.signature_info(compiled)  # validates coverage
        num_cores = self.platform.num_cores
        if mapping.num_cores != num_cores:
            raise ValueError(
                f"mapping targets {mapping.num_cores} cores, scheduler has "
                f"{num_cores}"
            )
        makespan_s, busy_s, busy_cycles = scheduler.timings(cores)
        return self._design_point(
            mapping,
            scaling,
            makespan_s,
            busy_s,
            busy_cycles,
            compiled.core_masks(cores, num_cores),
        )

    def _design_point(
        self,
        mapping: Mapping,
        scaling: Tuple[int, ...],
        makespan_s: float,
        busy_s: Sequence[float],
        busy_cycles: Sequence[int],
        core_masks: Sequence[int],
    ) -> DesignPoint:
        """Assemble a :class:`DesignPoint` from scheduling arrays.

        The one metric-assembly body of the scalar and batched paths.
        Its float operations replay :meth:`evaluate_reference`'s
        (``Schedule.activities``, :func:`expected_seus`, Eq. (5) power)
        exactly.  With ``REPRO_VALIDATE_SCHEDULES`` armed, the full
        :class:`Schedule` is built as well and must agree exactly.
        """
        frequencies, rates, max_frequency, power_terms = self._assembly_terms(scaling)
        makespan_cycles = int(round(makespan_s * max_frequency))
        if from_arrays_validation_enabled():
            _check_against_schedule(
                self.scheduler_for(scaling).schedule(mapping),
                makespan_s,
                list(busy_s),
                list(busy_cycles),
                makespan_cycles,
            )
        if makespan_s > 0.0:
            activities = tuple([min(busy / makespan_s, 1.0) for busy in busy_s])
        else:
            activities = (0.0,) * len(busy_s)
        mask_bits = self._compiled.mask_bits
        register_bits = tuple([mask_bits(mask) for mask in core_masks])
        # Eq. (3) under full-window exposure in each core's own cycles
        # (see module docstring): registers stay live from start to T_M.
        gamma = sum(
            [
                bits * (makespan_s * frequency) * rate if bits else 0.0
                for bits, frequency, rate in zip(register_bits, frequencies, rates)
            ]
        )
        power_mw = self.power_model.platform_power_mw_from_terms(
            power_terms, activities
        )
        meets = None
        if self.deadline_s is not None:
            meets = makespan_s <= self.deadline_s + 1e-12
        return DesignPoint._trusted(
            mapping=mapping,
            scaling=scaling,
            power_mw=power_mw,
            register_bits_per_core=register_bits,
            register_bits_total=sum(register_bits),
            execution_cycles_per_core=tuple(busy_cycles),
            makespan_s=makespan_s,
            makespan_cycles=makespan_cycles,
            expected_seus=gamma,
            activities=activities,
            meets_deadline=meets,
        )

    def evaluate_reference(
        self, mapping: Mapping, scaling: Optional[Sequence[int]] = None
    ) -> DesignPoint:
        """The original (seed) evaluation path, uncached and uncompiled.

        Schedules with :meth:`ListScheduler.schedule_reference` and
        computes register bits through a fresh :class:`RegisterMap` —
        exactly the seed implementation.  The parity suite asserts
        :meth:`evaluate` reproduces every field bit-for-bit.
        """
        if scaling is None:
            scaling = self.platform.scaling_vector()
        scaling = self.platform.validate_assignment(scaling)
        graph, platform = self.graph, self.platform
        mapping.validate_against(graph)
        tables = platform.core_tables
        frequencies = [
            table.frequency_hz(coefficient)
            for table, coefficient in zip(tables, scaling)
        ]
        voltages = [
            table.vdd_v(coefficient)
            for table, coefficient in zip(tables, scaling)
        ]

        scheduler = ListScheduler(
            graph,
            frequencies,
            comm_model=self.comm_model,
            cycle_scales=self._cycle_scales,
        )
        schedule = scheduler.schedule_reference(mapping)
        makespan_s = schedule.makespan_s()
        activities = schedule.activities()

        register_bits = per_core_register_bits(graph, mapping)
        execution_cycles = tuple(
            schedule.busy_cycles(core) for core in range(platform.num_cores)
        )
        exposure_cycles = tuple(
            makespan_s * frequency if bits else 0.0
            for frequency, bits in zip(frequencies, register_bits)
        )
        rates = [self.ser_model.rate(vdd) for vdd in voltages]
        gamma = expected_seus(register_bits, exposure_cycles, rates)

        power_mw = self.power_model.platform_power_mw(
            platform, scaling=scaling, activities=activities
        )
        meets = None
        if self.deadline_s is not None:
            meets = makespan_s <= self.deadline_s + 1e-12

        return DesignPoint(
            mapping=mapping,
            scaling=scaling,
            power_mw=power_mw,
            register_bits_per_core=register_bits,
            register_bits_total=sum(register_bits),
            execution_cycles_per_core=execution_cycles,
            makespan_s=makespan_s,
            makespan_cycles=schedule.makespan_cycles(),
            expected_seus=gamma,
            activities=activities,
            meets_deadline=meets,
        )

    # -- cache control ----------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop all cached design points (the hit/miss counters persist)."""
        self._cache.clear()

    @property
    def cache_entries(self) -> int:
        """Number of cached design points."""
        return len(self._cache)

    @property
    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters, ``functools.lru_cache`` style."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "entries": len(self._cache),
            "max_size": self._cache_size,
        }
