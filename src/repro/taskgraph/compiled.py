"""Compiled, integer-indexed view of a :class:`~repro.taskgraph.graph.TaskGraph`.

The evaluation hot path (list scheduling, Eq. 3-8 metrics, mapping
search) historically walked the graph through its string-keyed dicts:
``task_names()`` tuples, per-call ``predecessors()`` allocations and a
fresh ``RegisterMap`` per evaluation.  A :class:`CompiledTaskGraph`
lowers the graph once into contiguous arrays:

* ``names`` / ``index`` — the task name <-> dense integer id bijection
  (insertion order, matching ``task_names()``);
* ``cycles`` — per-task computation cost;
* CSR-style adjacency — ``pred_ptr``/``pred_idx``/``pred_comm`` and
  ``succ_ptr``/``succ_idx``/``succ_comm``, preserving the graph's edge
  insertion order so schedules that depend on iteration order (the
  shared-bus serialization) are bit-for-bit reproducible;
* ``bottom_levels`` — the list-scheduling priorities, precomputed once
  instead of per :class:`~repro.sched.list_scheduler.ListScheduler`;
* ``schedule_order`` / ``schedule_steps`` — the list scheduler's static
  pop order and, per step, the ``(producer, comm)`` pairs of the
  task's incoming edges in insertion order (the one loop both
  schedulers walk, see :mod:`repro.sched.list_scheduler`);
* per-task register-set **bitmasks** — every distinct register gets one
  bit, so the Eq. (8) union over a core's tasks is a bitwise OR;
* register-width **bit planes** — the bit-cardinality query is a
  weighted popcount: with every width divided by their gcd ``g``,
  plane ``k`` marks the registers whose reduced width has bit ``k``
  set, and ``R(mask) = g * sum((mask & plane_k).bit_count() << k)``.
  Exact integer arithmetic, with a cost set by the number of planes
  (at most the bit length of the widest reduced width), not by the
  number of registers in the mask.

The view is immutable and cached on the graph (see
:meth:`~repro.taskgraph.graph.TaskGraph.compiled`); any graph mutation
invalidates the cache.  All values are plain Python ints/floats — no
third-party array dependency — which keeps the view picklable for the
process transport.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
from functools import reduce
from typing import Dict, List, Sequence, Tuple

from repro.taskgraph.registers import Register

#: Seed base for the per-graph signature hash tables.  The tables only
#: have to be deterministic per (graph shape, core count) so that the
#: same signature always hashes identically within a process *and*
#: across the process transport's workers; the constant itself
#: is arbitrary.
_SIGNATURE_SEED = 0x5EA7C0DE


class CompiledTaskGraph:
    """Immutable indexed arrays for one :class:`TaskGraph` snapshot.

    Build via :meth:`TaskGraph.compiled` (cached) rather than directly;
    construction walks the whole graph once.
    """

    __slots__ = (
        "graph_name",
        "num_tasks",
        "names",
        "index",
        "cycles",
        "pred_ptr",
        "pred_idx",
        "pred_comm",
        "succ_ptr",
        "succ_idx",
        "succ_comm",
        "topo_order",
        "bottom_levels",
        "schedule_order",
        "schedule_steps",
        "entry_indices",
        "exit_indices",
        "registers",
        "register_bits",
        "task_register_masks",
        "register_unit",
        "register_planes",
        "total_cycles",
        "critical_path_cycles",
        "_signature_tables",
        "_scaled_cycles_cache",
    )

    def __init__(self, graph) -> None:
        graph.validate()
        self.graph_name: str = graph.name
        names: Tuple[str, ...] = graph.task_names()
        self.names = names
        n = len(names)
        self.num_tasks = n
        index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        self.index = index
        self.cycles: Tuple[int, ...] = tuple(graph.task(name).cycles for name in names)
        self.total_cycles = sum(self.cycles)

        # -- CSR adjacency (edge insertion order preserved) ------------------
        pred_ptr: List[int] = [0]
        pred_idx: List[int] = []
        pred_comm: List[int] = []
        succ_ptr: List[int] = [0]
        succ_idx: List[int] = []
        succ_comm: List[int] = []
        for name in names:
            for producer in graph.predecessors(name):
                pred_idx.append(index[producer])
                pred_comm.append(graph.comm_cycles(producer, name))
            pred_ptr.append(len(pred_idx))
        for name in names:
            for consumer in graph.successors(name):
                succ_idx.append(index[consumer])
                succ_comm.append(graph.comm_cycles(name, consumer))
            succ_ptr.append(len(succ_idx))
        self.pred_ptr = tuple(pred_ptr)
        self.pred_idx = tuple(pred_idx)
        self.pred_comm = tuple(pred_comm)
        self.succ_ptr = tuple(succ_ptr)
        self.succ_idx = tuple(succ_idx)
        self.succ_comm = tuple(succ_comm)

        self.topo_order: Tuple[int, ...] = tuple(
            index[name] for name in graph.topological_order()
        )
        self.entry_indices: Tuple[int, ...] = tuple(
            i for i in range(n) if pred_ptr[i] == pred_ptr[i + 1]
        )
        self.exit_indices: Tuple[int, ...] = tuple(
            i for i in range(n) if succ_ptr[i] == succ_ptr[i + 1]
        )

        # -- list-scheduling priorities (identical ints to bottom_levels()) --
        levels = [0] * n
        for i in reversed(self.topo_order):
            best_tail = 0
            for e in range(succ_ptr[i], succ_ptr[i + 1]):
                tail = succ_comm[e] + levels[succ_idx[e]]
                if tail > best_tail:
                    best_tail = tail
            levels[i] = self.cycles[i] + best_tail
        self.bottom_levels: Tuple[int, ...] = tuple(levels)
        self.critical_path_cycles = max(
            (levels[i] for i in self.entry_indices), default=0
        )

        # -- static list-scheduling order -----------------------------------
        # The ready heap is keyed on (-bottom_level, name) and readiness
        # only counts scheduled predecessors, so the pop order is the
        # same for every mapping: walk the heap once, here.
        in_degree = [pred_ptr[i + 1] - pred_ptr[i] for i in range(n)]
        ready = [(-levels[i], names[i], i) for i in self.entry_indices]
        heapq.heapify(ready)
        steps = []
        while ready:
            i = heapq.heappop(ready)[2]
            begin, end = pred_ptr[i], pred_ptr[i + 1]
            steps.append((i, tuple(zip(pred_idx[begin:end], pred_comm[begin:end]))))
            for successor in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    heapq.heappush(
                        ready, (-levels[successor], names[successor], successor)
                    )
        if len(steps) != n:
            raise ValueError("scheduling incomplete: graph contains a cycle")
        self.schedule_steps = tuple(steps)
        self.schedule_order: Tuple[int, ...] = tuple(i for i, _ in steps)

        # -- register bitmasks ----------------------------------------------
        # Distinct registers get stable bit positions (sorted by name/bits,
        # the Register dataclass ordering) so masks are deterministic for a
        # given graph regardless of task insertion order.
        all_registers = set()
        per_task = []
        for name in names:
            regs = graph.registers_of(name)
            per_task.append(regs)
            all_registers.update(regs)
        ordered: Tuple[Register, ...] = tuple(sorted(all_registers))
        self.registers = ordered
        self.register_bits: Tuple[int, ...] = tuple(r.bits for r in ordered)
        position = {register: bit for bit, register in enumerate(ordered)}
        masks: List[int] = []
        for regs in per_task:
            mask = 0
            for register in regs:
                mask |= 1 << position[register]
            masks.append(mask)
        self.task_register_masks: Tuple[int, ...] = tuple(masks)

        # -- Eq. (8) bit planes ---------------------------------------------
        # Dividing by the gcd first drops the planes every width shares
        # (MPEG-2's multiples of 40 need 8 planes instead of 11).
        unit = reduce(math.gcd, self.register_bits, 0) or 1
        reduced = [bits // unit for bits in self.register_bits]
        planes: List[Tuple[int, int]] = []
        for k in range(max(reduced, default=0).bit_length()):
            plane = 0
            for position, width in enumerate(reduced):
                if width >> k & 1:
                    plane |= 1 << position
            if plane:
                planes.append((k, plane))
        self.register_unit: int = unit
        self.register_planes: Tuple[Tuple[int, int], ...] = tuple(planes)
        self._signature_tables: Dict[int, List[Tuple[int, ...]]] = {}
        self._scaled_cycles_cache: Dict[float, Tuple[int, ...]] = {}

    # -- queries -------------------------------------------------------------

    def cycles_for_scale(self, cycle_scale: float) -> Tuple[int, ...]:
        """Per-task cycle row for a core type scaling cycles by
        ``cycle_scale`` (``max(1, round(c * scale))`` per task).

        Scale ``1.0`` returns the base :attr:`cycles` tuple *object*
        itself — the identity that keeps single-type platforms on the
        seed path bit for bit.  Other scales are memoized per compiled
        view, so the per-(task, core-type) table costs one pass per
        type, not one per schedule.
        """
        if cycle_scale == 1.0:
            return self.cycles
        row = self._scaled_cycles_cache.get(cycle_scale)
        if row is None:
            if cycle_scale <= 0.0:
                raise ValueError(
                    f"cycle_scale must be positive, got {cycle_scale}"
                )
            row = tuple(
                max(1, round(c * cycle_scale)) for c in self.cycles
            )
            self._scaled_cycles_cache[cycle_scale] = row
        return row

    def cycles_for_cores(
        self, cycle_scales: Sequence[float]
    ) -> Tuple[Tuple[int, ...], ...]:
        """Per-core cycle rows (``rows[core][task]``) for per-core scale
        factors.  Cores sharing a scale share one row object."""
        return tuple(self.cycles_for_scale(scale) for scale in cycle_scales)

    def mask_bits(self, mask: int) -> int:
        """Bit-cardinality of a register mask: Eq. (8)'s ``R_i`` in bits.

        The bit-plane weighted popcount (see the module docstring):
        one ``bit_count`` per plane, whatever the mask's size.
        """
        total = 0
        for k, plane in self.register_planes:
            total += (mask & plane).bit_count() << k
        return self.register_unit * total

    def union_bits(self, task_indices: Sequence[int]) -> int:
        """``R_i`` for a core holding exactly ``task_indices``."""
        mask = 0
        task_masks = self.task_register_masks
        for i in task_indices:
            mask |= task_masks[i]
        return self.mask_bits(mask)

    def core_masks(self, cores: Sequence[int], num_cores: int) -> List[int]:
        """Per-core register-union masks for a dense core assignment."""
        masks = [0] * num_cores
        task_masks = self.task_register_masks
        for i, core in enumerate(cores):
            masks[core] |= task_masks[i]
        return masks

    def signature(self, mapping) -> Tuple[int, ...]:
        """Canonical cache key: the core of every task in index order.

        Raises ``ValueError`` (same wording as
        ``Mapping.validate_against``) when the mapping does not cover
        exactly this graph's tasks.
        """
        return tuple(mapping.core_index_list(self.names))

    def signature_table(self, num_cores: int) -> List[Tuple[int, ...]]:
        """Zobrist-style hash table for signatures over ``num_cores``.

        ``table[i][c]`` is a 62-bit value for "task *i* on core *c*";
        the hash of a signature is the XOR of its entries, which makes
        it exactly maintainable under single-move deltas
        (``h ^= table[i][old] ^ table[i][new]``) — the property the
        search inner loop's incremental cache keys rest on.  Built
        lazily per core count and cached; deterministic for a given
        (task count, core count), so hashes agree across processes.
        """
        table = self._signature_tables.get(num_cores)
        if table is None:
            rnd = random.Random(
                _SIGNATURE_SEED ^ (self.num_tasks * 0x9E3779B1) ^ num_cores
            )
            table = [
                tuple(rnd.getrandbits(62) for _ in range(num_cores))
                for _ in range(self.num_tasks)
            ]
            self._signature_tables[num_cores] = table
        return table

    def signature_hash(self, signature: Sequence[int], num_cores: int) -> int:
        """Full (rebuild-path) hash of a signature: XOR over its entries.

        The incremental maintainers (:class:`~repro.mapping.metrics.
        SignatureTracker`) must agree with this bit for bit — the
        signature-parity suite asserts it after arbitrary move/swap/
        rebuild sequences.
        """
        if len(signature) != self.num_tasks:
            raise ValueError(
                f"signature has {len(signature)} entries for "
                f"{self.num_tasks} tasks"
            )
        # C-level per-element work: map(getitem, table, signature)
        # yields table[i][signature[i]] without a Python-level loop.
        return reduce(
            operator.xor,
            map(operator.getitem, self.signature_table(num_cores), signature),
            0,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledTaskGraph({self.graph_name!r}, tasks={self.num_tasks}, "
            f"edges={len(self.pred_idx)}, registers={len(self.registers)})"
        )
