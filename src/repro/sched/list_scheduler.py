"""List scheduler for mapped task graphs.

Implements the list scheduling used in step A/D of the paper's
``OptimizedMapping`` (Fig. 7, following Izosimov et al. [8]):

1. Compute a static priority for every task — the *bottom level*
   (longest computation+communication path to an exit task).
2. Repeatedly pick the ready task (all predecessors scheduled) with
   the highest priority and place it on its mapped core at the
   earliest feasible time.

Timing model
------------
Cores run at per-core scaled frequencies.  Two communication models
are supported:

* ``"dedicated"`` (default, the paper's platform) — a task ``j``
  mapped on core ``i`` occupies the core for

      (t_j + sum of d_kj over cross-core incoming edges) / f_i  seconds

  i.e. the receive of each cross-core dependency executes on the
  consumer's clock, matching Eq. (7)'s accounting of dependency time
  in ``T_i``.
* ``"shared-bus"`` — cross-core transfers serialize on one global
  bus (clocked at the fastest core frequency by default).  Transfers
  occupy the bus, not the consumer core, so contention stretches the
  makespan of communication-heavy spread mappings — an architecture-
  exploration variant beyond the paper.

Same-core dependencies cost nothing in either model.  A task may start
once its core is free and every predecessor (and, on the bus model,
every incoming transfer) has finished.

Implementation
--------------
The pop order is mapping-independent (the ready heap is keyed on
``(-bottom_level, name)`` and readiness only counts scheduled
predecessors), so :class:`~repro.taskgraph.compiled.CompiledTaskGraph`
walks the heap once (``schedule_order``).  :class:`ListScheduler` runs
one loop over that static order — no heap, no in-degree bookkeeping —
filling per-task start/finish/receive arrays and per-core busy seconds
and cycles.  :meth:`ListScheduler.timings` returns just ``(makespan_s,
busy_s, busy_cycles)``, all the evaluator's metrics need;
:meth:`ListScheduler.schedule` builds a full
:class:`~repro.sched.schedule.Schedule` from the same arrays.  Busy
seconds accumulate ``finish - start`` in pop order, which per core is
the canonical order :class:`Schedule` sums in (a start tie on a core
forces a zero-length span, a float identity), so both agree bit for
bit.  The seed heap walk is kept as
:meth:`ListScheduler.schedule_reference` for the parity suites, and
:class:`~repro.sched.batched.BatchedListScheduler` schedules whole
batches through the same static order in one numpy pass.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.mpsoc import MPSoC
from repro.mapping.mapping import Mapping
from repro.sched.schedule import Schedule, ScheduledTask
from repro.taskgraph.graph import TaskGraph


class ListScheduler:
    """Bottom-level list scheduler.

    Parameters
    ----------
    graph:
        The application task graph.
    frequencies_hz:
        Per-core clock frequencies.  Usually obtained from an
        :class:`~repro.arch.mpsoc.MPSoC` via :meth:`for_platform`.
    cycle_scales:
        Optional per-core cycle-scale factors for heterogeneous
        platforms: a task of ``c`` base cycles costs
        ``max(1, round(c * scale))`` compute cycles on that core.
        ``None`` (or all ones) keeps every core on the base cycle
        tuple — the seed path.  Priorities stay base-cycle-derived
        either way, so the pop order remains mapping-independent.
    """

    _COMM_MODELS = ("dedicated", "shared-bus")

    def __init__(
        self,
        graph: TaskGraph,
        frequencies_hz: Sequence[float],
        comm_model: str = "dedicated",
        bus_frequency_hz: Optional[float] = None,
        cycle_scales: Optional[Sequence[float]] = None,
    ) -> None:
        graph.validate()
        if not frequencies_hz:
            raise ValueError("need at least one core frequency")
        for frequency in frequencies_hz:
            if frequency <= 0:
                raise ValueError(f"frequencies must be positive, got {frequency}")
        if comm_model not in self._COMM_MODELS:
            raise ValueError(
                f"unknown comm model {comm_model!r}; choose from {self._COMM_MODELS}"
            )
        self._graph = graph
        self._compiled = graph.compiled()
        self._frequencies = tuple(float(f) for f in frequencies_hz)
        if cycle_scales is not None:
            scales = tuple(float(scale) for scale in cycle_scales)
            if len(scales) != len(self._frequencies):
                raise ValueError(
                    f"cycle_scales has {len(scales)} entries for "
                    f"{len(self._frequencies)} cores"
                )
            for scale in scales:
                if scale <= 0.0:
                    raise ValueError(f"cycle scales must be positive, got {scale}")
            # All-unit scales collapse to the homogeneous seed path.
            cycle_scales = None if all(s == 1.0 for s in scales) else scales
        self._cycle_scales: Optional[Sequence[float]] = cycle_scales
        self.comm_model = comm_model
        if bus_frequency_hz is not None and bus_frequency_hz <= 0:
            raise ValueError("bus frequency must be positive")
        self._bus_frequency = bus_frequency_hz or max(self._frequencies)
        self._build_templates()

    def _build_templates(self) -> None:
        """Per-core cycle rows for the current compiled view."""
        # Homogeneous platforms point every core at the base tuple
        # *object*, so the ints fetched in the hot loop are exactly the
        # seed path's.
        if self._cycle_scales is None:
            self._core_cycles = (self._compiled.cycles,) * len(self._frequencies)
        else:
            self._core_cycles = self._compiled.cycles_for_cores(self._cycle_scales)

    @classmethod
    def for_platform(
        cls,
        graph: TaskGraph,
        platform: MPSoC,
        scaling: Optional[Sequence[int]] = None,
        comm_model: str = "dedicated",
        bus_frequency_hz: Optional[float] = None,
    ) -> "ListScheduler":
        """Build a scheduler from a platform and optional scaling vector.

        ``comm_model`` and ``bus_frequency_hz`` are forwarded to the
        constructor, so the shared-bus variant is reachable from the
        platform-level API too.
        """
        if scaling is None:
            scaling = platform.scaling_vector()
        tables = platform.core_tables
        frequencies = [
            table.frequency_hz(coefficient)
            for table, coefficient in zip(tables, scaling)
        ]
        cycle_scales = (
            None if platform.uniform_unit_cycles else platform.cycle_scales()
        )
        return cls(
            graph,
            frequencies,
            comm_model=comm_model,
            bus_frequency_hz=bus_frequency_hz,
            cycle_scales=cycle_scales,
        )

    @property
    def num_cores(self) -> int:
        """Number of cores the scheduler targets."""
        return len(self._frequencies)

    @property
    def frequencies_hz(self) -> Sequence[float]:
        """Per-core clock frequencies."""
        return self._frequencies

    def _run(
        self, cores: Sequence[int]
    ) -> Tuple[List[float], List[float], List[int], List[float], List[int]]:
        """The scheduling loop: one pass over the static pop order.

        ``cores[i]`` is the core of compiled task ``i``.  Returns
        per-task ``(starts, finishes, receive)`` and per-core
        ``(busy_s, busy_cycles)``.
        """
        compiled = self._graph.compiled()
        if compiled is not self._compiled:
            # The graph mutated since construction; renew the arrays so
            # we never schedule against stale adjacency (the reference
            # path reads the graph live and stays in step).
            self._compiled = compiled
            self._build_templates()
        n = compiled.num_tasks
        if len(cores) != n:
            raise ValueError(f"core list has {len(cores)} entries for {n} tasks")
        num_cores = len(self._frequencies)
        frequencies = self._frequencies
        core_cycles = self._core_cycles
        dedicated = self.comm_model == "dedicated"
        bus_frequency = self._bus_frequency
        bus_free_at = 0.0
        core_free_at = [0.0] * num_cores
        busy_s = [0.0] * num_cores
        busy_cycles = [0] * num_cores
        starts = [0.0] * n
        finishes = [0.0] * n
        receive = [0] * n
        for i, preds in compiled.schedule_steps:
            core = cores[i]
            earliest = core_free_at[core]
            receive_cycles = 0
            for producer, comm in preds:
                producer_finish = finishes[producer]
                if producer_finish > earliest:
                    earliest = producer_finish
                if cores[producer] != core:
                    if dedicated:
                        receive_cycles += comm
                    else:  # shared-bus: the transfer serializes on the bus
                        transfer_start = (
                            bus_free_at
                            if bus_free_at > producer_finish
                            else producer_finish
                        )
                        bus_free_at = transfer_start + comm / bus_frequency
                        if bus_free_at > earliest:
                            earliest = bus_free_at
            occupancy = core_cycles[core][i] + receive_cycles
            finish = earliest + occupancy / frequencies[core]
            core_free_at[core] = finish
            starts[i] = earliest
            finishes[i] = finish
            receive[i] = receive_cycles
            busy_s[core] += finish - earliest
            busy_cycles[core] += occupancy
        return starts, finishes, receive, busy_s, busy_cycles

    def timings(self, cores: Sequence[int]) -> Tuple[float, List[float], List[int]]:
        """``(makespan_s, busy_s, busy_cycles)`` of a dense core assignment.

        ``cores[i]`` is the core of compiled task ``i`` — the
        evaluator's canonical mapping signature.  Entries must lie in
        ``0..num_cores-1`` (a validated :class:`Mapping` guarantees
        it).  Bit-identical to the corresponding :class:`Schedule`
        queries, without building one.
        """
        _, finishes, _, busy_s, busy_cycles = self._run(cores)
        return max(finishes, default=0.0), busy_s, busy_cycles

    def schedule(self, mapping: Mapping) -> Schedule:
        """Schedule ``mapping`` and return the resulting timeline.

        Raises
        ------
        ValueError
            If the mapping does not cover the graph or targets a
            different number of cores.
        """
        compiled = self._graph.compiled()
        cores = mapping.core_index_list(compiled.names)  # validates coverage
        if mapping.num_cores != self.num_cores:
            raise ValueError(
                f"mapping targets {mapping.num_cores} cores, scheduler has "
                f"{self.num_cores}"
            )
        starts, finishes, receive, _, _ = self._run(cores)
        core_cycles = self._core_cycles
        # Rows go in task-index order: from_arrays sorts them by the
        # unique (start, core, name) key, so input order is immaterial.
        return Schedule.from_arrays(
            compiled.names,
            cores,
            starts,
            finishes,
            [core_cycles[core][i] for i, core in enumerate(cores)],
            receive,
            self.num_cores,
            self._frequencies,
        )

    def schedule_reference(self, mapping: Mapping) -> Schedule:
        """The original (seed) dict-and-string implementation.

        Kept verbatim as the behavioural reference: the parity test
        suite asserts :meth:`schedule` reproduces it bit-for-bit over
        randomized graphs, mappings and both comm models.  Prefer
        :meth:`schedule` everywhere else — it is several times faster.
        """
        mapping.validate_against(self._graph)
        if mapping.num_cores != self.num_cores:
            raise ValueError(
                f"mapping targets {mapping.num_cores} cores, scheduler has "
                f"{self.num_cores}"
            )

        graph = self._graph
        priorities = graph.bottom_levels()
        in_degree: Dict[str, int] = {
            name: len(graph.predecessors(name)) for name in graph.task_names()
        }
        # Max-heap on priority; tie-break on name for determinism.
        ready: List = [
            (-priorities[name], name)
            for name, degree in in_degree.items()
            if degree == 0
        ]
        heapq.heapify(ready)

        core_free_at = [0.0] * self.num_cores
        bus_free_at = 0.0
        finish_at: Dict[str, float] = {}
        entries: List[ScheduledTask] = []

        scheduled_count = 0
        while ready:
            _, name = heapq.heappop(ready)
            core = mapping.core_of(name)
            frequency = self._frequencies[core]
            task = graph.task(name)

            receive_cycles = 0
            earliest = core_free_at[core]
            for producer in graph.predecessors(name):
                earliest = max(earliest, finish_at[producer])
                if mapping.core_of(producer) != core:
                    comm = graph.comm_cycles(producer, name)
                    if self.comm_model == "dedicated":
                        receive_cycles += comm
                    else:  # shared-bus: the transfer serializes on the bus
                        transfer_start = max(bus_free_at, finish_at[producer])
                        transfer_finish = transfer_start + comm / self._bus_frequency
                        bus_free_at = transfer_finish
                        earliest = max(earliest, transfer_finish)

            compute = task.cycles
            if self._cycle_scales is not None:
                scale = self._cycle_scales[core]
                if scale != 1.0:
                    compute = max(1, round(task.cycles * scale))
            duration = (compute + receive_cycles) / frequency
            start = earliest
            finish = start + duration
            core_free_at[core] = finish
            finish_at[name] = finish
            entries.append(
                ScheduledTask(
                    name=name,
                    core=core,
                    start_s=start,
                    finish_s=finish,
                    compute_cycles=compute,
                    receive_cycles=receive_cycles,
                )
            )
            scheduled_count += 1

            for successor in graph.successors(name):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    heapq.heappush(ready, (-priorities[successor], successor))

        if scheduled_count != graph.num_tasks:
            raise ValueError("scheduling incomplete: graph contains a cycle")
        return Schedule(entries, self.num_cores, self._frequencies)

    def makespan_s(self, mapping: Mapping) -> float:
        """Convenience: the makespan of ``mapping`` in seconds."""
        return self.schedule(mapping).makespan_s()
