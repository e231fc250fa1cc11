"""Vectorized batch list scheduling: B mappings in one numpy shot.

The key structural fact this module exploits: the list scheduler's pop
order is **mapping-independent**.  The ready heap is keyed on
``(-bottom_level, name)`` and readiness only tracks how many
predecessors have been scheduled — neither depends on where tasks are
mapped or on any start/finish time.  Every mapping of one graph is
therefore scheduled in the *same* task order, which
:class:`~repro.taskgraph.compiled.CompiledTaskGraph` computes once
(``schedule_order``) for this module and the scalar
:class:`~repro.sched.list_scheduler.ListScheduler` alike.

:class:`BatchedListScheduler` turns that into a stacked-array
schedule: per-batch-row ``core_free``/``finish`` state evolves through
one pass over the static order, with every timing update vectorized
across the batch dimension (numpy, float64).  The per-step arithmetic
replays the scalar :class:`~repro.sched.list_scheduler.ListScheduler`
loop's float operations exactly —

* ``earliest`` is a chain of IEEE-754 ``max`` operations (exact and
  order-insensitive),
* receive cycles are int64 sums (exact below 2**53, far above any
  realistic cycle budget),
* ``duration = (compute + receive) / frequency`` and ``finish =
  earliest + duration`` are single float64 operations identical to the
  scalar path,

so the produced makespans, per-core busy sums and (when materialized)
:class:`~repro.sched.schedule.Schedule` objects are **bit-identical**
to scheduling each mapping through the serial compiled path.  Per-core
busy seconds accumulate in scheduling order, which within any single
core coincides with the canonical ``(start, core, name)`` order the
serial ``Schedule`` sums in (starts are non-decreasing per core and a
start tie forces a zero-length span, whose addition is a float
identity), so even those float accumulations agree bitwise.

Both communication models are supported.  ``"dedicated"`` vectorizes
whole predecessor slices per step; ``"shared-bus"`` additionally walks
the step's edges in insertion order (the bus serialization is
order-sensitive) with the per-edge update still vectorized across the
batch.

The per-mapping loop (:meth:`~repro.mapping.metrics.MappingEvaluator.
evaluate_batch_reference`) stays as the oracle this kernel is diffed
against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mapping.mapping import Mapping
from repro.sched.schedule import Schedule
from repro.taskgraph.graph import TaskGraph


class BatchScheduleResult:
    """Stacked schedules of ``B`` mappings over one graph.

    Arrays are indexed ``[row, task_id]`` (task ids are the compiled
    graph's dense indices) or ``[row, core]``:

    * ``starts`` / ``finishes`` — execution windows in seconds;
    * ``receive`` — cross-core receive cycles charged per task (int64,
      zero under the shared-bus model where transfers occupy the bus);
    * ``makespans`` — per-row ``T_M`` in seconds;
    * ``busy_s`` / ``busy_cycles`` — per-row per-core busy sums, the
      ``T_i`` substrate, accumulated in scheduling order;
    * ``cores`` — the core assignment rows the batch was run with.

    ``order`` is the static pop order shared by every row.  Full
    :class:`Schedule` objects are *not* built here; call
    :meth:`schedule` for the rows that need one.
    """

    __slots__ = (
        "order",
        "names",
        "cycles",
        "cores",
        "starts",
        "finishes",
        "receive",
        "makespans",
        "busy_s",
        "busy_cycles",
        "num_cores",
        "frequencies_hz",
        "core_cycles",
    )

    def __init__(
        self,
        order,
        names,
        cycles,
        cores,
        starts,
        finishes,
        receive,
        makespans,
        busy_s,
        busy_cycles,
        num_cores,
        frequencies_hz,
        core_cycles=None,
    ) -> None:
        self.order = order
        self.names = names
        self.cycles = cycles
        self.cores = cores
        self.starts = starts
        self.finishes = finishes
        self.receive = receive
        self.makespans = makespans
        self.busy_s = busy_s
        self.busy_cycles = busy_cycles
        self.num_cores = num_cores
        self.frequencies_hz = frequencies_hz
        # Per-core cycle rows for heterogeneous platforms; None keeps
        # the homogeneous (base-cycle) materialization path.
        self.core_cycles = core_cycles

    def __len__(self) -> int:
        return len(self.makespans)

    # -- per-row views (plain Python values, hot-path friendly) -----------

    def makespan_s(self, row: int) -> float:
        """``T_M`` of one batch row in seconds."""
        return float(self.makespans[row])

    def makespan_cycles(
        self, row: int, reference_frequency_hz: Optional[float] = None
    ) -> int:
        """``T_M`` in cycles of a reference clock (fastest core default)."""
        frequency = reference_frequency_hz or max(self.frequencies_hz)
        return int(round(self.makespan_s(row) * frequency))

    def busy_cycles_of(self, row: int) -> Tuple[int, ...]:
        """Per-core busy cycles (``T_i`` of Eq. 7) of one row."""
        return tuple(int(value) for value in self.busy_cycles[row])

    def activities(self, row: int) -> Tuple[float, ...]:
        """Per-core activity factors, matching ``Schedule.activities``."""
        makespan = self.makespan_s(row)
        if makespan <= 0.0:
            return (0.0,) * self.num_cores
        return tuple(
            min(float(busy) / makespan, 1.0) for busy in self.busy_s[row]
        )

    def schedule(self, row: int) -> Schedule:
        """Materialize one row as a full :class:`Schedule`.

        Rows go in task-index order, as the scalar scheduler hands them
        over; :meth:`Schedule.from_arrays` sorts by the unique
        ``(start, core, name)`` key, so the object equals the scalar
        path's bit for bit.
        """
        cores = self.cores[row].tolist()
        if self.core_cycles is None:
            compute = self.cycles
        else:
            compute = [self.core_cycles[core][t] for t, core in enumerate(cores)]
        return Schedule.from_arrays(
            self.names,
            cores,
            self.starts[row].tolist(),
            self.finishes[row].tolist(),
            compute,
            self.receive[row].tolist(),
            self.num_cores,
            self.frequencies_hz,
        )


class BatchedListScheduler:
    """List-schedules a whole batch of mappings over one graph.

    Construction mirrors :class:`~repro.sched.list_scheduler.
    ListScheduler` (same validation, same comm models); the instance
    additionally lowers the compiled graph's static pop order and
    per-step predecessor slices into numpy arrays, shared by every
    :meth:`run` call.
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
        if bus_frequency_hz is not None and bus_frequency_hz <= 0:
            raise ValueError("bus frequency must be positive")
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
        self._bus_frequency = bus_frequency_hz or max(self._frequencies)
        self._compile_plan()

    # -- static plan -------------------------------------------------------

    def _compile_plan(self) -> None:
        """Per-step predecessor arrays over the compiled static order."""
        compiled = self._compiled
        self._order: Tuple[int, ...] = compiled.schedule_order
        # Per-step predecessor id / comm-cycle arrays, in edge order.
        self._step_preds = []
        self._step_comm = []
        for _, preds in compiled.schedule_steps:
            if preds:
                producers, comms = zip(*preds)
                self._step_preds.append(np.array(producers, dtype=np.intp))
                self._step_comm.append(np.array(comms, dtype=np.int64))
            else:
                self._step_preds.append(None)
                self._step_comm.append(None)
        self._freq_array = np.array(self._frequencies, dtype=np.float64)
        self._cycles_array = np.array(compiled.cycles, dtype=np.int64)
        # Heterogeneous platforms: a (num_cores, T) cycle matrix so the
        # timing pass can gather per-(core, task) compute costs; None
        # keeps the homogeneous python-int path bit for bit.
        if self._cycle_scales is None:
            self._core_cycles_rows = None
            self._core_cycles_array = None
        else:
            self._core_cycles_rows = compiled.cycles_for_cores(self._cycle_scales)
            self._core_cycles_array = np.array(
                self._core_cycles_rows, dtype=np.int64
            )

    @property
    def num_cores(self) -> int:
        """Number of cores the scheduler targets."""
        return len(self._frequencies)

    @property
    def frequencies_hz(self) -> Tuple[float, ...]:
        """Per-core clock frequencies."""
        return self._frequencies

    @property
    def order(self) -> Tuple[int, ...]:
        """The static scheduling order (dense task ids, pop order)."""
        return self._order

    def _sync_compiled(self) -> None:
        compiled = self._graph.compiled()
        if compiled is not self._compiled:
            self._compiled = compiled
            self._compile_plan()

    # -- batch scheduling --------------------------------------------------

    def run(self, core_rows: Sequence[Sequence[int]]) -> BatchScheduleResult:
        """Schedule every row of ``core_rows`` in one vectorized pass.

        ``core_rows[b][t]`` is the core of task ``t`` (compiled dense
        index) in batch row ``b`` — exactly the evaluator's canonical
        mapping signature.  Returns the stacked
        :class:`BatchScheduleResult`; ``B == 0`` yields an empty
        result.
        """
        self._sync_compiled()
        compiled = self._compiled
        n = compiled.num_tasks
        num_cores = self.num_cores
        batch = len(core_rows)
        cores = np.asarray(core_rows, dtype=np.int64)
        if cores.size == 0:
            cores = cores.reshape(batch, n if batch == 0 else -1)
        if cores.ndim != 2 or (batch and cores.shape[1] != n):
            raise ValueError(
                f"core rows must each assign all {n} tasks, got shape "
                f"{cores.shape}"
            )
        if batch and (cores.min() < 0 or cores.max() >= num_cores):
            raise ValueError(
                f"core indices must lie in 0..{num_cores - 1}"
            )

        starts = np.zeros((batch, n), dtype=np.float64)
        finishes = np.zeros((batch, n), dtype=np.float64)
        receive = np.zeros((batch, n), dtype=np.int64)
        busy_s = np.zeros((batch, num_cores), dtype=np.float64)
        if batch:
            self._run_steps(cores, starts, finishes, receive, busy_s)
            # Integer busy sums are order-insensitive (exact below
            # 2**53), so they vectorize outside the timing loop.
            if self._core_cycles_array is None:
                occupancy = self._cycles_array + receive
            else:
                occupancy = (
                    self._core_cycles_array[cores, np.arange(n)] + receive
                )
            busy_cycles = np.stack(
                [
                    np.where(cores == core, occupancy, 0).sum(axis=1)
                    for core in range(num_cores)
                ],
                axis=1,
            )
        else:
            busy_cycles = np.zeros((batch, num_cores), dtype=np.int64)
        makespans = (
            finishes.max(axis=1) if n and batch else np.zeros(batch)
        )
        return BatchScheduleResult(
            order=self._order,
            names=compiled.names,
            cycles=compiled.cycles,
            core_cycles=self._core_cycles_rows,
            cores=cores,
            starts=starts,
            finishes=finishes,
            receive=receive,
            makespans=makespans,
            busy_s=busy_s,
            busy_cycles=busy_cycles,
            num_cores=num_cores,
            frequencies_hz=self._frequencies,
        )

    def _run_steps(self, cores, starts, finishes, receive, busy_s) -> None:
        """The sequential-over-tasks, vectorized-over-batch timing pass."""
        compiled = self._compiled
        cycles = compiled.cycles
        core_cycles_arr = self._core_cycles_array
        freq = self._freq_array
        batch = cores.shape[0]
        rows = np.arange(batch)
        core_free = np.zeros((batch, self.num_cores), dtype=np.float64)
        dedicated = self.comm_model == "dedicated"
        bus_free = None if dedicated else np.zeros(batch, dtype=np.float64)
        bus_frequency = self._bus_frequency

        for step, task in enumerate(self._order):
            core = cores[:, task]
            earliest = core_free[rows, core]  # fancy indexing copies
            preds = self._step_preds[step]
            if core_cycles_arr is None:
                busy = cycles[task]
            else:
                # Per-(core, task) compute cost: gather the assigned
                # core's cycle row across the batch.
                busy = core_cycles_arr[core, task]
            if preds is not None and dedicated and len(preds) == 1:
                # Single-predecessor fast path: basic-slice views, no
                # axis reductions (most tasks in chain-heavy graphs).
                producer = preds[0]
                np.maximum(earliest, finishes[:, producer], out=earliest)
                cross = cores[:, producer] != core
                recv = cross * int(self._step_comm[step][0])
                receive[:, task] = recv
                busy = busy + recv
            elif preds is not None:
                pred_finish = finishes[:, preds]
                np.maximum(earliest, pred_finish.max(axis=1), out=earliest)
                if dedicated:
                    cross = cores[:, preds] != core[:, None]
                    recv = (cross * self._step_comm[step]).sum(axis=1)
                    receive[:, task] = recv
                    busy = busy + recv
                else:
                    # Shared bus: edges serialize in insertion order;
                    # per-edge update vectorized across the batch.
                    comm = self._step_comm[step]
                    for e in range(len(preds)):
                        producer_finish = pred_finish[:, e]
                        cross = cores[:, preds[e]] != core
                        transfer_start = np.maximum(bus_free, producer_finish)
                        transfer_finish = transfer_start + (
                            int(comm[e]) / bus_frequency
                        )
                        bus_free = np.where(cross, transfer_finish, bus_free)
                        np.maximum(
                            earliest,
                            np.where(cross, transfer_finish, earliest),
                            out=earliest,
                        )
            duration = busy / freq[core]
            finish = earliest + duration
            core_free[rows, core] = finish
            finishes[:, task] = finish
            starts[:, task] = earliest
            # Float busy sums accumulate in scheduling order — per core
            # this is the canonical order the serial Schedule sums in.
            busy_s[rows, core] += finish - earliest

    # -- convenience -------------------------------------------------------

    def run_mappings(self, mappings: Sequence[Mapping]) -> BatchScheduleResult:
        """Validate and schedule a batch of :class:`Mapping` objects."""
        compiled = self._graph.compiled()
        rows = []
        for mapping in mappings:
            if mapping.num_cores != self.num_cores:
                raise ValueError(
                    f"mapping targets {mapping.num_cores} cores, scheduler has "
                    f"{self.num_cores}"
                )
            rows.append(mapping.core_index_list(compiled.names))
        return self.run(rows)

    def schedules(self, mappings: Sequence[Mapping]) -> List[Schedule]:
        """Full :class:`Schedule` objects for a batch of mappings."""
        result = self.run_mappings(mappings)
        return [result.schedule(row) for row in range(len(result))]
