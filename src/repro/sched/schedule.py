"""Schedule data structure.

A :class:`Schedule` is the output of list scheduling: one
:class:`ScheduledTask` per task with start/finish times in seconds and
the cycle counts that produced them.  It answers the timing questions
the metrics and optimizers ask — makespan (``T_M``), per-core busy time
(``T_i``), activity factors (``alpha_i``) — and can verify its own
consistency (precedence respected, no per-core overlap).

Internally the timeline is stored as parallel arrays (names, cores,
starts, finishes, cycle counts) in canonical ``(start, core, name)``
order; the :class:`ScheduledTask` objects are materialized lazily the
first time entries are iterated.  The aggregate queries the evaluation
hot path hammers — makespan, per-core busy sums, activity factors —
are answered from the arrays in a single cached pass, so a
:class:`~repro.mapping.metrics.MappingEvaluator` never pays for entry
objects it does not look at.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.mapping.mapping import Mapping
from repro.taskgraph.graph import TaskGraph

#: Debug-mode row validation for :meth:`Schedule.from_arrays`.  The
#: compiled list scheduler's rows are trusted by construction, but
#: schedules now also cross process boundaries (restart and experiment
#: fan-out jobs) and other producers may appear; flipping this on makes
#: ``from_arrays`` run the same duplicate/core-range/array-shape checks
#: the entry-based constructor performs.  Seed it from the environment
#: (``REPRO_VALIDATE_SCHEDULES=1``) so whole test runs can opt in
#: without code changes.
_VALIDATE_FROM_ARRAYS = os.environ.get(
    "REPRO_VALIDATE_SCHEDULES", ""
).strip().lower() in ("1", "true", "yes", "on")


def set_from_arrays_validation(enabled: bool) -> bool:
    """Toggle debug validation of :meth:`Schedule.from_arrays` rows.

    Returns the previous setting so callers (tests, debug sessions)
    can restore it.

    Per-process only: process-pool workers import this module afresh
    and never see the parent's toggle.  To vet producers that build
    schedules *inside* workers (restart or scaling leaves on the
    process transport), set ``REPRO_VALIDATE_SCHEDULES=1`` in the
    environment instead — workers inherit the environment, so the
    flag arms validation everywhere.
    """
    global _VALIDATE_FROM_ARRAYS
    previous = _VALIDATE_FROM_ARRAYS
    _VALIDATE_FROM_ARRAYS = bool(enabled)
    return previous


def from_arrays_validation_enabled() -> bool:
    """Whether :meth:`Schedule.from_arrays` currently validates rows."""
    return _VALIDATE_FROM_ARRAYS


@dataclass(frozen=True)
class ScheduledTask:
    """One task instance placed on the timeline.

    Attributes
    ----------
    name:
        Task name.
    core:
        Core index the task runs on.
    start_s / finish_s:
        Execution window in seconds.
    compute_cycles:
        The task's own computation cycles.
    receive_cycles:
        Cross-core communication cycles charged to this task (the
        receives of its cross-core incoming edges, Eq. 7).
    """

    name: str
    core: int
    start_s: float
    finish_s: float
    compute_cycles: int
    receive_cycles: int

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.finish_s < self.start_s:
            raise ValueError(
                f"invalid window [{self.start_s}, {self.finish_s}] for {self.name!r}"
            )
        if self.compute_cycles <= 0 or self.receive_cycles < 0:
            raise ValueError(f"invalid cycle counts for task {self.name!r}")

    @property
    def duration_s(self) -> float:
        """Occupancy duration in seconds."""
        return self.finish_s - self.start_s

    @property
    def busy_cycles(self) -> int:
        """Total core cycles this task occupies (compute + receive)."""
        return self.compute_cycles + self.receive_cycles


class Schedule:
    """A complete schedule of a mapped task graph.

    Parameters
    ----------
    entries:
        One :class:`ScheduledTask` per task.
    num_cores:
        Number of cores in the platform (idle cores are allowed).
    frequencies_hz:
        Per-core clock frequencies used to build the schedule; kept so
        cycle/second conversions stay consistent downstream.
    """

    __slots__ = (
        "_names",
        "_cores",
        "_starts",
        "_finishes",
        "_compute",
        "_receive",
        "_num_cores",
        "_frequencies_hz",
        "_position",
        "_entries_cache",
        "_makespan_cache",
        "_busy_s_cache",
        "_busy_cycles_cache",
    )

    def __init__(
        self,
        entries: Sequence[ScheduledTask],
        num_cores: int,
        frequencies_hz: Sequence[float],
    ) -> None:
        ordered = sorted(
            entries, key=lambda entry: (entry.start_s, entry.core, entry.name)
        )
        self._init_from_arrays(
            [entry.name for entry in ordered],
            [entry.core for entry in ordered],
            [entry.start_s for entry in ordered],
            [entry.finish_s for entry in ordered],
            [entry.compute_cycles for entry in ordered],
            [entry.receive_cycles for entry in ordered],
            num_cores,
            frequencies_hz,
        )
        self._entries_cache = tuple(ordered)

    @classmethod
    def from_arrays(
        cls,
        names: Sequence[str],
        cores: Sequence[int],
        starts: Sequence[float],
        finishes: Sequence[float],
        compute_cycles: Sequence[int],
        receive_cycles: Sequence[int],
        num_cores: int,
        frequencies_hz: Sequence[float],
    ) -> "Schedule":
        """Build a schedule straight from parallel arrays.

        The fast-path constructor used by the compiled list scheduler:
        no :class:`ScheduledTask` objects are created until somebody
        iterates the schedule.  Rows may arrive in any order; they are
        put into canonical ``(start, core, name)`` order here.

        Rows are trusted by default (they come from the scheduler's own
        state); :func:`set_from_arrays_validation` — or
        ``REPRO_VALIDATE_SCHEDULES=1`` in the environment — turns on
        the entry-constructor's duplicate/core-range checks plus an
        array-shape check for debugging new producers.
        """
        validate = _VALIDATE_FROM_ARRAYS
        if validate:
            lengths = {
                len(names),
                len(cores),
                len(starts),
                len(finishes),
                len(compute_cycles),
                len(receive_cycles),
            }
            if len(lengths) != 1:
                raise ValueError(
                    f"parallel schedule arrays disagree on length: {sorted(lengths)}"
                )
        order = sorted(
            range(len(names)), key=lambda i: (starts[i], cores[i], names[i])
        )
        schedule = cls.__new__(cls)
        schedule._init_from_arrays(
            [names[i] for i in order],
            [cores[i] for i in order],
            [starts[i] for i in order],
            [finishes[i] for i in order],
            [compute_cycles[i] for i in order],
            [receive_cycles[i] for i in order],
            num_cores,
            frequencies_hz,
            validate=validate,
        )
        schedule._entries_cache = None
        return schedule

    def _init_from_arrays(
        self,
        names: List[str],
        cores: List[int],
        starts: List[float],
        finishes: List[float],
        compute_cycles: List[int],
        receive_cycles: List[int],
        num_cores: int,
        frequencies_hz: Sequence[float],
        validate: bool = True,
    ) -> None:
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        if len(frequencies_hz) != num_cores:
            raise ValueError(
                f"{len(frequencies_hz)} frequencies for {num_cores} cores"
            )
        position: Optional[Dict[str, int]] = None
        if validate:
            position = {}
            for index, name in enumerate(names):
                if name in position:
                    raise ValueError(f"task {name!r} scheduled twice")
                if not 0 <= cores[index] < num_cores:
                    raise ValueError(f"task {name!r} on invalid core {cores[index]}")
                position[name] = index
        self._names = names
        self._cores = cores
        self._starts = starts
        self._finishes = finishes
        self._compute = compute_cycles
        self._receive = receive_cycles
        self._num_cores = num_cores
        self._frequencies_hz = tuple(float(f) for f in frequencies_hz)
        self._position = position
        self._makespan_cache: Optional[float] = None
        self._busy_s_cache: Optional[List[float]] = None
        self._busy_cycles_cache: Optional[List[int]] = None

    def _positions(self) -> Dict[str, int]:
        position = self._position
        if position is None:
            position = {name: index for index, name in enumerate(self._names)}
            self._position = position
        return position

    # -- entry materialization ----------------------------------------------

    @property
    def _entries(self) -> Tuple[ScheduledTask, ...]:
        cached = self._entries_cache
        if cached is None:
            cached = tuple(self._materialize(i) for i in range(len(self._names)))
            self._entries_cache = cached
        return cached

    def _materialize(self, index: int) -> ScheduledTask:
        return ScheduledTask(
            name=self._names[index],
            core=self._cores[index],
            start_s=self._starts[index],
            finish_s=self._finishes[index],
            compute_cycles=self._compute[index],
            receive_cycles=self._receive[index],
        )

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[ScheduledTask]:
        return iter(self._entries)

    def __contains__(self, task_name: str) -> bool:
        return task_name in self._positions()

    # -- queries ----------------------------------------------------------

    @property
    def num_cores(self) -> int:
        """Number of cores."""
        return self._num_cores

    @property
    def frequencies_hz(self) -> Tuple[float, ...]:
        """Per-core clock frequencies used for this schedule."""
        return self._frequencies_hz

    def entry(self, task_name: str) -> ScheduledTask:
        """The scheduled instance of ``task_name``."""
        try:
            index = self._positions()[task_name]
        except KeyError:
            raise KeyError(f"task {task_name!r} not in schedule") from None
        if self._entries_cache is not None:
            return self._entries_cache[index]
        return self._materialize(index)

    def core_entries(self, core_index: int) -> Tuple[ScheduledTask, ...]:
        """Entries on ``core_index``, ordered by start time."""
        return tuple(
            entry for entry in self._entries if entry.core == core_index
        )

    def makespan_s(self) -> float:
        """The multiprocessor execution time ``T_M`` in seconds."""
        cached = self._makespan_cache
        if cached is None:
            cached = max(self._finishes) if self._finishes else 0.0
            self._makespan_cache = cached
        return cached

    def makespan_cycles(self, reference_frequency_hz: Optional[float] = None) -> int:
        """``T_M`` expressed in cycles of a reference clock.

        Defaults to the fastest core clock in the schedule.
        """
        frequency = reference_frequency_hz or max(self._frequencies_hz)
        return int(round(self.makespan_s() * frequency))

    def _busy_sums(self) -> Tuple[List[float], List[int]]:
        busy_s = self._busy_s_cache
        busy_cycles = self._busy_cycles_cache
        if busy_s is None or busy_cycles is None:
            busy_s = [0.0] * self._num_cores
            busy_cycles = [0] * self._num_cores
            cores = self._cores
            starts = self._starts
            finishes = self._finishes
            compute = self._compute
            receive = self._receive
            for index in range(len(cores)):
                core = cores[index]
                busy_s[core] += finishes[index] - starts[index]
                busy_cycles[core] += compute[index] + receive[index]
            self._busy_s_cache = busy_s
            self._busy_cycles_cache = busy_cycles
        return busy_s, busy_cycles

    def busy_s(self, core_index: int) -> float:
        """Total busy seconds of ``core_index`` (``T_i`` in wall time)."""
        return self._busy_sums()[0][core_index]

    def busy_cycles(self, core_index: int) -> int:
        """Total busy cycles of ``core_index`` (``T_i`` of Eq. 7)."""
        return self._busy_sums()[1][core_index]

    def activity(self, core_index: int) -> float:
        """Activity factor ``alpha_i = busy_i / T_M`` (0 for empty span)."""
        makespan = self.makespan_s()
        if makespan <= 0.0:
            return 0.0
        return min(self.busy_s(core_index) / makespan, 1.0)

    def activities(self) -> Tuple[float, ...]:
        """Per-core activity factors."""
        makespan = self.makespan_s()
        if makespan <= 0.0:
            return (0.0,) * self._num_cores
        busy_s, _ = self._busy_sums()
        return tuple(
            min(busy / makespan, 1.0) for busy in busy_s
        )

    # -- verification --------------------------------------------------------

    def verify(self, graph: TaskGraph, mapping: Mapping) -> None:
        """Raise ``ValueError`` on any inconsistency.

        Checks: every graph task scheduled exactly once on its mapped
        core; no two tasks overlap on a core; every edge's consumer
        starts at or after its producer finishes.
        """
        graph_tasks = set(graph.task_names())
        scheduled = set(self._positions())
        if graph_tasks != scheduled:
            raise ValueError(
                f"schedule covers {sorted(scheduled)} but graph has "
                f"{sorted(graph_tasks)}"
            )
        for entry in self._entries:
            if mapping.core_of(entry.name) != entry.core:
                raise ValueError(
                    f"task {entry.name!r} scheduled on core {entry.core} but "
                    f"mapped to core {mapping.core_of(entry.name)}"
                )
        tolerance = 1e-9
        for core in range(self._num_cores):
            # A zero-length span (a duration absorbed by a late start)
            # may share its start with the next task on the core.
            entries = sorted(
                self.core_entries(core),
                key=lambda entry: (entry.start_s, entry.finish_s),
            )
            for previous, current in zip(entries, entries[1:]):
                if current.start_s < previous.finish_s - tolerance:
                    raise ValueError(
                        f"tasks {previous.name!r} and {current.name!r} overlap "
                        f"on core {core}"
                    )
        for producer, consumer, _ in graph.edges():
            if self.entry(consumer).start_s < self.entry(producer).finish_s - tolerance:
                raise ValueError(
                    f"edge {producer!r} -> {consumer!r} violated: consumer "
                    f"starts before producer finishes"
                )

    # -- reporting --------------------------------------------------------

    def to_rows(self) -> List[Tuple[str, int, float, float, int, int]]:
        """Tabular export: (task, core, start_s, finish_s, compute, receive).

        Rows are ordered by start time — handy for CSV dumps and for
        driving external Gantt tooling.
        """
        return [
            (
                self._names[i],
                self._cores[i],
                self._starts[i],
                self._finishes[i],
                self._compute[i],
                self._receive[i],
            )
            for i in range(len(self._names))
        ]

    def gantt_text(self, width: int = 72) -> str:
        """A plain-text Gantt chart, one line per core."""
        makespan = self.makespan_s()
        if makespan <= 0.0:
            return "(empty schedule)"
        lines: List[str] = []
        for core in range(self._num_cores):
            cells = ["."] * width
            for entry in self.core_entries(core):
                begin = int(entry.start_s / makespan * (width - 1))
                end = max(int(entry.finish_s / makespan * (width - 1)), begin + 1)
                marker = entry.name[-1] if entry.name else "#"
                for position in range(begin, min(end, width)):
                    cells[position] = marker
            lines.append(f"core{core} |{''.join(cells)}|")
        lines.append(f"T_M = {makespan * 1e3:.3f} ms")
        return "\n".join(lines)
