"""Recovery-slack analysis: re-execution head-room under the deadline.

The paper positions itself against fault-tolerance work that masks
SEUs by *re-executing* affected tasks (Izosimov et al. [8], Pop et
al. [9]).  A natural companion analysis for any optimized design is:
how much re-execution can the schedule absorb before the real-time
constraint breaks?

For a design point with makespan ``T_M`` and deadline ``T_Mref``, the
*recovery slack* is ``T_Mref - T_M``.  Conservatively charging a
re-executed task its full duration on its own core (appended at the
end of the schedule — no reordering), a design tolerates a set of
re-executions whenever their summed durations fit in the slack.  The
module computes:

* :func:`recovery_slack_s` — the raw slack;
* :func:`max_reexecutions` — how many times the *worst-case* task
  could be re-executed;
* :func:`tolerable_task_set` — the largest number of distinct tasks
  (chosen worst-first) whose single re-execution still fits;
* :class:`RecoveryAnalysis` — the bundle, via :func:`analyze_recovery`.

The duration-based queries take the point's schedule from
:meth:`~repro.mapping.metrics.MappingEvaluator.schedule_of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.mapping.metrics import DesignPoint
from repro.sched.schedule import Schedule


def recovery_slack_s(point: DesignPoint, deadline_s: float) -> float:
    """Deadline head-room of a design, in seconds (negative if late)."""
    if deadline_s <= 0:
        raise ValueError("deadline must be positive")
    return deadline_s - point.makespan_s


def _task_durations(schedule: Schedule) -> List[Tuple[str, float]]:
    """(task, duration seconds) for every scheduled task, longest first."""
    durations = [(entry.name, entry.duration_s) for entry in schedule]
    durations.sort(key=lambda item: (-item[1], item[0]))
    return durations


def max_reexecutions(point: DesignPoint, deadline_s: float, schedule: Schedule) -> int:
    """Guaranteed re-execution count for any single (worst-case) task.

    The conservative bound: the longest task re-executed ``k`` times
    appended serially must fit in the slack.
    """
    slack = recovery_slack_s(point, deadline_s)
    if slack < 0:
        return 0
    durations = _task_durations(schedule)
    worst = durations[0][1]
    if worst <= 0:
        return 0
    return int(slack / worst)


def tolerable_task_set(
    point: DesignPoint, deadline_s: float, schedule: Schedule
) -> List[str]:
    """Largest worst-first set of distinct tasks re-executable once each.

    Greedy from the longest task down: if even the longest fits, add
    the next, and so on — the adversarial single-fault-per-task model
    of [8] with full serial re-execution charging.
    """
    slack = recovery_slack_s(point, deadline_s)
    if slack < 0:
        return []
    chosen: List[str] = []
    used = 0.0
    for name, duration in _task_durations(schedule):
        if used + duration <= slack + 1e-12:
            chosen.append(name)
            used += duration
        else:
            break
    return chosen


@dataclass(frozen=True)
class RecoveryAnalysis:
    """Re-execution head-room of one design.

    Attributes
    ----------
    slack_s:
        Deadline minus makespan.
    worst_case_reexecutions:
        Times the longest task could re-run within the slack.
    tolerable_tasks:
        Longest-first distinct tasks re-executable once each.
    slack_fraction:
        Slack relative to the deadline (0 = no head-room).
    """

    slack_s: float
    worst_case_reexecutions: int
    tolerable_tasks: Tuple[str, ...]
    slack_fraction: float

    @property
    def tolerates_any_single_fault(self) -> bool:
        """Whether every task could individually be re-executed."""
        return self.worst_case_reexecutions >= 1


def analyze_recovery(
    point: DesignPoint, deadline_s: float, schedule: Schedule
) -> RecoveryAnalysis:
    """Full recovery analysis for one design point and its schedule."""
    slack = recovery_slack_s(point, deadline_s)
    return RecoveryAnalysis(
        slack_s=slack,
        worst_case_reexecutions=max_reexecutions(point, deadline_s, schedule),
        tolerable_tasks=tuple(tolerable_task_set(point, deadline_s, schedule)),
        slack_fraction=max(slack, 0.0) / deadline_s,
    )
