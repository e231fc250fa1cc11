"""Scheduling substrate: list scheduling of mapped task graphs.

The paper schedules mapped tasks with list scheduling (Section IV-B,
following Izosimov et al. [8]).  :class:`~repro.sched.list_scheduler.
ListScheduler` produces a :class:`~repro.sched.schedule.Schedule` whose
makespan is the multiprocessor execution time ``T_M`` and whose
per-core busy times are the ``T_i`` of Eq. (7).

Timing model (DESIGN.md §5): a task's occupancy on its core is its
computation cycles plus the communication cycles of every *cross-core*
incoming edge (the receive), all executed at the core's scaled clock.
Same-core edges cost nothing.
"""

from repro.sched.schedule import (
    Schedule,
    ScheduledTask,
    from_arrays_validation_enabled,
    set_from_arrays_validation,
)
from repro.sched.list_scheduler import ListScheduler
from repro.sched.batched import BatchedListScheduler, BatchScheduleResult

__all__ = [
    "BatchedListScheduler",
    "BatchScheduleResult",
    "ListScheduler",
    "Schedule",
    "ScheduledTask",
    "from_arrays_validation_enabled",
    "set_from_arrays_validation",
]
