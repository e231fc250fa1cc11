"""Tests for the recovery-slack analysis and the shared-bus comm model."""


import pytest

from repro.faults.recovery import (
    RecoveryAnalysis,
    analyze_recovery,
    max_reexecutions,
    recovery_slack_s,
    tolerable_task_set,
)
from repro.mapping import Mapping
from repro.sched import ListScheduler
from repro.taskgraph import TaskGraph
from repro.taskgraph.mpeg2 import MPEG2_DEADLINE_S


class TestRecovery:
    @pytest.fixture
    def point(self, mpeg2_evaluator, rr_mapping4):
        return mpeg2_evaluator.evaluate(rr_mapping4, (1, 1, 1, 1))

    @pytest.fixture
    def schedule(self, mpeg2_evaluator, point):
        return mpeg2_evaluator.schedule_of(point)

    def test_slack_formula(self, point):
        slack = recovery_slack_s(point, MPEG2_DEADLINE_S)
        assert slack == pytest.approx(MPEG2_DEADLINE_S - point.makespan_s)

    def test_slack_negative_when_late(self, point):
        assert recovery_slack_s(point, point.makespan_s / 2) < 0

    def test_max_reexecutions_consistent(self, point, schedule):
        count = max_reexecutions(point, MPEG2_DEADLINE_S, schedule)
        worst = max(entry.duration_s for entry in schedule)
        slack = MPEG2_DEADLINE_S - point.makespan_s
        assert count == int(slack / worst)

    def test_no_reexecution_when_late(self, point, schedule):
        assert max_reexecutions(point, point.makespan_s * 0.9, schedule) == 0
        assert tolerable_task_set(point, point.makespan_s * 0.9, schedule) == []

    def test_tolerable_set_fits_slack(self, point, schedule):
        tasks = tolerable_task_set(point, MPEG2_DEADLINE_S, schedule)
        durations = {entry.name: entry.duration_s for entry in schedule}
        total = sum(durations[name] for name in tasks)
        assert total <= recovery_slack_s(point, MPEG2_DEADLINE_S) + 1e-9

    def test_tolerable_set_is_worst_first(self, point, schedule):
        tasks = tolerable_task_set(point, MPEG2_DEADLINE_S, schedule)
        durations = {entry.name: entry.duration_s for entry in schedule}
        values = [durations[name] for name in tasks]
        assert values == sorted(values, reverse=True)

    def test_analyze_bundle(self, point, schedule):
        analysis = analyze_recovery(point, MPEG2_DEADLINE_S, schedule)
        assert isinstance(analysis, RecoveryAnalysis)
        assert analysis.slack_s == pytest.approx(
            recovery_slack_s(point, MPEG2_DEADLINE_S)
        )
        assert 0.0 <= analysis.slack_fraction < 1.0
        assert analysis.tolerates_any_single_fault == (
            analysis.worst_case_reexecutions >= 1
        )

    def test_rejects_bad_deadline(self, point):
        with pytest.raises(ValueError):
            recovery_slack_s(point, 0.0)

    def test_requires_schedule(self, point):
        # Design points carry no schedule: the analysis takes it from
        # MappingEvaluator.schedule_of as a required argument.
        assert not hasattr(point, "schedule")
        with pytest.raises(TypeError):
            max_reexecutions(point, MPEG2_DEADLINE_S)


def _two_transfer_graph() -> TaskGraph:
    """Two producers on different cores feeding one consumer."""
    g = TaskGraph(name="bus")
    g.add_task("p1", 1000)
    g.add_task("p2", 1000)
    g.add_task("c", 1000)
    g.add_edge("p1", "c", 600)
    g.add_edge("p2", "c", 600)
    return g


class TestSharedBus:
    def test_transfers_serialize_on_bus(self):
        g = _two_transfer_graph()
        mapping = Mapping({"p1": 0, "p2": 1, "c": 2}, 3)
        frequency = 1e6
        dedicated = ListScheduler(g, [frequency] * 3).schedule(mapping)
        bus = ListScheduler(
            g, [frequency] * 3, comm_model="shared-bus", bus_frequency_hz=frequency
        ).schedule(mapping)
        # Dedicated: both receives charge the consumer -> c runs
        # 1000 + 1200 cycles after producers finish at 1 ms.
        assert dedicated.makespan_s() == pytest.approx((1000 + 1200 + 1000) / frequency)
        # Shared bus: transfers serialize (0.6 ms each) after the
        # producers, then c computes 1 ms: 1 + 0.6 + 0.6 + 1 = 3.2 ms.
        assert bus.makespan_s() == pytest.approx(3.2e-3)

    def test_bus_model_zeroes_receive_cycles(self):
        g = _two_transfer_graph()
        mapping = Mapping({"p1": 0, "p2": 1, "c": 2}, 3)
        bus = ListScheduler(g, [1e6] * 3, comm_model="shared-bus").schedule(mapping)
        assert bus.entry("c").receive_cycles == 0

    def test_same_core_free_in_both_models(self):
        g = _two_transfer_graph()
        mapping = Mapping.all_on_core(g, 2, 0)
        for model in ("dedicated", "shared-bus"):
            schedule = ListScheduler(g, [1e6] * 2, comm_model=model).schedule(mapping)
            assert schedule.makespan_s() == pytest.approx(3e-3)

    def test_schedule_still_verifies(self, mpeg2, rr_mapping4):
        schedule = ListScheduler(
            mpeg2, [2e8] * 4, comm_model="shared-bus"
        ).schedule(rr_mapping4)
        schedule.verify(mpeg2, rr_mapping4)

    def test_bus_contention_penalizes_spreading(self, mpeg2):
        spread = Mapping.round_robin(mpeg2, 4)
        localized = Mapping.all_on_core(mpeg2, 4, 0)
        scheduler = ListScheduler(
            mpeg2, [2e8] * 4, comm_model="shared-bus", bus_frequency_hz=2e7
        )  # slow bus
        spread_tm = scheduler.schedule(spread).makespan_s()
        localized_tm = scheduler.schedule(localized).makespan_s()
        # With a slow enough bus, spreading loses its advantage.
        dedicated_spread = ListScheduler(mpeg2, [2e8] * 4).schedule(spread)
        assert spread_tm > dedicated_spread.makespan_s()
        assert localized_tm == pytest.approx(
            ListScheduler(mpeg2, [2e8] * 4).schedule(localized).makespan_s()
        )

    def test_default_bus_clock_is_fastest_core(self, mpeg2):
        scheduler = ListScheduler(mpeg2, [1e8, 2e8], comm_model="shared-bus")
        assert scheduler._bus_frequency == pytest.approx(2e8)

    def test_rejects_unknown_model(self, mpeg2):
        with pytest.raises(ValueError):
            ListScheduler(mpeg2, [1e8], comm_model="telepathy")

    def test_rejects_bad_bus_frequency(self, mpeg2):
        with pytest.raises(ValueError):
            ListScheduler(mpeg2, [1e8], comm_model="shared-bus", bus_frequency_hz=0.0)
