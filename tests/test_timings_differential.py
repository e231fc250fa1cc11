"""Differential suite: every scheduling/evaluation kernel on one draw.

The schedule-free evaluation path rests on four implementations of the
same list schedule agreeing *exactly*:

* ``ListScheduler.timings`` — the static-order kernel the evaluator's
  miss path calls (makespan, per-core busy seconds and cycles);
* ``ListScheduler.schedule`` — the same loop, materialized as a
  :class:`~repro.sched.schedule.Schedule`;
* ``ListScheduler.schedule_reference`` — the seed heap walk;
* ``MappingEvaluator.evaluate`` vs ``evaluate_reference`` vs
  ``evaluate_batch`` vs ``evaluate_signature`` — the design points
  built on top (the last one with a lazily built mapping).

Hypothesis draws graphs, mappings (idle cores included), homogeneous
and heterogeneous platforms, scalings and both communication models.
Task costs span 1 cycle to ~1e17 cycles, so some tasks start so late
that their duration is absorbed (``finish == start``), which is where
per-core summation order could matter.  No tolerances anywhere.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.arch import MPSoC
from repro.arch.platform import platform_model
from repro.mapping import Mapping, MappingEvaluator
from repro.sched.schedule import set_from_arrays_validation
from repro.taskgraph import TaskGraph
from repro.taskgraph.registers import Register

POINT_FIELDS = (
    "mapping",
    "scaling",
    "power_mw",
    "register_bits_per_core",
    "register_bits_total",
    "execution_cycles_per_core",
    "makespan_s",
    "makespan_cycles",
    "expected_seus",
    "activities",
    "meets_deadline",
)

#: Task costs: tiny ones get absorbed after a giant one on the same core.
CYCLES = st.one_of(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=1000).map(lambda c: c * 1000),
    st.just(10**17),
)


@st.composite
def cases(draw):
    """(graph, platform, mapping, scaling, comm model, deadline)."""
    num_tasks = draw(st.integers(min_value=5, max_value=40))
    graph = TaskGraph(name="diff")
    for index in range(num_tasks):
        graph.add_task(
            f"t{index:02d}",
            cycles=draw(CYCLES),
            private_register_bits=draw(st.integers(min_value=1, max_value=4000)),
        )
    for consumer in range(1, num_tasks):
        producers = draw(
            st.lists(
                st.integers(min_value=0, max_value=consumer - 1),
                max_size=min(consumer, 3),
                unique=True,
            )
        )
        for producer in producers:
            graph.add_edge(
                f"t{producer:02d}",
                f"t{consumer:02d}",
                draw(st.integers(min_value=0, max_value=500)) * 100,
            )
            if draw(st.booleans()):
                buffer = Register(f"buf{producer}_{consumer}", 256)
                graph.attach_registers(f"t{producer:02d}", [buffer])
                graph.attach_registers(f"t{consumer:02d}", [buffer])
    num_cores = draw(st.integers(min_value=2, max_value=6))
    if draw(st.booleans()):
        platform = platform_model("biglittle").instantiate(num_cores)
    else:
        platform = MPSoC.paper_reference(num_cores)
    # Drawing cores from a prefix leaves the remaining cores idle.
    used = draw(st.integers(min_value=1, max_value=num_cores))
    mapping = Mapping(
        {
            name: draw(st.integers(min_value=0, max_value=used - 1))
            for name in graph.task_names()
        },
        num_cores,
    )
    scaling = tuple(
        draw(st.integers(min_value=1, max_value=table.deepest_coefficient))
        for table in platform.core_tables
    )
    comm_model = draw(st.sampled_from(["dedicated", "shared-bus"]))
    deadline = draw(st.sampled_from([None, 1e-3, 1.0, 1e12]))
    return graph, platform, mapping, scaling, comm_model, deadline


def _absorbed_case():
    """A giant task, then 1-cycle tasks on its core: finish == start."""
    graph = TaskGraph(name="absorbed")
    graph.add_task("a", cycles=10**17, private_register_bits=64)
    for name in ("b", "c", "d"):
        graph.add_task(name, cycles=1, private_register_bits=32)
        graph.add_edge("a", name, 100)
    graph.add_task("e", cycles=5000, private_register_bits=16)
    graph.add_edge("b", "e", 0)
    platform = MPSoC.paper_reference(3)
    mapping = Mapping({"a": 0, "b": 0, "c": 0, "d": 1, "e": 0}, 3)
    return graph, platform, mapping, (1, 2, 3), "dedicated", 1.0


def _assert_points_equal(point_a, point_b):
    for field in POINT_FIELDS:
        assert getattr(point_a, field) == getattr(point_b, field), field


def _check_case(graph, platform, mapping, scaling, comm_model, deadline):
    evaluator = MappingEvaluator(
        graph, platform, deadline_s=deadline, comm_model=comm_model
    )
    scheduler = evaluator.scheduler_for(scaling)
    cores = graph.compiled().signature(mapping)

    # 1-3: the kernel, its Schedule and the seed heap walk.
    makespan_s, busy_s, busy_cycles = scheduler.timings(cores)
    schedule = scheduler.schedule(mapping)
    reference = scheduler.schedule_reference(mapping)
    assert tuple(schedule) == tuple(reference)
    assert schedule.to_rows() == reference.to_rows()
    for full in (schedule, reference):
        assert makespan_s == full.makespan_s()
        assert busy_s == [full.busy_s(core) for core in range(platform.num_cores)]
        assert busy_cycles == [
            full.busy_cycles(core) for core in range(platform.num_cores)
        ]
    schedule.verify(graph, mapping)

    # 4: design points — scalar, seed and batched evaluators.
    point = evaluator.evaluate(mapping, scaling)
    seed_point = evaluator.evaluate_reference(mapping, scaling)
    batch_evaluator = MappingEvaluator(
        graph, platform, deadline_s=deadline, comm_model=comm_model
    )
    (batch_point,) = batch_evaluator.evaluate_batch([mapping], scaling)
    # The signature path's miss builds a lazy mapping from the template.
    signature_evaluator = MappingEvaluator(
        graph, platform, deadline_s=deadline, comm_model=comm_model
    )
    signature_point = signature_evaluator.evaluate_signature(
        cores, scaling, num_cores=platform.num_cores, template=mapping
    )
    _assert_points_equal(point, seed_point)
    _assert_points_equal(point, batch_point)
    _assert_points_equal(point, signature_point)
    assert signature_point.mapping.core_groups() == mapping.core_groups()
    # The fast constructor fills exactly the dataclass fields.
    assert point == seed_point and hash(point) == hash(seed_point)
    assert vars(point).keys() == {f.name for f in dataclasses.fields(point)}
    assert point.makespan_cycles == reference.makespan_cycles()
    assert point.activities == reference.activities()
    assert evaluator.schedule_of(point).to_rows() == reference.to_rows()
    return reference


@given(cases())
@example(_absorbed_case())
@settings(max_examples=150, deadline=None)
def test_four_evaluators_agree_exactly(case):
    _check_case(*case)


def test_absorbed_durations_are_exercised():
    """The pinned example really produces zero-length spans."""
    reference = _check_case(*_absorbed_case())
    absorbed = [entry for entry in reference if entry.finish_s == entry.start_s]
    assert {entry.name for entry in absorbed} >= {"b", "c"}


def test_armed_validation_catches_a_diverging_kernel(monkeypatch):
    """``REPRO_VALIDATE_SCHEDULES`` re-checks every kernel evaluation."""
    graph, platform, mapping, scaling, _, _ = _absorbed_case()
    evaluator = MappingEvaluator(graph, platform)
    scheduler = evaluator.scheduler_for(scaling)
    timings = scheduler.timings

    def skewed(cores):
        makespan_s, busy_s, busy_cycles = timings(cores)
        return makespan_s, busy_s, [cycles + 1 for cycles in busy_cycles]

    monkeypatch.setattr(scheduler, "timings", skewed)
    previous = set_from_arrays_validation(True)
    try:
        with pytest.raises(AssertionError, match="busy_cycles"):
            evaluator.evaluate(mapping, scaling)
    finally:
        set_from_arrays_validation(previous)
