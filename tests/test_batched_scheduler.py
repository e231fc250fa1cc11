"""Batched scheduler parity: B mappings in one numpy pass, bit-for-bit.

The suite asserts the structural fact the vectorized path rests on
(mapping-independent pop order) and then exact — no tolerance —
equality of everything the batch result exposes against per-mapping
``ListScheduler.schedule`` runs, over randomized graphs, mappings,
scalings and both comm models, including degenerate batches of size 0
and 1.  Runs in CI both plain and with ``REPRO_VALIDATE_SCHEDULES=1``
armed (the materialized schedules then pass the from_arrays row
checks).
"""

import random

import pytest

from repro.arch import MPSoC
from repro.mapping import Mapping
from repro.sched import BatchedListScheduler, ListScheduler
from repro.taskgraph import (
    RandomGraphConfig,
    fork_join_graph,
    mpeg2_decoder,
    pipeline_graph,
    random_task_graph,
)

def _random_mappings(graph, num_cores, count, seed):
    rng = random.Random(seed)
    names = graph.task_names()
    return [
        Mapping({name: rng.randrange(num_cores) for name in names}, num_cores)
        for _ in range(count)
    ]


def _frequencies(num_cores, seed):
    table = MPSoC.paper_reference(num_cores).scaling_table
    rng = random.Random(seed)
    return [
        table.frequency_hz(rng.choice((1, 2, 3))) for _ in range(num_cores)
    ]


def _assert_rows_match(batched_result, row, schedule):
    materialized = batched_result.schedule(row)
    assert materialized.to_rows() == schedule.to_rows()
    assert materialized.makespan_s() == schedule.makespan_s()
    assert batched_result.makespan_s(row) == schedule.makespan_s()
    assert batched_result.makespan_cycles(row) == schedule.makespan_cycles()
    for core in range(schedule.num_cores):
        assert float(batched_result.busy_s[row][core]) == schedule.busy_s(core)
        assert int(batched_result.busy_cycles[row][core]) == schedule.busy_cycles(
            core
        )
    assert batched_result.activities(row) == schedule.activities()


class TestStaticOrder:
    def test_pop_order_is_mapping_independent(self):
        """Serial schedules of different mappings share one pop order."""
        graph = mpeg2_decoder()
        scheduler = ListScheduler(graph, [2e8] * 4)
        batched = BatchedListScheduler(graph, [2e8] * 4)
        compiled = graph.compiled()
        for mapping in _random_mappings(graph, 4, 5, seed=1):
            schedule = scheduler.schedule(mapping)
            # Reconstruct the serial pop order: ascending finish per
            # core cannot recover it, but the entry list sorted back by
            # the schedule's internal order can — instead compare via
            # the batched order directly: every task's batched window
            # must equal the serial one.
            result = batched.run_mappings([mapping])
            for entry in schedule:
                task = compiled.index[entry.name]
                assert float(result.starts[0][task]) == entry.start_s
                assert float(result.finishes[0][task]) == entry.finish_s
        assert len(batched.order) == graph.num_tasks

    def test_order_matches_priorities(self):
        graph = pipeline_graph(6)
        batched = BatchedListScheduler(graph, [1e8] * 3)
        # A pipeline has a unique topological order; the pop order
        # must be exactly that.
        compiled = graph.compiled()
        assert list(batched.order) == list(compiled.topo_order)


class TestBatchParity:
    @pytest.mark.parametrize("comm_model", ["dedicated", "shared-bus"])
    def test_mpeg2_batch_matches_serial(self, comm_model):
        graph = mpeg2_decoder()
        frequencies = _frequencies(4, seed=7)
        serial = ListScheduler(graph, frequencies, comm_model=comm_model)
        batched = BatchedListScheduler(graph, frequencies, comm_model=comm_model)
        mappings = _random_mappings(graph, 4, 23, seed=11)
        result = batched.run_mappings(mappings)
        assert len(result) == len(mappings)
        for row, mapping in enumerate(mappings):
            _assert_rows_match(result, row, serial.schedule(mapping))

    @pytest.mark.parametrize("num_tasks,num_cores", [(12, 2), (30, 4), (60, 6)])
    @pytest.mark.parametrize("comm_model", ["dedicated", "shared-bus"])
    def test_random_graphs_match_serial(self, num_tasks, num_cores, comm_model):
        graph = random_task_graph(
            RandomGraphConfig(num_tasks=num_tasks), seed=num_tasks
        )
        frequencies = _frequencies(num_cores, seed=num_tasks)
        serial = ListScheduler(graph, frequencies, comm_model=comm_model)
        batched = BatchedListScheduler(
            graph, frequencies, comm_model=comm_model
        )
        mappings = _random_mappings(graph, num_cores, 9, seed=num_tasks + 1)
        result = batched.run_mappings(mappings)
        for row, mapping in enumerate(mappings):
            _assert_rows_match(result, row, serial.schedule(mapping))

    def test_fork_join_single_core(self):
        graph = fork_join_graph(4)
        serial = ListScheduler(graph, [1e8])
        batched = BatchedListScheduler(graph, [1e8])
        mapping = Mapping.all_on_core(graph, 1)
        result = batched.run_mappings([mapping])
        _assert_rows_match(result, 0, serial.schedule(mapping))

    def test_degenerate_batches(self):
        graph = mpeg2_decoder()
        batched = BatchedListScheduler(graph, [2e8] * 4)
        empty = batched.run_mappings([])
        assert len(empty) == 0
        single = batched.run_mappings([Mapping.round_robin(graph, 4)])
        assert len(single) == 1
        serial = ListScheduler(graph, [2e8] * 4)
        _assert_rows_match(single, 0, serial.schedule(Mapping.round_robin(graph, 4)))

    def test_schedules_helper_verifies(self):
        graph = mpeg2_decoder()
        batched = BatchedListScheduler(graph, [2e8] * 4)
        mappings = _random_mappings(graph, 4, 4, seed=3)
        for mapping, schedule in zip(mappings, batched.schedules(mappings)):
            schedule.verify(graph, mapping)


class TestValidation:
    def test_rejects_wrong_core_count(self):
        graph = mpeg2_decoder()
        batched = BatchedListScheduler(graph, [2e8] * 4)
        with pytest.raises(ValueError, match="scheduler has"):
            batched.run_mappings([Mapping.round_robin(graph, 3)])

    def test_rejects_wrong_coverage(self):
        graph = mpeg2_decoder()
        batched = BatchedListScheduler(graph, [2e8] * 4)
        other = pipeline_graph(6)
        with pytest.raises(ValueError, match="misses tasks"):
            batched.run_mappings([Mapping.round_robin(other, 4)])

    def test_rejects_short_rows(self):
        graph = mpeg2_decoder()
        batched = BatchedListScheduler(graph, [2e8] * 4)
        with pytest.raises(ValueError, match="assign all"):
            batched.run([[0, 1]])

    def test_rejects_out_of_range_cores(self):
        graph = mpeg2_decoder()
        batched = BatchedListScheduler(graph, [2e8] * 4)
        with pytest.raises(ValueError, match="core indices"):
            batched.run([[9] * graph.num_tasks])

    def test_rejects_bad_frequencies(self):
        graph = mpeg2_decoder()
        with pytest.raises(ValueError, match="positive"):
            BatchedListScheduler(graph, [2e8, -1.0])
        with pytest.raises(ValueError, match="comm model"):
            BatchedListScheduler(graph, [2e8], comm_model="wormhole")

    def test_graph_mutation_renews_plan(self):
        graph = pipeline_graph(4)
        batched = BatchedListScheduler(graph, [1e8] * 2)
        before = batched.order
        graph.add_task("tail", cycles=1000)
        graph.add_edge("t4", "tail", comm_cycles=10)
        mapping = Mapping(
            {name: 0 for name in graph.task_names()}, 2
        )
        result = batched.run_mappings([mapping])
        assert len(batched.order) == len(before) + 1
        serial = ListScheduler(graph, [1e8] * 2)
        _assert_rows_match(result, 0, serial.schedule(mapping))
