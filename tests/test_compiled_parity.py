"""Property-based parity: compiled evaluation core vs seed implementations.

The compiled stack (``CompiledTaskGraph`` + array-based
``ListScheduler.schedule`` + the evaluator's bitmask register path)
must be *bit-for-bit* equivalent to the seed implementations, which
are kept alive as ``ListScheduler.schedule_reference`` and
``MappingEvaluator.evaluate_reference``.  These tests sweep random
graphs, mappings, scalings and both communication models and assert
exact equality — no tolerances.
"""

import math
import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import MPSoC
from repro.mapping import Mapping, MappingEvaluator
from repro.sched import ListScheduler
from repro.taskgraph import (
    RandomGraphConfig,
    TaskGraph,
    fork_join_graph,
    layered_graph,
    mpeg2_decoder,
    pipeline_graph,
    random_task_graph,
)
from repro.taskgraph.examples import fig8_example
from repro.taskgraph.mpeg2 import MPEG2_DEADLINE_S
from repro.taskgraph.registers import Register

POINT_FIELDS = (
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


def _random_case(rng, trial):
    """One random (graph, mapping, frequencies/platform) case."""
    kind = trial % 5
    if kind == 0:
        graph = mpeg2_decoder()
    elif kind == 1:
        graph = fig8_example()
    elif kind == 2:
        graph = pipeline_graph(rng.randrange(3, 9))
    elif kind == 3:
        graph = fork_join_graph(rng.randrange(2, 6))
    else:
        graph = random_task_graph(
            RandomGraphConfig(num_tasks=rng.randrange(5, 35)), seed=trial
        )
    num_cores = rng.randrange(1, 6)
    mapping = Mapping(
        {name: rng.randrange(num_cores) for name in graph.task_names()}, num_cores
    )
    return graph, num_cores, mapping


class TestCompiledGraphStructure:
    def test_arrays_mirror_graph(self, mpeg2):
        compiled = mpeg2.compiled()
        assert compiled.names == mpeg2.task_names()
        assert compiled.num_tasks == mpeg2.num_tasks
        levels = mpeg2.bottom_levels()
        for i, name in enumerate(compiled.names):
            assert compiled.cycles[i] == mpeg2.task(name).cycles
            assert compiled.bottom_levels[i] == levels[name]
            preds = tuple(
                compiled.names[compiled.pred_idx[e]]
                for e in range(compiled.pred_ptr[i], compiled.pred_ptr[i + 1])
            )
            assert preds == mpeg2.predecessors(name)
            succs = tuple(
                compiled.names[compiled.succ_idx[e]]
                for e in range(compiled.succ_ptr[i], compiled.succ_ptr[i + 1])
            )
            assert succs == mpeg2.successors(name)
        assert [compiled.names[i] for i in compiled.topo_order] == list(
            mpeg2.topological_order()
        )
        assert compiled.critical_path_cycles == mpeg2.critical_path_cycles()
        assert compiled.total_cycles == mpeg2.total_cycles()

    def test_register_masks_match_register_map(self, mpeg2):
        compiled = mpeg2.compiled()
        register_map = mpeg2.register_map()
        rng = random.Random(3)
        names = list(mpeg2.task_names())
        for _ in range(50):
            subset = rng.sample(names, rng.randrange(1, len(names) + 1))
            indices = [compiled.index[name] for name in subset]
            assert compiled.union_bits(indices) == register_map.union_bits(subset)

    def test_mask_zero_has_no_bits(self, mpeg2):
        compiled = mpeg2.compiled()
        assert compiled.mask_bits(0) == 0
        assert compiled.union_bits([]) == 0

    def test_bit_planes_on_a_large_register_set(self):
        """100 tasks, more than 1,000 registers: planes vs the oracle."""
        graph = random_task_graph(RandomGraphConfig(num_tasks=100), seed=100)
        compiled = graph.compiled()
        assert len(compiled.registers) > 1000
        register_map = graph.register_map()
        rng = random.Random(7)
        names = list(graph.task_names())
        for _ in range(40):
            subset = rng.sample(names, rng.randrange(1, len(names) + 1))
            indices = [compiled.index[name] for name in subset]
            assert compiled.union_bits(indices) == register_map.union_bits(subset)
        cores = [rng.randrange(6) for _ in names]
        for core, mask in enumerate(compiled.core_masks(cores, 6)):
            on_core = [name for name, c in zip(names, cores) if c == core]
            assert compiled.mask_bits(mask) == register_map.union_bits(on_core)

    @given(
        unit=st.sampled_from([1, 2, 40, 3 * 2**20]),
        widths=st.lists(
            st.integers(min_value=1, max_value=2**40), min_size=1, max_size=30
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_planes_match_register_map(self, unit, widths, data):
        """Widths up to 2**40, with and without a shared gcd above 1."""
        widths = [max(1, width // unit) * unit for width in widths]
        registers = [Register(f"r{i}", width) for i, width in enumerate(widths)]
        graph = TaskGraph(name="planes")
        num_tasks = data.draw(st.integers(min_value=1, max_value=8))
        for t in range(num_tasks):
            graph.add_task(
                f"t{t}",
                cycles=1,
                registers=data.draw(st.lists(st.sampled_from(registers))),
            )
        compiled = graph.compiled()
        register_map = graph.register_map()
        if compiled.register_bits:
            gcd = reduce(math.gcd, compiled.register_bits)
            assert compiled.register_unit == gcd and gcd % unit == 0
        subset = data.draw(st.lists(st.sampled_from(graph.task_names()), unique=True))
        indices = [compiled.index[name] for name in subset]
        assert compiled.union_bits(indices) == register_map.union_bits(subset)
        everything = (1 << len(compiled.registers)) - 1
        assert compiled.mask_bits(everything) == register_map.total_bits()
        assert compiled.mask_bits(0) == 0

    def test_cached_and_invalidated_on_mutation(self, mpeg2):
        first = mpeg2.compiled()
        assert mpeg2.compiled() is first  # cached
        mpeg2.add_task("extra", 100)
        second = mpeg2.compiled()
        assert second is not first
        assert second.num_tasks == first.num_tasks + 1
        mpeg2.add_edge("t11", "extra", 5)
        third = mpeg2.compiled()
        assert third is not second

    def test_signature_is_canonical(self, mpeg2):
        compiled = mpeg2.compiled()
        names = list(mpeg2.task_names())
        forward = Mapping({name: i % 3 for i, name in enumerate(names)}, 3)
        backward = Mapping(
            {name: i % 3 for i, name in reversed(list(enumerate(names)))}, 3
        )
        assert compiled.signature(forward) == compiled.signature(backward)

    def test_signature_rejects_incomplete_mapping(self, mpeg2):
        compiled = mpeg2.compiled()
        with pytest.raises(ValueError, match="misses"):
            compiled.signature(Mapping({"t1": 0}, 4))


class TestSchedulerParity:
    @pytest.mark.parametrize("comm_model", ["dedicated", "shared-bus"])
    def test_random_cases_bit_for_bit(self, comm_model):
        rng = random.Random(1234)
        for trial in range(120):
            graph, num_cores, mapping = _random_case(rng, trial)
            frequencies = [
                rng.choice([1.0e8, 1.5e8, 2.0e8]) for _ in range(num_cores)
            ]
            scheduler = ListScheduler(graph, frequencies, comm_model=comm_model)
            fast = scheduler.schedule(mapping)
            reference = scheduler.schedule_reference(mapping)
            assert tuple(fast) == tuple(reference)
            assert fast.makespan_s() == reference.makespan_s()
            assert fast.activities() == reference.activities()
            for core in range(num_cores):
                assert fast.busy_cycles(core) == reference.busy_cycles(core)
                assert fast.busy_s(core) == reference.busy_s(core)

    def test_schedule_verifies_against_graph(self, mpeg2):
        scheduler = ListScheduler(mpeg2, [2e8] * 4)
        mapping = Mapping.round_robin(mpeg2, 4)
        scheduler.schedule(mapping).verify(mpeg2, mapping)

    def test_mismatched_mapping_raises_like_reference(self, mpeg2, fig8):
        scheduler = ListScheduler(mpeg2, [2e8] * 4)
        wrong_cover = Mapping({"t1": 0}, 4)
        with pytest.raises(ValueError, match="misses"):
            scheduler.schedule(wrong_cover)
        wrong_cores = Mapping.round_robin(mpeg2, 3)
        with pytest.raises(ValueError, match="cores"):
            scheduler.schedule(wrong_cores)

    def test_for_platform_uses_platform_frequencies(self, mpeg2, platform4):
        scheduler = ListScheduler.for_platform(mpeg2, platform4, scaling=(1, 2, 3, 1))
        table = platform4.scaling_table
        assert scheduler.frequencies_hz == tuple(
            table.frequency_hz(s) for s in (1, 2, 3, 1)
        )


class TestEvaluatorParity:
    @pytest.mark.parametrize("comm_model", ["dedicated", "shared-bus"])
    def test_random_cases_bit_for_bit(self, comm_model):
        rng = random.Random(99)
        for trial in range(60):
            graph, num_cores, mapping = _random_case(rng, trial)
            if num_cores < 2:
                num_cores = 2
                mapping = Mapping(
                    {name: rng.randrange(num_cores) for name in graph.task_names()},
                    num_cores,
                )
            platform = MPSoC.paper_reference(num_cores)
            evaluator = MappingEvaluator(
                graph,
                platform,
                deadline_s=MPEG2_DEADLINE_S,
                comm_model=comm_model,
            )
            scaling = tuple(rng.randrange(1, 4) for _ in range(num_cores))
            fast = evaluator.evaluate(mapping, scaling)
            reference = evaluator.evaluate_reference(mapping, scaling)
            for field in POINT_FIELDS:
                assert getattr(fast, field) == getattr(reference, field), field

    def test_graph_mutation_invalidates_evaluator_memos(self):
        # Regression: the per-scaling scheduler memo and the LRU cache
        # snapshot graph structure; a mutation must not let evaluate()
        # serve results for the old graph.
        graph = mpeg2_decoder()
        platform = MPSoC.paper_reference(4)
        evaluator = MappingEvaluator(graph, platform, deadline_s=MPEG2_DEADLINE_S)
        mapping = Mapping.round_robin(graph, 4)
        before = evaluator.evaluate(mapping, (1, 1, 1, 1))
        graph.add_edge("t1", "t3", 400_000)
        after = evaluator.evaluate(mapping, (1, 1, 1, 1))
        reference = evaluator.evaluate_reference(mapping, (1, 1, 1, 1))
        assert after.makespan_s == reference.makespan_s
        assert after.expected_seus == reference.expected_seus
        assert after.makespan_s != before.makespan_s

    def test_graph_mutation_refreshes_standalone_scheduler(self):
        graph = mpeg2_decoder()
        scheduler = ListScheduler(graph, [2e8] * 4)
        mapping = Mapping.round_robin(graph, 4)
        scheduler.schedule(mapping)
        graph.add_edge("t1", "t3", 400_000)
        assert tuple(scheduler.schedule(mapping)) == tuple(
            scheduler.schedule_reference(mapping)
        )

    def test_layered_graph_with_shared_registers(self):
        graph = layered_graph(4, 3, seed=5)
        platform = MPSoC.paper_reference(3)
        evaluator = MappingEvaluator(graph, platform)
        mapping = Mapping.round_robin(graph, 3)
        fast = evaluator.evaluate(mapping, (1, 2, 3))
        reference = evaluator.evaluate_reference(mapping, (1, 2, 3))
        for field in POINT_FIELDS:
            assert getattr(fast, field) == getattr(reference, field), field
