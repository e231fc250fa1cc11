"""The batch evaluation API: exact parity with per-call evaluate().

``evaluate_batch`` is the vectorized (numpy) path since the batched
scheduler landed; ``evaluate_batch_reference`` keeps the per-mapping
loop.  Every test here asserts exact — bitwise — agreement between the
two and with per-call ``evaluate``, including cache contents, LRU
order and the evaluations/hit/miss counters.  The randomized section
runs in CI with ``REPRO_VALIDATE_SCHEDULES=1`` armed as well.
"""

import random

import pytest

from repro.arch import MPSoC
from repro.mapping import Mapping, MappingEvaluator
from repro.mapping.enumeration import stratified_mappings
from repro.taskgraph import RandomGraphConfig, mpeg2_decoder, random_task_graph
from repro.taskgraph.mpeg2 import MPEG2_DEADLINE_S

SCALING = (2, 2, 3, 2)


@pytest.fixture(scope="module")
def mpeg2():
    return mpeg2_decoder()


def _evaluator(mpeg2, **kwargs):
    return MappingEvaluator(
        mpeg2, MPSoC.paper_reference(4), deadline_s=MPEG2_DEADLINE_S, **kwargs
    )


def _sample(mpeg2, count=25):
    return stratified_mappings(mpeg2, 4, count, seed=0)


class TestEvaluateBatch:
    def test_matches_per_call_evaluate(self, mpeg2):
        mappings = _sample(mpeg2)
        batch_evaluator = _evaluator(mpeg2)
        single_evaluator = _evaluator(mpeg2)
        batch = batch_evaluator.evaluate_batch(mappings, SCALING)
        singles = [single_evaluator.evaluate(m, SCALING) for m in mappings]
        assert len(batch) == len(singles)
        for batched, single in zip(batch, singles):
            assert batched == single

    def test_cache_counters_match_per_call(self, mpeg2):
        # Duplicates inside the batch must hit the cache exactly as a
        # per-call loop would, and the counters must agree.
        mappings = _sample(mpeg2)
        mixed = mappings + mappings[:7] + [mappings[0]]
        batch_evaluator = _evaluator(mpeg2)
        single_evaluator = _evaluator(mpeg2)
        batch_evaluator.evaluate_batch(mixed, SCALING)
        for mapping in mixed:
            single_evaluator.evaluate(mapping, SCALING)
        assert batch_evaluator.cache_info == single_evaluator.cache_info
        assert batch_evaluator.evaluations == single_evaluator.evaluations
        assert batch_evaluator.cache_hits == 8

    def test_batch_seeds_cache_for_evaluate(self, mpeg2):
        evaluator = _evaluator(mpeg2)
        mappings = _sample(mpeg2, count=5)
        evaluator.evaluate_batch(mappings, SCALING)
        misses = evaluator.cache_misses
        evaluator.evaluate(mappings[0], SCALING)
        assert evaluator.cache_misses == misses  # pure hit

    def test_cache_disabled(self, mpeg2):
        evaluator = _evaluator(mpeg2, cache_size=0)
        mappings = _sample(mpeg2, count=4)
        points = evaluator.evaluate_batch(mappings + mappings, SCALING)
        assert len(points) == 8
        assert evaluator.cache_hits == 0
        assert evaluator.cache_misses == 8

    def test_empty_batch(self, mpeg2):
        evaluator = _evaluator(mpeg2)
        assert evaluator.evaluate_batch([], SCALING) == []
        assert evaluator.evaluations == 0

    def test_default_scaling(self, mpeg2):
        evaluator = _evaluator(mpeg2)
        mapping = Mapping.round_robin(mpeg2, 4)
        batched = evaluator.evaluate_batch([mapping])[0]
        assert batched == evaluator.evaluate(mapping)
        assert evaluator.cache_hits == 1

    def test_rejects_bad_scaling_width(self, mpeg2):
        evaluator = _evaluator(mpeg2)
        with pytest.raises(ValueError, match="entries"):
            evaluator.evaluate_batch([Mapping.round_robin(mpeg2, 4)], (1, 1))

    def test_matches_reference_path(self, mpeg2):
        # The batch path is still the compiled evaluation; spot-check
        # one point against the seed implementation.
        evaluator = _evaluator(mpeg2)
        mapping = Mapping.round_robin(mpeg2, 4)
        batched = evaluator.evaluate_batch([mapping], SCALING)[0]
        reference = evaluator.evaluate_reference(mapping, SCALING)
        assert batched.power_mw == reference.power_mw
        assert batched.expected_seus == reference.expected_seus
        assert batched.makespan_s == reference.makespan_s
        assert batched.register_bits_per_core == reference.register_bits_per_core


class TestVectorizedVsLoop:
    """The vectorized path vs the PR 2 loop path, field for field."""

    def test_matches_loop_path_bitwise(self, mpeg2):
        mappings = _sample(mpeg2, count=40)
        vec_evaluator = _evaluator(mpeg2)
        loop_evaluator = _evaluator(mpeg2)
        vectorized = vec_evaluator.evaluate_batch(mappings, SCALING)
        loop = loop_evaluator.evaluate_batch_reference(mappings, SCALING)
        for fast, slow in zip(vectorized, loop):
            assert fast == slow  # compares every metric field exactly
            assert fast.activities == slow.activities
            assert fast.execution_cycles_per_core == slow.execution_cycles_per_core
            assert fast.makespan_cycles == slow.makespan_cycles
        assert vec_evaluator.cache_info == loop_evaluator.cache_info
        assert vec_evaluator.evaluations == loop_evaluator.evaluations

    def test_loop_path_still_matches_per_call(self, mpeg2):
        mappings = _sample(mpeg2, count=10)
        loop_evaluator = _evaluator(mpeg2)
        single_evaluator = _evaluator(mpeg2)
        loop = loop_evaluator.evaluate_batch_reference(mappings, SCALING)
        singles = [single_evaluator.evaluate(m, SCALING) for m in mappings]
        assert loop == singles
        assert loop_evaluator.cache_info == single_evaluator.cache_info

    def test_tiny_cache_lru_parity(self, mpeg2):
        # Evictions mid-batch (cache smaller than the batch) must
        # leave the identical cache keys in the identical LRU order.
        mappings = _sample(mpeg2, count=9)
        mixed = mappings + mappings[:4] + mappings[::-1]
        batch_evaluator = _evaluator(mpeg2, cache_size=3)
        single_evaluator = _evaluator(mpeg2, cache_size=3)
        batch = batch_evaluator.evaluate_batch(mixed, SCALING)
        singles = [single_evaluator.evaluate(m, SCALING) for m in mixed]
        assert batch == singles
        assert batch_evaluator.cache_info == single_evaluator.cache_info
        assert list(batch_evaluator._cache.keys()) == list(
            single_evaluator._cache.keys()
        )

    def test_comm_model_parity(self, mpeg2):
        mappings = _sample(mpeg2, count=12)
        for comm_model in ("dedicated", "shared-bus"):
            vec = MappingEvaluator(
                mpeg2,
                MPSoC.paper_reference(4),
                deadline_s=MPEG2_DEADLINE_S,
                comm_model=comm_model,
            )
            single = MappingEvaluator(
                mpeg2,
                MPSoC.paper_reference(4),
                deadline_s=MPEG2_DEADLINE_S,
                comm_model=comm_model,
            )
            assert vec.evaluate_batch(mappings, SCALING) == [
                single.evaluate(m, SCALING) for m in mappings
            ]

    def test_error_leaves_no_placeholder_behind(self, mpeg2):
        evaluator = _evaluator(mpeg2)
        good = _sample(mpeg2, count=3)
        bad = Mapping.round_robin(mpeg2, 3)  # wrong platform width
        with pytest.raises(ValueError, match="scheduler"):
            evaluator.evaluate_batch(good + [bad], SCALING)
        # The cache must only ever hand out real design points.
        point = evaluator.evaluate(good[0], SCALING)
        assert point.makespan_s > 0


class TestSchedules:
    def test_schedules_skipped_by_default(self, mpeg2):
        # Design points carry metrics only; schedules are built on
        # demand through schedule_of.
        evaluator = _evaluator(mpeg2)
        points = evaluator.evaluate_batch(_sample(mpeg2, count=3), SCALING)
        assert all(not hasattr(point, "schedule") for point in points)

    def test_evaluate_rehydrates_batch_seeded_hits(self, mpeg2):
        # A cache hit on a batch-seeded point stays a pure hit, and the
        # point's on-demand schedule equals the scalar path's.
        evaluator = _evaluator(mpeg2)
        mappings = _sample(mpeg2, count=4)
        evaluator.evaluate_batch(mappings, SCALING)
        misses = evaluator.cache_misses
        point = evaluator.evaluate(mappings[0], SCALING)
        assert evaluator.cache_misses == misses  # still a pure hit
        schedule = evaluator.schedule_of(point)
        schedule.verify(mpeg2, mappings[0])
        reference_evaluator = _evaluator(mpeg2)
        reference = reference_evaluator.evaluate(mappings[0], SCALING)
        assert point == reference
        assert (
            schedule.to_rows()
            == reference_evaluator.schedule_of(reference).to_rows()
        )
        assert evaluator.schedule_of(point).makespan_s() == point.makespan_s

    def test_include_schedules_matches_serial(self, mpeg2):
        mappings = _sample(mpeg2, count=6)
        batch_evaluator = _evaluator(mpeg2)
        single_evaluator = _evaluator(mpeg2)
        batch = batch_evaluator.evaluate_batch(mappings, SCALING)
        for point, mapping in zip(batch, mappings):
            serial = single_evaluator.evaluate(mapping, SCALING)
            schedule = batch_evaluator.schedule_of(point)
            assert (
                schedule.to_rows()
                == single_evaluator.schedule_of(serial).to_rows()
            )
            schedule.verify(mpeg2, mapping)


class TestRandomizedScalings:
    """Randomized mappings across scalings, incl. 0/1-sized batches.

    This is the suite CI re-runs with ``REPRO_VALIDATE_SCHEDULES=1``:
    every batched row is then also scheduled in full, through the
    from_arrays validation checks, and must match its timings exactly.
    """

    @pytest.mark.parametrize("num_tasks,num_cores", [(15, 3), (40, 5)])
    def test_random_parity_across_scalings(self, num_tasks, num_cores):
        graph = random_task_graph(
            RandomGraphConfig(num_tasks=num_tasks), seed=num_tasks
        )
        deadline = RandomGraphConfig(num_tasks=num_tasks).deadline_s
        rng = random.Random(num_tasks)
        names = graph.task_names()
        scalings = [
            (1,) * num_cores,
            (3,) * num_cores,
            tuple(rng.choice((1, 2, 3)) for _ in range(num_cores)),
        ]
        for scaling in scalings:
            for batch_size in (0, 1, 7):
                mappings = [
                    Mapping(
                        {name: rng.randrange(num_cores) for name in names},
                        num_cores,
                    )
                    for _ in range(batch_size)
                ]
                vec = MappingEvaluator(
                    graph, MPSoC.paper_reference(num_cores), deadline_s=deadline
                )
                single = MappingEvaluator(
                    graph, MPSoC.paper_reference(num_cores), deadline_s=deadline
                )
                batch = vec.evaluate_batch(mappings, scaling)
                singles = [single.evaluate(m, scaling) for m in mappings]
                assert batch == singles
                assert vec.cache_info == single.cache_info
                for fast, slow in zip(batch, singles):
                    assert (
                        vec.schedule_of(fast).to_rows()
                        == single.schedule_of(slow).to_rows()
                    )
