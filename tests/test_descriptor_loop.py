"""Descriptor inner-loop determinism: bit-identical to the Mapping walk.

The contract under test (ISSUE 5 / ARCHITECTURE "Search inner loop"):
with the same seed, the descriptor-based ``run()`` of both searchers
reproduces the Mapping-based ``run_reference()`` exactly — accepted
points, RNG consumption, evaluation counts and cache hit/miss
counters — with restarts run serially or on an executor, screened and
unscreened, across randomized graphs.  Plus unit coverage for the
:class:`MoveSampler` (RNG parity, Fenwick partner selection,
occupancy tracking) and the inner-loop stats instrumentation.
"""

import random

import pytest

from repro.arch import MPSoC
from repro.exec import DagExecutor, executor_scope
from repro.mapping import Mapping, MappingEvaluator
from repro.optim import (
    AnnealingConfig,
    InnerLoopStats,
    MakespanObjective,
    Move,
    MoveSampler,
    OptimizedMappingSearch,
    RegisterUsageObjective,
    SEUObjective,
    SimulatedAnnealingMapper,
    Swap,
    random_neighbor,
)
from repro.optim.initial_mapping import initial_sea_mapping
from repro.taskgraph import RandomGraphConfig, mpeg2_decoder, random_task_graph
from repro.taskgraph.mpeg2 import MPEG2_DEADLINE_S


@pytest.fixture(scope="module")
def mpeg2():
    return mpeg2_decoder()


def _assert_same_point(first, second):
    assert first.mapping == second.mapping
    assert first.scaling == second.scaling
    assert first.power_mw == second.power_mw
    assert first.expected_seus == second.expected_seus
    assert first.makespan_s == second.makespan_s
    # Rendered artifacts (table2, CLI) list per-core tasks in the
    # mapping's insertion order; both loops must agree byte for byte.
    assert first.mapping.core_groups() == second.mapping.core_groups()


def _apply_descriptor(mapping, names, descriptor):
    if isinstance(descriptor, Move):
        return mapping.move(names[descriptor.task], descriptor.core)
    return mapping.swap(names[descriptor.task_a], names[descriptor.task_b])


class TestMoveSamplerParity:
    """draw() consumes the identical RNG stream as random_neighbor."""

    def test_draw_matches_random_neighbor_over_random_walks(self):
        for trial in range(25):
            seeder = random.Random(trial)
            if trial % 4 == 0:
                graph = mpeg2_decoder()
            else:
                graph = random_task_graph(
                    RandomGraphConfig(num_tasks=seeder.randrange(2, 36)),
                    seed=trial,
                )
            names = graph.task_names()
            num_cores = seeder.randrange(1, 6)
            mapping = Mapping(
                {name: seeder.randrange(num_cores) for name in names}, num_cores
            )
            compiled = graph.compiled()
            sampler = MoveSampler(compiled, compiled.signature(mapping), num_cores)
            rng_ref = random.Random(500 + trial)
            rng_desc = random.Random(500 + trial)
            focus = None
            for step in range(120):
                reference = random_neighbor(
                    mapping,
                    graph,
                    rng_ref,
                    focus_task=None if focus is None else names[focus],
                )
                descriptor = sampler.draw(rng_desc, focus=focus)
                if descriptor is None:
                    assert reference == mapping
                else:
                    derived = _apply_descriptor(mapping, names, descriptor)
                    assert derived == reference, (trial, step)
                    assert sampler.used_cores_after(descriptor) == len(
                        derived.used_cores()
                    )
                assert rng_ref.getstate() == rng_desc.getstate()
                if descriptor is not None and seeder.random() < 0.5:
                    sampler.apply(descriptor)
                    mapping = reference
                    focus = (
                        sampler.first_moved(descriptor) if step % 3 else None
                    )
                    assert sampler.used_cores == len(mapping.used_cores())
                    assert sampler.cores == [
                        mapping.core_of(name) for name in names
                    ]

    def test_degenerate_graphs_draw_nothing(self, mpeg2):
        compiled = mpeg2.compiled()
        single_core = MoveSampler(compiled, [0] * compiled.num_tasks, 1)
        rng = random.Random(0)
        state_before = rng.getstate()
        assert single_core.draw(rng) is None
        assert rng.getstate() == state_before  # no RNG consumed

    def test_rebuild_rejects_wrong_length(self, mpeg2):
        compiled = mpeg2.compiled()
        with pytest.raises(ValueError, match="covers"):
            MoveSampler(compiled, [0, 1], 4)

    def test_fenwick_partner_selection_is_exact(self):
        # _select_absent(core, k) must equal the k-th task not on
        # `core` in index order, for every (core, k).
        graph = random_task_graph(RandomGraphConfig(num_tasks=23), seed=5)
        compiled = graph.compiled()
        rng = random.Random(9)
        cores = [rng.randrange(4) for _ in range(compiled.num_tasks)]
        sampler = MoveSampler(compiled, cores, 4)
        for core in range(4):
            pool = [i for i, c in enumerate(cores) if c != core]
            for k, expected in enumerate(pool):
                assert sampler._select_absent(core, k) == expected


def _annealer(graph, num_cores, deadline, objective, seed, **kwargs):
    evaluator = MappingEvaluator(
        graph, MPSoC.paper_reference(num_cores), deadline_s=deadline
    )
    defaults = dict(
        config=AnnealingConfig(max_iterations=300, restarts=2),
        seed=seed,
        require_all_cores=True,
    )
    defaults.update(kwargs)
    return SimulatedAnnealingMapper(evaluator, objective, **defaults)


class TestAnnealerDescriptorParity:
    """run() == run_reference(): points, counters, cache traffic."""

    @pytest.mark.parametrize("screening", [False, True])
    @pytest.mark.parametrize(
        "objective", [SEUObjective(), RegisterUsageObjective(), MakespanObjective()]
    )
    def test_mpeg2_parity(self, mpeg2, screening, objective):
        results = []
        for reference in (False, True):
            mapper = _annealer(
                mpeg2,
                4,
                MPEG2_DEADLINE_S,
                objective,
                seed=7,
                screening=screening,
                screen_threshold=0.5,
            )
            runner = mapper.run_reference if reference else mapper.run
            point = runner(Mapping.round_robin(mpeg2, 4), (2, 2, 3, 2))
            evaluator = mapper.evaluator
            results.append(
                (
                    point,
                    evaluator.evaluations,
                    evaluator.cache_hits,
                    evaluator.cache_misses,
                    mapper.screened_moves,
                    mapper.screened_moves_per_restart,
                    mapper.restart_evaluations,
                )
            )
        _assert_same_point(results[0][0], results[1][0])
        assert results[0][1:] == results[1][1:]

    def test_randomized_graphs_parity(self):
        for trial in range(6):
            seeder = random.Random(trial)
            num_tasks = seeder.randrange(8, 40)
            graph = random_task_graph(
                RandomGraphConfig(num_tasks=num_tasks), seed=trial
            )
            num_cores = seeder.randrange(2, 7)
            scaling = tuple(seeder.randrange(1, 4) for _ in range(num_cores))
            deadline = RandomGraphConfig(num_tasks=num_tasks).deadline_s
            points = []
            for reference in (False, True):
                mapper = _annealer(
                    graph,
                    num_cores,
                    deadline,
                    SEUObjective(),
                    seed=trial,
                    screening=trial % 2 == 0,
                    require_all_cores=trial % 3 != 0,
                    config=AnnealingConfig(max_iterations=250, restarts=1),
                )
                runner = mapper.run_reference if reference else mapper.run
                points.append(runner(Mapping.round_robin(graph, num_cores), scaling))
            _assert_same_point(points[0], points[1])

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_restart_backend_parity(self, mpeg2, backend):
        # The descriptor loop inside restart jobs (serial ranking
        # replay) must still select the reference loop's design.
        initial = Mapping.round_robin(mpeg2, 4)
        parallel = _annealer(
            mpeg2,
            4,
            MPEG2_DEADLINE_S,
            SEUObjective(),
            seed=3,
            config=AnnealingConfig(max_iterations=200, restarts=3),
        )
        serial_reference = _annealer(
            mpeg2,
            4,
            MPEG2_DEADLINE_S,
            SEUObjective(),
            seed=3,
            config=AnnealingConfig(max_iterations=200, restarts=3),
        )
        with DagExecutor.from_spec(backend, max_workers=2) as executor:
            with executor_scope(executor):
                point = parallel.run(initial, (2, 2, 3, 2))
            assert executor.stats.tasks == 3  # one leaf per restart
        _assert_same_point(
            point, serial_reference.run_reference(initial, (2, 2, 3, 2))
        )
        assert (
            parallel.restart_evaluations == serial_reference.restart_evaluations
        )
        assert len(parallel.inner_stats_per_restart) == 3

    def test_deadline_unaware_mode_parity(self, mpeg2):
        # The Exp:1-3 baseline mode (deadline_penalty=False) is the
        # screening-heavy regime; parity must hold there too.
        points = []
        for reference in (False, True):
            mapper = _annealer(
                mpeg2,
                4,
                MPEG2_DEADLINE_S,
                RegisterUsageObjective(),
                seed=1,
                deadline_penalty=False,
                screening=True,
                screen_threshold=0.5,
                config=AnnealingConfig(
                    max_iterations=400, restarts=1, initial_temperature=0.01
                ),
            )
            runner = mapper.run_reference if reference else mapper.run
            points.append(runner(Mapping.round_robin(mpeg2, 4), (2, 2, 2, 2)))
        _assert_same_point(points[0], points[1])


class TestWalkDescriptorParity:
    """OptimizedMappingSearch run() == run_reference()."""

    @pytest.mark.parametrize("screen", [False, True])
    def test_mpeg2_parity(self, mpeg2, screen):
        platform = MPSoC.paper_reference(4)
        initial = initial_sea_mapping(
            mpeg2, platform, deadline_s=MPEG2_DEADLINE_S, scaling=(2, 2, 2, 2)
        )
        results, counters = [], []
        for reference in (False, True):
            evaluator = MappingEvaluator(
                mpeg2, platform, deadline_s=MPEG2_DEADLINE_S
            )
            search = OptimizedMappingSearch(
                evaluator,
                max_iterations=400,
                seed=11,
                screen_moves=screen,
                record_history=True,
            )
            runner = search.run_reference if reference else search.run
            results.append(runner(initial, (2, 2, 2, 2)))
            counters.append(
                (
                    evaluator.evaluations,
                    evaluator.cache_hits,
                    evaluator.cache_misses,
                    search.screened_moves,
                )
            )
        first, second = results
        _assert_same_point(first.best, second.best)
        assert (first.iterations, first.improvements, first.feasible) == (
            second.iterations,
            second.improvements,
            second.feasible,
        )
        assert first.history == second.history
        assert first.screened_moves == second.screened_moves
        assert counters[0] == counters[1]

    def test_intensification_and_focus_parity(self):
        # A small intensify_every forces tracker/sampler rebuilds and
        # exercises the focus-bias candidate ordering.
        graph = random_task_graph(RandomGraphConfig(num_tasks=30), seed=14)
        platform = MPSoC.paper_reference(5)
        deadline = RandomGraphConfig(num_tasks=30).deadline_s
        results = []
        for reference in (False, True):
            evaluator = MappingEvaluator(graph, platform, deadline_s=deadline)
            search = OptimizedMappingSearch(
                evaluator,
                max_iterations=300,
                seed=2,
                intensify_every=40,
                walk_probability=0.3,
            )
            runner = search.run_reference if reference else search.run
            results.append(runner(Mapping.round_robin(graph, 5), (2,) * 5))
        _assert_same_point(results[0].best, results[1].best)
        assert results[0].iterations == results[1].iterations
        assert results[0].improvements == results[1].improvements


class TestInnerLoopStats:
    def test_annealer_stats_populated_and_reset(self, mpeg2):
        mapper = _annealer(
            mpeg2,
            4,
            MPEG2_DEADLINE_S,
            SEUObjective(),
            seed=0,
            screening=True,
            screen_threshold=0.5,
            config=AnnealingConfig(max_iterations=200, restarts=2),
        )
        initial = Mapping.round_robin(mpeg2, 4)
        mapper.run(initial, (2, 2, 3, 2))
        stats = mapper.inner_stats
        assert stats.moves_drawn > 0
        assert stats.previews > 0
        assert stats.materialized_mappings > 0
        assert stats.screened_moves == mapper.screened_moves
        assert len(mapper.inner_stats_per_restart) == 2
        folded = InnerLoopStats()
        for per_restart in mapper.inner_stats_per_restart:
            folded.merge(per_restart)
        assert folded == stats
        # Reruns must not inherit the first run's counts: the RNG
        # walk repeats (same draws/screens) but the warm cache means
        # no neighbour misses — materializations drop to zero instead
        # of doubling.
        first = stats
        mapper.run(initial, (2, 2, 3, 2))
        assert mapper.inner_stats is not first
        assert mapper.inner_stats.moves_drawn == first.moves_drawn
        assert mapper.inner_stats.screened_moves == first.screened_moves
        assert mapper.inner_stats.materialized_mappings == 0

    def test_materializations_bounded_by_misses(self, mpeg2):
        mapper = _annealer(
            mpeg2,
            4,
            MPEG2_DEADLINE_S,
            SEUObjective(),
            seed=4,
            config=AnnealingConfig(max_iterations=250, restarts=1),
        )
        mapper.run(Mapping.round_robin(mpeg2, 4), (2, 2, 3, 2))
        stats = mapper.inner_stats
        # Every neighbour materialization is a cache miss; the initial
        # evaluation's miss is not a neighbour materialization.
        assert stats.materialized_mappings < mapper.evaluator.cache_misses + 1
        assert stats.moves_drawn >= stats.materialized_mappings

    def test_walk_stats_on_result(self, mpeg2):
        platform = MPSoC.paper_reference(4)
        evaluator = MappingEvaluator(mpeg2, platform, deadline_s=MPEG2_DEADLINE_S)
        search = OptimizedMappingSearch(
            evaluator, max_iterations=200, seed=3, intensify_every=30
        )
        result = search.run(Mapping.round_robin(mpeg2, 4), (2, 2, 2, 2))
        assert result.inner_stats is search.inner_stats
        assert result.inner_stats.moves_drawn > 0
        assert result.inner_stats.materialized_mappings > 0

    def test_reference_loops_report_zero_stats(self, mpeg2):
        mapper = _annealer(
            mpeg2,
            4,
            MPEG2_DEADLINE_S,
            SEUObjective(),
            seed=0,
            config=AnnealingConfig(max_iterations=100, restarts=1),
        )
        mapper.run_reference(Mapping.round_robin(mpeg2, 4), (2, 2, 3, 2))
        assert mapper.inner_stats == InnerLoopStats()


class TestDescriptorTypes:
    def test_descriptors_are_frozen_values(self):
        move = Move(task=3, core=1)
        swap = Swap(task_a=2, task_b=5)
        assert move == Move(3, 1)
        assert swap == Swap(2, 5)
        with pytest.raises(AttributeError):
            move.core = 2
