"""Micro-benchmarks on the hot substrate paths.

These track the cost of the building blocks every experiment leans on:
list scheduling, full design-point evaluation, the scaling enumerator
(Fig. 5), the constructive mapper (Fig. 6) and one Monte-Carlo
injection pass.
"""

import pytest

from repro.arch import MPSoC
from repro.arch.platform import platform_model
from repro.arch.technode import TechNode
from repro.exec import DagExecutor, RetryPolicy, SerialTransport, executor_scope
from repro.faults import FaultInjector, SERModel
from repro.mapping import IncrementalMappingState, Mapping, MappingEvaluator
from repro.mapping.enumeration import stratified_mappings
from repro.optim import (
    AnnealingConfig,
    DesignOptimizer,
    SEUObjective,
    SimulatedAnnealingMapper,
    initial_sea_mapping,
    sea_mapper,
)
from repro.experiments import ExperimentProfile, run_table3
from repro.optim.scaling_algorithm import all_scalings_list
from repro.sched import ListScheduler
from repro.sim import MPSoCSimulator
from repro.taskgraph import (
    RandomGraphConfig,
    mpeg2_decoder,
    random_task_graph,
    streaming_pipeline_graph,
    tgff_random_graph,
)
from repro.taskgraph.mpeg2 import MPEG2_DEADLINE_S


@pytest.fixture(scope="module")
def mpeg2():
    return mpeg2_decoder()


@pytest.fixture(scope="module")
def graph60():
    return random_task_graph(RandomGraphConfig(num_tasks=60), seed=60)


@pytest.fixture(scope="module")
def graph120():
    """The >=100-task profile the descriptor inner-loop rows run on."""
    return random_task_graph(RandomGraphConfig(num_tasks=120), seed=120)


def test_bench_list_scheduler_mpeg2(benchmark, mpeg2):
    scheduler = ListScheduler(mpeg2, [2e8] * 4)
    mapping = Mapping.round_robin(mpeg2, 4)
    schedule = benchmark(scheduler.schedule, mapping)
    assert schedule.makespan_s() > 0


def test_bench_list_scheduler_60_tasks(benchmark, graph60):
    scheduler = ListScheduler(graph60, [2e8] * 6)
    mapping = Mapping.round_robin(graph60, 6)
    schedule = benchmark(scheduler.schedule, mapping)
    assert schedule.makespan_s() > 0


def test_bench_list_scheduler_timings_60_tasks(benchmark, graph60):
    """The schedule-free kernel the evaluator's miss path runs."""
    scheduler = ListScheduler(graph60, [2e8] * 6)
    mapping = Mapping.round_robin(graph60, 6)
    cores = graph60.compiled().signature(mapping)
    makespan_s, busy_s, busy_cycles = benchmark(scheduler.timings, cores)
    assert makespan_s == scheduler.schedule(mapping).makespan_s()


def test_bench_design_point_evaluation(benchmark, mpeg2):
    evaluator = MappingEvaluator(
        mpeg2,
        MPSoC.paper_reference(4),
        deadline_s=MPEG2_DEADLINE_S,
        cache_size=0,  # measure the uncached path
    )
    mapping = Mapping.round_robin(mpeg2, 4)
    point = benchmark(evaluator.evaluate, mapping, (2, 2, 3, 2))
    assert point.expected_seus > 0


def test_bench_design_point_evaluation_miss_120_tasks(benchmark, graph120):
    """The search loop's miss path: signature in, design point out.

    Covers the lazy ``Mapping.from_signature``, the static-order kernel
    and the bit-plane register sums on a graph with 1,000+ registers.
    """
    platform = MPSoC.paper_reference(6)
    evaluator = MappingEvaluator(graph120, platform, cache_size=0)
    mapping = Mapping.round_robin(graph120, 6)
    signature, signature_hash = mapping.signature_info(graph120.compiled())
    point = benchmark(
        evaluator.evaluate_signature,
        signature,
        platform.scaling_vector(),
        signature_hash=signature_hash,
        template=mapping,
    )
    assert point == evaluator.evaluate(mapping)


def test_bench_design_point_evaluation_cached(benchmark, mpeg2):
    """The LRU hit path: signature + OrderedDict bookkeeping only."""
    evaluator = MappingEvaluator(
        mpeg2,
        MPSoC.paper_reference(4),
        deadline_s=MPEG2_DEADLINE_S,
    )
    mapping = Mapping.round_robin(mpeg2, 4)
    evaluator.evaluate(mapping, (2, 2, 3, 2))  # warm the cache
    point = benchmark(evaluator.evaluate, mapping, (2, 2, 3, 2))
    assert point.expected_seus > 0
    assert evaluator.cache_hits > 0


def test_bench_incremental_move_estimate(benchmark, graph60):
    """Screening cost: one exact move preview on a 60-task graph."""
    platform = MPSoC.paper_reference(6)
    evaluator = MappingEvaluator(
        platform=platform,
        graph=graph60,
        deadline_s=RandomGraphConfig(num_tasks=60).deadline_s,
    )
    mapping = Mapping.round_robin(graph60, 6)
    state = IncrementalMappingState(evaluator, mapping, (2,) * 6)
    task = graph60.task_names()[7]
    estimate = benchmark(state.estimate_move, task, 3)
    assert estimate.register_bits_total > 0


def test_bench_neighbor_preview(benchmark, graph120):
    """The descriptor walk's O(degree) preview on the 120-task profile.

    ``estimate_move_index`` is the screening path the descriptor loop
    pays per candidate: no name lookup, no mapping diff, per-edge
    crossing deltas and mask-delta register bits.  Compare against
    ``test_bench_design_point_evaluation``-class numbers to read the
    screening economics (ARCHITECTURE "Screening policy").
    """
    platform = MPSoC.paper_reference(6)
    evaluator = MappingEvaluator(
        platform=platform,
        graph=graph120,
        deadline_s=RandomGraphConfig(num_tasks=120).deadline_s,
    )
    mapping = Mapping.round_robin(graph120, 6)
    state = IncrementalMappingState(evaluator, mapping, (2,) * 6)
    estimate = benchmark(state.estimate_move_index, 7, 3)
    assert estimate.register_bits_total > 0


def _inner_loop_mapper(graph120, iterations=600):
    evaluator = MappingEvaluator(
        graph120,
        MPSoC.paper_reference(6),
        deadline_s=RandomGraphConfig(num_tasks=120).deadline_s,
    )
    return SimulatedAnnealingMapper(
        evaluator,
        SEUObjective(),
        config=AnnealingConfig(max_iterations=iterations, restarts=1),
        seed=0,
        deadline_penalty=True,
        require_all_cores=True,
    )


def test_bench_sa_inner_loop_descriptor(benchmark, graph120):
    """The descriptor annealing inner loop on the >=100-task profile.

    One warm run makes the walk's whole trajectory cache-resident;
    measured rounds then repeat the identical deterministic walk with
    every evaluation an LRU hit, so the row isolates exactly what the
    descriptor rewrite changed — drawing, occupancy checks and cache
    probes — while the evaluation work (bit-identical on both paths
    by the determinism contract) stays out of the numerator and
    denominator alike.  The acceptance target is >= 2x over
    ``test_bench_sa_inner_loop_reference`` (measured, and asserted in
    the parity suite only for *results*, not timing).
    """
    mapper = _inner_loop_mapper(graph120)
    initial = Mapping.round_robin(graph120, 6)
    mapper.run(initial, (2,) * 6)  # warm: trajectory becomes cache-resident
    point = benchmark(mapper.run, initial, (2,) * 6)
    assert point.expected_seus > 0
    assert mapper.evaluator.cache_hits > 0


def test_bench_sa_inner_loop_reference(benchmark, graph120):
    """The retained Mapping-per-neighbour loop on the same trajectory.

    The denominator of the descriptor speedup: same seed, same
    accepted points, same cache-resident trajectory — but every
    neighbour pays the O(N) draw, Mapping copy, equality check,
    occupancy scan and signature walk the descriptor loop eliminated.
    """
    mapper = _inner_loop_mapper(graph120)
    initial = Mapping.round_robin(graph120, 6)
    mapper.run_reference(initial, (2,) * 6)  # warm, as above
    point = benchmark(mapper.run_reference, initial, (2,) * 6)
    assert point.expected_seus > 0
    assert mapper.evaluator.cache_hits > 0


def test_bench_design_optimizer_sweep(benchmark, mpeg2):
    """A full (trimmed) Fig. 4 sweep on the serial reference path."""

    def _sweep():
        optimizer = DesignOptimizer(
            mpeg2,
            MPSoC.paper_reference(4),
            deadline_s=MPEG2_DEADLINE_S,
            mapper=sea_mapper(search_iterations=150),
            stop_after_feasible=3,
            seed=0,
        )
        return optimizer.optimize()

    outcome = benchmark.pedantic(_sweep, rounds=3, iterations=1)
    assert outcome.best is not None


def test_bench_design_optimizer_sweep_dag(benchmark, mpeg2):
    """The same sweep on a ``DagExecutor.from_spec("auto")`` executor.

    Identical selected design by the exec determinism contract; on a
    multi-core machine this row tracks the parallel speedup over the
    serial sweep above (on a single-core box auto runs leaves inline).
    The executor (and its pool) is built once, as under the CLI.
    """

    def _sweep():
        optimizer = DesignOptimizer(
            mpeg2,
            MPSoC.paper_reference(4),
            deadline_s=MPEG2_DEADLINE_S,
            mapper=sea_mapper(search_iterations=150),
            stop_after_feasible=3,
            seed=0,
        )
        with executor_scope(executor):
            return optimizer.optimize()

    with DagExecutor.from_spec("auto") as executor:
        outcome = benchmark.pedantic(_sweep, rounds=3, iterations=1)
    assert outcome.best is not None


def _restart_sweep(graph60, executor=None):
    evaluator = MappingEvaluator(
        graph60,
        MPSoC.paper_reference(6),
        deadline_s=RandomGraphConfig(num_tasks=60).deadline_s,
    )
    mapper = SimulatedAnnealingMapper(
        evaluator,
        SEUObjective(),
        config=AnnealingConfig(max_iterations=400, restarts=4),
        seed=0,
        deadline_penalty=True,
        require_all_cores=True,
    )
    with executor_scope(executor):
        return mapper.run(Mapping.round_robin(graph60, 6), (2,) * 6)


def test_bench_sa_restart_sweep_serial(benchmark, graph60):
    """Four independent annealing restarts on the serial reference path."""
    point = benchmark.pedantic(_restart_sweep, args=(graph60,), rounds=3, iterations=1)
    assert point.expected_seus > 0


def test_bench_sa_restart_sweep_dag(benchmark, graph60):
    """The same restarts as leaves on a ``DagExecutor.from_spec("auto")``.

    Bit-identical selected design by the restart determinism contract;
    on a multi-core machine this row tracks the restart-level speedup
    over the serial sweep above (single-core boxes run leaves inline).
    """
    with DagExecutor.from_spec("auto") as executor:
        point = benchmark.pedantic(
            _restart_sweep, args=(graph60, executor), rounds=3, iterations=1
        )
    assert point.expected_seus > 0


@pytest.mark.parametrize("size", [8, 64, 256])
def test_bench_evaluate_batch_vectorized(benchmark, mpeg2, size):
    """Vectorized batch evaluation (one numpy pass per batch).

    Three batch sizes track how the per-batch fixed cost amortizes;
    the 64-row is the fig3-style workload and the speedup headline
    (compare against ``test_bench_evaluate_batch_loop`` below — the
    acceptance target is >= 3x at batch 64, measured not asserted).
    """
    evaluator = MappingEvaluator(
        mpeg2,
        MPSoC.paper_reference(4),
        deadline_s=MPEG2_DEADLINE_S,
        cache_size=0,  # measure the evaluation work, not cache hits
    )
    mappings = stratified_mappings(mpeg2, 4, size, seed=0)
    points = benchmark(evaluator.evaluate_batch, mappings, (2, 2, 3, 2))
    assert len(points) == len(mappings)
    assert all(point.expected_seus > 0 for point in points)


def test_bench_evaluate_batch_loop(benchmark, mpeg2):
    """The PR 2 per-mapping loop path on the same 64-mapping batch.

    Kept as ``evaluate_batch_reference``; this row is the denominator
    of the vectorized speedup and the parity suite's ground truth.
    """
    evaluator = MappingEvaluator(
        mpeg2,
        MPSoC.paper_reference(4),
        deadline_s=MPEG2_DEADLINE_S,
        cache_size=0,
    )
    mappings = stratified_mappings(mpeg2, 4, 64, seed=0)
    points = benchmark(evaluator.evaluate_batch_reference, mappings, (2, 2, 3, 2))
    assert len(points) == len(mappings)


def test_bench_scaling_enumeration(benchmark):
    combos = benchmark(all_scalings_list, 6, 4)
    assert len(combos) == 84


def test_bench_initial_sea_mapping(benchmark, graph60):
    platform = MPSoC.paper_reference(6)
    mapping = benchmark(
        initial_sea_mapping,
        graph60,
        platform,
        RandomGraphConfig(num_tasks=60).deadline_s,
    )
    assert mapping.num_tasks == 60


def _grid_fanout():
    """One tiny table3 grid (2 cells, full sweep) on ``dag:process``.

    ``stop_after_feasible=None`` fixes the total work; the executor
    feeds all four workers from the flattened restart / scaling
    leaves.  The report is byte-identical to a serial run — only the
    timing differs.
    """
    profile = ExperimentProfile(
        name="bench-grid",
        search_iterations=80,
        sa_iterations=150,
        stop_after_feasible=None,
        seed=0,
        exec_max_workers=4,  # oversubscribed on small CI boxes, by design
        exec_plan="dag:process",
    )
    config = RandomGraphConfig(num_tasks=10)
    graph = random_task_graph(config, seed=7)
    applications = [("bench", graph, config.deadline_s)]
    return run_table3(profile, core_counts=(2, 3), applications=applications)


def test_bench_grid_fanout_dag(benchmark):
    """The unified DAG executor on a tiny grid (gated row).

    Idle workers steal inner leaves from either cell; the regression
    gate tracks this row against the committed baseline.
    """
    result = benchmark.pedantic(_grid_fanout, rounds=2, iterations=1)
    assert result.apps() == ["bench"]


def _noop_leaf(value):
    return value


def _leaf_dispatch(policy):
    with DagExecutor(SerialTransport(), retry_policy=policy) as executor:
        return executor.map(_noop_leaf, list(range(256)))


def test_bench_dag_leaf_dispatch_no_retry(benchmark):
    """256 trivial leaves through the executor with retries disabled.

    The denominator of the retry-wrapper overhead: the pre-resilience
    dispatch loop (submit, wait, reassemble) with a one-attempt policy.
    """
    results = benchmark(_leaf_dispatch, RetryPolicy.no_retry())
    assert results == list(range(256))


def test_bench_dag_leaf_dispatch_retry_wrapper(benchmark):
    """The same batch under the default retry policy (gated row).

    No fault fires, so this measures the pure bookkeeping the
    fault-tolerance layer adds to the hot path — the failure-tracking
    array and the retryability plumbing.  The acceptance criterion is
    parity with ``dag_leaf_dispatch_no_retry``: the no-fault path must
    show no measurable regression.
    """
    results = benchmark(_leaf_dispatch, RetryPolicy())
    assert results == list(range(256))


def test_bench_hetero_list_scheduler_streaming(benchmark):
    """Heterogeneous scheduling: per-core cycle rows on big/little.

    The streaming split/merge skeleton is the shape mixed platforms
    exercise hardest — serial stages land on big cores, wide stages
    spread over littles — and every ready-pop reads a per-core cycle
    row instead of the shared homogeneous tuple.  Compare against
    ``test_bench_list_scheduler_60_tasks`` to read the cost of the
    per-type cycle indexing (the homogeneous rows must not move at
    all: they alias the seed tuple object).
    """
    graph = streaming_pipeline_graph(4, 6, seed=1)
    platform = platform_model("biglittle").instantiate(6)
    scheduler = ListScheduler.for_platform(graph, platform)
    mapping = Mapping.round_robin(graph, 6)
    schedule = benchmark(scheduler.schedule, mapping)
    assert schedule.makespan_s() > 0


def test_bench_hetero_evaluation_tgff_500(benchmark):
    """Full design-point evaluation of a 500-task TGFF DAG on big/little.

    The scale row for the heterogeneous path: per-(task, core-type)
    cycle tables, per-core capacitances and per-type DVS tables all in
    one uncached evaluation.
    """
    graph = tgff_random_graph(500, seed=3)
    platform = platform_model("biglittle").instantiate(8)
    evaluator = MappingEvaluator(graph, platform, cache_size=0)
    mapping = Mapping.round_robin(graph, 8)
    point = benchmark(evaluator.evaluate, mapping)
    assert point.expected_seus > 0


def test_bench_node_sweep_evaluation(benchmark, mpeg2):
    """One fixed design across the 45/22/8 nm node ladder.

    Tracks the whole node pipeline — table/spec/SER rescaling,
    platform instantiation and an uncached evaluation per node — the
    unit of work every cell of the hetero experiment grid pays.
    """
    mapping = Mapping.round_robin(mpeg2, 4)

    def _sweep():
        total = 0.0
        for spec in ("45nm", "22nm", "8nm"):
            node = TechNode.parse(spec)
            platform = platform_model("arm7").instantiate(4, tech_node=node)
            evaluator = MappingEvaluator(
                mpeg2,
                platform,
                ser_model=node.scale_ser(SERModel()),
                deadline_s=MPEG2_DEADLINE_S * 4,
                cache_size=0,
            )
            total += evaluator.evaluate(mapping, (1, 1, 1, 1)).power_mw
        return total

    total = benchmark(_sweep)
    assert total > 0


def test_bench_simulation_and_injection(benchmark, mpeg2):
    platform = MPSoC.paper_reference(4)
    mapping = Mapping.round_robin(mpeg2, 4)
    voltages = [platform.scaling_table.vdd_v(2)] * 4

    def _campaign():
        result = MPSoCSimulator(mpeg2, platform, scaling=(2, 2, 2, 2)).run(mapping)
        return FaultInjector(seed=0).inject(result, voltages)

    campaign = benchmark(_campaign)
    assert campaign.total_seus > 0
