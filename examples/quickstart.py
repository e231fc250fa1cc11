#!/usr/bin/env python
"""Quickstart: the paper's Fig. 8 worked example, end to end.

Builds the six-task example graph, runs the two-stage soft error-aware
mapping at the paper's scalings (s = 1, 2, 2) under the 75 ms deadline,
prints the schedule, and validates the expected SEU count against a
Monte-Carlo fault-injection campaign.

Run:  python examples/quickstart.py
"""

from repro.arch import MPSoC
from repro.faults import FaultInjector
from repro.mapping import MappingEvaluator
from repro.optim import OptimizedMappingSearch, initial_sea_mapping
from repro.sim import MPSoCSimulator
from repro.taskgraph import fig8_example
from repro.taskgraph.examples import FIG8_DEADLINE_S, FIG8_SCALING


def main() -> None:
    graph = fig8_example()
    platform = MPSoC.paper_reference(num_cores=3)
    evaluator = MappingEvaluator(graph, platform, deadline_s=FIG8_DEADLINE_S)

    print(f"application : {graph.name} ({graph.num_tasks} tasks)")
    print(f"platform    : {platform.num_cores} ARM7 cores, scalings {FIG8_SCALING}")
    print(f"deadline    : {FIG8_DEADLINE_S * 1e3:.0f} ms")
    print()

    # Stage 1: constructive soft error-aware mapping (Fig. 6).
    initial = initial_sea_mapping(
        graph, platform, FIG8_DEADLINE_S, scaling=FIG8_SCALING
    )
    initial_point = evaluator.evaluate(initial, FIG8_SCALING)
    print("stage 1 (InitialSEAMapping):", initial_point.summary())

    # Stage 2: search-based optimized mapping (Fig. 7).
    search = OptimizedMappingSearch(evaluator, max_iterations=1000, seed=0)
    result = search.run(initial, FIG8_SCALING)
    best = result.best
    print("stage 2 (OptimizedMapping) :", best.summary())
    print()
    for core, tasks in enumerate(best.mapping.core_groups()):
        print(f"  core {core + 1} (s={FIG8_SCALING[core]}): {', '.join(tasks) or '-'}")
    print()
    print(evaluator.schedule_of(best).gantt_text())
    print()

    # Validate the analytic Gamma (Eq. 3) with Monte-Carlo injection.
    simulator = MPSoCSimulator(graph, platform, scaling=FIG8_SCALING)
    simulation = simulator.run(best.mapping)
    voltages = [
        platform.scaling_table.vdd_v(coefficient) for coefficient in FIG8_SCALING
    ]
    campaign = FaultInjector(seed=0).inject(simulation, voltages, runs=200)
    print(f"expected SEUs (Eq. 3)        : {best.expected_seus:.1f}")
    print(f"injected SEUs (mean/200 runs): {campaign.mean_seus_per_run:.1f}")


if __name__ == "__main__":
    main()
