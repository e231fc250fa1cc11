#!/usr/bin/env python
"""Recovery-slack analysis of optimized designs (extension).

The fault-tolerance literature the paper builds on (Izosimov et al.,
Pop et al.) masks SEUs by re-executing affected tasks.  This example
asks: after the proposed power/reliability optimization, how much
re-execution head-room does each feasible design keep under the
real-time constraint?

Run:  python examples/recovery_analysis.py
"""

from repro.arch import MPSoC
from repro.faults import analyze_recovery
from repro.optim import DesignOptimizer, sea_mapper
from repro.taskgraph.mpeg2 import MPEG2_DEADLINE_S, mpeg2_decoder


def main() -> None:
    graph = mpeg2_decoder()
    optimizer = DesignOptimizer(
        graph,
        MPSoC.paper_reference(4),
        deadline_s=MPEG2_DEADLINE_S,
        mapper=sea_mapper(search_iterations=600),
        stop_after_feasible=None,
        seed=0,
    )
    outcome = optimizer.optimize()
    evaluator = optimizer.evaluator

    print(f"deadline: {MPEG2_DEADLINE_S * 1e3:.0f} ms — recovery head-room of "
          f"each feasible design:")
    print()
    print(f"{'scaling':>12}  {'P, mW':>7}  {'slack ms':>9}  {'worst-case':>10}  "
          f"{'tasks once':>10}")
    for point in sorted(outcome.feasible_points, key=lambda p: p.power_mw):
        analysis = analyze_recovery(
            point, MPEG2_DEADLINE_S, evaluator.schedule_of(point)
        )
        print(
            f"{','.join(map(str, point.scaling)):>12}  {point.power_mw:>7.2f}  "
            f"{analysis.slack_s * 1e3:>9.0f}  "
            f"{analysis.worst_case_reexecutions:>10}  "
            f"{len(analysis.tolerable_tasks):>10}"
        )

    best = outcome.best
    analysis = analyze_recovery(best, MPEG2_DEADLINE_S, evaluator.schedule_of(best))
    print()
    print(f"selected design {best.scaling}: slack "
          f"{analysis.slack_s * 1e3:.0f} ms "
          f"({analysis.slack_fraction * 100:.0f}% of the deadline)")
    if analysis.tolerates_any_single_fault:
        print("-> any single task can be re-executed after an SEU hit and "
              "the decode still meets its deadline.")
    else:
        print("-> no single-fault re-execution head-room: this design "
              "relies on error masking, not recovery.")


if __name__ == "__main__":
    main()
