"""Fig. 11 — impact of the number of voltage scaling levels.

The paper runs the proposed optimization on a six-core MPSoC with the
60-task random graph using 2-, 3- and 4-level scaling tables:

* 4 levels (adding a 236 MHz / 1.2 V point) lowers power a few percent
  at a small SEU increase — more scaling combinations give the power
  minimization more flexibility;
* 2 levels cuts SEUs substantially but costs much more power —
  limited scaling options force faster, higher-voltage cores.

:func:`run_fig11` regenerates the two series over the level presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import (
    ExperimentProfile,
    build_optimizer,
    format_table,
    run_cells,
)
from repro.mapping.metrics import DesignPoint
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.random_graphs import RandomGraphConfig, random_task_graph

#: Scaling-level presets swept by the paper.
LEVEL_COUNTS: Tuple[int, ...] = (2, 3, 4)

#: Platform size and workload of the Fig. 11 study.
NUM_CORES = 6
NUM_TASKS = 60


@dataclass
class Fig11Result:
    """Design points per scaling-level preset."""

    points: Dict[int, Optional[DesignPoint]] = field(default_factory=dict)

    def power_series(self) -> List[Optional[float]]:
        """P (mW) for 2, 3, 4 levels."""
        return [
            self.points[levels].power_mw if self.points.get(levels) else None
            for levels in LEVEL_COUNTS
        ]

    def gamma_series(self) -> List[Optional[float]]:
        """Gamma for 2, 3, 4 levels."""
        return [
            self.points[levels].expected_seus if self.points.get(levels) else None
            for levels in LEVEL_COUNTS
        ]

    def shape_checks(self) -> Dict[str, bool]:
        """The paper's claims, as orderings between the presets."""
        two, three, four = (self.points.get(levels) for levels in LEVEL_COUNTS)
        checks = {
            "all_levels_feasible": all(
                point is not None for point in (two, three, four)
            )
        }
        if checks["all_levels_feasible"]:
            checks["four_levels_no_more_power"] = four.power_mw <= three.power_mw * 1.02
            checks["two_levels_more_power"] = two.power_mw > three.power_mw
            checks["two_levels_fewer_seus"] = two.expected_seus < three.expected_seus
        return checks

    def format_table(self) -> str:
        headers = ["Levels", "P,mW", "Gamma", "Scaling chosen"]
        rows = []
        for levels in LEVEL_COUNTS:
            point = self.points.get(levels)
            if point is None:
                rows.append([str(levels), "-", "-", "-"])
            else:
                rows.append(
                    [
                        str(levels),
                        f"{point.power_mw:.2f}",
                        f"{point.expected_seus:.2e}",
                        ",".join(str(s) for s in point.scaling),
                    ]
                )
        return format_table(headers, rows)


@dataclass(frozen=True)
class _Fig11LevelJob:
    """One scaling-level preset's optimization, picklable for fan-out.

    Same seed offset for every preset: combined with the content-based
    per-scaling seeding, identical physical configurations yield
    identical designs across the presets, so the power orderings
    reflect the tables, not search noise.
    """

    graph: TaskGraph
    deadline_s: float
    num_cores: int
    num_levels: int
    profile: ExperimentProfile

    def run(self) -> Optional[DesignPoint]:
        return build_optimizer(
            self.graph,
            self.num_cores,
            self.deadline_s,
            self.profile,
            num_levels=self.num_levels,
            seed_offset=0,
        ).optimize().best


def run_fig11(
    profile: Optional[ExperimentProfile] = None,
    graph: Optional[TaskGraph] = None,
    deadline_s: Optional[float] = None,
    num_cores: int = NUM_CORES,
    level_counts: Sequence[int] = LEVEL_COUNTS,
    deadline_slack: float = 1.6,
) -> Fig11Result:
    """Regenerate the scaling-level study.

    ``deadline_slack`` loosens the default random-graph deadline so
    that the deepest (66.7 MHz) level is actually usable — the
    2-vs-3-level contrast the paper reports only exists when the
    deadline leaves room for deep scaling (with a deadline pinned just
    above the all-s2 makespan every preset collapses to the same
    design; see EXPERIMENTS.md).
    """
    profile = profile or ExperimentProfile.fast()
    if graph is None:
        config = RandomGraphConfig(num_tasks=NUM_TASKS)
        graph = random_task_graph(config, seed=profile.seed + NUM_TASKS)
        if deadline_s is None:
            deadline_s = config.deadline_s * deadline_slack
    elif deadline_s is None:
        raise ValueError("deadline_s is required with a custom graph")

    # Each preset is an independent cell: run under the profile's
    # execution plan and stream to the run store when one is
    # configured, reassembled in preset order — the same
    # designs the former in-line loop produced.
    jobs = [
        _Fig11LevelJob(
            graph=graph,
            deadline_s=deadline_s,
            num_cores=num_cores,
            num_levels=levels,
            profile=profile,
        )
        for levels in level_counts
    ]
    points = run_cells(jobs, profile, label="fig11")
    result = Fig11Result()
    for levels, point in zip(level_counts, points):
        result.points[levels] = point
    return result
