"""Fig. 10 — Exp:3 vs Exp:4 across core counts (60-task random graph).

The paper compares the proposed optimization (Exp:4) against the joint
register-usage/parallelism baseline (Exp:3) on a 60-task random graph
for two to six cores: Exp:4 consistently experiences fewer SEUs (up to
7% fewer at six cores) at a small power premium (about 3%).

:func:`run_fig10` regenerates both series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import (
    ExperimentProfile,
    build_optimizer,
    format_table,
    percent_delta,
    run_cells,
)
from repro.mapping.metrics import DesignPoint
from repro.optim.objectives import RegisterTimeProductObjective
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.random_graphs import RandomGraphConfig, random_task_graph

#: Core counts of the Fig. 10 sweep.
CORE_COUNTS: Tuple[int, ...] = (2, 3, 4, 5, 6)

#: Random-graph size of the Fig. 10 workload.
NUM_TASKS = 60


@dataclass
class Fig10Cell:
    """Designs of both experiments at one core count."""

    num_cores: int
    exp3: Optional[DesignPoint]
    exp4: Optional[DesignPoint]

    @property
    def comparable(self) -> bool:
        return self.exp3 is not None and self.exp4 is not None


@dataclass
class Fig10Result:
    """Exp:3 and Exp:4 series across core counts."""

    cells: List[Fig10Cell] = field(default_factory=list)

    def seu_reduction_percent(self) -> Dict[int, float]:
        """Per core count: how much fewer SEUs Exp:4 experiences (+ = fewer)."""
        return {
            cell.num_cores: -percent_delta(
                cell.exp4.expected_seus, cell.exp3.expected_seus
            )
            for cell in self.cells
            if cell.comparable
        }

    def power_premium_percent(self) -> Dict[int, float]:
        """Per core count: Exp:4's extra power over Exp:3 (+ = more power)."""
        return {
            cell.num_cores: percent_delta(cell.exp4.power_mw, cell.exp3.power_mw)
            for cell in self.cells
            if cell.comparable
        }

    def shape_checks(self) -> Dict[str, bool]:
        """The paper's claims: Exp:4 mostly wins on SEUs at modest power cost."""
        reductions = list(self.seu_reduction_percent().values())
        premiums = list(self.power_premium_percent().values())
        if not reductions:
            return {"exp4_reduces_seus_mostly": False, "power_premium_small": False}
        wins = sum(1 for reduction in reductions if reduction > -1.0)
        return {
            "exp4_reduces_seus_mostly": wins >= (len(reductions) + 1) // 2,
            "power_premium_small": all(premium <= 25.0 for premium in premiums),
        }

    def format_table(self) -> str:
        headers = [
            "Cores",
            "Exp:3 P,mW",
            "Exp:3 Gamma",
            "Exp:4 P,mW",
            "Exp:4 Gamma",
            "SEU red.%",
            "P prem.%",
        ]
        rows = []
        reductions = self.seu_reduction_percent()
        premiums = self.power_premium_percent()
        for cell in self.cells:
            if cell.comparable:
                rows.append(
                    [
                        str(cell.num_cores),
                        f"{cell.exp3.power_mw:.2f}",
                        f"{cell.exp3.expected_seus:.2e}",
                        f"{cell.exp4.power_mw:.2f}",
                        f"{cell.exp4.expected_seus:.2e}",
                        f"{reductions[cell.num_cores]:+.1f}",
                        f"{premiums[cell.num_cores]:+.1f}",
                    ]
                )
            else:
                rows.append([str(cell.num_cores)] + ["-"] * 6)
        return format_table(headers, rows)


@dataclass(frozen=True)
class _Fig10CellJob:
    """One core count's Exp:3 + Exp:4 pair, picklable for fan-out."""

    graph: TaskGraph
    deadline_s: float
    num_cores: int
    profile: ExperimentProfile

    def run(self) -> Fig10Cell:
        objective = RegisterTimeProductObjective()
        exp3 = build_optimizer(
            self.graph,
            self.num_cores,
            self.deadline_s,
            self.profile,
            objective=objective,
            seed_offset=self.num_cores,
        ).optimize()
        exp4_outcome = build_optimizer(
            self.graph,
            self.num_cores,
            self.deadline_s,
            self.profile,
            seed_offset=self.num_cores,
        ).optimize()
        # Power-parity comparison (the paper's framing: up to 7% fewer
        # SEUs at only ~3% more power): among the proposed flow's
        # feasible designs, take the min-SEU one whose power stays
        # within a small premium over the Exp:3 baseline.
        exp4 = exp4_outcome.best
        if exp3.best is not None:
            matched = exp4_outcome.best_within_power(
                exp3.best.power_mw, tolerance=0.05
            )
            if matched is not None:
                exp4 = matched
        return Fig10Cell(num_cores=self.num_cores, exp3=exp3.best, exp4=exp4)


def run_fig10(
    profile: Optional[ExperimentProfile] = None,
    graph: Optional[TaskGraph] = None,
    deadline_s: Optional[float] = None,
    core_counts: Sequence[int] = CORE_COUNTS,
) -> Fig10Result:
    """Regenerate the Fig. 10 comparison.

    Each core count's Exp:3/Exp:4 pair is one independent cell; cells
    run under the profile's execution plan and are reassembled in
    core-count order, byte-identical to a serial run.
    """
    profile = profile or ExperimentProfile.fast()
    if graph is None:
        config = RandomGraphConfig(num_tasks=NUM_TASKS)
        graph = random_task_graph(config, seed=profile.seed + NUM_TASKS)
        deadline_s = deadline_s if deadline_s is not None else config.deadline_s
    elif deadline_s is None:
        raise ValueError("deadline_s is required with a custom graph")

    jobs = [
        _Fig10CellJob(
            graph=graph, deadline_s=deadline_s, num_cores=cores, profile=profile
        )
        for cores in core_counts
    ]
    result = Fig10Result()
    result.cells.extend(run_cells(jobs, profile, label="fig10"))
    return result
