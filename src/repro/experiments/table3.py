"""Table III — architecture allocation: power and SEUs vs core count.

The paper runs the proposed optimization (Exp:4) for the MPEG-2
decoder and random task graphs of 20-100 tasks on MPSoCs with two to
six cores and reports two effects:

* the minimum-power core count is application-dependent (four cores
  for the MPEG-2 decoder under its deadline);
* the number of SEUs experienced grows monotonically with the core
  count (more parallelism -> deeper scaling and more register
  duplication).

:func:`run_table3` regenerates the table; the ``fast`` profile trims
the application set (MPEG-2 plus the 20- and 40-task graphs) while
``full`` covers the paper's six applications.
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
from repro.taskgraph.mpeg2 import MPEG2_DEADLINE_S, mpeg2_decoder
from repro.taskgraph.random_graphs import RandomGraphConfig, random_task_graph

#: Core counts swept by the paper.
CORE_COUNTS: Tuple[int, ...] = (2, 3, 4, 5, 6)

#: Random-graph sizes of the paper's application set.
RANDOM_SIZES_FULL: Tuple[int, ...] = (20, 40, 60, 80, 100)
RANDOM_SIZES_FAST: Tuple[int, ...] = (20, 40)


@dataclass
class Table3Cell:
    """One (application, core count) design."""

    app: str
    num_cores: int
    point: Optional[DesignPoint]

    @property
    def feasible(self) -> bool:
        return self.point is not None


@dataclass
class Table3Result:
    """The allocation sweep, indexed by application then core count."""

    cells: Dict[str, Dict[int, Table3Cell]] = field(default_factory=dict)
    core_counts: Tuple[int, ...] = CORE_COUNTS

    def apps(self) -> List[str]:
        """Application row labels, in insertion order."""
        return list(self.cells)

    def cell(self, app: str, num_cores: int) -> Table3Cell:
        return self.cells[app][num_cores]

    def power_series(self, app: str) -> List[Optional[float]]:
        """P (mW) across core counts for one application."""
        return [
            self.cells[app][cores].point.power_mw
            if self.cells[app][cores].feasible
            else None
            for cores in self.core_counts
        ]

    def gamma_series(self, app: str) -> List[Optional[float]]:
        """Gamma across core counts for one application."""
        return [
            self.cells[app][cores].point.expected_seus
            if self.cells[app][cores].feasible
            else None
            for cores in self.core_counts
        ]

    def min_power_cores(self, app: str) -> int:
        """The core count with minimum power for one application."""
        series = [
            (power, cores)
            for power, cores in zip(self.power_series(app), self.core_counts)
            if power is not None
        ]
        if not series:
            raise ValueError(f"no feasible design for {app!r}")
        return min(series)[1]

    def gamma_monotonicity(self, app: str, slack: float = 0.1) -> float:
        """Fraction of adjacent core-count steps where Gamma grew.

        ``slack`` tolerates small non-monotonic dips (search noise);
        a step counts as growing when Gamma(next) > (1 - slack) *
        Gamma(prev).
        """
        series = [gamma for gamma in self.gamma_series(app) if gamma is not None]
        if len(series) < 2:
            return 1.0
        growing = sum(
            1
            for prev, nxt in zip(series, series[1:])
            if nxt > (1.0 - slack) * prev
        )
        return growing / (len(series) - 1)

    def shape_checks(self) -> Dict[str, bool]:
        """The paper's two observations, aggregated over applications."""
        monotone = [self.gamma_monotonicity(app) for app in self.apps()]
        return {
            "gamma_grows_with_cores": sum(monotone) / len(monotone) >= 0.7,
            "min_power_not_always_max_cores": any(
                self.min_power_cores(app) < max(self.core_counts)
                for app in self.apps()
            ),
        }

    def format_table(self) -> str:
        headers = ["App."]
        for cores in self.core_counts:
            headers += [f"P({cores}c)", f"G({cores}c)"]
        rows = []
        for app in self.apps():
            row = [app]
            for cores in self.core_counts:
                cell = self.cells[app][cores]
                if cell.feasible:
                    row += [
                        f"{cell.point.power_mw:.2f}",
                        f"{cell.point.expected_seus:.2e}",
                    ]
                else:
                    row += ["-", "-"]
            rows.append(row)
        return format_table(headers, rows)


def table3_applications(
    profile: ExperimentProfile,
) -> List[Tuple[str, TaskGraph, float]]:
    """The application set: (label, graph, deadline seconds)."""
    sizes = RANDOM_SIZES_FULL if profile.name == "full" else RANDOM_SIZES_FAST
    apps: List[Tuple[str, TaskGraph, float]] = [
        ("MPEG-2", mpeg2_decoder(), MPEG2_DEADLINE_S)
    ]
    for size in sizes:
        config = RandomGraphConfig(num_tasks=size)
        graph = random_task_graph(config, seed=profile.seed + size)
        apps.append((f"{size} tasks", graph, config.deadline_s))
    return apps


@dataclass(frozen=True)
class _Table3CellJob:
    """One (application, core count) optimization, picklable for fan-out.

    The cell rebuilds its optimizer from scratch with the serial
    loop's exact per-cell seed (``app_index * 101 + cores``), so the
    produced design is identical wherever it runs.
    """

    label: str
    graph: TaskGraph
    deadline_s: float
    num_cores: int
    seed_offset: int
    profile: ExperimentProfile

    def run(self) -> Table3Cell:
        outcome = build_optimizer(
            self.graph,
            self.num_cores,
            self.deadline_s,
            self.profile,
            seed_offset=self.seed_offset,
        ).optimize()
        return Table3Cell(
            app=self.label, num_cores=self.num_cores, point=outcome.best
        )


def run_table3(
    profile: Optional[ExperimentProfile] = None,
    core_counts: Sequence[int] = CORE_COUNTS,
    applications: Optional[List[Tuple[str, TaskGraph, float]]] = None,
) -> Table3Result:
    """Run the architecture-allocation sweep.

    The application × core-count grid is embarrassingly parallel:
    cells run under the profile's execution plan with per-cell seeds
    and are reassembled in grid order, so the resulting table — and every
    shape check over it — is byte-identical to a serial run.
    """
    profile = profile or ExperimentProfile.fast()
    applications = applications or table3_applications(profile)
    jobs = [
        _Table3CellJob(
            label=label,
            graph=graph,
            deadline_s=deadline_s,
            num_cores=cores,
            seed_offset=app_index * 101 + cores,
            profile=profile,
        )
        for app_index, (label, graph, deadline_s) in enumerate(applications)
        for cores in core_counts
    ]
    cells = run_cells(jobs, profile, label="table3")
    result = Table3Result(core_counts=tuple(core_counts))
    for cell in cells:
        result.cells.setdefault(cell.app, {})[cell.num_cores] = cell
    return result
