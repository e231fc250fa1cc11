"""Fig. 9 — SEUs and power of Exp:1-3 relative to Exp:4.

The paper fixes the voltage scaling of all four experiments to the
common vector (s1, s2, s3, s4) = (2, 2, 3, 2) and compares the SEUs
experienced and power consumed by the baseline designs against the
proposed one: Exp:2 experiences up to +38% SEUs at -9% power (i.e.
Exp:4 cuts SEUs by 38% while *also* consuming 9% less... relative
direction per the paper's bars: positive = baseline worse).

:func:`run_fig9` takes each experiment's *design* (the Table II
mapping, regenerated via :func:`~repro.experiments.table2.run_table2`
or optimized fresh at the fixed scaling) and re-times it at the common
scaling vector, then reports the relative deltas of each baseline
against Exp:4 — exactly the paper's procedure ("Fig. 9 shows
comparison ... by the decoder design in Exp:1, Exp:2 and Exp:3 ...
with same voltage scaling coefficients").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import (
    ExperimentProfile,
    build_evaluator,
    format_table,
    percent_delta,
    run_cells,
)
from repro.experiments.table2 import EXPERIMENT_LABELS, EXPERIMENT_OBJECTIVES
from repro.mapping.mapping import Mapping
from repro.mapping.metrics import DesignPoint
from repro.optim.annealing import SimulatedAnnealingMapper
from repro.optim.design_optimizer import sea_mapper
from repro.experiments.table2 import Table2Result
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.mpeg2 import MPEG2_DEADLINE_S, mpeg2_decoder

#: The common scaling vector of the Fig. 9 comparison.
FIG9_SCALING: Tuple[int, ...] = (2, 2, 3, 2)


def _align_and_evaluate(evaluator, mapping: Mapping, scaling: Tuple[int, ...]):
    """Evaluate ``mapping`` at ``scaling`` under the best core relabeling.

    The MPSoC cores are identical, so a design optimized for one
    per-core scaling vector transfers to another by permuting core
    labels; we pick the permutation with the fewest expected SEUs,
    preferring deadline-feasible ones.
    """
    from itertools import permutations

    best = None
    best_key = None
    for perm in permutations(range(mapping.num_cores)):
        permuted = Mapping(
            {name: perm[mapping.core_of(name)] for name in mapping},
            mapping.num_cores,
        )
        point = evaluator.evaluate(permuted, scaling)
        key = (not point.meets_deadline, point.expected_seus)
        if best_key is None or key < best_key:
            best, best_key = point, key
    return best


@dataclass
class Fig9Result:
    """Per-experiment design points and the relative bars of Fig. 9."""

    points: Dict[str, DesignPoint] = field(default_factory=dict)
    scaling: Tuple[int, ...] = FIG9_SCALING

    def seu_delta_percent(self, experiment: str) -> float:
        """SEUs of ``experiment`` relative to Exp:4, percent."""
        return percent_delta(
            self.points[experiment].expected_seus, self.points["Exp:4"].expected_seus
        )

    def power_delta_percent(self, experiment: str) -> float:
        """Power of ``experiment`` relative to Exp:4, percent."""
        return percent_delta(
            self.points[experiment].power_mw, self.points["Exp:4"].power_mw
        )

    def bars(self) -> List[Tuple[str, float, float]]:
        """(experiment, SEU delta %, power delta %) for Exp:1-3."""
        return [
            (experiment, self.seu_delta_percent(experiment), self.power_delta_percent(experiment))
            for experiment in ("Exp:1", "Exp:2", "Exp:3")
        ]

    def shape_checks(self) -> Dict[str, bool]:
        """The paper's headline claims (the figure's bars).

        * Exp:2 (parallelism-optimized) experiences substantially more
          SEUs than the proposed design (paper: +38% seen from Exp:4);
        * Exp:3 experiences at least as many SEUs as Exp:4;
        * every baseline's SEU bar is non-negative — at the common
          scaling the proposed design experiences the fewest SEUs.
        """
        return {
            "exp2_much_more_seus": self.seu_delta_percent("Exp:2") > 10.0,
            "exp3_not_fewer_seus": self.seu_delta_percent("Exp:3") >= -1.0,
            "all_baselines_more_seus": all(
                self.seu_delta_percent(experiment) >= -1.0
                for experiment in ("Exp:1", "Exp:2", "Exp:3")
            ),
        }

    def format_table(self) -> str:
        headers = ["Exp.", "Gamma", "P,mW", "dSEU% vs Exp:4", "dP% vs Exp:4"]
        rows = []
        for experiment in ("Exp:1", "Exp:2", "Exp:3", "Exp:4"):
            point = self.points[experiment]
            if experiment == "Exp:4":
                dseu = dpower = "-"
            else:
                dseu = f"{self.seu_delta_percent(experiment):+.1f}"
                dpower = f"{self.power_delta_percent(experiment):+.1f}"
            rows.append(
                [
                    experiment,
                    f"{point.expected_seus:.3e}",
                    f"{point.power_mw:.2f}",
                    dseu,
                    dpower,
                ]
            )
        return format_table(headers, rows)


@dataclass(frozen=True)
class _Fig9ExperimentJob:
    """One experiment's fresh optimization at the fixed scaling.

    Picklable fan-out cell: rebuilds its evaluator and mapper with the
    serial loop's exact per-experiment seed, so the produced design
    point is identical wherever (and whenever — resume) it runs.
    """

    experiment: str
    offset: int
    graph: TaskGraph
    scaling: Tuple[int, ...]
    deadline_s: float
    profile: ExperimentProfile

    def run(self) -> DesignPoint:
        objective = EXPERIMENT_OBJECTIVES[self.experiment]
        num_cores = len(self.scaling)
        evaluator = build_evaluator(
            self.graph, num_cores, deadline_s=self.deadline_s
        )
        seed = self.profile.seed + 7000 + self.offset * 131
        if objective is None:  # Exp:4 — the proposed two-stage mapper
            mapper = sea_mapper(search_iterations=self.profile.search_iterations)
            return mapper(evaluator, self.scaling, seed)
        # Exp:1-3 — deadline-unaware simulated annealing ([13])
        initial = Mapping.round_robin(self.graph, num_cores)
        mapper = SimulatedAnnealingMapper(
            evaluator,
            objective,
            config=self.profile.annealing_config(),
            seed=seed,
            deadline_penalty=False,
            require_all_cores=True,
        )
        return mapper.run(initial, self.scaling)


def run_fig9(
    profile: Optional[ExperimentProfile] = None,
    graph: Optional[TaskGraph] = None,
    scaling: Optional[Tuple[int, ...]] = None,
    deadline_s: float = MPEG2_DEADLINE_S,
    table2: Optional["Table2Result"] = None,
) -> Fig9Result:
    """Reproduce the Fig. 9 comparison at a fixed scaling vector.

    Parameters
    ----------
    scaling:
        The common scaling.  Defaults to the scaling the proposed
        optimization chose in the Table II run when ``table2`` is
        given — that is what the paper's (2,2,3,2) was, the Exp:4/
        Exp:3 design scaling — and to (2,2,3,2) otherwise.
    table2:
        Optionally reuse an existing Table II run's designs; when
        omitted the mappings are optimized fresh at ``scaling`` (the
        baselines deadline-unaware, Exp:4 with the proposed two-stage
        mapper), which is equivalent up to search noise.
    """
    profile = profile or ExperimentProfile.fast()
    graph = graph or mpeg2_decoder()
    if scaling is None:
        if table2 is not None:
            scaling = table2.row("Exp:4").point.scaling
        else:
            scaling = FIG9_SCALING
    num_cores = len(scaling)
    evaluator = build_evaluator(graph, num_cores, deadline_s=deadline_s)

    result = Fig9Result(scaling=tuple(scaling))
    if table2 is not None:
        for row in table2.rows:
            result.points[row.experiment] = _align_and_evaluate(
                evaluator, row.point.mapping, tuple(scaling)
            )
        return result

    # Fresh path: the four experiments are independent cells (the
    # evaluator is pure, so private per-cell evaluators produce the
    # exact designs the former shared-evaluator loop did); they run
    # under the profile's execution plan and stream to the run store
    # when one is configured.
    jobs = [
        _Fig9ExperimentJob(
            experiment=experiment,
            offset=offset,
            graph=graph,
            scaling=tuple(scaling),
            deadline_s=deadline_s,
            profile=profile,
        )
        for offset, experiment in enumerate(EXPERIMENT_OBJECTIVES)
    ]
    points = run_cells(jobs, profile, label="fig9")
    for job, point in zip(jobs, points):
        result.points[job.experiment] = point
    return result


# Re-export labels for reporting convenience.
__all__ = ["FIG9_SCALING", "Fig9Result", "run_fig9", "EXPERIMENT_LABELS"]
