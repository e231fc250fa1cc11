"""Fig. 3 — impact of task mapping and voltage scaling on reliability.

Section III of the paper evaluates 120 task mappings of the MPEG-2
decoder on the four-core platform and reports:

* (a) the trade-off between multiprocessor execution time ``T_M`` and
  overall register usage ``R``;
* (b) the SEUs experienced ``Gamma`` versus ``T_M`` with all cores at
  scaling 1 — a concave curve with an interior minimum;
* (c) the same with all cores at scaling 2 — ``T_M`` roughly doubles
  and ``Gamma`` grows by roughly 2.5x.

:func:`run_fig3` reproduces all three panels on sampled mappings and
packages the series plus the paper's qualitative claims as checkable
predicates (:meth:`Fig3Result.shape_checks`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.common import (
    ExperimentProfile,
    build_evaluator,
    format_table,
    run_cells,
)
from repro.mapping.enumeration import stratified_mappings
from repro.mapping.mapping import Mapping
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.mpeg2 import MPEG2_DEADLINE_S, mpeg2_decoder


@dataclass
class Fig3Point:
    """One mapping's coordinates across the three panels."""

    mapping: Mapping
    makespan_s1_ms: float
    register_kbits: float
    gamma_s1: float
    makespan_s2_ms: float
    gamma_s2: float


@dataclass
class Fig3Result:
    """The three series of Fig. 3 plus derived shape diagnostics."""

    points: List[Fig3Point] = field(default_factory=list)

    # -- panel accessors ----------------------------------------------------

    def series_a(self) -> List[tuple]:
        """(T_M ms, R kbits) pairs — panel (a)."""
        return [(p.makespan_s1_ms, p.register_kbits) for p in self.points]

    def series_b(self) -> List[tuple]:
        """(T_M ms, Gamma) pairs at scaling 1 — panel (b)."""
        return [(p.makespan_s1_ms, p.gamma_s1) for p in self.points]

    def series_c(self) -> List[tuple]:
        """(T_M ms, Gamma) pairs at scaling 2 — panel (c)."""
        return [(p.makespan_s2_ms, p.gamma_s2) for p in self.points]

    # -- shape diagnostics ---------------------------------------------------

    def tm_r_correlation(self) -> float:
        """Pearson correlation between T_M and R (panel (a) trade-off)."""
        import numpy as np

        tm = np.array([p.makespan_s1_ms for p in self.points])
        reg = np.array([p.register_kbits for p in self.points])
        if tm.std() == 0 or reg.std() == 0:
            return 0.0
        return float(np.corrcoef(tm, reg)[0, 1])

    def gamma_minimum_is_interior(self, margin: float = 0.03) -> bool:
        """Panel (b): Gamma dips — both T_M extremes exceed an interior minimum.

        The paper's concave curve has its minimum "around the middle"
        of the T_M range; in this reconstruction the dip sits closer
        to the fast end because the graph is critical-path-bound (see
        EXPERIMENTS.md), so the check asserts the *shape* — the mean
        Gamma of the lowest-T_M decile and of the highest-T_M decile
        both exceed the minimum by ``margin`` — rather than the dip's
        exact position.
        """
        ordered = sorted(self.points, key=lambda p: p.makespan_s1_ms)
        if len(ordered) < 10:
            return False
        decile = max(len(ordered) // 10, 1)
        minimum = min(p.gamma_s1 for p in ordered)
        left = sum(p.gamma_s1 for p in ordered[:decile]) / decile
        right = sum(p.gamma_s1 for p in ordered[-decile:]) / decile
        interior = min(ordered, key=lambda p: p.gamma_s1)
        strictly_inside = (
            interior.makespan_s1_ms > ordered[0].makespan_s1_ms
            and interior.makespan_s1_ms < ordered[-1].makespan_s1_ms
        )
        return (
            strictly_inside
            and left > minimum * (1.0 + margin)
            and right > minimum * (1.0 + margin)
        )

    def mean_tm_ratio(self) -> float:
        """Panel (c): mean T_M(s=2) / T_M(s=1) — the paper reports ~2."""
        ratios = [
            p.makespan_s2_ms / p.makespan_s1_ms
            for p in self.points
            if p.makespan_s1_ms > 0
        ]
        return sum(ratios) / len(ratios)

    def mean_gamma_ratio(self) -> float:
        """Panel (c): mean Gamma(s=2) / Gamma(s=1) — the paper reports ~2.5."""
        ratios = [p.gamma_s2 / p.gamma_s1 for p in self.points if p.gamma_s1 > 0]
        return sum(ratios) / len(ratios)

    def shape_checks(self) -> Dict[str, bool]:
        """The paper's three observations as booleans."""
        return {
            "observation1_tm_r_tradeoff": self.tm_r_correlation() < -0.2,
            "observation2_gamma_concave_interior_min": self.gamma_minimum_is_interior(),
            "observation3_tm_doubles": 1.7 <= self.mean_tm_ratio() <= 2.3,
            "observation3_gamma_grows": 1.8 <= self.mean_gamma_ratio() <= 3.2,
        }

    def format_table(self, max_rows: int = 10) -> str:
        """A digest table of the sampled mappings."""
        ordered = sorted(self.points, key=lambda p: p.makespan_s1_ms)
        step = max(len(ordered) // max_rows, 1)
        rows = [
            [
                f"{p.makespan_s1_ms:.0f}",
                f"{p.register_kbits:.1f}",
                f"{p.gamma_s1:.3e}",
                f"{p.makespan_s2_ms:.0f}",
                f"{p.gamma_s2:.3e}",
            ]
            for p in ordered[::step][:max_rows]
        ]
        return format_table(
            ["T_M(s=1) ms", "R kbit", "Gamma(s=1)", "T_M(s=2) ms", "Gamma(s=2)"],
            rows,
        )


@dataclass(frozen=True)
class _Fig3PanelJob:
    """One panel scaling's full mapping sweep, picklable for fan-out.

    The job resamples the stratified mapping set (same seed, identical
    sample) and batch-evaluates it at its panel's uniform scaling in a
    private evaluator, so its point list is a pure function of the job
    — what the run store's resume contract needs.
    """

    graph: TaskGraph
    num_cores: int
    scaling_level: int
    deadline_s: float
    profile: ExperimentProfile

    def run(self):
        evaluator = build_evaluator(
            self.graph, self.num_cores, deadline_s=self.deadline_s
        )
        mappings = stratified_mappings(
            self.graph,
            self.num_cores,
            self.profile.fig3_mappings,
            seed=self.profile.seed,
        )
        scaling = (self.scaling_level,) * self.num_cores
        # Batch evaluation: one vectorized call per panel scaling — the
        # whole mapping sample is list-scheduled in a single numpy pass
        # (bit-identical metrics; schedules are skipped, nothing here
        # reads them).
        return evaluator.evaluate_batch(mappings, scaling)


def run_fig3(
    profile: Optional[ExperimentProfile] = None,
    graph: Optional[TaskGraph] = None,
    num_cores: int = 4,
) -> Fig3Result:
    """Reproduce the Fig. 3 study.

    The two panel scalings are independent cells: they run under the
    profile's execution plan and stream to the run store when one is
    configured, reassembled in panel order — results identical
    to the former in-line loop (evaluation is a pure function, and the
    per-panel evaluators see the same mapping sample).

    Parameters
    ----------
    profile:
        Budgets/seed; ``fast()`` when omitted.  ``fig3_mappings``
        controls the sample size (the paper used 120).
    graph:
        Application; the MPEG-2 decoder when omitted.
    num_cores:
        Platform size (the paper used four cores).
    """
    profile = profile or ExperimentProfile.fast()
    graph = graph or mpeg2_decoder()
    jobs = [
        _Fig3PanelJob(
            graph=graph,
            num_cores=num_cores,
            scaling_level=level,
            deadline_s=MPEG2_DEADLINE_S,
            profile=profile,
        )
        for level in (1, 2)
    ]
    points_1, points_2 = run_cells(jobs, profile, label="fig3")
    result = Fig3Result()
    for point_1, point_2 in zip(points_1, points_2):
        result.points.append(
            Fig3Point(
                mapping=point_1.mapping,
                makespan_s1_ms=point_1.makespan_s * 1e3,
                register_kbits=point_1.register_kbits_total,
                gamma_s1=point_1.expected_seus,
                makespan_s2_ms=point_2.makespan_s * 1e3,
                gamma_s2=point_2.expected_seus,
            )
        )
    return result
