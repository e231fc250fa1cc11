"""Experiment orchestration: run any paper artifact by name.

:func:`run_experiment` dispatches on experiment id (``"fig3"``,
``"table2"``, ``"fig9"``, ``"table3"``, ``"fig10"``, ``"fig11"``) and
returns ``(result, report)`` where ``report`` is the printable table
plus the shape-check verdicts.  The CLI and EXPERIMENTS.md generation
both go through here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.experiments.common import ExperimentProfile, run_cells
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.hetero import run_hetero
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3

_RUNNERS: Dict[str, Callable[..., Any]] = {
    "fig3": run_fig3,
    "table2": run_table2,
    "fig9": run_fig9,
    "table3": run_table3,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "hetero": run_hetero,
}

_TITLES: Dict[str, str] = {
    "fig3": "Fig. 3 — task mapping vs reliability study",
    "table2": "Table II — Exp:1-4 on the MPEG-2 decoder (4 cores)",
    "fig9": "Fig. 9 — Exp:1-3 relative to Exp:4 at fixed scaling",
    "table3": "Table III — architecture allocation sweep",
    "fig10": "Fig. 10 — Exp:3 vs Exp:4 across core counts",
    "fig11": "Fig. 11 — voltage scaling level study",
    "hetero": "Extension — heterogeneous platform x technology node sweep",
}


def experiment_ids() -> Tuple[str, ...]:
    """All known experiment ids, in paper order."""
    return tuple(_RUNNERS)


def run_experiment(
    experiment_id: str, profile: Optional[ExperimentProfile] = None
) -> Tuple[Any, str]:
    """Run one experiment; return its result object and a text report."""
    try:
        runner = _RUNNERS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choose from {sorted(_RUNNERS)}"
        ) from None
    profile = profile or ExperimentProfile.fast()
    result = runner(profile)
    report = render_report(experiment_id, result, profile)
    return result, report


def render_report(experiment_id: str, result: Any, profile: ExperimentProfile) -> str:
    """Format a result object into the standard text report."""
    lines = [
        _TITLES.get(experiment_id, experiment_id),
        f"profile: {profile.name} (seed={profile.seed})",
        "",
        result.format_table(),
    ]
    if experiment_id == "fig3":
        from repro.experiments.plots import fig3_scatter

        lines += ["", "Gamma vs T_M (scaling 1) — the concave trade-off:", ""]
        lines.append(fig3_scatter(result, panel="b"))
    checks = getattr(result, "shape_checks", None)
    if checks is not None:
        lines.append("")
        lines.append("shape checks:")
        for name, passed in checks().items():
            lines.append(f"  [{'PASS' if passed else 'FAIL'}] {name}")
    return "\n".join(lines)


@dataclass(frozen=True)
class _ExperimentJob:
    """One whole experiment as a picklable fan-out cell."""

    experiment_id: str
    profile: ExperimentProfile

    def run(self) -> Tuple[Any, str]:
        return run_experiment(self.experiment_id, self.profile)


def run_all(
    profile: Optional[ExperimentProfile] = None,
    ids: Optional[Sequence[str]] = None,
) -> Dict[str, Tuple[Any, str]]:
    """Run every experiment (or the ``ids`` subset); id -> (result, report).

    Experiments are mutually independent cells of one grid (see
    :func:`~repro.experiments.common.run_cells`), and the returned dict
    keeps paper order — reports are byte-identical to a serial run
    whichever execution plan runs them.

    With ``profile.store_dir`` the sweep streams twice over: each
    finished experiment's ``(result, report)`` lands in the ``all``
    run store as it completes, and the experiments that fan cells out
    themselves (table3, fig10, fig3, fig9, fig11) additionally stream
    their own grids cell-by-cell under their own labels — so a crash
    mid-table3 resumes mid-table3, not from the sweep's start.
    """
    profile = profile or ExperimentProfile.fast()
    selected = tuple(ids) if ids is not None else experiment_ids()
    for experiment_id in selected:
        if experiment_id not in _RUNNERS:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; choose from {sorted(_RUNNERS)}"
            )
    jobs = [_ExperimentJob(experiment_id, profile) for experiment_id in selected]
    results = run_cells(jobs, profile, label="all")
    return {
        experiment_id: result for experiment_id, result in zip(selected, results)
    }
