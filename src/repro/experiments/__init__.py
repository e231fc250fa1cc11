"""Experiment harness: regenerates every table and figure of the paper.

Each module owns one artifact of the evaluation section:

========  ===========================================================
Module    Paper artifact
========  ===========================================================
fig3      Fig. 3(a)-(c): T_M/R trade-off and Gamma concavity study
table2    Table II: Exp:1-4 on the MPEG-2 decoder, four cores
fig9      Fig. 9: relative SEUs/power of Exp:1-3 vs Exp:4
table3    Table III: architecture allocation sweep (2-6 cores)
fig10     Fig. 10: Exp:3 vs Exp:4 across core counts (60-task graph)
fig11     Fig. 11: impact of the number of voltage scaling levels
========  ===========================================================

All experiments accept an :class:`~repro.experiments.common.
ExperimentProfile` — ``fast()`` for CI-scale runs, ``full()`` for
paper-scale search budgets — and return plain dataclasses with
``format_table()`` renderers, so the benchmark harness and the CLI can
print the same rows the paper reports.
"""

from repro.experiments.common import ExperimentProfile, run_cells
from repro.experiments.fig3 import Fig3Result, run_fig3
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.fig9 import Fig9Result, run_fig9
from repro.experiments.table3 import Table3Result, run_table3
from repro.experiments.fig10 import Fig10Result, run_fig10
from repro.experiments.fig11 import Fig11Result, run_fig11
from repro.experiments.runner import run_all, run_experiment

__all__ = [
    "ExperimentProfile",
    "Fig10Result",
    "Fig11Result",
    "Fig3Result",
    "Fig9Result",
    "Table2Result",
    "Table3Result",
    "run_all",
    "run_cells",
    "run_experiment",
    "run_fig10",
    "run_fig11",
    "run_fig3",
    "run_fig9",
    "run_table2",
    "run_table3",
]
