"""Figure 13: system performance vs ECP entry count.

Normalized speedup over baseline VnC.  Paper: growing ECP from 0 to 6
yields ~21 % improvement (= the LazyC gain); beyond 6 the return is
negligible.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import schemes
from ..core.results import geometric_mean
from .common import Cells, ExperimentResult, cell, paper_workload_names, run_grid

ECP_LEVELS = (0, 2, 4, 6, 8, 10)


def cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    levels: Sequence[int] = ECP_LEVELS,
) -> Cells:
    specs: Cells = {}
    for bench in paper_workload_names(workloads):
        specs[bench, "base"] = cell(bench, schemes.baseline(), length=length)
        for n in levels:
            specs[bench, n] = cell(
                bench, schemes.lazyc(ecp_entries=n) if n else schemes.baseline(),
                length=length,
            )
    return specs


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    levels: Sequence[int] = ECP_LEVELS,
) -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 13: normalized speedup vs ECP entries (LazyC over baseline)",
        headers=["workload"] + [f"ECP-{n}" for n in levels],
    )
    columns: dict = {n: [] for n in levels}
    sims = run_grid(cells(length, workloads, levels))
    for bench in paper_workload_names(workloads):
        base = sims[bench, "base"]
        row: list = [bench]
        for n in levels:
            speedup = sims[bench, n].speedup_over(base)
            row.append(speedup)
            columns[n].append(speedup)
        result.rows.append(row)
    summary: list = ["gmean"]
    for n in levels:
        g = geometric_mean(columns[n])
        summary.append(g)
        result.metrics[f"ecp{n}"] = g
    result.rows.append(summary)
    result.notes.append("paper: ECP-6 reaches ~1.21x; more entries add little")
    return result
