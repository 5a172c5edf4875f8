"""Figure 16: sensitivity to the (n:m) ratio.

Larger n:m ratios waste less capacity but leave more adjacent strips live,
so performance degrades monotonically from (1:2) (no VnC at all) through
(2:3), (3:4), (7:8).  Paper: (1:2) shows no degradation versus DIN and the
curve falls monotonically toward the baseline as n/m -> 1.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..alloc.strips import usable_fraction
from ..core import schemes
from ..core.results import geometric_mean
from .common import Cells, ExperimentResult, cell, paper_workload_names, run_grid

RATIOS = ((1, 2), (2, 3), (3, 4), (7, 8))


def cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    ratios: Sequence[tuple] = RATIOS,
) -> Cells:
    specs: Cells = {}
    for bench in paper_workload_names(workloads):
        specs[bench, "base"] = cell(bench, schemes.baseline(), length=length)
        for n, m in ratios:
            specs[bench, (n, m)] = cell(bench, schemes.nm_alloc(n, m), length=length)
    return specs


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    ratios: Sequence[tuple] = RATIOS,
) -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 16: speedup over baseline for different (n:m) allocators",
        headers=["workload"] + [f"({n}:{m})" for n, m in ratios],
    )
    columns: dict = {r: [] for r in ratios}
    sims = run_grid(cells(length, workloads, ratios))
    for bench in paper_workload_names(workloads):
        base = sims[bench, "base"]
        row: list = [bench]
        for n, m in ratios:
            speedup = sims[bench, (n, m)].speedup_over(base)
            row.append(speedup)
            columns[(n, m)].append(speedup)
        result.rows.append(row)
    summary: list = ["gmean"]
    for n, m in ratios:
        g = geometric_mean(columns[(n, m)])
        summary.append(g)
        result.metrics[f"{n}:{m}"] = g
    result.rows.append(summary)
    capacity: list = ["usable capacity"]
    capacity += [usable_fraction(n, m) for n, m in ratios]
    result.rows.append(capacity)
    result.notes.append(
        "paper: monotone increase in speedup from (7:8) toward (1:2); "
        "(1:2) eliminates VnC entirely"
    )
    return result
