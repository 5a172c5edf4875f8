"""Figure 17: normalized lifetime degradation on the data chips.

Correction writes are the only extra data-chip wear LazyCorrection leaves
(buffered errors are repaired for free by later demand writes).  Paper:
~0.04 % average degradation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import schemes
from ..stats.lifetime import lifetime_report
from .common import Cells, ExperimentResult, cell, paper_workload_names, run_grid


def cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> Cells:
    return {
        bench: cell(bench, schemes.lazyc_preread(), length=length)
        for bench in paper_workload_names(workloads)
    }


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 17: normalized data-chip lifetime (LazyC+PreRead)",
        headers=["workload", "normalized lifetime", "degradation %"],
    )
    degradations = []
    for bench, res in run_grid(cells(length, workloads)).items():
        report = lifetime_report(bench, res.counters)
        result.rows.append(
            [bench, report.data_chip, report.data_degradation * 100.0]
        )
        degradations.append(report.data_degradation)
    mean = sum(degradations) / len(degradations)
    result.metrics["mean_degradation"] = mean
    result.rows.append(["mean", 1.0 - mean, mean * 100.0])
    result.notes.append("paper: ~0.04% average data-chip lifetime degradation")
    return result
