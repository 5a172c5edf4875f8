"""Extension: energy overhead of the SD-PCM schemes.

The paper motivates PCM main memory partly by power (Section 1) but
evaluates only performance; this study quantifies the energy cost of each
scheme's WD mitigation — extra verification reads, correction RESETs, and
ECP entry programming — per demand access.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import schemes
from ..stats.energy import energy_report
from .common import Cells, ExperimentResult, cell, paper_workload_names, run_grid

DEFAULT_WORKLOADS = ("gemsFDTD", "lbm", "mcf", "stream")
SCHEME_LINEUP = ("DIN", "baseline", "LazyC", "LazyC+PreRead", "(1:2)")


def cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> Cells:
    return {
        (bench, name): cell(bench, schemes.by_name(name), length=length)
        for bench in paper_workload_names(workloads or DEFAULT_WORKLOADS)
        for name in SCHEME_LINEUP
    }


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    result = ExperimentResult(
        title="Extension: WD-mitigation energy overhead (fraction of total pJ)",
        headers=["workload"] + list(SCHEME_LINEUP),
    )
    sums = {name: 0.0 for name in SCHEME_LINEUP}
    names = paper_workload_names(workloads or DEFAULT_WORKLOADS)
    sims = run_grid(cells(length, workloads))
    for bench in names:
        row: list = [bench]
        for name in SCHEME_LINEUP:
            report = energy_report(sims[bench, name].counters)
            row.append(report.wd_overhead_fraction)
            sums[name] += report.wd_overhead_fraction
        result.rows.append(row)
    means: list = ["mean"]
    for name in SCHEME_LINEUP:
        mean = sums[name] / len(names)
        means.append(mean)
        result.metrics[name] = mean
    result.rows.append(means)
    result.notes.append(
        "DIN and (1:2) pay ~0 (no VnC); baseline pays verification reads "
        "plus correction RESETs; LazyC trades corrections for cheaper ECP "
        "entry writes; PreRead moves read energy off the critical path but "
        "cannot remove it"
    )
    return result
