"""Figure 12: correction operations per write vs ECP entry count.

LazyCorrection buffers WD errors in spare ECP entries; more entries mean
fewer overflow-triggered correction writes.  Paper: ECP-0 (= baseline)
triggers ~1.8 corrections per write, ECP-4 only ~0.14, ECP-6 is sufficient
for all but mcf (ECP-8 still shows 0.04 for mcf); gemsFDTD flips few bits
per write and sits much lower throughout.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import schemes
from .common import Cells, ExperimentResult, cell, paper_workload_names, run_grid

ECP_LEVELS = (0, 2, 4, 6, 8, 10)


def cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    levels: Sequence[int] = ECP_LEVELS,
) -> Cells:
    return {
        (bench, n): cell(
            bench, schemes.lazyc(ecp_entries=n) if n else schemes.baseline(),
            length=length,
        )
        for bench in paper_workload_names(workloads)
        for n in levels
    }


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    levels: Sequence[int] = ECP_LEVELS,
) -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 12: corrections per write vs ECP entries (LazyC)",
        headers=["workload"] + [f"ECP-{n}" for n in levels],
    )
    sums = [0.0] * len(levels)
    names = paper_workload_names(workloads)
    sims = run_grid(cells(length, workloads, levels))
    for bench in names:
        row: list = [bench]
        for i, n in enumerate(levels):
            cpw = sims[bench, n].counters.corrections_per_write
            row.append(cpw)
            sums[i] += cpw
        result.rows.append(row)
    means: list = ["mean"]
    for i, n in enumerate(levels):
        mean = sums[i] / len(names)
        means.append(mean)
        result.metrics[f"ecp{n}"] = mean
    result.rows.append(means)
    result.notes.append("paper means: ECP-0 ~1.8, ECP-4 ~0.14, ECP-6+ ~0")
    return result
