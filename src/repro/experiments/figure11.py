"""Figure 11: system performance under different schemes.

Normalized speedup over the basic-VnC ``baseline`` (bigger is better).
Paper: DIN ~1.45 (baseline is 31 % degraded from DIN), LazyC ~1.21,
LazyC+PreRead ~1.30, LazyC+(2:3) ~1.31, all three ~1.37 (about 5 % from
DIN), and (1:2) matches DIN by eliminating VnC.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import schemes
from .common import (
    Cells,
    ExperimentResult,
    add_gmean_row,
    cell,
    paper_workload_names,
    run_grid,
)

PAPER_GMEANS = {
    "DIN": 1.45,
    "baseline": 1.0,
    "LazyC": 1.21,
    "LazyC+PreRead": 1.30,
    "LazyC+(2:3)": 1.31,
    "LazyC+PreRead+(2:3)": 1.37,
    "(1:2)": 1.45,
}


def cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> Cells:
    return {
        (bench, name): cell(bench, factory(), length=length)
        for bench in paper_workload_names(workloads)
        for name, factory in schemes.FIGURE11_SCHEMES.items()
    }


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    names = list(schemes.FIGURE11_SCHEMES)
    result = ExperimentResult(
        title="Figure 11: normalized speedup over baseline VnC (bigger is better)",
        headers=["workload"] + names,
    )
    sims = run_grid(cells(length, workloads))
    for bench in paper_workload_names(workloads):
        base = sims[bench, "baseline"]
        result.rows.append(
            [bench] + [sims[bench, name].speedup_over(base) for name in names]
        )
    add_gmean_row(result)
    gmeans = result.rows[-1]
    for i, name in enumerate(names, start=1):
        result.metrics[name] = float(gmeans[i])
    result.notes.append(
        "paper gmeans: " + ", ".join(f"{k}={v}" for k, v in PAPER_GMEANS.items())
    )
    return result
