"""Figure 19: integrating LazyCorrection with write cancellation [22].

Paper: WC alone improves basic VnC only modestly (cancelled VnC writes
re-disturb their neighbours on retry); LazyC alone gives ~21 %; WC+LazyC
combine to ~31 % because they exploit different slack (read priority vs
correction elimination).
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

SCHEMES = ("VnC", "eager", "WC", "LazyC", "WC+LazyC")


def cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> Cells:
    return {
        (bench, name): cell(bench, schemes.by_name(name), length=length)
        for bench in paper_workload_names(workloads)
        for name in SCHEMES
    }


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 19: write cancellation x LazyC (speedup over baseline VnC)",
        headers=["workload"] + list(SCHEMES),
    )
    sims = run_grid(cells(length, workloads))
    for bench in paper_workload_names(workloads):
        base = sims[bench, "VnC"]
        result.rows.append(
            [bench] + [sims[bench, name].speedup_over(base) for name in SCHEMES]
        )
    add_gmean_row(result)
    gmeans = result.rows[-1]
    for i, name in enumerate(SCHEMES, start=1):
        result.metrics[name] = float(gmeans[i])
    result.notes.append("paper gmeans: WC ~1.05-1.1, LazyC ~1.21, WC+LazyC ~1.31")
    result.notes.append(
        "the extra 'eager' column isolates scheduling from pre-emption: in "
        "our controller WC implies eager write issue (as in [22]), which by "
        "itself already beats the paper's bursty-drain baseline; compare WC "
        "against 'eager' for the cancellation effect the paper reports"
    )
    return result
