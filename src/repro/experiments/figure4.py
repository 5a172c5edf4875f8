"""Figure 4: WD errors manifested when writing a PCM line in 4F^2 PCM.

(a) errors within the same word-line (DIN-mitigated): paper avg ~0.4/write;
(b) errors in one adjacent line (bit-line WD): paper avg ~2, max up to 9.

Measured by replaying every Table 3 workload under basic VnC (differential
write + DIN encoding active, as the paper's setup states).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import schemes
from .common import (
    Cells,
    ExperimentResult,
    cell,
    paper_workload_names,
    run_grid,
)


def cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> Cells:
    return {
        bench: cell(bench, schemes.baseline(), length=length)
        for bench in paper_workload_names(workloads)
    }


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 4: WD errors per line write (super dense 4F^2)",
        headers=[
            "workload",
            "wordline avg",
            "wordline max",
            "adjacent avg",
            "adjacent max",
        ],
    )
    adj_avgs, wl_avgs = [], []
    for bench, res in run_grid(cells(length, workloads)).items():
        c = res.counters
        result.rows.append(
            [
                bench,
                c.avg_errors_wordline,
                c.max_errors_wordline,
                c.avg_errors_per_adjacent_line,
                c.max_errors_one_adjacent_line,
            ]
        )
        adj_avgs.append(c.avg_errors_per_adjacent_line)
        wl_avgs.append(c.avg_errors_wordline)
    result.metrics["mean_wordline_errors"] = sum(wl_avgs) / len(wl_avgs)
    result.metrics["mean_adjacent_errors"] = sum(adj_avgs) / len(adj_avgs)
    result.metrics["max_adjacent_errors"] = max(
        float(r[4]) for r in result.rows
    )
    result.notes.append(
        "paper: ~0.4 avg within the word-line; ~2 avg / up to 9 max in one "
        "adjacent 64B line"
    )
    return result
