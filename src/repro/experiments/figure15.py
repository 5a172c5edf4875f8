"""Figure 15: sensitivity to write-queue size (LazyC+PreRead).

A larger write queue gives PreRead more chances to find a queued write
whose bank is idle.  Paper: only the memory-intensive workloads benefit
beyond 8 entries; 32 entries per bank suffice to keep LazyC+PreRead within
10 % of DIN.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import schemes
from ..core.results import geometric_mean
from .common import Cells, ExperimentResult, cell, paper_workload_names, run_grid

QUEUE_SIZES = (8, 16, 32, 64)


def cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = QUEUE_SIZES,
) -> Cells:
    return {
        (bench, s, factory): cell(bench, factory(), length=length,
                                  write_queue_entries=s)
        for bench in paper_workload_names(workloads)
        for s in sizes
        for factory in (schemes.baseline, schemes.lazyc_preread, schemes.din)
    }


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = QUEUE_SIZES,
) -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 15: LazyC+PreRead speedup over baseline vs write-queue size",
        headers=["workload"] + [f"{s} entries" for s in sizes],
    )
    columns: dict = {s: [] for s in sizes}
    din_gap: dict = {s: [] for s in sizes}
    sims = run_grid(cells(length, workloads, sizes))
    for bench in paper_workload_names(workloads):
        row: list = [bench]
        for s in sizes:
            base = sims[bench, s, schemes.baseline]
            res = sims[bench, s, schemes.lazyc_preread]
            din = sims[bench, s, schemes.din]
            speedup = res.speedup_over(base)
            row.append(speedup)
            columns[s].append(speedup)
            din_gap[s].append(res.cpi / din.cpi)
        result.rows.append(row)
    summary: list = ["gmean"]
    for s in sizes:
        g = geometric_mean(columns[s])
        summary.append(g)
        result.metrics[f"wq{s}"] = g
        result.metrics[f"wq{s}_vs_din"] = geometric_mean(din_gap[s])
    result.rows.append(summary)
    result.notes.append(
        "paper: 32 entries suffice; LazyC+PreRead lands within ~10% of DIN"
    )
    return result
