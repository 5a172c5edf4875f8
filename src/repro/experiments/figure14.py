"""Figure 14: performance over the DIMM's lifetime.

As the DIMM ages, hard errors occupy ECP entries and leave LazyCorrection
fewer spares, triggering more correction writes.  Paper: only ~0.2 %
degradation even at 100 % lifetime (ECP-6 rarely fills with hard errors).

Measured with LazyC(ECP-6) at hard-error occupancies sampled from the wear
model for lifetime fractions 0..100 %.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import schemes
from ..core.results import geometric_mean
from .common import Cells, ExperimentResult, cell, paper_workload_names, run_grid

LIFETIME_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)
#: Write-intensive subset (the figure's sensitivity is write-driven).
DEFAULT_WORKLOADS = ("gemsFDTD", "lbm", "mcf", "stream", "zeusmp")


def cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    points: Sequence[float] = LIFETIME_POINTS,
) -> Cells:
    names = paper_workload_names(workloads or DEFAULT_WORKLOADS)
    # Point ``None`` is the fresh reference every point is compared with.
    return {
        (point, bench): cell(bench, schemes.lazyc(), length=length,
                             lifetime_fraction=point or 0.0)
        for point in (None, *points)
        for bench in names
    }


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    points: Sequence[float] = LIFETIME_POINTS,
) -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 14: normalized performance across DIMM lifetime (LazyC ECP-6)",
        headers=["lifetime"] + ["gmean speedup vs fresh", "degradation %"],
    )
    names = paper_workload_names(workloads or DEFAULT_WORKLOADS)
    sims = run_grid(cells(length, workloads, points))
    for fraction in points:
        speedups = [
            sims[None, bench].cpi / sims[fraction, bench].cpi for bench in names
        ]
        g = geometric_mean(speedups)
        result.rows.append([f"{fraction:.0%}", g, (1.0 - g) * 100.0])
        result.metrics[f"life{int(fraction * 100)}"] = g
    result.notes.append("paper: ~0.2% degradation near end of life")
    return result
