"""Ablation studies for SD-PCM's design choices (beyond the paper's figures).

DESIGN.md calls out three load-bearing design decisions; each is ablated
here against the corresponding naive alternative:

1. **Low-density ECP chip** (Section 4.2): LazyCorrection with a WD-free
   8F^2 ECP chip vs a naive super dense ECP chip whose entry writes need
   their own VnC pass.
2. **Read-priority policy**: bursty drains (the paper's default) vs write
   cancellation [22] vs write pausing [22] on top of LazyC.
3. **DIN word-line encoding**: residual word-line errors with the encoder
   active vs disabled (all vulnerable patterns exposed).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import DisturbanceConfig
from ..core import schemes
from ..core.results import geometric_mean
from .common import (
    Cells,
    ExperimentResult,
    cell,
    paper_workload_names,
    run_grid,
)

DEFAULT_WORKLOADS = ("gemsFDTD", "lbm", "mcf", "stream")


def ecp_density_cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> Cells:
    return {
        (bench, factory): cell(bench, factory(), length=length)
        for bench in paper_workload_names(workloads or DEFAULT_WORKLOADS)
        for factory in (schemes.baseline, schemes.lazyc, schemes.lazyc_dense_ecp)
    }


def run_ecp_density_ablation(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Low-density vs super dense ECP chip under LazyCorrection."""
    result = ExperimentResult(
        title="Ablation: ECP chip density under LazyC (speedup over baseline)",
        headers=["workload", "low-density ECP (SD-PCM)", "super dense ECP (naive)"],
    )
    low, dense = [], []
    sims = run_grid(ecp_density_cells(length, workloads))
    for bench in paper_workload_names(workloads or DEFAULT_WORKLOADS):
        base = sims[bench, schemes.baseline]
        a = sims[bench, schemes.lazyc]
        b = sims[bench, schemes.lazyc_dense_ecp]
        result.rows.append(
            [bench, a.speedup_over(base), b.speedup_over(base)]
        )
        low.append(a.speedup_over(base))
        dense.append(b.speedup_over(base))
    result.rows.append(["gmean", geometric_mean(low), geometric_mean(dense)])
    result.metrics["low_density"] = geometric_mean(low)
    result.metrics["dense"] = geometric_mean(dense)
    result.notes.append(
        "Section 4.2: buffering WD errors only pays off when the ECP chip "
        "itself is WD-free"
    )
    return result


READ_PRIORITY_SCHEMES = ("LazyC", "WC+LazyC", "WP+LazyC")


def read_priority_cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> Cells:
    return {
        (bench, name): cell(bench, schemes.by_name(name), length=length)
        for bench in paper_workload_names(workloads or DEFAULT_WORKLOADS)
        for name in ("baseline", *READ_PRIORITY_SCHEMES)
    }


def run_read_priority_ablation(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Bursty drains vs write cancellation vs write pausing, over LazyC."""
    result = ExperimentResult(
        title="Ablation: read-priority policy over LazyC (speedup over baseline)",
        headers=["workload", "LazyC (bursty)", "WC+LazyC", "WP+LazyC"],
    )
    cols: dict = {name: [] for name in READ_PRIORITY_SCHEMES}
    sims = run_grid(read_priority_cells(length, workloads))
    for bench in paper_workload_names(workloads or DEFAULT_WORKLOADS):
        base = sims[bench, "baseline"]
        row: list = [bench]
        for name in cols:
            speedup = sims[bench, name].speedup_over(base)
            row.append(speedup)
            cols[name].append(speedup)
        result.rows.append(row)
    result.rows.append(["gmean"] + [geometric_mean(v) for v in cols.values()])
    for name, values in cols.items():
        result.metrics[name] = geometric_mean(values)
    result.notes.append(
        "pausing loses no programmed work on pre-emption, so it should "
        "match or beat cancellation under VnC-lengthened writes"
    )
    return result


def din_cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> Cells:
    no_din = DisturbanceConfig(din_residual_scale=1.0)
    return {
        (bench, din): cell(bench, schemes.baseline(), length=length,
                           disturbance=disturbance)
        for bench in paper_workload_names(workloads or DEFAULT_WORKLOADS)
        for din, disturbance in ((True, None), (False, no_din))
    }


def run_din_ablation(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Word-line error rates with the DIN encoder active vs disabled."""
    result = ExperimentResult(
        title="Ablation: DIN word-line encoding (residual WL errors per write)",
        headers=["workload", "with DIN", "without DIN"],
    )
    with_din, without = [], []
    sims = run_grid(din_cells(length, workloads))
    for bench in paper_workload_names(workloads or DEFAULT_WORKLOADS):
        on, off = sims[bench, True], sims[bench, False]
        result.rows.append(
            [bench, on.counters.avg_errors_wordline, off.counters.avg_errors_wordline]
        )
        with_din.append(on.counters.avg_errors_wordline)
        without.append(off.counters.avg_errors_wordline)
    mean_on = sum(with_din) / len(with_din)
    mean_off = sum(without) / len(without)
    result.rows.append(["mean", mean_on, mean_off])
    result.metrics["with_din"] = mean_on
    result.metrics["without_din"] = mean_off
    result.notes.append(
        "the paper inherits DIN [10] precisely because unencoded word-lines "
        "would add several errors per write"
    )
    return result


WEAK_CELL_FRACTIONS = (0.1, 0.25, 0.5, 1.0)


def weak_cell_cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    fractions: Sequence[float] = WEAK_CELL_FRACTIONS,
) -> Cells:
    return {
        (bench, fraction): cell(
            bench, schemes.baseline(), length=length,
            disturbance=DisturbanceConfig(weak_cell_fraction=fraction),
        )
        for bench in paper_workload_names(workloads or DEFAULT_WORKLOADS)
        for fraction in fractions
    }


def run_weak_cell_ablation(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    fractions: Sequence[float] = WEAK_CELL_FRACTIONS,
) -> ExperimentResult:
    """Robustness of our process-variation assumption.

    ``weak_cell_fraction`` concentrates disturbance on a per-line subset of
    cells while preserving Table 1's mean rate; Figure 4's error counts
    must therefore be insensitive to it.  (What it *does* change is how
    quickly ECP entry positions repeat — see EXPERIMENTS.md D2.)
    """
    result = ExperimentResult(
        title="Ablation: weak-cell fraction (WD errors per adjacent line)",
        headers=["workload"] + [f"f={f:g}" for f in fractions],
    )
    sums = [0.0] * len(fractions)
    names = paper_workload_names(workloads or DEFAULT_WORKLOADS)
    sims = run_grid(weak_cell_cells(length, workloads, fractions))
    for bench in names:
        row: list = [bench]
        for i, fraction in enumerate(fractions):
            value = sims[bench, fraction].counters.avg_errors_per_adjacent_line
            row.append(value)
            sums[i] += value
        result.rows.append(row)
    means: list = ["mean"]
    for i, fraction in enumerate(fractions):
        mean = sums[i] / len(names)
        means.append(mean)
        result.metrics[f"f{fraction:g}"] = mean
    result.rows.append(means)
    result.notes.append(
        "mean error rate is preserved by construction "
        "(p_weak = p / fraction); only the per-line position pool changes"
    )
    return result
