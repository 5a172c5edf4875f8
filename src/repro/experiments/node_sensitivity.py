"""Extension study: SD-PCM across technology nodes (beyond the paper).

The paper evaluates 20 nm and notes WD "has become more significant at and
below 20nm" — this study projects forward: disturbance probabilities for
each node come from the calibrated thermal/Arrhenius models (Table 1's
generators), and the scheme line-up is re-simulated under those rates.

Expected shape: at 30 nm WD is mild and even basic VnC costs little; at
16 nm rates rise ~10 % relative and the LazyC+PreRead stack keeps most of
its margin, because its costs scale with *error counts* (sub-linear in p)
rather than with per-write verification (constant).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import DisturbanceConfig
from ..core import schemes
from ..core.results import geometric_mean
from ..pcm.scaling import ScalingModel
from .common import (
    Cells,
    ExperimentResult,
    cell,
    paper_workload_names,
    run_grid,
)

NODES_NM = (30.0, 20.0, 16.0)
DEFAULT_WORKLOADS = ("gemsFDTD", "lbm", "mcf", "stream")
SCHEME_NAMES = ("DIN", "baseline", "LazyC", "LazyC+PreRead")


def _disturbance_for_node(node_nm: float) -> DisturbanceConfig:
    profile = ScalingModel().profile(node_nm)
    base = DisturbanceConfig()
    return DisturbanceConfig(
        p_bitline=profile.bitline_error_rate,
        p_wordline=profile.wordline_error_rate,
        din_residual_scale=base.din_residual_scale,
        weak_cell_fraction=base.weak_cell_fraction,
    )


def cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    nodes: Sequence[float] = NODES_NM,
) -> Cells:
    benches = paper_workload_names(workloads or DEFAULT_WORKLOADS)
    specs: Cells = {}
    for node in nodes:
        disturbance = _disturbance_for_node(node)
        for name in SCHEME_NAMES:
            for bench in benches:
                specs[node, name, bench] = cell(
                    bench, schemes.by_name(name), length=length,
                    disturbance=disturbance,
                )
    return specs


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    nodes: Sequence[float] = NODES_NM,
) -> ExperimentResult:
    result = ExperimentResult(
        title="Extension: scheme speedups vs technology node "
        "(normalized to baseline VnC at each node)",
        headers=["node"]
        + ["p_bitline", "DIN", "LazyC", "LazyC+PreRead"],
    )
    benches = paper_workload_names(workloads or DEFAULT_WORKLOADS)
    sims = run_grid(cells(length, workloads, nodes))
    for node in nodes:
        disturbance = _disturbance_for_node(node)
        speedups = {
            name: geometric_mean([
                sims[node, name, bench].speedup_over(sims[node, "baseline", bench])
                for bench in benches
            ])
            for name in ("DIN", "LazyC", "LazyC+PreRead")
        }
        result.rows.append(
            [
                f"{node:g} nm",
                disturbance.p_bitline,
                speedups["DIN"],
                speedups["LazyC"],
                speedups["LazyC+PreRead"],
            ]
        )
        result.metrics[f"din_{int(node)}"] = speedups["DIN"]
        result.metrics[f"lazyc_{int(node)}"] = speedups["LazyC"]
        result.metrics[f"p_bl_{int(node)}"] = disturbance.p_bitline
    result.notes.append(
        "disturbance probabilities derived from the calibrated node-scaling "
        "model; 20 nm reproduces Table 1 exactly"
    )
    return result
