"""Table 1: disturbance probability for 4F^2 cells at 20 nm.

Paper values: word-line 310 C / 9.9 %, bit-line 320 C / 11.5 %.
Reproduced analytically from the calibrated thermal + Arrhenius models.
"""

from __future__ import annotations

from ..pcm.disturbance import table1_rates
from ..pcm.scaling import ScalingModel
from .common import ExperimentResult

PAPER = {
    "word-line": (310.0, 0.099),
    "bit-line": (320.0, 0.115),
}


def run_experiment(feature_nm: float = 20.0) -> ExperimentResult:
    rates = table1_rates(feature_nm)
    result = ExperimentResult(
        title=f"Table 1: disturbance probability for 4F^2 cells (F={feature_nm:g} nm)",
        headers=[
            "between two cells along",
            "temp (C)",
            "error rate (SLC)",
            "paper temp",
            "paper rate",
        ],
    )
    for label in ("word-line", "bit-line"):
        temp = rates[label]["temperature_c"]
        rate = rates[label]["error_rate"]
        paper_temp, paper_rate = PAPER[label]
        result.rows.append([label, temp, rate, paper_temp, paper_rate])
        result.metrics[f"{label}_rate"] = rate
        result.metrics[f"{label}_temp"] = temp
    onset = ScalingModel().wd_onset_node()
    result.metrics["wd_onset_nm"] = onset
    result.notes.append(
        f"WD onset node: {onset:.1f} nm (paper: first observed at 54 nm [15])"
    )
    return result
