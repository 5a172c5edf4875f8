"""Reproduction scorecard: paper claims vs measured, with verdicts.

Runs a curated subset of experiments and grades each headline claim:

* ``EXACT``   — analytic quantities that must match to the digit,
* ``MATCH``   — simulated quantities inside the stated tolerance band,
* ``SHAPE``   — ordering/directional claims that must hold,
* ``DIVERGE`` — known, documented divergences (see EXPERIMENTS.md), still
  checked against their *conclusion-level* property.

This is the programmatic form of EXPERIMENTS.md; `python -m
repro.experiments.runner scorecard` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import capacity, figure4, figure11, figure12, figure18, table1
from .common import Cells, ExperimentResult

DEFAULT_WORKLOADS = ("gemsFDTD", "lbm", "mcf", "stream")
#: The simulated sub-experiments the scorecard grades, in the order it
#: runs them, each with the arguments it adds to ``length``/``workloads``.
GRADED = (
    (figure4, {}),
    (figure12, {"levels": (0, 4, 6)}),
    (figure11, {}),
    (figure18, {}),
)


@dataclass(frozen=True)
class Check:
    """One graded claim."""

    claim: str
    paper: float
    measured: float
    kind: str  # EXACT | MATCH | SHAPE | DIVERGE
    tolerance: float  # relative, for EXACT/MATCH
    holds: bool


def _exact(claim: str, paper: float, measured: float, tol: float = 1e-4) -> Check:
    holds = abs(measured - paper) <= tol * max(abs(paper), 1e-12)
    return Check(claim, paper, measured, "EXACT", tol, holds)


def _match(claim: str, paper: float, measured: float, tol: float) -> Check:
    holds = abs(measured - paper) <= tol * max(abs(paper), 1e-12)
    return Check(claim, paper, measured, "MATCH", tol, holds)


def _shape(claim: str, holds: bool, paper: float = 1.0, measured: float = 0.0) -> Check:
    return Check(claim, paper, measured, "SHAPE", 0.0, holds)


def _diverge(claim: str, paper: float, measured: float, conclusion_holds: bool) -> Check:
    return Check(claim, paper, measured, "DIVERGE", 0.0, conclusion_holds)


def cells(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> Cells:
    """The graded sub-experiments' cells, in the order they run."""
    workloads = workloads or DEFAULT_WORKLOADS
    return {
        (module.__name__, key): spec
        for module, kwargs in GRADED
        for key, spec in module.cells(length, workloads, **kwargs).items()
    }


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    workloads = workloads or DEFAULT_WORKLOADS
    checks: List[Check] = []

    t1 = table1.run_experiment()
    checks.append(_exact("Table 1 word-line rate", 0.099, t1.metrics["word-line_rate"]))
    checks.append(_exact("Table 1 bit-line rate", 0.115, t1.metrics["bit-line_rate"]))
    checks.append(_match("WD onset node (nm)", 54.0, t1.metrics["wd_onset_nm"], 0.02))

    cap = capacity.run_experiment()
    checks.append(_exact("capacity gain over DIN", 0.80, cap.metrics["capacity_gain"], 1e-2))
    checks.append(_match("big-chip silicon reduction", 0.20, cap.metrics["big_chip_reduction"], 0.10))

    runs = {
        module: module.run_experiment(length=length, workloads=workloads, **kwargs)
        for module, kwargs in GRADED
    }
    f4, f12 = runs[figure4], runs[figure12]
    f11, f18 = runs[figure11], runs[figure18]
    checks.append(
        _match("word-line errors/write", 0.4, f4.metrics["mean_wordline_errors"], 0.35)
    )
    checks.append(
        _match("adjacent-line errors/write", 2.0, f4.metrics["mean_adjacent_errors"], 0.35)
    )
    checks.append(
        _shape(
            "max errors in one adjacent line reaches the paper's ~9",
            f4.metrics["max_adjacent_errors"] >= 6,
            9.0,
            f4.metrics["max_adjacent_errors"],
        )
    )

    checks.append(_match("corrections/write at ECP-0", 1.8, f12.metrics["ecp0"], 0.25))
    checks.append(_match("corrections/write at ECP-4", 0.14, f12.metrics["ecp4"], 0.8))
    checks.append(
        _shape(
            "ECP-6 nearly eliminates corrections",
            f12.metrics["ecp6"] < 0.15,
            0.0,
            f12.metrics["ecp6"],
        )
    )

    m = f11.metrics
    checks.append(
        _shape(
            "scheme ordering: base < LazyC < +PreRead < all-three <= DIN",
            1.0 < m["LazyC"] < m["LazyC+PreRead"] < m["LazyC+PreRead+(2:3)"]
            <= m["DIN"] * 1.02,
            1.0,
            m["LazyC+PreRead+(2:3)"],
        )
    )
    checks.append(
        _shape(
            "(1:2) eliminates VnC (matches DIN)",
            abs(m["(1:2)"] - m["DIN"]) / m["DIN"] < 0.08,
            m["DIN"],
            m["(1:2)"],
        )
    )
    checks.append(_diverge("LazyC gmean speedup", 1.21, m["LazyC"], m["LazyC"] > 1.1))

    checks.append(
        _diverge(
            "ECP-chip lifetime degradation (DIMM stays data-chip-bound)",
            0.08,
            f18.metrics["mean_degradation"],
            f18.metrics["effective_headroom_vs_data_chip"] > 1.0,
        )
    )

    result = ExperimentResult(
        title="Reproduction scorecard (paper claim vs measured)",
        headers=["claim", "paper", "measured", "kind", "verdict"],
    )
    passed = 0
    for check in checks:
        result.rows.append(
            [
                check.claim,
                check.paper,
                check.measured,
                check.kind,
                "PASS" if check.holds else "FAIL",
            ]
        )
        passed += check.holds
    result.metrics["checks"] = float(len(checks))
    result.metrics["passed"] = float(passed)
    result.notes.append(
        f"{passed}/{len(checks)} checks hold; DIVERGE rows grade the "
        "conclusion-level property (details in EXPERIMENTS.md)"
    )
    return result
