"""Shared infrastructure for the per-figure experiment modules.

Scale: the paper replays 10 M post-cache references per workload on a C++
simulator; this pure-Python reproduction defaults to
``REPRO_TRACE_LEN`` (default 1200) references per core and
``REPRO_CORES`` (default 8) cores.  All reported quantities are
per-reference rates or CPI ratios, which are stable at this scale; raise
the env vars for tighter confidence intervals.

Every simulation cell goes through :func:`cell`/:func:`run_cells`, which
delegate to the :mod:`repro.perf` engine: identical cells are simulated
once, results are cached on disk across runs, and cold cells fan out over
a process pool when ``--jobs``/``REPRO_JOBS`` allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, TypeVar

from .. import envconfig
from ..config import (
    DisturbanceConfig,
    FaultConfig,
    MemoryConfig,
    SchemeConfig,
    SystemConfig,
    TimingConfig,
)
from ..core.results import SimulationResult, geometric_mean
from ..perf import engine
from ..perf.cellspec import CellSpec
from ..stats.report import format_table
from ..traces.profiles import WORKLOAD_ORDER
from ..traces.workload import Workload, homogeneous_workload

DEFAULT_SEED = 1

K = TypeVar("K", bound=Hashable)
#: An experiment's declared cells, keyed by what its body looks them up by.
Cells = Dict[Hashable, CellSpec]


def trace_length(default: int = 1200) -> int:
    """Per-core trace length, overridable via ``REPRO_TRACE_LEN``."""
    return envconfig.trace_length(default)


def core_count(default: int = 8) -> int:
    """Core count, overridable via ``REPRO_CORES``."""
    return envconfig.core_count(default)


@lru_cache(maxsize=64)
def workload(name: str, length: int, cores: int, seed: int = DEFAULT_SEED) -> Workload:
    """Cached workload construction (traces are immutable)."""
    return homogeneous_workload(name, cores=cores, length=length, seed=seed)


def paper_workload_names(subset: Optional[Sequence[str]] = None) -> List[str]:
    return list(subset) if subset else list(WORKLOAD_ORDER)


def cell(
    bench: str,
    scheme: SchemeConfig,
    length: Optional[int] = None,
    cores: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    write_queue_entries: Optional[int] = None,
    lifetime_fraction: float = 0.0,
    disturbance: Optional[DisturbanceConfig] = None,
    timing: Optional[TimingConfig] = None,
    faults: Optional[FaultConfig] = None,
) -> CellSpec:
    """Describe one (workload, scheme) cell with the standard configuration."""
    length = length or trace_length()
    cores = cores or core_count()
    memory = MemoryConfig() if write_queue_entries is None else MemoryConfig(
        write_queue_entries=write_queue_entries
    )
    config = SystemConfig(
        cores=cores,
        timing=timing if timing is not None else TimingConfig(),
        memory=memory,
        disturbance=disturbance if disturbance is not None else DisturbanceConfig(),
        scheme=scheme,
        faults=faults if faults is not None else FaultConfig(),
        seed=seed,
    )
    return CellSpec(
        bench=bench,
        length=length,
        config=config,
        lifetime_fraction=lifetime_fraction,
    )


def run_cells(specs: Sequence[CellSpec]) -> List[SimulationResult]:
    """Simulate a batch of cells through the perf engine (cached, parallel).

    Resolved through ``engine.get_runner()`` at call time so the CLI's
    ``--jobs`` configuration applies to every experiment module.
    """
    return engine.get_runner().run_cells(list(specs))


def run_grid(cells: Mapping[K, CellSpec]) -> Dict[K, SimulationResult]:
    """Simulate declared cells as one batch, results under the same keys.

    A body reads each result by what it is, not by its position in the
    batch, so the declaration alone fixes the batch's order.
    """
    return dict(zip(cells, run_cells(list(cells.values()))))


def run(
    bench: str,
    scheme: SchemeConfig,
    length: Optional[int] = None,
    cores: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    write_queue_entries: Optional[int] = None,
    lifetime_fraction: float = 0.0,
) -> SimulationResult:
    """Simulate one (workload, scheme) cell with the standard configuration."""
    spec = cell(
        bench,
        scheme,
        length=length,
        cores=cores,
        seed=seed,
        write_queue_entries=write_queue_entries,
        lifetime_fraction=lifetime_fraction,
    )
    return run_cells([spec])[0]


@dataclass
class ExperimentResult:
    """Uniform result bundle: a titled table plus named headline metrics."""

    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        out = format_table(self.title, self.headers, self.rows)
        if self.notes:
            out += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return out


def add_gmean_row(result: ExperimentResult, label: str = "gmean") -> None:
    """Append a geometric-mean summary row over the numeric columns."""
    if not result.rows:
        return
    cols = len(result.headers)
    summary: List[object] = [label]
    for c in range(1, cols):
        values = [float(r[c]) for r in result.rows if isinstance(r[c], (int, float))]
        summary.append(geometric_mean(values) if values else "")
    result.rows.append(summary)
