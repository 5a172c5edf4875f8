"""Adaptive serial / warm-pool / batched execution planner.

PR 4 left a flag-guessing problem the ROADMAP calls out: pooled cold
batches *lose* to serial on 1 CPU (BENCH_pool.json: 0.66s pooled vs
0.54s serial for the same six cells) because forking and IPC buy no
parallelism there, yet pooling wins big on real multi-core hosts.  No
static default is right on both machines.

:class:`AdaptivePlanner` picks per batch instead.  Its inputs:

* **calibration** — per-cell costs seeded from the committed
  ``BENCH_pool.json`` baseline at the repo root (serial, cold-pool,
  warm-pool seconds per cell), when present;
* **online observations** — the engine reports every batch's
  ``(mode, cells, wall seconds)`` after it runs; an EWMA
  (:data:`EWMA_ALPHA`) folds them into the per-cell cost model, so the
  planner converges on the *current* machine within a few batches even
  from stale or missing calibration;
* **effective parallelism** — ``min(jobs, os.cpu_count())``: asking for
  8 workers on 1 CPU yields 1-way parallelism plus overhead, which is
  precisely the case that must decide serial;
* **pool warmth** — a live warm pool has already paid its fork, so
  pooled modes are costed at the warm rate.

Decision rule: serial when effective parallelism is 1 or the batch has
one cell (nothing to overlap); otherwise the cheapest of
``serial = n * c_serial``, ``pool = n * c_pool / eff``, and
``batch = n * c_batch / eff`` — with batched execution only eligible
when the batch splits into at least ``eff`` chunks, since fewer chunks
than workers would *reduce* parallelism versus per-cell dispatch.

The planner only advises ``auto`` mode; ``REPRO_PLAN=serial/pool/batch``
(or ``CellRunner(plan=...)``) bypasses it entirely, which is what the
pool-machinery and chaos tests use to stay deterministic.

Committed baselines are trusted only when their recorded
:func:`host_fingerprint` matches this machine's — calibration from a
different CPU count or architecture is silently ignored.

The bit-kernel backend is not costed here: ``auto`` takes the compiled
backend whenever it constructs (see
:meth:`repro.perf.engine.CellRunner._resolve_kernel`).
"""

from __future__ import annotations

import json
import logging
import math
import os
import platform
import sys
from pathlib import Path
from typing import Dict, Optional

_LOG = logging.getLogger("repro.perf.planner")

#: Weight of the newest observation in the per-cell cost EWMA.
EWMA_ALPHA = 0.4

#: Conservative per-cell seconds used before any calibration or
#: observation exists (the PR 4 reference numbers: 0.54s serial /
#: 0.66s cold-pooled / 0.31s warm-pooled for a six-cell batch).
DEFAULT_COSTS = {
    "serial": 0.090,
    "pool_cold": 0.110,
    "pool_warm": 0.052,
    "batch": 0.045,
}

#: The committed calibration baseline (repo root, checked in by the
#: pool benchmark).  Missing or malformed files are simply ignored.
CALIBRATION_FILE = "BENCH_pool.json"

def host_fingerprint() -> Dict[str, object]:
    """The calibration-relevance fingerprint of this host.

    Committed baselines carry the fingerprint of the machine that
    measured them; a planner on a materially different host ignores
    them and falls back to the defaults plus online EWMA.
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
    }


def fingerprint_matches(recorded: object) -> bool:
    """Whether a baseline's recorded host is materially this host.

    Material fields are the CPU count and the architecture — per-cell
    seconds transfer poorly across either.  The Python version is
    recorded for observability but not gated on (same-arch interpreter
    bumps shift absolute costs far less than the EWMA's first few
    observations do).  Baselines without a fingerprint (pre-v2 files)
    are accepted for backward compatibility.
    """
    if recorded is None:
        return True
    if not isinstance(recorded, dict):
        return False
    current = host_fingerprint()
    return all(
        recorded.get(field) == current[field]
        for field in ("cpu_count", "machine")
    )


def _repo_root() -> Optional[Path]:
    """The repository root, when running from a source checkout."""
    root = Path(__file__).resolve().parents[3]
    return root if (root / CALIBRATION_FILE).exists() else None


class AdaptivePlanner:
    """Per-batch execution-mode selection from a per-cell cost model."""

    def __init__(self) -> None:
        self._costs: Dict[str, float] = dict(DEFAULT_COSTS)
        self._observed: Dict[str, int] = {}
        self._seeded = False

    # -- calibration -------------------------------------------------------

    def seed_from_file(self, path: Optional[Path] = None) -> bool:
        """Seed per-cell costs from a BENCH_pool.json-style baseline.

        Reads the benchmark's batch timings (``serial_batch_s``,
        ``cold_batch_s``, ``warm_batch_s`` over ``cells_per_batch``
        cells, plus ``batch_batch_s`` when the baseline has the batched
        measurement).  Returns whether anything was loaded.
        """
        if path is None:
            root = _repo_root()
            if root is None:
                return False
            path = root / CALIBRATION_FILE
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            _LOG.debug("no usable calibration at %s", path, exc_info=True)
            return False
        if not fingerprint_matches(payload.get("host")):
            _LOG.debug(
                "ignoring calibration at %s: host fingerprint differs", path
            )
            return False
        cells = payload.get("cells_per_batch")
        if not isinstance(cells, int) or cells < 1:
            return False
        loaded = False
        for field, mode in (
            ("serial_batch_s", "serial"),
            ("cold_batch_s", "pool_cold"),
            ("warm_batch_s", "pool_warm"),
            ("batch_batch_s", "batch"),
        ):
            value = payload.get(field)
            if isinstance(value, (int, float)) and value > 0:
                self._costs[mode] = float(value) / cells
                loaded = True
        return loaded

    def _ensure_seeded(self) -> None:
        if not self._seeded:
            self._seeded = True
            self.seed_from_file()

    # -- the cost model ----------------------------------------------------

    def cost(self, mode: str) -> float:
        """Current per-cell seconds estimate for ``mode``."""
        self._ensure_seeded()
        return self._costs[mode]

    def observe(self, mode: str, cells: int, seconds: float) -> None:
        """Fold one finished batch into the cost model (EWMA)."""
        if cells < 1 or seconds < 0 or mode not in self._costs:
            return
        self._ensure_seeded()
        per_cell = seconds / cells
        previous = self._costs[mode]
        self._costs[mode] = (
            EWMA_ALPHA * per_cell + (1.0 - EWMA_ALPHA) * previous
        )
        self._observed[mode] = self._observed.get(mode, 0) + 1

    # -- decisions ---------------------------------------------------------

    def decide(
        self,
        cells: int,
        jobs: int,
        batch_cells: int,
        pool_alive: bool = False,
    ) -> str:
        """Pick ``"serial"``, ``"pool"``, or ``"batch"`` for one cold batch.

        Memory pressure overrides the cost model: while the pressure
        monitor has forced serial execution (RSS over
        ``REPRO_MEM_BUDGET_MB``), every ``auto`` decision is ``serial``
        — forked workers would only multiply the footprint.  Forced
        plans (``REPRO_PLAN=pool`` etc.) never reach this method, so
        explicit operator choices stay deterministic.
        """
        from ..resilience.pressure import PRESSURE

        if PRESSURE.serial_forced:
            return "serial"
        self._ensure_seeded()
        effective = min(jobs, os.cpu_count() or 1)
        if cells <= 1 or effective <= 1:
            return "serial"
        serial_est = cells * self._costs["serial"]
        pool_cost = self._costs["pool_warm" if pool_alive else "pool_cold"]
        pool_est = cells * pool_cost / effective
        chunks = math.ceil(cells / batch_cells)
        if chunks >= effective:
            batch_est = cells * self._costs["batch"] / effective
        else:
            # Fewer chunks than workers starves the pool; per-cell
            # dispatch keeps every worker busy instead.
            batch_est = math.inf
        best = min(
            ("serial", serial_est), ("pool", pool_est), ("batch", batch_est),
            key=lambda pair: pair[1],
        )
        return best[0]

    # -- bookkeeping -------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """The current per-cell cost model (observability/tests)."""
        self._ensure_seeded()
        return dict(self._costs)

    def reset(self) -> None:
        """Back to defaults; calibration re-seeds lazily (test isolation)."""
        self._costs = dict(DEFAULT_COSTS)
        self._observed.clear()
        self._seeded = False


#: The process-wide planner the engine consults in ``auto`` mode.
PLANNER = AdaptivePlanner()
