"""Process-wide deterministic Monte Carlo state plane.

Two pools of per-cell state dominate cold-cell setup cost and are pure
functions of their key — every cell (and every retry of a cell)
regenerates identical bytes from the same seeded
:func:`numpy.random.default_rng` recipe:

* **pristine row images** — a row's lazily materialised stored contents,
  keyed ``(seed, bank, row)`` (see
  :meth:`repro.pcm.array.PCMArray.row_state`);
* **weak-cell masks** — a line's fixed set of disturbance-prone cells,
  keyed ``(fraction, (bank, row, line))`` (see
  :meth:`repro.core.vnc.VnCExecutor._weak_mask`).

Both are generated by the active kernel backend
(:meth:`~repro.pcm.kernels.KernelBackend.seeded_row` /
:meth:`~repro.pcm.kernels.KernelBackend.seeded_mask`): numpy's own
``default_rng(key)`` recipe, or — on the compiled backend — the same
SeedSequence -> PCG64 recipe in C, bit for bit.  One fresh-process pass
of the benchmark's ``cells_vnc`` mix misses the pools 50,202 times
(39,071 masks, 11,131 rows; hit ratio 0.087).  Through numpy a miss
costs ~29 us (mask) or ~20 us (row), about a fifth of the pass; the
native recipe takes ~7 us and ~3.5 us (2-vCPU x86_64 host).

Because the recipes are deterministic, a *process-level* pool is
byte-identity-safe by construction: a pooled value and a freshly
generated one are the same array/int.  Cells within a batch, across
batches, and across experiments then share the state — only the first
touch of a key in a process pays generation.

Consumers call :func:`pristine_row` / :func:`weak_mask` unconditionally;
the plane decides internally whether to cache (``REPRO_STATE_PLANE=0``
degrades to straight generation, for A/B testing the identity claim; a
plane reads it once, when built and on :meth:`StatePlane.reset`).

Pools are FIFO-capped so a huge sweep cannot grow without bound: row
images are ~4 KB each (cap 16384 ≈ 64 MB), weak masks are small ints
(cap 262144).  Eviction only costs a future regeneration, never
correctness.  Pool workers inherit the parent's pools over ``fork`` and
extend their own copies; nothing is shared back, which is fine — the
content is deterministic either way.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .. import envconfig
from . import kernels
from . import line as L

#: FIFO caps (entries).  A full sweep's working set fits well under both.
ROW_POOL_CAP = 16384
MASK_POOL_CAP = 262144

RowKey = Tuple[int, int, int]  # (array seed, bank, row)
MaskKey = Tuple[float, Tuple[int, int, int]]  # (fraction, (bank, row, line))


def _generate_row(seed: int, bank: int, row: int) -> np.ndarray:
    """``default_rng((seed, bank, row))``'s full-range uint64 row image."""
    return kernels.active().seeded_row((seed, bank, row))


def _generate_weak_mask(fraction: float, key: Tuple[int, int, int]) -> int:
    """Cells whose ``default_rng((0x5D9C, bank, row, line))`` draw is
    below ``fraction``; a saturated fraction marks every cell."""
    if fraction >= 1.0:
        return L.MASK_ALL
    return kernels.active().seeded_mask((0x5D9C, *key), fraction)


class StatePlane:
    """FIFO-capped pools of deterministic per-key Monte Carlo state."""

    def __init__(self) -> None:
        self._rows: Dict[RowKey, np.ndarray] = {}
        self._masks: Dict[MaskKey, int] = {}
        #: ``REPRO_STATE_PLANE``, read here and on :meth:`reset`.
        self.pooling = envconfig.state_plane_enabled()
        self.row_hits = 0
        self.row_misses = 0
        self.mask_hits = 0
        self.mask_misses = 0
        self.evictions = 0

    # -- pools -------------------------------------------------------------

    def pristine_row(self, seed: int, bank: int, row: int) -> np.ndarray:
        """The read-only pristine stored image of one row.

        Callers that mutate row contents must ``.copy()`` the result
        (:meth:`PCMArray.row_state` does); the pooled array is marked
        non-writeable so an aliasing bug fails loudly instead of
        corrupting every simulation sharing the key.
        """
        key = (seed, bank, row)
        stored = self._rows.get(key)
        if stored is not None:
            self.row_hits += 1
            return stored
        self.row_misses += 1
        stored = _generate_row(seed, bank, row)
        if not self.pooling:
            return stored
        stored.flags.writeable = False
        if len(self._rows) >= ROW_POOL_CAP:
            self._rows.pop(next(iter(self._rows)))
            self.evictions += 1
        self._rows[key] = stored
        return stored

    def weak_mask(self, fraction: float, key: Tuple[int, int, int]) -> int:
        """The fixed weak-cell mask of one line coordinate (int domain)."""
        pool_key = (fraction, key)
        mask = self._masks.get(pool_key)
        if mask is not None:
            self.mask_hits += 1
            return mask
        self.mask_misses += 1
        mask = _generate_weak_mask(fraction, key)
        if not self.pooling:
            return mask
        if len(self._masks) >= MASK_POOL_CAP:
            self._masks.pop(next(iter(self._masks)))
            self.evictions += 1
        self._masks[pool_key] = mask
        return mask

    # -- bookkeeping -------------------------------------------------------

    @property
    def entries(self) -> int:
        return len(self._rows) + len(self._masks)

    def reset(self) -> None:
        """Drop every pooled value, zero the counters and re-read
        ``REPRO_STATE_PLANE`` (test isolation)."""
        self._rows.clear()
        self._masks.clear()
        self.pooling = envconfig.state_plane_enabled()
        self.reset_counters()

    def reset_counters(self) -> None:
        self.row_hits = 0
        self.row_misses = 0
        self.mask_hits = 0
        self.mask_misses = 0
        self.evictions = 0

    def summary(self) -> str:
        return (
            f"{self.entries} entries, "
            f"rows {self.row_hits}/{self.row_hits + self.row_misses} hits, "
            f"masks {self.mask_hits}/{self.mask_hits + self.mask_misses} hits, "
            f"{self.evictions} evictions"
        )


#: The process-wide plane every array / executor draws from.
PLANE = StatePlane()
