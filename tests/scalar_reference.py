"""Scalar reference kernels: the oracles for :mod:`repro.pcm.line`.

The original ``unpackbits``-based kernels, kept verbatim as the
behavioural reference: equivalence tests assert the int-domain and
batched fast paths match these bit-for-bit (and RNG-draw-for-draw)
under identical seeds, and the kernel microbenchmarks time against
them.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.config import LINE_BITS
from repro.pcm import line as L


def scalar_popcount(mask: np.ndarray) -> int:
    """Reference popcount (original ``unpackbits`` implementation)."""
    return int(np.unpackbits(mask.view(np.uint8)).sum())


def scalar_bit_positions(mask: np.ndarray) -> List[int]:
    """Reference bit-position extraction."""
    bits = np.unpackbits(mask.view(np.uint8), bitorder="little")
    return [int(i) for i in np.nonzero(bits)[0]]


def scalar_sample_mask(
    candidates: np.ndarray, probability: float, rng: np.random.Generator
) -> np.ndarray:
    """Reference disturbance sampler (unpack -> sample -> repack)."""
    if probability <= 0.0:
        return L.zero_line()
    bits = np.unpackbits(candidates.view(np.uint8), bitorder="little")
    n = int(bits.sum())
    if n == 0:
        return L.zero_line()
    if probability >= 1.0:
        return candidates.copy()
    keep = rng.random(n) < probability
    if not keep.any():
        return L.zero_line()
    idx = np.nonzero(bits)[0][keep]
    out = np.zeros(LINE_BITS, dtype=np.uint8)
    out[idx] = 1
    return np.packbits(out, bitorder="little").view(L.WORD_DTYPE).copy()
