"""64-byte PCM line representation and bit-mask utilities.

A memory line is 64 bytes = 512 SLC cells, held as eight ``numpy.uint64``
words.  Word ``w`` bit ``b`` (LSB = 0) is cell index ``w * 64 + b``.  Each
64-bit word maps to the 8-byte segment one data chip contributes to the line
(Figure 6: a row is split into 8 data segments across 8 chips), so word-line
adjacency exists *within* a word but not across word boundaries — cells of
different words sit in different chips.

These helpers are the hot path of the simulator.  Two representations are
supported:

* the canonical **array form** — ``(8,)`` ``uint64`` arrays, used for
  storage (:class:`~repro.pcm.array.PCMArray` rows) and all public APIs;
* the **int form** — one 512-bit Python integer per line (bit ``i`` of the
  integer is cell ``i``, identical to ``int.from_bytes(arr.tobytes(),
  "little")``).  CPython big-integer bitwise ops run 3-10x faster than
  8-element numpy ufuncs (single C call, no dispatch overhead), so the
  write-planning inner loops (:mod:`repro.core.vnc`) work in this domain.

Batched ``(N, 8)`` variants (:func:`popcount_rows`, :func:`sample_masks`)
let callers process several lines — e.g. a write's two bit-line
neighbours — in one call.

The original ``unpackbits``-based scalar kernels live in
``tests/scalar_reference.py`` as oracles; equivalence tests pin the fast
paths bit-for-bit (and RNG-stream-exactly) against them.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..config import LINE_BITS, LINE_WORDS

#: dtype used for all line masks and data.
WORD_DTYPE = np.uint64

_U64_ONE = np.uint64(1)
_U64_MSB = np.uint64(1) << np.uint64(63)

#: All 512 bits set — AND with this after an int-domain ``~``/``^``.
MASK_ALL = (1 << LINE_BITS) - 1
#: Bit 63 of every word (per-word MSBs) in the int domain.
_WORD_MSBS = sum(1 << (64 * w + 63) for w in range(LINE_WORDS))
#: Bit 0 of every word (per-word LSBs) in the int domain.
_WORD_LSBS = sum(1 << (64 * w) for w in range(LINE_WORDS))
_NO_MSBS = MASK_ALL ^ _WORD_MSBS
_NO_LSBS = MASK_ALL ^ _WORD_LSBS

_WORD_MASK = 0xFFFFFFFFFFFFFFFF


def zero_line() -> np.ndarray:
    """A fresh all-zero line mask/data array."""
    return np.zeros(LINE_WORDS, dtype=WORD_DTYPE)


def full_line() -> np.ndarray:
    """A line mask with every bit set."""
    return np.full(LINE_WORDS, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=WORD_DTYPE)


def random_line(rng: np.random.Generator) -> np.ndarray:
    """A line with uniformly random contents (used for untouched rows)."""
    return rng.integers(0, 1 << 64, size=LINE_WORDS, dtype=WORD_DTYPE)


# -- array <-> int bridges -------------------------------------------------------


def to_int(mask: np.ndarray) -> int:
    """The 512-bit integer form of a line mask (bit ``i`` = cell ``i``)."""
    return int.from_bytes(mask.tobytes(), "little")


def from_int(value: int) -> np.ndarray:
    """The ``(8,)`` ``uint64`` array form of an int-domain line mask."""
    return np.frombuffer(
        value.to_bytes(LINE_BITS // 8, "little"), dtype=WORD_DTYPE
    ).copy()


# -- popcount / positions --------------------------------------------------------


def popcount(mask) -> int:
    """Number of set bits across the whole line mask (array or int form)."""
    if isinstance(mask, int):
        return mask.bit_count()
    return int.from_bytes(mask.tobytes(), "little").bit_count()


def popcount_rows(rows: np.ndarray) -> np.ndarray:
    """Per-row popcounts of an ``(N, 8)`` batch of line masks."""
    return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)


def bit_positions(mask) -> List[int]:
    """Sorted cell indices of the set bits in a line mask (array or int)."""
    if isinstance(mask, int):
        return bit_positions_int(mask)
    return bit_positions_int(int.from_bytes(mask.tobytes(), "little"))


def bit_positions_int(value: int) -> List[int]:
    """Sorted cell indices of the set bits of an int-domain mask.

    O(set bits): error and sampling masks are sparse, so low-bit
    extraction beats unpacking all 512 cells.
    """
    out: List[int] = []
    base = 0
    while value:
        word = value & _WORD_MASK
        while word:
            low = word & -word
            out.append(base + low.bit_length() - 1)
            word ^= low
        value >>= 64
        base += 64
    return out


def mask_from_positions(positions: Iterable[int]) -> np.ndarray:
    """Build a line mask with the given cell indices set."""
    mask = zero_line()
    for pos in positions:
        if not 0 <= pos < LINE_BITS:
            raise ValueError(f"bit position {pos} out of range 0..{LINE_BITS - 1}")
        mask[pos >> 6] |= _U64_ONE << np.uint64(pos & 63)
    return mask


def get_bit(data: np.ndarray, pos: int) -> int:
    """Read one cell of a line."""
    return int((data[pos >> 6] >> np.uint64(pos & 63)) & _U64_ONE)


def set_bit(data: np.ndarray, pos: int, value: int) -> None:
    """Write one cell of a line in place."""
    bit = _U64_ONE << np.uint64(pos & 63)
    if value:
        data[pos >> 6] |= bit
    else:
        data[pos >> 6] &= ~bit


# -- shifts / adjacency ----------------------------------------------------------


def shift_left(mask: np.ndarray) -> np.ndarray:
    """Shift every word's bits up by one (toward MSB), per-word.

    Word-line neighbours only exist within a word (one chip segment), so the
    shift does **not** carry across word boundaries.  ``shift_left(m)`` has a
    bit set where the cell one position *above* a set bit of ``m`` lives.
    """
    return (mask << _U64_ONE).astype(WORD_DTYPE)


def shift_right(mask: np.ndarray) -> np.ndarray:
    """Per-word one-bit shift toward LSB (see :func:`shift_left`)."""
    return (mask >> _U64_ONE).astype(WORD_DTYPE)


def wordline_neighbours(mask: np.ndarray) -> np.ndarray:
    """Mask of all cells horizontally adjacent to any set cell.

    The input cells themselves are *not* removed; callers typically AND the
    result with an idle/vulnerable mask that already excludes them.
    """
    return shift_left(mask) | shift_right(mask)


def shift_left_int(value: int) -> int:
    """Int-domain :func:`shift_left`: per-word, no cross-word carry."""
    return (value & _NO_MSBS) << 1


def shift_right_int(value: int) -> int:
    """Int-domain :func:`shift_right`."""
    return (value & _NO_LSBS) >> 1


def wordline_neighbours_int(value: int) -> int:
    """Int-domain :func:`wordline_neighbours`."""
    return ((value & _NO_MSBS) << 1) | ((value & _NO_LSBS) >> 1)


# -- stuck-at faults -------------------------------------------------------------


def apply_stuck_int(physical: int, stuck_mask: int, stuck_values: int) -> int:
    """Overlay stuck-at cells onto an int-domain physical line image.

    Cells in ``stuck_mask`` read their frozen value from ``stuck_values``
    (which must be a subset of ``stuck_mask``) regardless of what was
    programmed; all other cells pass through unchanged.
    """
    return (physical & (stuck_mask ^ MASK_ALL)) | (stuck_values & stuck_mask)


def stuck_error_mask_int(intended: int, stuck_mask: int, stuck_values: int) -> int:
    """Stuck cells whose frozen value differs from the intended image.

    These are the bits a raw read returns wrong; they are correctable only
    while an ECP entry covers them.
    """
    return (intended ^ stuck_values) & stuck_mask


# -- disturbance sampling --------------------------------------------------------


def sample_mask(
    candidates: np.ndarray, probability: float, rng: np.random.Generator
) -> np.ndarray:
    """Independently keep each set bit of ``candidates`` with ``probability``.

    This is the disturbance sampling kernel: each vulnerable cell is
    disturbed independently with the per-cell WD probability.  Consumes
    exactly ``rng.random(popcount(candidates))`` draws (and none at the
    0/1-probability or empty-candidate edges), matching the scalar
    reference implementation draw-for-draw.
    """
    if probability <= 0.0:
        return zero_line()
    value = int.from_bytes(candidates.tobytes(), "little")
    if value == 0:
        return zero_line()
    if probability >= 1.0:
        return candidates.copy()
    return from_int(_sample_int_nonempty(value, probability, rng))


def sample_mask_int(
    candidates: int, probability: float, rng: np.random.Generator
) -> int:
    """Int-domain :func:`sample_mask` (identical RNG consumption)."""
    if probability <= 0.0 or candidates == 0:
        return 0
    if probability >= 1.0:
        return candidates
    return _sample_int_nonempty(candidates, probability, rng)


def _sample_int_nonempty(
    candidates: int, probability: float, rng: np.random.Generator
) -> int:
    n = candidates.bit_count()
    keep = rng.random(n) < probability
    kept = int(keep.sum())
    if kept == 0:
        return 0
    if kept == n:
        return candidates
    flags = keep.tolist()
    out = 0
    shift = 0
    i = 0
    value = candidates
    while value:
        word = value & _WORD_MASK
        if word:
            picked = 0
            while word:
                low = word & -word
                if flags[i]:
                    picked |= low
                i += 1
                word ^= low
            if picked:
                out |= picked << shift
        value >>= 64
        shift += 64
    return out


def pack_rows(values: List[int]) -> np.ndarray:
    """Pack int-domain line masks into one contiguous ``(N, 8)`` array.

    This is the batch layout the cross-cell execution layer works in:
    row ``r`` is :func:`from_int` of ``values[r]``, stored contiguously so
    row-batched kernels (:func:`popcount_rows`, :func:`sample_masks_rows`,
    the DIN LUT coders) touch one buffer instead of N lines.
    """
    if not values:
        return np.zeros((0, LINE_WORDS), dtype=WORD_DTYPE)
    payload = b"".join(v.to_bytes(LINE_BITS // 8, "little") for v in values)
    return np.frombuffer(payload, dtype=WORD_DTYPE).reshape(
        len(values), LINE_WORDS
    ).copy()


def unpack_rows(rows: np.ndarray) -> List[int]:
    """Int-domain masks of an ``(N, 8)`` batch (inverse of :func:`pack_rows`)."""
    data = rows.tobytes()
    stride = LINE_BITS // 8
    return [
        int.from_bytes(data[r * stride:(r + 1) * stride], "little")
        for r in range(len(rows))
    ]


def sample_masks(
    candidates: np.ndarray, probability: float, rng: np.random.Generator
) -> np.ndarray:
    """Batched :func:`sample_mask` over an ``(N, 8)`` array of line masks.

    RNG-stream-equivalent to calling :func:`sample_mask` on each row in
    order: ``Generator.random(n)`` consumes exactly ``n`` uniforms, so one
    ``random(n_1 + ... + n_N)`` draw splits into the per-row draws the
    sequential calls would have made.  Delegates to the fully vectorized
    :func:`sample_masks_rows` (same stream contract).
    """
    return sample_masks_rows(np.asarray(candidates), probability, rng)


def sample_masks_rows(
    rows: np.ndarray, probability: float, rng: np.random.Generator
) -> np.ndarray:
    """Row-vectorized disturbance sampling over an ``(N, 8)`` batch.

    Unlike the per-row ``_apply_keep`` walk, every step here is one numpy
    call over the whole batch: unpack all N×512 cells, draw one
    ``rng.random(total)`` block, scatter the kept bits, repack.  The draw
    order is identical to sequential :func:`sample_mask` calls — set bits
    are enumerated row-major in ascending cell order, exactly the order
    the scalar kernel's low-bit extraction visits them — so the RNG
    stream (count *and* assignment) matches draw-for-draw.
    """
    n_rows = len(rows)
    out = np.zeros((n_rows, LINE_WORDS), dtype=WORD_DTYPE)
    if n_rows == 0 or probability <= 0.0:
        return out
    if probability >= 1.0:
        out[:] = rows
        return out
    bits = np.unpackbits(
        rows.view(np.uint8).reshape(n_rows, -1), axis=1, bitorder="little"
    )
    total = int(bits.sum())
    if total == 0:
        return out
    keep = rng.random(total) < probability
    if keep.any():
        r_idx, c_idx = np.nonzero(bits)  # row-major, ascending cell order
        kept_bits = np.zeros_like(bits)
        kept_bits[r_idx[keep], c_idx[keep]] = 1
        out[:] = np.packbits(
            kept_bits, axis=1, bitorder="little"
        ).view(WORD_DTYPE)
    return out


def sample_masks_int(
    candidates: List[int], probability: float, rng: np.random.Generator
) -> List[int]:
    """Batched :func:`sample_mask_int` over a list of int-domain masks.

    One ``rng.random(total)`` draw covers every mask; RNG-stream-equivalent
    to sequential :func:`sample_mask_int` calls (see :func:`sample_masks`).
    """
    if probability <= 0.0:
        return [0] * len(candidates)
    if probability >= 1.0:
        return list(candidates)
    counts = [value.bit_count() for value in candidates]
    total = sum(counts)
    if total == 0:
        return [0] * len(candidates)
    keep = rng.random(total)
    out: List[int] = []
    offset = 0
    for value, n in zip(candidates, counts):
        if n == 0:
            out.append(0)
        else:
            out.append(_apply_keep(value, keep[offset:offset + n] < probability))
            offset += n
    return out


def _apply_keep(candidates: int, keep: np.ndarray) -> int:
    """Keep the ``i``-th set bit of ``candidates`` where ``keep[i]``."""
    kept = int(keep.sum())
    if kept == 0:
        return 0
    if kept == len(keep):
        return candidates
    flags = keep.tolist()
    out = 0
    shift = 0
    i = 0
    value = candidates
    while value:
        word = value & _WORD_MASK
        if word:
            picked = 0
            while word:
                low = word & -word
                if flags[i]:
                    picked |= low
                i += 1
                word ^= low
            if picked:
                out |= picked << shift
        value >>= 64
        shift += 64
    return out
