"""Compiled kernel backend: C shared library via ctypes, numba fallback.

The C source (``_kernels.c``) has no ``Python.h`` dependency, so the
build is a single ``cc -O2 -shared -fPIC`` invocation — no Python
headers, no setuptools machinery at runtime.  Resolution order:

1. a **prebuilt** library next to this package (``_kernels*.so``,
   dropped by the best-effort ``setup.py`` build step);
2. a **cached build** under ``<cache_dir>/kernels/``, keyed by the
   source hash so stale libraries are never reused;
3. a fresh compile with ``REPRO_KERNEL_CC`` (or the first of
   ``cc``/``gcc``/``clang`` on ``PATH``);
4. the **numba** flavour (``_numba_kernels``) when no C toolchain
   exists but numba is importable.

A library built or loaded in steps 2–3 is kept for the whole process,
keyed by source hash and compiler: pointing ``REPRO_CACHE_DIR`` at a
new directory reuses it rather than compiling again.

If every flavour fails, construction raises
:class:`~.base.BackendUnavailable` and the registry degrades to the
pure-Python backend.

The ctypes veneer passes ``bytes`` objects and pre-computed buffer
addresses instead of numpy pointers: ``ndarray.ctypes.data`` costs
~1.7us per access — more than the native call itself — so the hot
scalar kernels reuse cached output buffers.  Kernels where a single
numpy SIMD call is already optimal (``popcount_rows``, the flag-expand
XOR of ``decode_int``) stay on the numpy implementations; C is used
where per-bit Python loops or per-byte LUT walks dominate.

The C flavour also generates the state plane's seeded state
(:meth:`CompiledBackend.seeded_row` / :meth:`~CompiledBackend.seeded_mask`)
with numpy's SeedSequence -> PCG64 recipe re-implemented bit for bit;
keys it does not cover (a word outside ``[0, 2**32)``), the numba
flavour and C compilers without ``__int128`` keep the numpy recipe.

**Crash containment**: RNG draws always happen in Python *before* the
native call, so when a compiled kernel raises at runtime the backend
retires itself (one warning), recomputes the result from the
already-drawn keep flags with the pure-Python scatter — byte-identical,
stream-identical — and delegates every later call to the Python
backend.  The seeded generators draw from no caller stream at all, so
their fallback simply reruns the numpy recipe.  A compiled-kernel
failure can therefore never corrupt a result or desynchronise an RNG
stream.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ... import envconfig
from ...config import LINE_BITS, LINE_BYTES, LINE_WORDS, LINES_PER_PAGE
from .. import din as D
from .. import line as L
from . import rngplane
from .base import BackendUnavailable, KernelBackend
from .python_backend import PythonBackend

#: Expected ``sd_abi_version()`` of a loadable library.  Bumped to 2 for
#: the fused write-phase entry points (``sd_write_stage`` /
#: ``sd_write_apply``) and to 3 for the seeded generators
#: (``sd_seeded_row`` / ``sd_weak_mask``); older libraries fail the
#: probe and are rebuilt from source.
_ABI_VERSION = 3

#: uint64 words in one pristine row image.
_ROW_WORDS = LINES_PER_PAGE * LINE_WORDS

#: Native-order int32 packer for the single-request fused fast path.
_PACK_I = struct.Struct("=i").pack

_SOURCE = Path(__file__).with_name("_kernels.c")

#: Libraries loaded from builds, by (source hash, compiler).
_BUILT: Dict[Tuple[str, Optional[str]], ctypes.CDLL] = {}


def _find_compiler() -> Optional[str]:
    """The C compiler to use: ``REPRO_KERNEL_CC`` or the first on PATH."""
    override = envconfig.kernel_cc()
    if override is not None:
        return override
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def _prebuilt_library() -> Optional[Path]:
    """A prebuilt shared library shipped next to the package, if any."""
    here = Path(__file__).parent
    for pattern in ("_kernels*.so", "_kernels*.dylib"):
        for cand in sorted(here.glob(pattern)):
            return cand
    return None


def _built_library() -> ctypes.CDLL:
    """The loaded build of ``_kernels.c``, compiled at most once per process.

    Keyed by source hash and compiler (``REPRO_KERNEL_CC`` pointed at a
    non-compiler must still fail on a cold cache), not by cache dir.
    """
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:12]
    cc = _find_compiler()
    lib = _BUILT.get((digest, cc))
    if lib is None:
        lib = _BUILT[(digest, cc)] = _load_library(_build_library(digest, cc))
    return lib


def _build_library(digest: str, cc: Optional[str]) -> Path:
    """Compile ``_kernels.c`` into the cache dir (content-addressed)."""
    out_dir = envconfig.cache_dir() / "kernels"
    out = out_dir / f"sd_kernels_{digest}.so"
    if out.exists():
        return out
    if cc is None:
        raise BackendUnavailable(
            "no C compiler found (set REPRO_KERNEL_CC or install cc/gcc/clang)"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f"{out.stem}.tmp{os.getpid()}.so")
    cmd = [cc, "-O2", "-shared", "-fPIC", "-o", str(tmp), str(_SOURCE)]
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise BackendUnavailable(f"kernel compile failed to run: {exc}") from None
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        stderr = proc.stderr.decode(errors="replace").strip()
        raise BackendUnavailable(
            f"kernel compile failed ({cc} exit {proc.returncode}): {stderr[:500]}"
        )
    os.replace(tmp, out)  # atomic: concurrent builders converge on one file
    return out


def _load_library(path: Path) -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise BackendUnavailable(f"cannot load kernel library {path}: {exc}") from None
    try:
        lib.sd_abi_version.restype = ctypes.c_int
        abi = int(lib.sd_abi_version())
    except AttributeError:
        raise BackendUnavailable(f"{path} is not a kernel library") from None
    if abi != _ABI_VERSION:
        raise BackendUnavailable(
            f"kernel library {path} has ABI {abi}, expected {_ABI_VERSION}"
        )
    _declare(lib)
    return lib


def _declare(lib: ctypes.CDLL) -> None:
    """Bind argtypes/restypes; pointers travel as ``c_void_p`` (bytes or int)."""
    p = ctypes.c_void_p
    i = ctypes.c_int
    lib.sd_apply_keep.argtypes = [p, p, p, i]
    lib.sd_apply_keep.restype = i
    lib.sd_apply_keep_rows.argtypes = [p, i, i, p, p]
    lib.sd_apply_keep_rows.restype = i
    lib.sd_din_encode.argtypes = [p, p, p, p, i, i, p, p]
    lib.sd_din_encode.restype = None
    lib.sd_din_decode.argtypes = [p, p, i, i, p]
    lib.sd_din_decode.restype = None
    lib.sd_pack_bits.argtypes = [p, i, p]
    lib.sd_pack_bits.restype = None
    lib.sd_pack_less_than.argtypes = [p, i, ctypes.c_double, p]
    lib.sd_pack_less_than.restype = None
    lib.sd_bit_positions.argtypes = [p, i, p]
    lib.sd_bit_positions.restype = i
    lib.sd_popcount.argtypes = [p, i]
    lib.sd_popcount.restype = i
    lib.sd_popcount_rows.argtypes = [p, i, i, p]
    lib.sd_popcount_rows.restype = None
    d = ctypes.c_double
    lib.sd_write_stage.argtypes = [
        p, p, p, p, p,  # stored, flags, disturbed, data, data_is_flip
        p, p, p, p,     # vphys, vstuck, vweak, victim_counts
        p, p,           # stored_tab, invert_tab
        i, i, i,        # n_rows, row_bytes, wl_enabled
        p, p, p, p, p, p, p,  # stage outputs
    ]
    lib.sd_write_stage.restype = None
    lib.sd_write_apply.argtypes = [p, p, p, p, d, d, i, i, i, i, p, p]
    lib.sd_write_apply.restype = None
    if hasattr(lib, "sd_weak_mask"):  # absent without __int128
        u = ctypes.c_uint32
        lib.sd_seeded_row.argtypes = [u, u, u, p, i]
        lib.sd_seeded_row.restype = None
        lib.sd_weak_mask.argtypes = [u, u, u, u, d, i, p]
        lib.sd_weak_mask.restype = None


def _wide(bits: int) -> bool:
    """Whether the OR of a key's words leaves the one-word SeedSequence
    range ``[0, 2**32)``: a negative word makes the OR negative too."""
    return bits >> 32 != 0


class _COps:
    """bytes-in/bytes-out veneer over the ctypes library.

    Single-line calls write into cached buffers whose addresses are
    computed once; batch calls allocate per invocation (amortised over
    the rows).
    """

    flavor = "c"

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        # Hold the LUTs (and their addresses) so the buffers outlive
        # every native call.
        self._stored_tab, self._invert_tab = D.din_tables()
        self._stored_ptr = self._stored_tab.ctypes.data
        self._invert_ptr = self._invert_tab.ctypes.data
        self._line_buf = ctypes.create_string_buffer(LINE_BYTES)
        self._line_addr = ctypes.addressof(self._line_buf)
        self._flag_buf = ctypes.create_string_buffer(8)
        self._flag_addr = ctypes.addressof(self._flag_buf)
        self._pos_buf = ctypes.create_string_buffer(LINE_BITS * 4)
        self._pos_addr = ctypes.addressof(self._pos_buf)
        self._pos_view = np.frombuffer(self._pos_buf, np.int32)
        self.seeded = hasattr(lib, "sd_weak_mask")
        self._row_buf = ctypes.create_string_buffer(_ROW_WORDS * 8)
        self._row_addr = ctypes.addressof(self._row_buf)
        self._row_view = np.frombuffer(self._row_buf, np.uint64).reshape(
            LINES_PER_PAGE, LINE_WORDS
        )
        # Reusable fused write-phase arena, grown on demand.  The hot
        # shape is one request with a couple of victims per call, so
        # per-call buffer allocation would dominate the native work.
        self._ws_rows = 0
        self._ws_vics = 0
        self._grow_fused(1, 4)

    def _grow_fused(self, n_rows: int, n_victims: int) -> None:
        if n_rows > self._ws_rows:
            self._ws_rows = n_rows
            self._ws_stored = ctypes.create_string_buffer(n_rows * LINE_BYTES)
            self._ws_flags = ctypes.create_string_buffer(n_rows * 8)
            self._ws_logical = ctypes.create_string_buffer(n_rows * LINE_BYTES)
            self._ws_wl = ctypes.create_string_buffer(n_rows * LINE_BYTES)
            self._ws_counts = ctypes.create_string_buffer(n_rows * 12)
            self._ws_errs = ctypes.create_string_buffer(n_rows * 4)
            self._ws_stored_a = ctypes.addressof(self._ws_stored)
            self._ws_flags_a = ctypes.addressof(self._ws_flags)
            self._ws_logical_a = ctypes.addressof(self._ws_logical)
            self._ws_wl_a = ctypes.addressof(self._ws_wl)
            self._ws_counts_a = ctypes.addressof(self._ws_counts)
            self._ws_errs_a = ctypes.addressof(self._ws_errs)
        if n_victims > self._ws_vics:
            v = max(n_victims, 1)
            self._ws_vics = v
            self._ws_weak = ctypes.create_string_buffer(v * LINE_BYTES)
            self._ws_vcounts = ctypes.create_string_buffer(v * 8)
            self._ws_sampled = ctypes.create_string_buffer(v * LINE_BYTES)
            self._ws_weak_a = ctypes.addressof(self._ws_weak)
            self._ws_vcounts_a = ctypes.addressof(self._ws_vcounts)
            self._ws_sampled_a = ctypes.addressof(self._ws_sampled)

    def apply_keep(self, cand: bytes, keep: bytes, n_rows: int) -> bytes:
        if n_rows == 1:
            self._lib.sd_apply_keep_rows(
                cand, 1, LINE_BYTES, keep, self._line_addr
            )
            return self._line_buf.raw
        out = ctypes.create_string_buffer(n_rows * LINE_BYTES)
        self._lib.sd_apply_keep_rows(
            cand, n_rows, LINE_BYTES, keep, ctypes.addressof(out)
        )
        return out.raw

    def din_encode(self, old: bytes, raw: bytes, n_rows: int) -> Tuple[bytes, bytes]:
        if n_rows == 1:
            ctypes.memset(self._flag_addr, 0, 8)
            self._lib.sd_din_encode(
                old, raw, self._stored_ptr, self._invert_ptr,
                1, LINE_BYTES, self._line_addr, self._flag_addr,
            )
            return self._line_buf.raw, self._flag_buf.raw
        stored = ctypes.create_string_buffer(n_rows * LINE_BYTES)
        flags = ctypes.create_string_buffer(n_rows * 8)
        self._lib.sd_din_encode(
            old, raw, self._stored_ptr, self._invert_ptr,
            n_rows, LINE_BYTES, ctypes.addressof(stored), ctypes.addressof(flags),
        )
        return stored.raw, flags.raw

    def din_decode(self, stored: bytes, flags: bytes, n_rows: int) -> bytes:
        if n_rows == 1:
            self._lib.sd_din_decode(
                stored, flags, 1, LINE_BYTES, self._line_addr
            )
            return self._line_buf.raw
        out = ctypes.create_string_buffer(n_rows * LINE_BYTES)
        self._lib.sd_din_decode(
            stored, flags, n_rows, LINE_BYTES, ctypes.addressof(out)
        )
        return out.raw

    def pack_less_than(self, draws: bytes, n: int, threshold: float) -> bytes:
        if n == LINE_BITS:
            self._lib.sd_pack_less_than(draws, n, threshold, self._line_addr)
            return self._line_buf.raw
        out = ctypes.create_string_buffer((n + 7) // 8)
        self._lib.sd_pack_less_than(draws, n, threshold, ctypes.addressof(out))
        return out.raw

    def pack_bits(self, bits: bytes, n: int) -> bytes:
        if n == LINE_BITS:
            self._lib.sd_pack_bits(bits, n, self._line_addr)
            return self._line_buf.raw
        out = ctypes.create_string_buffer((n + 7) // 8)
        self._lib.sd_pack_bits(bits, n, ctypes.addressof(out))
        return out.raw

    def bit_positions(self, buf: bytes, count: int) -> List[int]:
        self._lib.sd_bit_positions(buf, len(buf), self._pos_addr)
        return self._pos_view[:count].tolist()

    def seeded_row(self, k0: int, k1: int, k2: int) -> np.ndarray:
        self._lib.sd_seeded_row(k0, k1, k2, self._row_addr, _ROW_WORDS)
        return self._row_view.copy()

    def seeded_mask(
        self, k0: int, k1: int, k2: int, k3: int, fraction: float
    ) -> bytes:
        self._lib.sd_weak_mask(
            k0, k1, k2, k3, fraction, LINE_BITS, self._line_addr
        )
        return self._line_buf.raw

    def write_stage(
        self,
        stored: bytes,
        flags: bytes,
        disturbed: bytes,
        data: bytes,
        flips: bytes,
        vphys: bytes,
        vstuck: bytes,
        vweak: bytes,
        vcounts: bytes,
        n_rows: int,
        n_victims: int,
        wl_enabled: int,
    ):
        self._grow_fused(n_rows, n_victims)
        # Only flags_out accumulates with |= in C; the rest is written.
        ctypes.memset(self._ws_flags_a, 0, n_rows * 8)
        self._lib.sd_write_stage(
            stored, flags, disturbed, data, flips,
            vphys, vstuck, vweak, vcounts,
            self._stored_ptr, self._invert_ptr,
            n_rows, LINE_BYTES, wl_enabled,
            self._ws_stored_a, self._ws_flags_a, self._ws_logical_a,
            self._ws_wl_a, self._ws_weak_a, self._ws_counts_a,
            self._ws_vcounts_a,
        )
        return (
            ctypes.string_at(self._ws_stored_a, n_rows * LINE_BYTES),
            ctypes.string_at(self._ws_flags_a, n_rows * 8),
            ctypes.string_at(self._ws_logical_a, n_rows * LINE_BYTES),
            ctypes.string_at(self._ws_wl_a, n_rows * LINE_BYTES),
            ctypes.string_at(self._ws_weak_a, n_victims * LINE_BYTES),
            struct.unpack_from(f"={n_rows * 3}i", self._ws_counts),
            struct.unpack_from(f"={n_victims * 2}i", self._ws_vcounts),
        )

    def write_apply(
        self,
        wl_vuln: bytes,
        weak: bytes,
        vcounts: bytes,
        draws: bytes,
        p_wl: float,
        p_bl: float,
        n_rows: int,
        n_victims: int,
        wl_mode: int,
        bl_mode: int,
    ):
        self._grow_fused(n_rows, n_victims)
        self._lib.sd_write_apply(
            wl_vuln, weak, vcounts, draws,
            p_wl, p_bl, n_rows, LINE_BYTES, wl_mode, bl_mode,
            self._ws_errs_a, self._ws_sampled_a,
        )
        return (
            struct.unpack_from(f"={n_rows}i", self._ws_errs),
            ctypes.string_at(self._ws_sampled_a, n_victims * LINE_BYTES),
        )


class _NumbaOps:
    """Same bytes veneer over the ``@njit`` kernels (numba flavour)."""

    flavor = "numba"
    seeded = False

    def __init__(self, mod) -> None:
        self._mod = mod
        stored_tab, invert_tab = D.din_tables()
        self._stored_tab = stored_tab.reshape(-1)
        self._invert_tab = invert_tab.reshape(-1)

    def apply_keep(self, cand: bytes, keep: bytes, n_rows: int) -> bytes:
        out = np.empty(n_rows * LINE_BYTES, np.uint8)
        self._mod.apply_keep_rows(
            np.frombuffer(cand, np.uint8), n_rows, LINE_BYTES,
            np.frombuffer(keep, np.uint8), out,
        )
        return out.tobytes()

    def din_encode(self, old: bytes, raw: bytes, n_rows: int) -> Tuple[bytes, bytes]:
        stored = np.empty(n_rows * LINE_BYTES, np.uint8)
        flags = np.zeros(n_rows * 8, np.uint8)
        self._mod.din_encode(
            np.frombuffer(old, np.uint8), np.frombuffer(raw, np.uint8),
            self._stored_tab, self._invert_tab,
            n_rows, LINE_BYTES, stored, flags,
        )
        return stored.tobytes(), flags.tobytes()

    def din_decode(self, stored: bytes, flags: bytes, n_rows: int) -> bytes:
        out = np.empty(n_rows * LINE_BYTES, np.uint8)
        self._mod.din_decode(
            np.frombuffer(stored, np.uint8), np.frombuffer(flags, np.uint8),
            n_rows, LINE_BYTES, out,
        )
        return out.tobytes()

    def pack_less_than(self, draws: bytes, n: int, threshold: float) -> bytes:
        out = np.empty((n + 7) // 8, np.uint8)
        self._mod.pack_less_than(
            np.frombuffer(draws, np.float64), n, threshold, out
        )
        return out.tobytes()

    def pack_bits(self, bits: bytes, n: int) -> bytes:
        out = np.empty((n + 7) // 8, np.uint8)
        self._mod.pack_bits(np.frombuffer(bits, np.uint8), n, out)
        return out.tobytes()

    def bit_positions(self, buf: bytes, count: int) -> List[int]:
        out = np.empty(max(count, 1), np.int32)
        self._mod.bit_positions(np.frombuffer(buf, np.uint8), len(buf), out)
        return out[:count].tolist()

    def write_stage(
        self,
        stored: bytes,
        flags: bytes,
        disturbed: bytes,
        data: bytes,
        flips: bytes,
        vphys: bytes,
        vstuck: bytes,
        vweak: bytes,
        vcounts: bytes,
        n_rows: int,
        n_victims: int,
        wl_enabled: int,
    ):
        v = max(n_victims, 1)
        stored_out = np.empty(n_rows * LINE_BYTES, np.uint8)
        flags_out = np.zeros(n_rows * 8, np.uint8)
        logical_out = np.empty(n_rows * LINE_BYTES, np.uint8)
        wl_out = np.empty(n_rows * LINE_BYTES, np.uint8)
        weak_out = np.zeros(v * LINE_BYTES, np.uint8)
        counts = np.empty(n_rows * 3, np.int32)
        vcounts_out = np.zeros(v * 2, np.int32)
        self._mod.write_stage(
            np.frombuffer(stored, np.uint8), np.frombuffer(flags, np.uint8),
            np.frombuffer(disturbed, np.uint8), np.frombuffer(data, np.uint8),
            np.frombuffer(flips, np.uint8),
            np.frombuffer(vphys, np.uint8), np.frombuffer(vstuck, np.uint8),
            np.frombuffer(vweak, np.uint8), np.frombuffer(vcounts, np.int32),
            self._stored_tab, self._invert_tab,
            n_rows, LINE_BYTES, wl_enabled,
            stored_out, flags_out, logical_out, wl_out, weak_out,
            counts, vcounts_out,
        )
        return (
            stored_out.tobytes(), flags_out.tobytes(), logical_out.tobytes(),
            wl_out.tobytes(), weak_out.tobytes()[:n_victims * LINE_BYTES],
            tuple(int(x) for x in counts),
            tuple(int(x) for x in vcounts_out[:n_victims * 2]),
        )

    def write_apply(
        self,
        wl_vuln: bytes,
        weak: bytes,
        vcounts: bytes,
        draws: bytes,
        p_wl: float,
        p_bl: float,
        n_rows: int,
        n_victims: int,
        wl_mode: int,
        bl_mode: int,
    ):
        errs = np.zeros(n_rows, np.int32)
        sampled = np.zeros(max(n_victims, 1) * LINE_BYTES, np.uint8)
        self._mod.write_apply(
            np.frombuffer(wl_vuln, np.uint8), np.frombuffer(weak, np.uint8),
            np.frombuffer(vcounts, np.int32), np.frombuffer(draws, np.float64),
            p_wl, p_bl, n_rows, LINE_BYTES, wl_mode, bl_mode,
            errs, sampled,
        )
        return (
            tuple(int(x) for x in errs),
            sampled.tobytes()[:n_victims * LINE_BYTES],
        )


def _make_ops():
    """Build the best available native ops, or raise BackendUnavailable."""
    reasons = []
    prebuilt = _prebuilt_library()
    if prebuilt is not None:
        try:
            return _COps(_load_library(prebuilt))
        except BackendUnavailable as exc:
            reasons.append(str(exc))
    try:
        return _COps(_built_library())
    except BackendUnavailable as exc:
        reasons.append(str(exc))
    try:
        from . import _numba_kernels
        return _NumbaOps(_numba_kernels)
    except ImportError:
        reasons.append("numba is not installed")
    raise BackendUnavailable(
        "compiled kernel backend unavailable: " + "; ".join(reasons)
    )


class CompiledBackend(KernelBackend):
    """C/numba-accelerated kernels with a self-retiring Python fallback."""

    name = "compiled"

    def __init__(self) -> None:
        self._ops = _make_ops()
        self._py = PythonBackend()
        self._dead = False
        self._seeded = self._ops.seeded

    @property
    def flavor(self) -> str:
        """Which native flavour loaded: ``"c"`` or ``"numba"``."""
        return self._ops.flavor

    @property
    def dead(self) -> bool:
        """True once a runtime failure retired the native kernels."""
        return self._dead

    @property
    def native_seeding(self) -> bool:
        return self._seeded and not self._dead

    def _retire(self, exc: BaseException) -> None:
        if not self._dead:
            self._dead = True
            warnings.warn(
                f"compiled kernel backend failed at runtime ({exc!r}); "
                "falling back to the pure-Python backend",
                RuntimeWarning,
                stacklevel=3,
            )
            try:
                from ...resilience.breaker import breaker

                breaker("kernel").record_failure(exc)
            except Exception:  # supervision must never break the fallback
                pass

    # -- disturbance sampling ----------------------------------------------------

    def sample_mask_int(
        self, candidates: int, probability: float, rng: np.random.Generator
    ) -> int:
        if self._dead:
            return self._py.sample_mask_int(candidates, probability, rng)
        if probability <= 0.0 or candidates == 0:
            return 0
        if probability >= 1.0:
            return candidates
        keep = rng.random(candidates.bit_count()) < probability
        try:
            out = self._ops.apply_keep(
                candidates.to_bytes(LINE_BYTES, "little"), keep.tobytes(), 1
            )
        except Exception as exc:
            self._retire(exc)
            return L._apply_keep(candidates, keep)
        return int.from_bytes(out, "little")

    def sample_masks_int(
        self, candidates: List[int], probability: float, rng: np.random.Generator
    ) -> List[int]:
        if self._dead:
            return self._py.sample_masks_int(candidates, probability, rng)
        if probability <= 0.0:
            return [0] * len(candidates)
        if probability >= 1.0:
            return list(candidates)
        counts = [value.bit_count() for value in candidates]
        total = sum(counts)
        if total == 0:
            return [0] * len(candidates)
        keep = rng.random(total) < probability
        payload = b"".join(
            value.to_bytes(LINE_BYTES, "little") for value in candidates
        )
        try:
            data = self._ops.apply_keep(payload, keep.tobytes(), len(candidates))
        except Exception as exc:
            self._retire(exc)
            return self._apply_keep_fallback(candidates, counts, keep)
        return [
            int.from_bytes(data[r * LINE_BYTES:(r + 1) * LINE_BYTES], "little")
            for r in range(len(candidates))
        ]

    @staticmethod
    def _apply_keep_fallback(
        candidates: List[int], counts: List[int], keep: np.ndarray
    ) -> List[int]:
        """Finish a batch with the Python scatter and the drawn flags."""
        result: List[int] = []
        offset = 0
        for value, n in zip(candidates, counts):
            if n == 0:
                result.append(0)
            else:
                result.append(L._apply_keep(value, keep[offset:offset + n]))
                offset += n
        return result

    def sample_masks_rows(
        self, rows: np.ndarray, probability: float, rng: np.random.Generator
    ) -> np.ndarray:
        if self._dead:
            return self._py.sample_masks_rows(rows, probability, rng)
        rows = np.asarray(rows)
        n_rows = len(rows)
        result = np.zeros((n_rows, LINE_WORDS), L.WORD_DTYPE)
        if n_rows == 0 or probability <= 0.0:
            return result
        if probability >= 1.0:
            result[:] = rows
            return result
        counts = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
        total = int(counts.sum())
        if total == 0:
            return result
        keep = rng.random(total) < probability
        try:
            data = self._ops.apply_keep(
                np.ascontiguousarray(rows).tobytes(), keep.tobytes(), n_rows
            )
        except Exception as exc:
            self._retire(exc)
            values = L.unpack_rows(rows)
            return L.pack_rows(
                self._apply_keep_fallback(values, [int(c) for c in counts], keep)
            )
        return np.frombuffer(data, L.WORD_DTYPE).reshape(n_rows, LINE_WORDS).copy()

    # -- fused write phase -------------------------------------------------------

    def write_phase_batch(
        self,
        requests,
        wl_probability: float,
        bl_probability: float,
        rng: np.random.Generator,
        wl_enabled: bool = True,
    ):
        if self._dead:
            return self._py.write_phase_batch(
                requests, wl_probability, bl_probability, rng, wl_enabled
            )
        n = len(requests)
        if n == 0:
            return []
        if n == 1:
            # The hot shape: the write planner fuses one demand write
            # (plus its victims) per call, so skip the generator joins.
            req = requests[0]
            victims = req.victims
            nv = len(victims)
            victim_counts = [nv]
            n_victims = nv
            stored = req.stored.to_bytes(LINE_BYTES, "little")
            flags = req.flags.to_bytes(8, "little")
            disturbed = req.disturbed.to_bytes(LINE_BYTES, "little")
            data = req.data.to_bytes(LINE_BYTES, "little")
            flips = b"\x01" if req.data_is_flip else b"\x00"
            if nv:
                vphys = b"".join(
                    v[0].to_bytes(LINE_BYTES, "little") for v in victims
                )
                vstuck = b"".join(
                    v[1].to_bytes(LINE_BYTES, "little") for v in victims
                )
                vweak = b"".join(
                    v[2].to_bytes(LINE_BYTES, "little") for v in victims
                )
            else:
                vphys = vstuck = vweak = b""
            vcounts_b = _PACK_I(nv)
        else:
            victim_counts = [len(req.victims) for req in requests]
            n_victims = sum(victim_counts)
            stored = b"".join(
                req.stored.to_bytes(LINE_BYTES, "little") for req in requests
            )
            flags = b"".join(
                req.flags.to_bytes(8, "little") for req in requests
            )
            disturbed = b"".join(
                req.disturbed.to_bytes(LINE_BYTES, "little")
                for req in requests
            )
            data = b"".join(
                req.data.to_bytes(LINE_BYTES, "little") for req in requests
            )
            flips = bytes(1 if req.data_is_flip else 0 for req in requests)
            vphys = b"".join(
                v[0].to_bytes(LINE_BYTES, "little")
                for req in requests for v in req.victims
            )
            vstuck = b"".join(
                v[1].to_bytes(LINE_BYTES, "little")
                for req in requests for v in req.victims
            )
            vweak = b"".join(
                v[2].to_bytes(LINE_BYTES, "little")
                for req in requests for v in req.victims
            )
            vcounts_b = struct.pack(f"={n}i", *victim_counts)
        try:
            (stored_out, flags_out, logical_out, wl_out, weak_out,
             counts, vcounts) = self._ops.write_stage(
                stored, flags, disturbed, data, flips,
                vphys, vstuck, vweak, vcounts_b, n, n_victims,
                1 if wl_enabled else 0,
            )
        except Exception as exc:
            # Stage failures consume no RNG: the pure-Python fused path
            # replays the whole call stream-identically from the inputs.
            self._retire(exc)
            return self._py.write_phase_batch(
                requests, wl_probability, bl_probability, rng, wl_enabled
            )
        wl_mode, bl_mode = rngplane.sample_modes(wl_probability, bl_probability)
        total = 0
        if wl_mode == 2:
            total += sum(counts[2::3])
        if bl_mode == 2 and n_victims:
            total += sum(vcounts[1::2])
        draws = rngplane.draw_plane(rng, total)
        try:
            errs, sampled = self._ops.write_apply(
                wl_out, weak_out, vcounts_b, draws.tobytes(),
                float(wl_probability), float(bl_probability),
                n, n_victims, wl_mode, bl_mode,
            )
        except Exception as exc:
            # The plane is already consumed: re-stage in pure Python
            # (draw-free, deterministic) and scatter the very same draws
            # so the results and the stream position stay identical.
            self._retire(exc)
            staged = rngplane.stage_reference(self._py, requests, wl_enabled)
            return rngplane.apply_reference(
                staged, draws, wl_probability, bl_probability
            )
        results = []
        k = 0
        for r in range(n):
            o = r * LINE_BYTES
            nv = victim_counts[r]
            results.append(rngplane.WriteResult(
                stored=int.from_bytes(stored_out[o:o + LINE_BYTES], "little"),
                flags=int.from_bytes(flags_out[r * 8:(r + 1) * 8], "little"),
                logical=int.from_bytes(logical_out[o:o + LINE_BYTES], "little"),
                reset_bits=counts[r * 3],
                set_bits=counts[r * 3 + 1],
                wl_vuln_bits=counts[r * 3 + 2],
                wl_errors=errs[r],
                victim_vuln_bits=[
                    vcounts[(k + v) * 2] for v in range(nv)
                ],
                victim_sampled=[
                    int.from_bytes(
                        sampled[(k + v) * LINE_BYTES:(k + v + 1) * LINE_BYTES],
                        "little",
                    )
                    for v in range(nv)
                ],
            ))
            k += nv
        return results

    # -- seeded state generation --------------------------------------------

    def seeded_row(self, key: Tuple[int, ...]) -> np.ndarray:
        if not self.native_seeding or len(key) != 3:
            return super().seeded_row(key)
        k0, k1, k2 = key
        if _wide(k0 | k1 | k2):
            return super().seeded_row(key)
        try:
            return self._ops.seeded_row(k0, k1, k2)
        except Exception as exc:
            self._retire(exc)
            return super().seeded_row(key)

    def seeded_mask(self, key: Tuple[int, ...], fraction: float) -> int:
        if not self.native_seeding or len(key) != 4:
            return super().seeded_mask(key, fraction)
        k0, k1, k2, k3 = key
        if _wide(k0 | k1 | k2 | k3):
            return super().seeded_mask(key, fraction)
        fraction = float(fraction)
        try:
            out = self._ops.seeded_mask(k0, k1, k2, k3, fraction)
        except Exception as exc:
            self._retire(exc)
            return super().seeded_mask(key, fraction)
        return int.from_bytes(out, "little")

    # -- counting / positions ----------------------------------------------------

    def popcount_rows(self, rows: np.ndarray) -> np.ndarray:
        # numpy's SIMD bitwise_count beats a byte-loop C popcount at every
        # batch size measured, so this kernel stays on the reference.
        return self._py.popcount_rows(rows)

    def bit_positions_int(self, value: int) -> List[int]:
        if self._dead or value == 0:
            return self._py.bit_positions_int(value)
        try:
            return self._ops.bit_positions(
                value.to_bytes(LINE_BYTES, "little"), value.bit_count()
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.bit_positions_int(value)

    # -- DIN inversion coding ----------------------------------------------------

    def encode_stored_int(self, physical: int, data: int) -> Tuple[int, int]:
        if self._dead:
            return self._py.encode_stored_int(physical, data)
        try:
            stored, flags = self._ops.din_encode(
                physical.to_bytes(LINE_BYTES, "little"),
                data.to_bytes(LINE_BYTES, "little"),
                1,
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.encode_stored_int(physical, data)
        return (
            int.from_bytes(stored, "little"),
            int.from_bytes(flags, "little"),
        )

    def decode_int(self, stored: int, flags: int) -> int:
        # The numpy flag-expand LUT + one big-int XOR is already faster
        # than a native call round-trip for a single line.
        return self._py.decode_int(stored, flags)

    def encode_stored_rows(
        self, physical: np.ndarray, data: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self._dead:
            return self._py.encode_stored_rows(physical, data)
        n = len(physical)
        try:
            stored, flags = self._ops.din_encode(
                np.ascontiguousarray(physical).tobytes(),
                np.ascontiguousarray(data).tobytes(),
                n,
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.encode_stored_rows(physical, data)
        return (
            np.frombuffer(stored, L.WORD_DTYPE).reshape(n, LINE_WORDS).copy(),
            np.frombuffer(flags, np.uint64).copy(),
        )

    def decode_rows(self, stored: np.ndarray, flags: np.ndarray) -> np.ndarray:
        if self._dead:
            return self._py.decode_rows(stored, flags)
        n = len(stored)
        try:
            data = self._ops.din_decode(
                np.ascontiguousarray(stored).tobytes(),
                np.asarray(flags).astype(np.uint64).tobytes(),
                n,
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.decode_rows(stored, flags)
        return np.frombuffer(data, L.WORD_DTYPE).reshape(n, LINE_WORDS).copy()

    # -- mask packing ------------------------------------------------------------

    def pack_mask(self, bits: np.ndarray) -> int:
        # numpy's SIMD packbits beats the native round-trip for one line;
        # the C bit-packer is still exercised via mask_from_draws, where
        # fusing the threshold compare into the pack wins.
        return self._py.pack_mask(bits)

    def mask_from_draws(self, draws: np.ndarray, threshold: float) -> int:
        if self._dead:
            return self._py.mask_from_draws(draws, threshold)
        flat = np.ascontiguousarray(draws, np.float64)
        try:
            out = self._ops.pack_less_than(
                flat.tobytes(), len(flat), float(threshold)
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.mask_from_draws(draws, threshold)
        return int.from_bytes(out, "little")
