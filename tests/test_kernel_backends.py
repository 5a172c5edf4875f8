"""The kernel-backend registry and cross-backend byte-identity.

Every registered backend (``python``, ``compiled``) must
produce bit-identical masks, stored images, and flag words — and consume
the same RNG draws in the same order — as the pure-Python reference.
These tests pin that contract property-based over random masks and edge
probabilities, plus the registry semantics (lazy memoised construction,
force-mode errors, graceful degradation) and the compiled backend's
crash containment: a native kernel that raises mid-run retires itself
with one warning and finishes byte- and stream-identically in Python.

The compiled backend skips its equivalence cases on hosts without a C
compiler; the registry/degradation tests simulate such hosts with
``REPRO_KERNEL_CC`` pointed at a non-compiler.
"""

from __future__ import annotations

import argparse
import hashlib
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import envconfig
from repro.config import LINE_BITS, LINE_WORDS, LINES_PER_PAGE, SystemConfig
from repro.core import schemes
from repro.pcm import kernels
from repro.pcm import line as L
from repro.pcm.kernels.base import BackendUnavailable
from repro.pcm.kernels.python_backend import PythonBackend

words = st.integers(min_value=0, max_value=(1 << 64) - 1)
mask_ints = st.one_of(
    st.lists(st.integers(0, LINE_BITS - 1), unique=True, max_size=24).map(
        lambda bits: sum(1 << b for b in bits)
    ),
    st.lists(words, min_size=LINE_WORDS, max_size=LINE_WORDS).map(
        lambda ws: sum(w << (64 * i) for i, w in enumerate(ws))
    ),
)
probabilities = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.just(1e-12),
    st.just(1.0 - 1e-12),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

REFERENCE = PythonBackend()


def backend_or_skip(name: str) -> kernels.KernelBackend:
    """The memoised backend, or a skip on hosts that cannot build it."""
    try:
        return kernels.get_backend(name)
    except BackendUnavailable as exc:
        pytest.skip(f"{name} backend unavailable here: {exc}")


def _rows(values) -> np.ndarray:
    return L.pack_rows(list(values))


# -- registry semantics ------------------------------------------------------


class TestRegistry:
    def test_envconfig_names_pin_the_registry(self):
        """The import-light envconfig literal must track the registry,
        and every CLI ``--kernel-backend`` must offer exactly it."""
        assert envconfig.KERNEL_BACKENDS == ("auto",) + kernels.BACKEND_NAMES
        from repro import cli

        choices = []

        def walk(parser):
            for action in parser._actions:
                if "--kernel-backend" in action.option_strings:
                    choices.append(tuple(action.choices))
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        walk(sub)

        walk(cli._build_parser())
        assert choices == [envconfig.KERNEL_BACKENDS] * 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend("fortran")

    def test_construction_is_memoised(self):
        assert kernels.get_backend("python") is kernels.get_backend("python")
        assert kernels.get_backend(" Python ") is kernels.get_backend("python")
        compiled = backend_or_skip("compiled")
        assert kernels.get_backend(" COMPILED ") is compiled

    def test_active_defaults_to_python(self):
        kernels.reset()
        assert kernels.active().name == "python"
        assert kernels.active_name() == "python"

    def test_activate_and_reset(self):
        compiled = backend_or_skip("compiled")
        assert kernels.activate("compiled") is compiled
        assert kernels.active_name() == "compiled"
        kernels.reset()
        assert kernels.active_name() == "python"

    def test_available_always_includes_the_pure_backends(self):
        available = kernels.available_backends()
        assert available[0] == "python"
        # Registry order is preserved (a subsequence of BACKEND_NAMES).
        order = [kernels.BACKEND_NAMES.index(name) for name in available]
        assert order == sorted(order)

    def test_unavailability_is_memoised(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CC", "/bin/false")
        kernels.reset()
        with pytest.raises(BackendUnavailable):
            kernels.get_backend("compiled")
        # The failed probe is remembered: no second build attempt, and
        # the name stays out of the available set.
        with pytest.raises(BackendUnavailable):
            kernels.get_backend("compiled")
        assert kernels.available_backends() == ("python",)

    def test_build_is_reused_across_cache_dirs(self, tmp_path, monkeypatch):
        """The C build is process-wide: a new ``REPRO_CACHE_DIR`` (every
        test gets one) reuses it instead of compiling again."""
        from repro.pcm.kernels import compiled_backend

        backend_or_skip("compiled")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fresh"))
        kernels.reset()

        def no_compile(*args, **kwargs):
            raise AssertionError("the kernel library was compiled again")

        monkeypatch.setattr(compiled_backend.subprocess, "run", no_compile)
        assert kernels.get_backend("compiled").name == "compiled"
        assert not (tmp_path / "fresh" / "kernels").exists()

    def test_activate_preferred_degrades_to_python(self, monkeypatch):
        # A constructible preference is honoured...
        if "compiled" in kernels.available_backends():
            assert kernels.activate_preferred("compiled").name == "compiled"
        # ...and an unconstructible one degrades to pure Python.
        monkeypatch.setenv("REPRO_KERNEL_CC", "/bin/false")
        kernels.reset()
        backend = kernels.activate_preferred("compiled")
        assert backend.name == "python"
        assert kernels.active_name() == "python"

    def test_forced_unavailable_backend_fails_the_runner(self, monkeypatch):
        """Forcing a backend the host lacks is an error, not a degrade."""
        from repro.experiments import common
        from repro.perf.cache import ResultCache
        from repro.perf.engine import CellRunner

        monkeypatch.setenv("REPRO_KERNEL_CC", "/bin/false")
        kernels.reset()
        runner = CellRunner(jobs=1, kernel_backend="compiled")
        spec = common.cell("stream", schemes.baseline(), length=40, cores=2)
        with pytest.raises(BackendUnavailable):
            runner.run_cells([spec])

    def test_runner_rejects_unknown_kernel_name(self):
        from repro.perf.engine import CellRunner

        with pytest.raises(ValueError, match="kernel_backend must be one of"):
            CellRunner(jobs=1, kernel_backend="fastest")


# -- cross-backend equivalence ----------------------------------------------


@pytest.mark.parametrize("name", kernels.BACKEND_NAMES)
class TestBackendEquivalence:
    """Every backend against the pure-Python reference, same RNG streams."""

    @settings(max_examples=120)
    @given(mask_ints, probabilities, seeds)
    def test_sample_mask_int(self, name, mask, p, seed):
        backend = backend_or_skip(name)
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = backend.sample_mask_int(mask, p, fast_rng)
        want = REFERENCE.sample_mask_int(mask, p, ref_rng)
        assert got == want
        # Identical draw consumption: the streams stay in lock-step.
        assert fast_rng.random() == ref_rng.random()

    @settings(max_examples=100)
    @given(st.lists(mask_ints, max_size=5), probabilities, seeds)
    def test_sample_masks_int(self, name, values, p, seed):
        backend = backend_or_skip(name)
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = backend.sample_masks_int(values, p, fast_rng)
        want = REFERENCE.sample_masks_int(values, p, ref_rng)
        assert got == want
        assert fast_rng.random() == ref_rng.random()

    @settings(max_examples=100)
    @given(st.lists(mask_ints, max_size=5), probabilities, seeds)
    def test_sample_masks_rows(self, name, values, p, seed):
        backend = backend_or_skip(name)
        rows = _rows(values)
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = backend.sample_masks_rows(rows, p, fast_rng)
        want = REFERENCE.sample_masks_rows(rows, p, ref_rng)
        assert np.array_equal(got, want)
        assert fast_rng.random() == ref_rng.random()

    def test_edges_draw_nothing(self, name):
        backend = backend_or_skip(name)
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state["state"]["state"]
        assert backend.sample_mask_int(0, 0.5, rng) == 0
        assert backend.sample_mask_int(L.MASK_ALL, 0.0, rng) == 0
        assert backend.sample_mask_int(L.MASK_ALL, 1.0, rng) == L.MASK_ALL
        assert backend.sample_masks_int([], 0.5, rng) == []
        assert backend.sample_masks_int([0, 0], 0.5, rng) == [0, 0]
        empty = np.zeros((0, LINE_WORDS), dtype=L.WORD_DTYPE)
        assert backend.sample_masks_rows(empty, 0.5, rng).shape == empty.shape
        assert rng.bit_generator.state["state"]["state"] == before

    @settings(max_examples=100)
    @given(mask_ints, mask_ints)
    def test_din_int_coders(self, name, physical, data):
        backend = backend_or_skip(name)
        stored, flags = backend.encode_stored_int(physical, data)
        assert (stored, flags) == REFERENCE.encode_stored_int(physical, data)
        assert backend.decode_int(stored, flags) == data

    @settings(max_examples=80)
    @given(st.lists(st.tuples(mask_ints, mask_ints), min_size=1, max_size=5))
    def test_din_row_coders(self, name, pairs):
        backend = backend_or_skip(name)
        physical = _rows(p for p, _ in pairs)
        data = _rows(d for _, d in pairs)
        stored, flags = backend.encode_stored_rows(physical, data)
        ref_stored, ref_flags = REFERENCE.encode_stored_rows(physical, data)
        assert np.array_equal(stored, ref_stored)
        assert np.array_equal(flags, ref_flags)
        decoded = backend.decode_rows(stored, flags)
        assert np.array_equal(decoded, data)

    @settings(max_examples=100)
    @given(mask_ints)
    def test_counting_kernels(self, name, mask):
        backend = backend_or_skip(name)
        assert backend.bit_positions_int(mask) == (
            REFERENCE.bit_positions_int(mask)
        )
        rows = _rows([mask, 0, L.MASK_ALL])
        assert np.array_equal(
            backend.popcount_rows(rows), REFERENCE.popcount_rows(rows)
        )

    @settings(max_examples=100)
    @given(seeds, probabilities)
    def test_mask_packing(self, name, seed, threshold):
        backend = backend_or_skip(name)
        rng = np.random.default_rng(seed)
        draws = rng.random(LINE_BITS)
        assert backend.mask_from_draws(draws, threshold) == (
            REFERENCE.mask_from_draws(draws, threshold)
        )
        bits = (draws < 0.5).astype(np.uint8)
        assert backend.pack_mask(bits) == REFERENCE.pack_mask(bits)


def _digest(result) -> str:
    return hashlib.sha256(pickle.dumps(result)).hexdigest()


def _tiny_spec():
    from repro.perf.cellspec import CellSpec

    config = SystemConfig(cores=2, seed=1).with_scheme(
        schemes.by_name("LazyC+PreRead")
    )
    return CellSpec(bench="mcf", length=60, config=config)


def _simulate_under(name: str) -> str:
    from repro.pcm import stateplane
    from repro.perf.cellspec import simulate_cell

    stateplane.PLANE.reset()
    kernels.activate(name)
    try:
        return _digest(simulate_cell(_tiny_spec()))
    finally:
        kernels.reset()
        stateplane.PLANE.reset()


class TestFullCellEquivalence:
    """A whole simulated cell is byte-identical under every backend."""

    @pytest.mark.parametrize("name", ("compiled",))
    def test_cell_digest_matches_python(self, name):
        backend_or_skip(name)
        assert _simulate_under(name) == _simulate_under("python")


# -- compiled-backend crash containment --------------------------------------


class _FlakyOps:
    """Delegates to the real native ops until a fuse burns, then raises."""

    def __init__(self, real, fuse: int) -> None:
        self._real = real
        self._fuse = fuse
        self.seeded = real.seeded

    def _call(self, method, *args):
        if self._fuse <= 0:
            raise RuntimeError("simulated native kernel crash")
        self._fuse -= 1
        return getattr(self._real, method)(*args)

    def apply_keep(self, *args):
        return self._call("apply_keep", *args)

    def din_encode(self, *args):
        return self._call("din_encode", *args)

    def din_decode(self, *args):
        return self._call("din_decode", *args)

    def pack_less_than(self, *args):
        return self._call("pack_less_than", *args)

    def bit_positions(self, *args):
        return self._call("bit_positions", *args)

    def seeded_row(self, *args):
        return self._call("seeded_row", *args)

    def seeded_mask(self, *args):
        return self._call("seeded_mask", *args)


def _fresh_compiled():
    from repro.pcm.kernels.compiled_backend import CompiledBackend

    try:
        return CompiledBackend()
    except BackendUnavailable as exc:
        pytest.skip(f"compiled backend unavailable here: {exc}")


class TestCompiledCrashFallback:
    def test_crash_retires_with_one_warning_and_identical_result(self):
        backend = _fresh_compiled()
        backend._ops = _FlakyOps(backend._ops, fuse=0)
        mask = (1 << 511) | (1 << 77) | 0xF0F0
        fast_rng = np.random.default_rng(3)
        ref_rng = np.random.default_rng(3)
        with pytest.warns(RuntimeWarning, match="falling back"):
            got = backend.sample_mask_int(mask, 0.4, fast_rng)
        # The already-drawn keep flags are replayed by the Python
        # scatter: same bytes, same stream position.
        assert got == REFERENCE.sample_mask_int(mask, 0.4, ref_rng)
        assert fast_rng.random() == ref_rng.random()
        assert backend.dead is True

    def test_retired_backend_delegates_silently(self):
        backend = _fresh_compiled()
        backend._ops = _FlakyOps(backend._ops, fuse=0)
        with pytest.warns(RuntimeWarning):
            backend.encode_stored_int(3, 5)
        # Every later call rides the Python backend without re-warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stored, flags = backend.encode_stored_int(3, 5)
            assert (stored, flags) == REFERENCE.encode_stored_int(3, 5)
            rng = np.random.default_rng(9)
            ref = np.random.default_rng(9)
            assert backend.sample_masks_int([7, 0, 1 << 300], 0.6, rng) == (
                REFERENCE.sample_masks_int([7, 0, 1 << 300], 0.6, ref)
            )

    def test_batched_crash_replays_drawn_flags(self):
        backend = _fresh_compiled()
        backend._ops = _FlakyOps(backend._ops, fuse=0)
        values = [(1 << 200) - 1, 0, 0xDEADBEEF << 64]
        fast_rng = np.random.default_rng(17)
        ref_rng = np.random.default_rng(17)
        with pytest.warns(RuntimeWarning):
            got = backend.sample_masks_int(values, 0.3, fast_rng)
        assert got == REFERENCE.sample_masks_int(values, 0.3, ref_rng)
        assert fast_rng.random() == ref_rng.random()
        rows = _rows(values)
        fast_rng = np.random.default_rng(23)
        ref_rng = np.random.default_rng(23)
        assert np.array_equal(
            backend.sample_masks_rows(rows, 0.3, fast_rng),
            REFERENCE.sample_masks_rows(rows, 0.3, ref_rng),
        )
        assert fast_rng.random() == ref_rng.random()

    def test_midrun_crash_leaves_the_cell_byte_identical(self):
        """The chaos case: native kernels die partway through a cell."""
        from repro.pcm import stateplane
        from repro.perf.cellspec import simulate_cell

        reference = _simulate_under("python")
        backend = _fresh_compiled()
        backend._ops = _FlakyOps(backend._ops, fuse=100)
        kernels._instances["compiled"] = backend
        kernels._active = backend
        stateplane.PLANE.reset()
        try:
            with pytest.warns(RuntimeWarning, match="falling back"):
                chaos = _digest(simulate_cell(_tiny_spec()))
        finally:
            kernels.reset()
            stateplane.PLANE.reset()
        assert backend.dead is True
        assert chaos == reference


# -- seeded state generation -------------------------------------------------


def _numpy_row(key) -> np.ndarray:
    """The oracle: numpy's own ``default_rng(key)`` row recipe."""
    return np.random.default_rng(key).integers(
        0, 1 << 64, size=(LINES_PER_PAGE, LINE_WORDS), dtype=np.uint64
    )


def _numpy_mask(key, fraction: float) -> int:
    """The oracle: ``default_rng(key).random(LINE_BITS) < fraction``,
    packed little-endian."""
    draws = np.random.default_rng(key).random(LINE_BITS)
    packed = np.packbits(draws < fraction, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


#: One SeedSequence word each, biased to the range edges.
key_words = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), seeds)
#: Words numpy coerces to more than one uint32 (the native path's limit).
wide_words = st.integers(min_value=2**32, max_value=2**80)
fractions = st.one_of(
    st.sampled_from([
        0.0, 5e-324, 1e-12, 0.25, np.nextafter(0.25, 0.0),
        np.nextafter(0.25, 1.0), 1.0 - 1e-12, 1.0,
    ]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class _SeededOps:
    """Native ops whose seeded generators raise; the rest delegate."""

    def __init__(self, real) -> None:
        self._real = real
        self.seeded = True

    def __getattr__(self, name):
        return getattr(self._real, name)

    def seeded_row(self, *args):
        raise RuntimeError("simulated native generator crash")

    seeded_mask = seeded_row


def _native_compiled():
    """A fresh compiled backend whose state generation runs natively."""
    backend = _fresh_compiled()
    if not backend.native_seeding:
        pytest.skip("no native seeded generators (C compiler without __int128)")
    return backend


@pytest.mark.parametrize("name", kernels.BACKEND_NAMES)
class TestSeededStateEquivalence:
    """Every backend's seeded generators against numpy's recipe.

    No hypothesis deadline: when this class runs first in a process, its
    first compiled example builds the C library.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(key_words, key_words, key_words))
    def test_seeded_row(self, name, key):
        got = backend_or_skip(name).seeded_row(key)
        assert got.dtype == np.uint64
        assert got.shape == (LINES_PER_PAGE, LINE_WORDS)
        assert got.tobytes() == _numpy_row(key).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(key_words, key_words, key_words, key_words), fractions)
    def test_seeded_mask(self, name, key, fraction):
        got = backend_or_skip(name).seeded_mask(key, fraction)
        assert got == _numpy_mask(key, fraction)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(key_words, min_size=4, max_size=4),
        wide_words,
        st.integers(0, 3),
        fractions,
    )
    def test_wide_keys_match(self, name, words, wide, slot, fraction):
        words[slot] = wide
        backend = backend_or_skip(name)
        row_key = tuple(words[:3]) if slot < 3 else (wide, *words[1:3])
        assert backend.seeded_row(row_key).tobytes() == (
            _numpy_row(row_key).tobytes()
        )
        key = tuple(words)
        assert backend.seeded_mask(key, fraction) == _numpy_mask(key, fraction)

    def test_negative_words_raise_like_numpy(self, name):
        backend = backend_or_skip(name)
        with pytest.raises(ValueError):
            backend.seeded_row((1, -1, 2))
        with pytest.raises(ValueError):
            backend.seeded_mask((0x5D9C, 0, -5, 1), 0.25)


class TestNativeSeeding:
    """Which keys run natively, and containment of a native fault."""

    def test_only_the_c_flavour_seeds_natively(self):
        assert PythonBackend().native_seeding is False
        assert _native_compiled().native_seeding is True

    def test_wide_and_negative_keys_never_reach_native_code(self):
        backend = _native_compiled()
        backend._ops = _SeededOps(backend._ops)
        for key in ((2**32, 0, 0), (0, 0, 2**64), (7, -1, 0)):
            try:
                got = backend.seeded_row(key)
            except ValueError:
                continue  # numpy's own error for a negative word
            assert got.tobytes() == _numpy_row(key).tobytes()
        key = (0x5D9C, 1, 2**32, 3)
        assert backend.seeded_mask(key, 0.25) == _numpy_mask(key, 0.25)
        assert backend.dead is False

    def test_native_fault_retires_and_the_plane_stays_identical(self):
        from repro.pcm import stateplane

        keys = [(3, bank, row) for bank in range(2) for row in range(3)]
        coords = [(bank, row, line) for bank, row in [(0, 1), (1, 2)]
                  for line in range(4)]

        def touch(plane):
            rows = [plane.pristine_row(*key).tobytes() for key in keys * 2]
            masks = [plane.weak_mask(0.25, c) for c in coords * 2]
            counters = (plane.row_hits, plane.row_misses,
                        plane.mask_hits, plane.mask_misses)
            return rows, masks, counters

        kernels.activate("python")
        want = touch(stateplane.StatePlane())
        backend = _native_compiled()
        backend._ops = _SeededOps(backend._ops)
        kernels._instances["compiled"] = backend
        kernels._active = backend
        try:
            with pytest.warns(RuntimeWarning, match="falling back"):
                got = touch(stateplane.StatePlane())
        finally:
            kernels.reset()
        assert backend.dead is True
        assert backend.native_seeding is False
        assert got == want
