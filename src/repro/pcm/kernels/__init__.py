"""Kernel-backend registry.

Process-wide registry of the interchangeable bit-kernel
implementations (see :mod:`.base` for the contract):

>>> from repro.pcm.kernels import activate, active
>>> activate("numpy")           # force a backend for this process
>>> active().popcount_rows(rows)

``active()`` defaults to the pure-Python reference backend; the
execution layer (:mod:`repro.perf.engine`) activates its per-batch
choice — under ``auto``, compiled when it builds, else python — in the
parent and in every pool worker.  Construction
is lazy and memoised: asking for ``compiled`` the first time may
trigger a (cached) C build; hosts where that fails — no compiler, no
numba — see :class:`BackendUnavailable` from :func:`get_backend`, while
:func:`available_backends` silently omits the name and ``auto``
selection degrades to pure Python.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .base import BackendUnavailable, KernelBackend

__all__ = [
    "BACKEND_NAMES",
    "BackendUnavailable",
    "KernelBackend",
    "activate",
    "activate_preferred",
    "active",
    "active_name",
    "available_backends",
    "fused_active",
    "get_backend",
    "reset",
    "set_fused",
]

#: Registered backend names, in preference order (fastest-candidate last).
BACKEND_NAMES: Tuple[str, ...] = ("python", "numpy", "compiled")

_instances: Dict[str, KernelBackend] = {}
_active: Optional[KernelBackend] = None
_unavailable: Dict[str, str] = {}
_fused: bool = False


def _construct(name: str) -> KernelBackend:
    if name == "python":
        from .python_backend import PythonBackend
        return PythonBackend()
    if name == "numpy":
        from .numpy_backend import NumpyBackend
        return NumpyBackend()
    from .compiled_backend import CompiledBackend
    return CompiledBackend()


def get_backend(name: str) -> KernelBackend:
    """The (memoised) backend instance for ``name``.

    Raises :class:`ValueError` for unknown names and
    :class:`BackendUnavailable` when the backend cannot be constructed
    on this host; unavailability is remembered so repeated probes don't
    retry failed builds.
    """
    key = name.strip().lower()
    if key not in BACKEND_NAMES:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{'/'.join(BACKEND_NAMES)}"
        )
    if key in _unavailable:
        raise BackendUnavailable(_unavailable[key])
    backend = _instances.get(key)
    if backend is None:
        try:
            backend = _construct(key)
        except BackendUnavailable as exc:
            _unavailable[key] = str(exc)
            raise
        _instances[key] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Names of the backends constructible on this host, in registry order."""
    names = []
    for name in BACKEND_NAMES:
        try:
            get_backend(name)
        except BackendUnavailable:
            continue
        names.append(name)
    return tuple(names)


def activate(name: str) -> KernelBackend:
    """Make ``name`` the process-wide active backend and return it."""
    global _active
    _active = get_backend(name)
    return _active


def activate_preferred(name: str) -> KernelBackend:
    """Activate ``name``, degrading to pure Python when unavailable.

    Pool workers use this for the parent's per-batch pick: a worker that
    cannot construct the chosen backend (say, the build cache vanished
    between fork and dispatch) must still advance its cells — and every
    backend is byte-identical, so degrading changes nothing but speed.
    """
    try:
        return activate(name)
    except BackendUnavailable:
        return activate("python")


def active() -> KernelBackend:
    """The process-wide active backend (pure Python until activated)."""
    global _active
    if _active is None:
        _active = get_backend("python")
    return _active


def active_name() -> str:
    """Registry name of the active backend."""
    return active().name


def set_fused(enabled: bool) -> None:
    """Record the engine's per-batch fused-path decision for this process.

    Like :func:`activate`, the execution layer calls this in the parent
    and in every pool worker before advancing a chunk; executors read it
    once at construction via :func:`fused_active`.
    """
    global _fused
    _fused = bool(enabled)


def fused_active() -> bool:
    """Whether demand writes should take the fused write-phase kernel.

    ``REPRO_KERNEL_FUSED=on``/``off`` overrides unconditionally; under
    ``auto`` (the default) this reports the engine's last
    :func:`set_fused` decision — ``False`` until anything decides.
    """
    from ... import envconfig

    mode = envconfig.kernel_fused()
    if mode == "on":
        return True
    if mode == "off":
        return False
    return _fused


def reset() -> None:
    """Drop every memoised instance and re-arm failed probes (tests)."""
    global _active, _fused
    _active = None
    _fused = False
    _instances.clear()
    _unavailable.clear()
