"""Validated parsing of every ``REPRO_*`` environment knob.

One module owns the environment surface so every consumer reports
errors the same way: ``REPRO_X must be <shape>, got <value!r>``.  The
accessors re-read the environment on every call (cheap), which keeps
tests that monkeypatch ``os.environ`` honest without any cache
invalidation protocol.

Knobs parsed here:

=====================  =========================================================
``REPRO_JOBS``         worker processes for cold cells (int >= 1; CPU count)
``REPRO_RETRIES``      pool retry rounds for failed cells (int >= 0; 2)
``REPRO_CELL_TIMEOUT`` per-cell wall-clock budget, seconds (float >= 0; off)
``REPRO_RETRY_BACKOFF``base retry backoff, seconds (float >= 0; 0.5)
``REPRO_TRACE_LEN``    per-core trace length (int; 1200)
``REPRO_CORES``        simulated core count (int; 8)
``REPRO_CACHE``        ``0`` disables the disk result cache (on)
``REPRO_CACHE_DIR``    result-cache directory (``~/.cache/repro``)
``REPRO_PROFILE``      non-``0``/empty enables fine-grained phase timing (off)
``REPRO_BATCH_CELLS``  cells per batched pool dispatch (int >= 1; 8)
``REPRO_PLAN``         execution planner mode: ``auto``/``serial``/``pool``/
                       ``batch`` (auto)
``REPRO_STATE_PLANE``  ``0`` disables the deterministic state plane (on)
``REPRO_KERNEL_BACKEND`` bit-kernel backend: ``auto``/``python``/
                       ``compiled`` (auto)
``REPRO_KERNEL_CC``    C compiler for the compiled kernel backend (PATH search)
``REPRO_HEARTBEAT_S``  watchdog heartbeat window, seconds (float >= 0; off)
``REPRO_MEM_BUDGET_MB`` soft RSS budget, MiB (int >= 0; off)
``REPRO_BREAKER_THRESHOLD`` consecutive failures before a circuit breaker
                       opens (int >= 1; 5)
``REPRO_BREAKER_BACKOFF`` breaker open->half-open backoff, seconds
                       (float >= 0; 30)
``REPRO_DISK_MIN_MB``  minimum free disk under the cache dir, MiB
                       (int >= 0; 64; 0 disables)
``REPRO_SHM_MIN_MB``   minimum free /dev/shm headroom, MiB
                       (int >= 0; 16; 0 disables)
``REPRO_SERVICE_HOST`` sweep-service bind address (``127.0.0.1``)
``REPRO_SERVICE_PORT`` sweep-service TCP port (int >= 0; 7733; 0 = ephemeral)
``REPRO_SERVICE_QUEUE_MAX`` admission-queue bound before load shedding
                       (int >= 1; 64)
``REPRO_SERVICE_DRAIN_S`` SIGTERM drain deadline, seconds (float >= 0; 30)
``REPRO_SERVICE_DEADLINE_S`` default per-job queue TTL, seconds
                       (float >= 0; 0 disables)
``REPRO_SERVICE_RETRY_AFTER_S`` Retry-After hint on shed responses, seconds
                       (float >= 0; 2)
``REPRO_SERVICE_DIR``  service state directory (journal, portfile;
                       ``$REPRO_CACHE_DIR/service``)
=====================  =========================================================
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional


def env_int(
    name: str,
    default: int,
    minimum: Optional[int] = None,
) -> int:
    """``name`` as an int, or ``default`` when unset.

    Raises :class:`ValueError` (always naming the variable) on garbage
    or on values below ``minimum``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def env_float(
    name: str,
    default: float,
    minimum: Optional[float] = None,
) -> float:
    """``name`` as a float, or ``default`` when unset (same error style)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a number of seconds, got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum:g}, got {value:g}")
    return value


def env_flag(name: str, default: bool) -> bool:
    """``name`` as an on/off flag: ``"0"`` is off, anything else is on."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw != "0"


# -- named accessors ---------------------------------------------------------


def jobs() -> int:
    """Worker count from ``REPRO_JOBS`` or the machine's CPU count."""
    if "REPRO_JOBS" in os.environ:
        return env_int("REPRO_JOBS", 1, minimum=1)
    return os.cpu_count() or 1


def retries() -> int:
    """Retry rounds for failed pool cells (``REPRO_RETRIES``, default 2)."""
    return env_int("REPRO_RETRIES", 2, minimum=0)


def cell_timeout() -> Optional[float]:
    """Per-cell wall-clock budget in seconds (``REPRO_CELL_TIMEOUT``).

    Unset or ``0`` disables the timeout (the default: a cold cell's run
    time scales with ``REPRO_TRACE_LEN``, so no universal bound exists).
    """
    return env_float("REPRO_CELL_TIMEOUT", 0.0, minimum=0.0) or None


def retry_backoff() -> float:
    """Base retry backoff in seconds (``REPRO_RETRY_BACKOFF``, default 0.5)."""
    return env_float("REPRO_RETRY_BACKOFF", 0.5, minimum=0.0)


def trace_length(default: int = 1200) -> int:
    """Per-core trace length, overridable via ``REPRO_TRACE_LEN``."""
    return env_int("REPRO_TRACE_LEN", default)


def core_count(default: int = 8) -> int:
    """Core count, overridable via ``REPRO_CORES``."""
    return env_int("REPRO_CORES", default)


def cache_enabled() -> bool:
    """Whether the disk result cache is on (``REPRO_CACHE`` != ``0``)."""
    return env_flag("REPRO_CACHE", True)


def cache_dir() -> Path:
    """Result-cache directory (``REPRO_CACHE_DIR`` or ``~/.cache/repro``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def profile_fine() -> bool:
    """Whether fine-grained phase timing is on (``REPRO_PROFILE``)."""
    return os.environ.get("REPRO_PROFILE", "") not in ("", "0")


#: Legal values for ``REPRO_PLAN`` / ``--plan`` / ``CellRunner(plan=...)``.
PLAN_MODES = ("auto", "serial", "pool", "batch")


def batch_cells() -> int:
    """Cells per batched pool dispatch (``REPRO_BATCH_CELLS``, default 8)."""
    return env_int("REPRO_BATCH_CELLS", 8, minimum=1)


def plan_mode() -> str:
    """Execution planner mode (``REPRO_PLAN``, default ``auto``).

    ``auto`` lets the adaptive planner pick per batch; ``serial``,
    ``pool``, and ``batch`` force that execution path.
    """
    raw = os.environ.get("REPRO_PLAN")
    if raw is None:
        return "auto"
    value = raw.strip().lower()
    if value not in PLAN_MODES:
        raise ValueError(
            f"REPRO_PLAN must be one of {'/'.join(PLAN_MODES)}, got {raw!r}"
        )
    return value


def state_plane_enabled() -> bool:
    """Whether the deterministic state plane is on (``REPRO_STATE_PLANE``)."""
    return env_flag("REPRO_STATE_PLANE", True)


#: Legal values for ``REPRO_KERNEL_BACKEND`` / ``--kernel-backend``:
#: ``auto`` plus the registry names in ``repro.pcm.kernels.BACKEND_NAMES``
#: (kept as a literal so this module stays import-light; a registry test
#: pins the two tuples against each other).
KERNEL_BACKENDS = ("auto", "python", "compiled")


def kernel_backend() -> str:
    """Bit-kernel backend selection (``REPRO_KERNEL_BACKEND``, default ``auto``).

    ``auto`` takes ``compiled`` when it builds on this host (and the
    ``kernel`` circuit breaker allows it), else ``python``; ``python``
    and ``compiled`` force that backend (forcing ``compiled`` on a host
    where it cannot build is an error rather than a silent degrade).
    """
    raw = os.environ.get("REPRO_KERNEL_BACKEND")
    if raw is None:
        return "auto"
    value = raw.strip().lower()
    if value not in KERNEL_BACKENDS:
        raise ValueError(
            f"REPRO_KERNEL_BACKEND must be one of {'/'.join(KERNEL_BACKENDS)}, "
            f"got {raw!r}"
        )
    return value


def heartbeat_s() -> Optional[float]:
    """Watchdog heartbeat window in seconds (``REPRO_HEARTBEAT_S``).

    Pool workers stamp a shared heartbeat array as they make progress;
    when nothing (completions included) moves for this long, the
    supervisor reclaims the round early instead of waiting out the full
    ``REPRO_CELL_TIMEOUT`` deadline.  Unset or ``0`` disables the
    watchdog (the default — a serial host under memory pressure can
    legitimately stall longer than any fixed window).
    """
    return env_float("REPRO_HEARTBEAT_S", 0.0, minimum=0.0) or None


def mem_budget_mb() -> Optional[int]:
    """Soft RSS budget in MiB (``REPRO_MEM_BUDGET_MB``).

    When the process RSS exceeds the budget, the pressure monitor forces
    serial execution and shrinks batch chunks until RSS drops back under
    80% of it.  Unset or ``0`` disables the check.
    """
    return env_int("REPRO_MEM_BUDGET_MB", 0, minimum=0) or None


def breaker_threshold() -> int:
    """Consecutive classified failures before a circuit breaker opens
    (``REPRO_BREAKER_THRESHOLD``, default 5)."""
    return env_int("REPRO_BREAKER_THRESHOLD", 5, minimum=1)


def breaker_backoff_s() -> float:
    """Seconds an open breaker waits before its half-open probe
    (``REPRO_BREAKER_BACKOFF``, default 30; doubles per failed probe)."""
    return env_float("REPRO_BREAKER_BACKOFF", 30.0, minimum=0.0)


def disk_min_mb() -> int:
    """Minimum free disk under the cache dir in MiB (``REPRO_DISK_MIN_MB``,
    default 64).  Below it the pressure monitor evicts LRU cache entries
    and then pauses cache writes; ``0`` disables the check."""
    return env_int("REPRO_DISK_MIN_MB", 64, minimum=0)


def shm_min_mb() -> int:
    """Minimum free ``/dev/shm`` headroom in MiB (``REPRO_SHM_MIN_MB``,
    default 16).  Below it the trace plane stops publishing segments and
    workers synthesize in-process; ``0`` disables the check."""
    return env_int("REPRO_SHM_MIN_MB", 16, minimum=0)


# -- sweep-service knobs -----------------------------------------------------


def service_host() -> str:
    """Sweep-service bind address (``REPRO_SERVICE_HOST``, default loopback).

    The daemon speaks an unauthenticated local protocol, so the default
    binds loopback only; point it elsewhere deliberately.
    """
    raw = os.environ.get("REPRO_SERVICE_HOST")
    if raw is None or not raw.strip():
        return "127.0.0.1"
    return raw.strip()


def service_port() -> int:
    """Sweep-service TCP port (``REPRO_SERVICE_PORT``, default 7733).

    ``0`` asks the OS for an ephemeral port — useful with a portfile so
    tests and scripts never race for a fixed port.
    """
    return env_int("REPRO_SERVICE_PORT", 7733, minimum=0)


def service_queue_max() -> int:
    """Admission-queue bound before the service sheds load with 429
    (``REPRO_SERVICE_QUEUE_MAX``, default 64)."""
    return env_int("REPRO_SERVICE_QUEUE_MAX", 64, minimum=1)


def service_drain_s() -> float:
    """SIGTERM drain deadline in seconds (``REPRO_SERVICE_DRAIN_S``,
    default 30).  In-flight jobs get this long to finish before the
    daemon exits and leaves them journaled for the next start's replay."""
    return env_float("REPRO_SERVICE_DRAIN_S", 30.0, minimum=0.0)


def service_deadline_s() -> Optional[float]:
    """Default per-job queue TTL in seconds (``REPRO_SERVICE_DEADLINE_S``).

    A job still queued past its TTL fails with a classified, retryable
    deadline error instead of occupying the queue forever.  Unset or
    ``0`` disables the default (per-request ``deadline_s`` still applies).
    """
    return env_float("REPRO_SERVICE_DEADLINE_S", 0.0, minimum=0.0) or None


def service_retry_after_s() -> float:
    """``Retry-After`` hint on shed responses, seconds
    (``REPRO_SERVICE_RETRY_AFTER_S``, default 2)."""
    return env_float("REPRO_SERVICE_RETRY_AFTER_S", 2.0, minimum=0.0)


def service_dir() -> Path:
    """Service state directory — job journal and portfile
    (``REPRO_SERVICE_DIR``, default ``<cache dir>/service``)."""
    raw = os.environ.get("REPRO_SERVICE_DIR")
    if raw:
        return Path(raw)
    return cache_dir() / "service"


def kernel_cc() -> Optional[str]:
    """C compiler override for the compiled backend (``REPRO_KERNEL_CC``).

    Unset means "search PATH for cc/gcc/clang"; a set value is used
    verbatim (pointing it at a non-compiler is the supported way to
    simulate a host with no toolchain).
    """
    raw = os.environ.get("REPRO_KERNEL_CC")
    if raw is None or not raw.strip():
        return None
    return raw.strip()
