"""Which entry points the traced run wraps, and the per-layer metrics.

:func:`install` wraps public functions and methods of each ``repro``
layer from outside (the program is not edited).  :func:`metrics` turns
span totals and the counters the program already exposes into the
per-layer numbers named in ``BENCHMARK.json``; it imports nothing from
the program, so ``run.py`` can merge totals from several child runs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

#: span name -> (calls, inclusive seconds, self seconds)
Totals = Dict[str, Tuple[int, float, float]]

#: Kernel-backend methods, split into DIN coding and the other kernels.
DIN_METHODS = ("encode_stored_int", "decode_int", "encode_stored_rows",
               "decode_rows")
KERNEL_METHODS = ("sample_mask_int", "sample_masks_int", "sample_masks_rows",
                  "popcount_rows", "bit_positions_int", "mask_from_draws",
                  "pack_mask", "write_phase_batch")

#: The experiments of the paper sweep, in the runner's order.
EXPERIMENT_NAMES = (
    "table1", "capacity", "overhead", "figure4", "figure5", "figure11",
    "figure12", "figure13", "figure14", "figure15", "figure16", "figure17",
    "figure18", "figure19", "ablation-ecp-density", "ablation-read-priority",
    "ablation-din", "ablation-weak-cells", "node-sensitivity", "scorecard",
    "encoders", "energy",
)

#: EngineStats counters reported as ``perf.<name>``.
ENGINE_COUNTERS = (
    "simulated", "deduplicated", "cross_exp_dedup", "prefetched",
    "inflight_hits", "pool_reuses", "pool_recycles", "batched_cells",
    "batch_dispatches", "planner_serial_picks", "planner_pool_picks",
    "planner_batch_picks", "worker_retries", "serial_fallback_cells",
)
RESILIENCE_COUNTERS = ("breaker_opens", "pressure_events", "watchdog_stalls")
MODEL_COUNTERS = ("refs", "cycles", "verifications", "corrections",
                  "ecp_absorbed_errors")


def install(tracer, sweep: bool = False, kernels_backend=None,
            service: bool = False) -> None:
    """Wrap every traced entry point of the layers a workload touches."""
    from repro.alloc.nm_alloc import NMAllocManager
    from repro.alloc.page_table import PageTable
    from repro.core.engine import EventLoop
    from repro.core.system import SDPCMSystem
    from repro.core.vnc import VnCExecutor
    from repro.ecp.chip import ECPChip
    from repro.mem.controller import MemoryController
    from repro.perf.cache import ResultCache
    from repro.perf.engine import CellRunner
    from repro.traces import shm

    wrap = tracer.wrap
    wrap(CellRunner, "run_cells", "perf.run_cells")
    wrap(ResultCache, "load", "perf.cache.load")
    wrap(ResultCache, "store", "perf.cache.store")
    wrap(ResultCache, "store_async", "perf.cache.store_async")
    wrap(shm, "workload_for", "traces.workload_for")
    wrap(shm, "homogeneous_workload", "traces.synth")
    wrap(SDPCMSystem, "run", "core.run")
    wrap(VnCExecutor, "execute", "core.vnc.execute")
    wrap(ECPChip, "line", "ecp.line")
    wrap(ECPChip, "peek", "ecp.peek")
    wrap(PageTable, "translate", "alloc.translate")
    wrap(NMAllocManager, "allocate_frame", "alloc.frame")
    wrap(MemoryController, "enqueue_read", "mem.enqueue_read")
    wrap(MemoryController, "try_enqueue_write", "mem.try_enqueue_write")
    wrap(EventLoop, "schedule", "core.schedule")
    if kernels_backend is not None:
        for method in KERNEL_METHODS:
            wrap(kernels_backend, method, f"pcm.kernel.{method}")
        for method in DIN_METHODS:
            wrap(kernels_backend, method, f"pcm.din.{method}")
    if sweep:
        from repro.experiments import runner

        wrap(runner, "collect_sweep_specs", "perf.collect_sweep_specs")
        for name in list(runner.EXPERIMENTS):
            tracer.wrap_dict(runner.EXPERIMENTS, name, f"experiments.{name}")
    if service:
        from repro.service.client import ServiceClient

        wrap(ServiceClient, "submit", "service.submit")


def experiment_spans(spans) -> Tuple[Dict[str, float], float]:
    """Wall seconds per experiment and their summed self time, from the
    root experiment spans only: the planning pass calls experiment
    bodies too, nested under ``perf.collect_sweep_specs``, and those
    calls are not the experiment's own run."""
    walls: Dict[str, float] = {}
    self_s = 0.0
    dur = spans.duration
    own = spans.self_time()
    for index in range(len(spans)):
        name = spans.names[spans.name[index]]
        if spans.parent[index] >= 0 or not name.startswith("experiments."):
            continue
        walls[name] = walls.get(name, 0.0) + float(dur[index])
        self_s += float(own[index])
    return walls, self_s


def merge_totals(parts: Iterable[Totals]) -> Totals:
    merged: Totals = {}
    for part in parts:
        for name, (calls, incl, own) in part.items():
            c, i, s = merged.get(name, (0, 0.0, 0.0))
            merged[name] = (c + calls, i + incl, s + own)
    return merged


def _sum(totals: Totals, names: Iterable[str], field: int) -> float:
    return sum(totals.get(name, (0, 0.0, 0.0))[field] for name in names)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def metrics(totals: Totals, counters: Mapping[str, float],
            experiment_walls: Mapping[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``.

    A layer the workload never reached reads 0.  ``counters`` carries
    what the program exposes itself (``EngineStats`` fields, profiler
    seconds, state-plane and trace-plane counters, service ``/stats``)
    plus the benchmark's own model sums and setup and tracing timings.
    """
    c = lambda key: float(counters.get(key, 0.0))  # noqa: E731
    calls = lambda names: _sum(totals, names, 0)  # noqa: E731
    incl = lambda names: _sum(totals, names, 1)  # noqa: E731
    own = lambda names: _sum(totals, names, 2)  # noqa: E731
    kernel = [f"pcm.kernel.{m}" for m in KERNEL_METHODS]
    din = [f"pcm.din.{m}" for m in DIN_METHODS]
    ecp = ["ecp.line", "ecp.peek"]
    enqueue = ["mem.enqueue_read", "mem.try_enqueue_write"]
    cache_store = ["perf.cache.store", "perf.cache.store_async"]
    m: Dict[str, Tuple[float, str]] = {}

    writes = calls(["core.vnc.execute"])
    m["core.vnc.execute_s"] = (own(["core.vnc.execute"]), "s")
    m["core.vnc.writes"] = (writes, "count")
    m["core.vnc.us_per_write"] = (
        _per(incl(["core.vnc.execute"]), writes, 1e6), "us")
    m["pcm.kernels_s"] = (own(kernel), "s")
    m["pcm.kernel_calls"] = (calls(kernel), "count")
    m["pcm.din_s"] = (own(din), "s")
    m["pcm.fused"] = (c("fused"), "flag")
    m["ecp.s"] = (own(ecp), "s")
    m["ecp.calls"] = (calls(ecp), "count")

    events = calls(["core.schedule"])
    loop_self = own(["core.run"])
    m["core.run_s"] = (incl(["core.run"]), "s")
    m["core.loop_self_s"] = (loop_self, "s")
    m["core.events"] = (events, "count")
    m["core.us_per_event"] = (_per(loop_self, events, 1e6), "us")
    m["core.schedule_s"] = (own(["core.schedule"]), "s")
    m["mem.enqueue_s"] = (own(enqueue), "s")
    m["mem.requests"] = (calls(enqueue), "count")
    m["alloc.translate_s"] = (own(["alloc.translate"]), "s")
    m["alloc.frames"] = (calls(["alloc.frame"]), "count")

    plane_hits, plane_misses = c("stateplane_hits"), c("stateplane_misses")
    m["pcm.stateplane.hit_ratio"] = (
        _per(plane_hits, plane_hits + plane_misses), "ratio")
    m["pcm.stateplane.misses"] = (plane_misses, "count")
    m["traces.synth_s"] = (own(["traces.synth"]), "s")
    m["traces.synth_calls"] = (calls(["traces.synth"]), "count")
    m["traces.plane_reuses"] = (c("trace_plane_hits"), "count")
    m["traces.memo_hits"] = (
        calls(["traces.workload_for"]) - calls(["traces.synth"]), "count")

    m["perf.plan_s"] = (incl(["perf.collect_sweep_specs"]), "s")
    m["experiments.self_s"] = (c("experiments_self_s"), "s")
    for name in EXPERIMENT_NAMES:
        m[f"experiments.{name}.wall_s"] = (
            float(experiment_walls.get(f"experiments.{name}", 0.0)), "s")
    m["perf.run_cells_s"] = (incl(["perf.run_cells"]), "s")
    simulate = c("simulate_s")
    m["perf.simulate_s"] = (simulate, "s")
    m["perf.worker_busy_ratio"] = (
        _per(simulate, c("jobs") * c("sweep_wall_s")), "ratio")
    for name in ENGINE_COUNTERS:
        m[f"perf.{name}"] = (c(name), "count")

    loads = calls(["perf.cache.load"])
    m["perf.cache.load_s"] = (own(["perf.cache.load"]), "s")
    m["perf.cache.loads"] = (loads or c("cache_loads"), "count")
    m["perf.cache.store_s"] = (own(cache_store), "s")
    m["perf.cache.stores"] = (calls(["perf.cache.store"]), "count")
    hits = c("cache_hits")
    m["perf.cache.hit_ratio"] = (_per(hits, hits + c("simulated")), "ratio")

    m["service.submit_s"] = (incl(["service.submit"]), "s")
    for name in ("accepted", "rejected", "dedup_joins"):
        m[f"service.{name}"] = (c(f"service_{name}"), "count")
    m["service.journal_bytes"] = (c("journal_bytes"), "bytes")

    for name in RESILIENCE_COUNTERS:
        m[f"resilience.{name}"] = (c(name), "count")

    for name in MODEL_COUNTERS:
        m[f"model.{name}"] = (c(f"model_{name}"), "count")
    host_s = c("model_host_s")
    m["model.host_us_per_ref"] = (_per(host_s, c("model_refs"), 1e6), "us")
    m["model.host_us_per_write"] = (
        _per(host_s, c("model_writes"), 1e6), "us")
    m["model.host_us_per_event"] = (_per(host_s, events, 1e6), "us")

    for name in ("import_s", "kernel_build_s", "daemon_up_s", "warmup_s"):
        m[f"setup.{name}"] = (c(f"setup_{name}"), "s")
    m["host.nproc"] = (c("nproc"), "count")
    m["host.compiled"] = (c("compiled"), "flag")
    m["trace.overhead_s"] = (c("traced_wall_s") - c("untraced_wall_s"), "s")
    m["trace.overhead_ratio"] = (
        _per(c("traced_wall_s"), c("untraced_wall_s")) - 1.0
        if c("untraced_wall_s") else 0.0, "ratio")
    m["trace.spans"] = (sum(v[0] for v in totals.values()), "count")
    return m

