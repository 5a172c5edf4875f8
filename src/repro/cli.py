"""Command-line interface for the SD-PCM reproduction.

Usage (also available as ``python -m repro``)::

    python -m repro list-workloads
    python -m repro list-schemes
    python -m repro simulate mcf --scheme LazyC+PreRead --length 2000
    python -m repro compare mcf --length 1000
    python -m repro experiment figure11 table1 ...
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import envconfig
from .config import SystemConfig
from .core import schemes
from .core.system import simulate
from .experiments.options import add_sweep_options
from .stats.report import format_bars, format_table
from .traces.profiles import PROFILES, WORKLOAD_ORDER
from .traces.workload import homogeneous_workload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SD-PCM (ASPLOS 2015) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="show Table 3 workload profiles")
    sub.add_parser("list-schemes", help="show the named schemes")

    sim = sub.add_parser("simulate", help="run one workload under one scheme")
    sim.add_argument("workload", choices=WORKLOAD_ORDER)
    sim.add_argument("--scheme", default="baseline")
    sim.add_argument("--length", type=int, default=1000)
    sim.add_argument("--cores", type=int, default=8)
    sim.add_argument("--seed", type=int, default=1)

    cmp_p = sub.add_parser("compare", help="run the Figure 11 line-up on one workload")
    cmp_p.add_argument("workload", choices=WORKLOAD_ORDER)
    cmp_p.add_argument("--length", type=int, default=1000)
    cmp_p.add_argument("--cores", type=int, default=8)
    cmp_p.add_argument("--seed", type=int, default=1)

    exp = sub.add_parser(
        "experiment", help="run paper experiments by name",
        description="Runs the named experiments (all of them when none is "
        "named) and prints each table; `python -m repro.experiments.runner "
        "--help` lists the experiments.",
    )
    add_sweep_options(exp)

    cache_p = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_p.add_argument("action", choices=("stats", "clear"))

    health_p = sub.add_parser(
        "health",
        help="print a machine-readable supervision snapshot (breakers, "
        "pressure, watchdog, degraded modes); exits non-zero when degraded",
    )
    health_p.add_argument(
        "--trip",
        choices=("kernel", "cache", "shm"),
        default=None,
        help="force the named circuit breaker open before reporting "
        "(for smoke-testing the degraded exit path)",
    )

    faults_p = sub.add_parser("faults", help="fault-injection tooling")
    faults_sub = faults_p.add_subparsers(dest="faults_command", required=True)
    fsweep = faults_sub.add_parser(
        "sweep",
        help="run the scheme line-up under injected faults and report "
        "end-to-end uncorrectable-error rates",
    )
    fsweep.add_argument("--workload", default="mcf", choices=WORKLOAD_ORDER)
    fsweep.add_argument(
        "--profile",
        action="append",
        choices=("light", "stress"),
        help="fault intensity; repeatable (default: both)",
    )
    fsweep.add_argument("--length", type=int, default=None)
    fsweep.add_argument("--cores", type=int, default=None)
    fsweep.add_argument("--seed", type=int, default=1)
    fsweep.add_argument(
        "--fault-seed",
        type=int,
        default=3,
        help="seed of the fault plan's RNG streams (fixed seed => "
        "bit-identical sweep)",
    )
    fsweep.add_argument("--jobs", type=int, default=None)

    perf_p = sub.add_parser("perf", help="performance tooling")
    perf_sub = perf_p.add_subparsers(dest="perf_command", required=True)
    prof = perf_sub.add_parser(
        "profile",
        help="run one cold cell with fine-grained phase timing "
        "(equivalent to REPRO_PROFILE=1) and print the breakdown",
    )
    prof.add_argument("workload", choices=WORKLOAD_ORDER)
    prof.add_argument("--scheme", default="LazyC+PreRead")
    prof.add_argument("--length", type=int, default=2000)
    prof.add_argument("--cores", type=int, default=4)
    prof.add_argument("--seed", type=int, default=1)
    prof.add_argument(
        "--kernel-backend",
        choices=envconfig.KERNEL_BACKENDS,
        default="auto",
        help="bit-kernel backend to profile under (auto: compiled when it "
        "builds on this host, else python)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the sweep-service daemon: accept cell jobs over a local "
        "HTTP/JSON API with a durable journal, admission control, and "
        "graceful SIGTERM drain",
    )
    serve_p.add_argument(
        "--host", default=None,
        help="bind address (default REPRO_SERVICE_HOST or 127.0.0.1)",
    )
    serve_p.add_argument(
        "--port", type=int, default=None,
        help="bind port; 0 picks an ephemeral port (default "
        "REPRO_SERVICE_PORT or 7733)",
    )
    serve_p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the shared engine (default REPRO_JOBS "
        "or the CPU count)",
    )
    serve_p.add_argument(
        "--queue-max", type=int, default=None,
        help="admission queue bound; submissions past it get 429 "
        "(default REPRO_SERVICE_QUEUE_MAX or 64)",
    )
    serve_p.add_argument(
        "--drain-s", type=float, default=None,
        help="seconds SIGTERM waits for in-flight jobs before exiting "
        "(default REPRO_SERVICE_DRAIN_S or 30)",
    )
    serve_p.add_argument(
        "--deadline-s", type=float, default=None,
        help="default per-job queue TTL in seconds; 0 disables (default "
        "REPRO_SERVICE_DEADLINE_S or no TTL)",
    )
    serve_p.add_argument(
        "--service-dir", default=None,
        help="directory for the job journal (default REPRO_SERVICE_DIR "
        "or <cache dir>/service)",
    )
    serve_p.add_argument(
        "--portfile", default=None,
        help="write the bound port here once listening (atomic rename; "
        "pairs with --port 0 for race-free scripted startup)",
    )

    gen = sub.add_parser("gen-trace", help="generate and save a workload trace")
    gen.add_argument("workload", choices=WORKLOAD_ORDER)
    gen.add_argument("path", help="output file (.npz binary or .trace text)")
    gen.add_argument("--length", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=1)

    ana = sub.add_parser("analyze", help="characterise a saved trace")
    ana.add_argument("path", help="trace file (.npz or text)")
    return parser


def _cmd_list_workloads() -> int:
    rows = [
        [p.name, p.suite, p.rpki, p.wpki, p.working_set_pages, p.flip_fraction]
        for p in (PROFILES[n] for n in WORKLOAD_ORDER)
    ]
    print(
        format_table(
            "Table 3 workloads",
            ["name", "suite", "RPKI", "WPKI", "pages", "flip fraction"],
            rows,
        )
    )
    return 0


def _cmd_list_schemes() -> int:
    names = sorted(
        set(schemes.FIGURE11_SCHEMES)
        | {"PreRead", "VnC", "WC", "WC+LazyC", "WP", "WP+LazyC", "LazyC-denseECP"}
    )
    for name in names:
        print(name)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scheme = schemes.by_name(args.scheme)
    workload = homogeneous_workload(
        args.workload, cores=args.cores, length=args.length, seed=args.seed
    )
    config = SystemConfig(cores=args.cores, seed=args.seed).with_scheme(scheme)
    result = simulate(config, workload)
    c = result.counters
    rows = [
        ["CPI", result.cpi],
        ["cycles", result.cycles],
        ["instructions", result.instructions],
        ["corrections/write", c.corrections_per_write],
        ["WD errors/adjacent line", c.avg_errors_per_adjacent_line],
        ["word-line errors/write", c.avg_errors_wordline],
        ["ECP absorbed errors", c.ecp_absorbed_errors],
        ["writes cancelled", c.writes_cancelled],
        ["writes paused", c.writes_paused],
        ["data-chip lifetime", c.data_chip_lifetime],
        ["ECP-chip lifetime", c.ecp_chip_lifetime],
    ]
    print(format_table(f"{args.workload} under {args.scheme}", ["metric", "value"], rows))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    workload = homogeneous_workload(
        args.workload, cores=args.cores, length=args.length, seed=args.seed
    )
    results = {}
    for name in schemes.FIGURE11_SCHEMES:
        config = SystemConfig(cores=args.cores, seed=args.seed).with_scheme(
            schemes.by_name(name)
        )
        results[name] = simulate(config, workload)
    base = results["baseline"]
    rows = [
        [name, res.cpi, res.speedup_over(base)] for name, res in results.items()
    ]
    print(
        format_table(
            f"{args.workload}: Figure 11 line-up",
            ["scheme", "CPI", "speedup vs baseline"],
            rows,
        )
    )
    print()
    print(
        format_bars(
            "speedup vs baseline",
            [(name, res.speedup_over(base)) for name, res in results.items()],
        )
    )
    return 0


def _cmd_cache(action: str) -> int:
    from .perf.cache import ResultCache
    from .perf.engine import STATS
    from .perf.pool import WARM_POOL
    from .traces import shm

    cache = ResultCache()
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    info = cache.info()
    rate = STATS.cache_hit_rate()
    rows = [
        ["directory", info.root],
        ["enabled", info.enabled],
        ["entries", info.entries],
        ["size (KiB)", info.bytes / 1024.0],
        ["session corrupt evictions", info.corrupt_evictions],
        ["session async write drops", info.write_drops],
        ["session cache hits", STATS.cache_hits],
        ["session simulated", STATS.simulated],
        ["session deduplicated", STATS.deduplicated],
        ["session cache hit-rate",
         f"{100.0 * rate:.1f}%" if rate is not None else "n/a"],
        ["session pool reuses", STATS.pool_reuses],
        ["session pool recycles", STATS.pool_recycles],
        ["session pool generation", WARM_POOL.generation],
        ["session trace-plane segments", shm.PLANE.published],
        ["session trace-plane reuses", shm.PLANE.hits],
        ["session prefetched cells", STATS.prefetched],
        ["session cross-experiment dedups", STATS.cross_exp_dedup],
        ["session batched cells", STATS.batched_cells],
        ["session batch dispatches", STATS.batch_dispatches],
        ["session planner serial picks", STATS.planner_serial_picks],
        ["session planner pool picks", STATS.planner_pool_picks],
        ["session planner batch picks", STATS.planner_batch_picks],
        ["session kernel python picks", STATS.kernel_python_picks],
        ["session kernel compiled picks", STATS.kernel_compiled_picks],
    ]
    print(format_table("result cache", ["metric", "value"], rows))
    return 0


def _cmd_health(trip: Optional[str] = None) -> int:
    import json

    from .resilience import breaker, health

    if trip is not None:
        breaker.breaker(trip).trip(f"forced open via `repro health --trip {trip}`")
    snap = health.snapshot()
    print(json.dumps(snap, indent=2, sort_keys=True, default=str))
    return 0 if health.healthy(snap) else 1


def _cmd_faults_sweep(args: argparse.Namespace) -> int:
    from .faults import sweep
    from .perf import engine

    if args.jobs is not None:
        engine.configure(jobs=args.jobs)
    for result in sweep.sweep_rows(
        profiles=args.profile,
        bench=args.workload,
        length=args.length,
        cores=args.cores,
        seed=args.seed,
        fault_seed=args.fault_seed,
    ):
        print(result.render())
        print()
    print(f"  [engine: {engine.STATS.summary()}]")
    return 0


def _cmd_perf_profile(args: argparse.Namespace) -> int:
    from .pcm import kernels
    from .perf.cellspec import CellSpec, simulate_cell
    from .perf import profiler
    from .perf.planner import PLANNER

    scheme = schemes.by_name(args.scheme)
    config = SystemConfig(cores=args.cores, seed=args.seed).with_scheme(scheme)
    spec = CellSpec(bench=args.workload, length=args.length, config=config)

    if args.kernel_backend == "auto":
        backend = kernels.activate_preferred("compiled")
    else:
        backend = kernels.activate(args.kernel_backend)

    prof = profiler.PROFILER
    prof.reset()
    prof.fine = True
    profiler.install_kernel_timers()
    try:
        result = simulate_cell(spec)
    finally:
        profiler.uninstall_kernel_timers()
        prof.fine = profiler._env_fine()

    total = prof.seconds.get("trace_gen", 0.0) + prof.seconds.get("simulate", 0.0)
    # write_plan/write_commit/bit_kernels overlap `simulate`; the remainder
    # is the event loop, controller scheduling, and hierarchy bookkeeping.
    overlapped = prof.seconds.get("write_plan", 0.0) + prof.seconds.get(
        "write_commit", 0.0
    )
    rows = []
    for phase in ("trace_gen", "write_plan", "write_sample", "write_din",
                  "write_ecp", "write_commit", "bit_kernels"):
        if phase in prof.seconds:
            rows.append(
                [phase, f"{prof.seconds[phase]:.3f}", prof.calls[phase],
                 f"{100.0 * prof.seconds[phase] / max(total, 1e-12):.1f}%"]
            )
    loop_s = max(0.0, prof.seconds.get("simulate", 0.0) - overlapped)
    rows.append(["event loop + controller", f"{loop_s:.3f}", "",
                 f"{100.0 * loop_s / max(total, 1e-12):.1f}%"])
    rows.append(["total", f"{total:.3f}", "", "100.0%"])
    print(
        format_table(
            f"phase profile: {args.workload} under {args.scheme} "
            f"(length={args.length}, cores={args.cores}; "
            f"cycles={result.cycles}; kernels={backend.name})",
            ["phase", "seconds", "calls", "share"],
            rows,
        )
    )
    print("note: write_sample/write_din/write_ecp and bit_kernels are "
          "inside write_plan; fine timing adds per-call overhead, so "
          "compare shares, not absolutes.")
    from .pcm import stateplane
    from .perf.engine import STATS

    print(f"state plane: {stateplane.PLANE.summary()}")
    costs = PLANNER.snapshot()
    print(
        "planner model (s/cell): "
        + ", ".join(f"{mode}={cost:.3f}" for mode, cost in costs.items())
        + f"; session picks: {STATS.planner_serial_picks} serial / "
        f"{STATS.planner_pool_picks} pool / "
        f"{STATS.planner_batch_picks} batch"
        + f"; batched: {STATS.batched_cells} cells in "
        f"{STATS.batch_dispatches} dispatches"
    )
    print(
        f"kernels: {backend_label}; "
        f"available: {'/'.join(kernels.available_backends())}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.daemon import ServiceDaemon

    daemon = ServiceDaemon(
        host=args.host,
        port=args.port,
        service_dir=args.service_dir,
        queue_max=args.queue_max,
        drain_s=args.drain_s,
        deadline_s=args.deadline_s,
        jobs=args.jobs,
        portfile=args.portfile,
    )
    return daemon.serve()


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    from .traces import file_io
    from .traces.synthetic import generate_trace

    records = generate_trace(args.workload, args.length, seed=args.seed)
    file_io.save(records, args.path)
    print(f"wrote {len(records)} records to {args.path}")
    return 0


def _cmd_analyze(path: str) -> int:
    from .traces import file_io
    from .traces.analysis import analyse

    records = file_io.load(path)
    profile = analyse(records)
    print(format_table(f"trace profile: {path}", ["metric", "value"],
                       profile.summary_rows()))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-workloads":
        return _cmd_list_workloads()
    if args.command == "list-schemes":
        return _cmd_list_schemes()
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "experiment":
        from .experiments import runner

        return runner.run(args)
    if args.command == "cache":
        return _cmd_cache(args.action)
    if args.command == "health":
        return _cmd_health(args.trip)
    if args.command == "faults":
        return _cmd_faults_sweep(args)
    if args.command == "perf":
        return _cmd_perf_profile(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "gen-trace":
        return _cmd_gen_trace(args)
    if args.command == "analyze":
        return _cmd_analyze(args.path)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
