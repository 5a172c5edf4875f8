"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: ``sweep``, ``cells_vnc``, ``cells_novnc``, ``service`` (see
``perfbench/METRICS.md``).  With ``--trace 0`` the last stdout line is a
JSON object carrying every end-to-end metric; with ``--trace 1`` a
separate, traced run gives every per-layer metric instead.  Every run
checks the program's outputs against the committed golden digests (or,
for a seed other than the default, against themselves) and exits 1 on a
mismatch.  Full per-run records (per-cell counters, digests, host
record, span files) land in ``.perfbench/out/``.

This file only starts processes; the program is imported by the child
scripts beside it, each with ``src/`` of the checkout on its path.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import benchlib
import inputs
import layers
from benchlib import BenchError, median, tail

WORKLOADS = ("sweep", "cells_vnc", "cells_novnc", "service")
#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Fewest cold sweeps or cell passes a run makes, however long they take.
MIN_REPEATS = 3
#: Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0


class Run:
    """One invocation: its arguments, scratch space and findings."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.deadline = benchlib.Deadline(RUN_LIMIT_S)
        tag = f"{self.workload}-seed{self.seed}-trace{int(self.trace)}"
        self.work = benchlib.fresh_dir(benchlib.WORK / f"work-{tag}")
        self.out = benchlib.fresh_dir(benchlib.WORK / "out" / tag)
        self.tmp = benchlib.fresh_dir(self.work / "tmp")
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.e2e: Dict[str, float] = {}
        self.totals: layers.Totals = {}
        self.counters: Dict[str, float] = {}
        self.walls: Dict[str, float] = {}
        self.setups: List[Dict[str, float]] = []
        self.record: Dict[str, object] = {}
        #: Samples the host's speed while the run lasts (see main()).
        self.speed = benchlib.HostSpeed()

    def env(self, cache_dir: Path, **extra: str) -> Dict[str, str]:
        return benchlib.child_env(cache_dir, self.tmp, **extra)

    def child(self, script: str, *args: object) -> List[str]:
        return [benchlib.python(), str(benchlib.HERE / script),
                *[str(a) for a in args]]

    def timed_child(self, argv: List[str], env: Dict[str, str],
                    stdout_path: Optional[Path] = None) -> Tuple[float, float]:
        """Run one child; returns its wall time and its time at the
        reference host speed."""
        start = time.perf_counter()
        benchlib.run_child(argv, env, self.deadline, stdout_path=stdout_path)
        end = time.perf_counter()
        return end - start, self.speed.scaled(start, end)

    def scaled(self, record: Dict[str, float]) -> float:
        """A child's ``t0``..``t1`` window at the reference host speed."""
        return self.speed.scaled(record["t0"], record["t1"])

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failed check fails the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


# -- set-up ------------------------------------------------------------------


def setup(run: Run) -> List[Path]:
    """Set up SETUP_SAMPLES times, each in a fresh cache directory: start
    an interpreter, import the program, build the compiled kernels and
    make one warm-up call.  Returns the cache directories."""
    dirs = []
    for index in range(SETUP_SAMPLES):
        cache = benchlib.fresh_dir(run.work / f"cache{index}")
        probe_out = run.work / f"probe{index}.json"
        wall, scaled = run.timed_child(run.child("probe.py", probe_out),
                                       run.env(cache))
        doc = json.loads(probe_out.read_text())
        doc.update(wall_s=wall, scaled_s=scaled)
        run.setups.append(doc)
        dirs.append(cache)
    return dirs


# -- workloads ---------------------------------------------------------------


def _sweep_once(run: Run, cache: Path, golden: Dict[str, object],
                cold: bool, traced: bool, tag: str):
    """One runner invocation; checks every table and the cell count.
    Returns its time at the reference host speed, the cells it
    simulated and (traced) the child's document."""
    tables_path = run.work / f"{tag}.txt"
    env = run.env(cache, REPRO_TRACE_LEN=str(inputs.SWEEP_TRACE_LEN),
                  REPRO_CORES=str(inputs.SWEEP_CORES))
    if traced:
        doc_path = run.work / f"{tag}.json"
        argv = run.child("sweep_child.py", tables_path, doc_path)
        stdout_path = None
    else:
        argv = [benchlib.python(), "-m", "repro.experiments.runner",
                "--jobs", str(inputs.JOBS)]
        stdout_path = tables_path
    wall, scaled = run.timed_child(argv, env, stdout_path=stdout_path)
    run.record.setdefault("sweep_walls", []).append((tag, wall, scaled))
    doc = json.loads(doc_path.read_text()) if traced else None
    stdout = tables_path.read_text()
    tables = benchlib.split_tables(stdout)
    expected = golden["tables"]
    for name in layers.EXPERIMENT_NAMES:
        digest = benchlib.sha256_text(tables.get(name, ""))
        run.check(digest == expected.get(name), f"{tag}: {name} table digest")
    simulated, _hits = benchlib.engine_counts(stdout)
    want = golden["simulated"] if cold else 0
    run.check(simulated == want, f"{tag}: {simulated} cells simulated, "
              f"expected {want}")
    return scaled, simulated, doc


def sweep(run: Run, caches: List[Path]) -> None:
    golden = benchlib.load_golden()["sweep"]
    cache = caches[-1]
    refs_per_cell = inputs.SWEEP_TRACE_LEN * inputs.SWEEP_CORES
    if run.trace:
        u_cold, _, _ = _sweep_once(run, cache, golden, True, False, "cold")
        u_warm, _, _ = _sweep_once(run, cache, golden, False, False, "warm")
        benchlib.clear_results(cache)
        t_cold, _, cold = _sweep_once(run, cache, golden, True, True,
                                      "traced-cold")
        t_warm, _, warm = _sweep_once(run, cache, golden, False, True,
                                      "traced-warm")
        run.totals = layers.merge_totals([cold["totals"], warm["totals"]])
        run.walls = cold["walls"]
        for key in set(cold["counters"]) | set(warm["counters"]):
            run.counters[key] = (cold["counters"].get(key, 0)
                                 + warm["counters"].get(key, 0))
        for key in ("jobs", "sweep_wall_s", "experiments_self_s"):
            run.counters[key] = cold["counters"][key]
        run.counters.update(untraced_wall_s=u_cold + u_warm,
                            traced_wall_s=t_cold + t_warm)
        return
    colds, warms = [], []
    start = time.perf_counter()
    while len(colds) < MIN_REPEATS or _fits(start, len(colds), run.seconds):
        benchlib.clear_results(cache)
        scaled, _, _ = _sweep_once(run, cache, golden, True, False,
                                   f"cold{len(colds)}")
        colds.append(scaled)
        for _ in range(inputs.SWEEP_WARM_RERUNS):
            scaled, _, _ = _sweep_once(run, cache, golden, False, False,
                                       f"warm{len(warms)}")
            warms.append(scaled)
    refs = golden["simulated"] * refs_per_cell
    run.e2e.update(cold_s=median(colds), refs_per_s=refs / median(colds))
    _ops(run, warms)
    run.record.update(cold_scaled_s=colds, warm_scaled_s=warms)


def _ops(run: Run, times: List[float]) -> None:
    value, pct, n = tail(times)
    run.e2e.update(ops_per_s=len(times) / sum(times), op_p50_s=median(times),
                   op_tail_s=value)
    run.record.update(op_tail_percentile=pct, op_samples=n)


def check_cells(run: Run, passes: List[dict], golden: Dict[str, str]) -> None:
    """Each cell's digest must match the golden one (default seed) or the
    first pass's digest of the same cell; VnC-free cells must never
    verify."""
    first: Dict[str, str] = {}
    for index, one in enumerate(passes):
        for cell in one["cells"]:
            expected = golden.get(cell["id"]) or first.setdefault(
                cell["id"], cell["digest"])
            run.check(cell["digest"] == expected,
                      f"pass {index}: {cell['id']} digest")
            if run.workload == "cells_novnc":
                run.check(cell["verifications"] == 0,
                          f"{cell['id']}: {cell['verifications']} "
                          f"verifications under a VnC-free scheme")


def _fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more repetition, at the mean length so far, ends
    within ``seconds`` of ``start``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def cells(run: Run, caches: List[Path]) -> None:
    """One child process per complete pass over the mix: at least
    MIN_REPEATS, and as many as fit in ``--seconds``.  Whole passes keep
    the cell mix of every run the same."""
    docs = []
    start = time.perf_counter()
    while not docs or (not run.trace and (
            len(docs) < MIN_REPEATS or _fits(start, len(docs), run.seconds))):
        out = run.work / f"cells{len(docs)}.json"
        benchlib.run_child(
            run.child("cells_child.py", run.workload, run.seed,
                      int(run.trace), out),
            run.env(caches[-1]), run.deadline)
        docs.append(json.loads(out.read_text()))
    doc = docs[0]
    golden = (benchlib.load_golden()[run.workload]
              if run.seed == inputs.DEFAULT_SEED else {})
    untraced = [d["pass"] for d in docs]
    passes = untraced + ([doc["traced_pass"]] if run.trace else [])
    check_cells(run, passes, golden)
    run.record.update(backend=doc["backend"], fused=doc["fused"],
                      passes=passes)
    for cell in (c for p in untraced for c in p["cells"]):
        cell["scaled_s"] = run.scaled(cell)
    cell_walls = [c["wall_s"] for p in untraced for c in p["cells"]]
    cell_times = [c["scaled_s"] for p in untraced for c in p["cells"]]
    if run.trace:
        traced = doc["traced_pass"]
        run.totals = doc["totals"]
        run.counters.update(doc["engine"])
        run.counters.update(
            fused=float(doc["fused"]),
            stateplane_hits=traced["stateplane_hits"],
            stateplane_misses=traced["stateplane_misses"],
            untraced_wall_s=untraced[0]["wall_s"],
            traced_wall_s=traced["wall_s"],
            model_host_s=sum(cell_walls),
            model_writes=sum(c["writes"] for c in untraced[0]["cells"]),
        )
        for name in layers.MODEL_COUNTERS:
            run.counters[f"model_{name}"] = sum(
                c[name] for c in untraced[0]["cells"])
        return
    # A pass at median speed: each cell of the mix at its median over the
    # passes, so that one pass caught in a slow spell moves no metric.
    per_cell: Dict[str, List[float]] = {}
    for cell in (c for p in untraced for c in p["cells"]):
        per_cell.setdefault(cell["id"], []).append(cell["scaled_s"])
    pass_s = sum(median(times) for times in per_cell.values())
    refs = sum(c["refs"] for c in untraced[0]["cells"])
    value, pct, n = tail(cell_times)
    run.e2e.update(cold_s=pass_s, refs_per_s=refs / pass_s,
                   ops_per_s=len(per_cell) / pass_s,
                   op_p50_s=median(cell_times), op_tail_s=value)
    run.record.update(op_tail_percentile=pct, op_samples=n)


def service(run: Run, caches: List[Path]) -> None:
    out = run.work / "service.json"
    benchlib.run_child(
        run.child("service_child.py", run.seed, run.seconds, int(run.trace),
                  run.work, out, *caches),
        run.env(caches[-1]), run.deadline)
    doc = json.loads(out.read_text())
    for probe, daemon in zip(run.setups, doc["setup"]):
        probe["daemon_up_s"] = daemon["up_s"]
        probe["wall_s"] += daemon["setup_s"]
        probe["scaled_s"] += run.scaled(daemon)
    mismatched = set(doc["mismatches"])
    for record in doc["records"]:
        record["scaled_s"] = run.scaled(record)
        run.check(record["status"] == 200 and record["state"] == "done"
                  and record["id"] not in mismatched,
                  f"job {record['index']} {record['id']}: status "
                  f"{record['status']}, state {record['state']}")
    run.record.update(jobs=doc["records"], mismatches=sorted(mismatched),
                      daemon_stop_s=doc["stop_s"], verify_s=doc["verify_s"])
    stats = doc["stats"]
    if run.trace:
        service_stats = stats["service"]["stats"]
        engine = stats["engine"]
        run.totals = doc["totals"]
        run.counters.update(engine)
        run.counters.update(
            cache_loads=engine["cache_hits"] + engine["simulated"],
            service_accepted=service_stats["accepted"],
            service_rejected=service_stats["shed_total"],
            service_dedup_joins=service_stats["dedup_hits"],
            journal_bytes=doc["journal_bytes"],
            untraced_wall_s=run.speed.scaled(*doc["untraced_window"]),
            traced_wall_s=run.speed.scaled(*doc["traced_window"]),
        )
        return
    kept, loop_s = _whole_blocks(run, doc)
    seen = set()
    cold_times = []
    for record in kept:
        if record["id"] not in seen:
            seen.add(record["id"])
            cold_times.append(record["scaled_s"])
    times = [r["scaled_s"] for r in kept]
    refs = len(seen) * inputs.JOB_LENGTH * inputs.JOB_CORES
    run.e2e.update(cold_s=median(cold_times), refs_per_s=refs / loop_s)
    value, pct, n = tail(times)
    run.e2e.update(ops_per_s=len(times) / loop_s,
                   op_p50_s=median(times), op_tail_s=value)
    run.record.update(op_tail_percentile=pct, op_samples=n)


def _whole_blocks(run: Run, doc: dict) -> Tuple[List[dict], float]:
    """The jobs of the loop's whole ``SERVICE_BLOCK``s, which were sent
    first, and the time the loop took to finish them, at the reference
    host speed.  The jobs after them count as checked but not timed."""
    start, end = doc["window"]
    jobs = doc["records"]
    count = len(jobs) // inputs.SERVICE_BLOCK * inputs.SERVICE_BLOCK
    if count:
        jobs = jobs[:count]
        end = jobs[-1]["t1"]
    loop_s = run.speed.scaled(start, end)
    run.record.update(timed_jobs=len(jobs), loop_s=loop_s)
    return jobs, loop_s


BODIES = {"sweep": sweep, "cells_vnc": cells, "cells_novnc": cells,
          "service": service}

#: End-to-end metric units, in BENCHMARK.json order.
E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
    "refs_per_s": "1/s", "cold_s": "s", "ops_per_s": "1/s",
    "op_p50_s": "s", "op_tail_s": "s",
}


# -- report ------------------------------------------------------------------


def _peak_rss_mb() -> float:
    """Largest resident set of any child process this one reaped, i.e.
    of the program's processes, not the benchmark's own (Linux reports
    kilobytes)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def report(run: Run) -> Dict[str, Dict[str, object]]:
    setup_s = median([s["scaled_s"] for s in run.setups])
    host = benchlib.host_record()
    compiled = all(s["compiled"] for s in run.setups)
    host.update(numpy=run.setups[0]["numpy"], compiled_built=compiled,
                backend=run.record.get("backend",
                                       "compiled" if compiled else "python"))
    if run.trace:
        run.counters.setdefault(
            "fused", float(run.counters.get("kernel_fused_picks", 0) > 0))
        for key in ("import_s", "kernel_build_s", "warmup_s", "daemon_up_s"):
            values = [s.get(key, 0.0) for s in run.setups]
            run.counters[f"setup_{key}"] = median(values)
        run.counters.update(nproc=host["nproc"], compiled=float(compiled))
        values = layers.metrics(run.totals, run.counters, run.walls)
    else:
        run.e2e.update(setup_s=setup_s,
                       ok_ratio=1.0 - run.failed / max(run.attempted, 1))
        values = {name: (run.e2e[name], unit)
                  for name, unit in E2E_UNITS.items()}
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in values.items()}
    if run.speed.probes:
        run.record.update(host_probes=len(run.speed.probes),
                          host_probe_median_s=median(run.speed.probes))
    run.record.update(workload=run.workload, seed=run.seed,
                      seconds=run.seconds, trace=run.trace, host=host,
                      setups=run.setups, attempted=run.attempted,
                      failed=run.failed, problems=run.problems,
                      metrics=metrics)
    with (run.out / "result.json").open("w", encoding="utf-8") as fh:
        json.dump(run.record, fh, indent=1)
    print(f"host: {json.dumps(host, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in run.problems:
        print(f"MISMATCH: {problem}")
    return metrics


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (benchlib.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {benchlib.SRC}",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error: children are killed and
    # reaped, and the scratch directory goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args)
    try:
        with run.speed:
            caches = setup(run)
            BODIES[run.workload](run, caches)
            # Read before the sampler process is reaped and counted.
            run.e2e["peak_rss_mb"] = _peak_rss_mb()
        metrics = report(run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        for spans in run.work.glob("*.spans.npz"):
            shutil.copy(spans, run.out / spans.name)
        shutil.rmtree(run.work, ignore_errors=True)
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
