"""Run every experiment and print its table.

Usage::

    python -m repro.experiments.runner                  # everything
    python -m repro.experiments.runner figure11         # one experiment
    python -m repro.experiments.runner figure11 --jobs 4     # parallel cells
    python -m repro.experiments.runner --json out figure11   # + JSON export
    python -m repro.experiments.runner --resume         # continue a sweep
    python -m repro.experiments.runner --no-pipeline    # strictly sequential
    python -m repro.experiments.runner --help           # options, experiments
    REPRO_TRACE_LEN=4000 python -m repro.experiments.runner

Timing-simulation experiments scale with REPRO_TRACE_LEN; the analytic ones
(table1, capacity, overhead) are instant.  Simulated cells go through the
:mod:`repro.perf` engine: ``--jobs``/``REPRO_JOBS`` fans cold cells out over
a warm process pool, and finished cells are cached on disk
(``REPRO_CACHE_DIR``) so re-runs skip them entirely.

With ``--jobs`` > 1 the sweep is **pipelined across experiments**: a
planning pass collects every selected experiment's cell specs up front
(by running each experiment preamble against a spec-recording engine
stub), dedups them globally, and prefetches the cold cells into the warm
pool.  Each experiment then collects its own cells as they complete —
experiment N+1's cells simulate while experiment N's table renders — and
finished results stream to disk on a background cache-writer thread.
Disable with ``--no-pipeline`` or ``REPRO_PIPELINE=0``; results are
byte-identical either way (every cell is an independent simulation
seeded from its own spec).

Long sweeps are interrupt-safe: every completed experiment is checkpointed
to a manifest next to the result cache, and Ctrl-C exits cleanly after
flushing what finished (in-flight prefetched cells are cancelled, the
warm pool is torn down, and every shared-memory trace segment is
unlinked).  ``--resume`` skips every experiment the manifest records as
completed under the same trace length / core count / cache schema —
combined with the warm result cache, a restarted sweep fast-forwards to
the first unfinished experiment at almost no cost.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

from .. import envconfig

from . import (
    ablation,
    capacity,
    encoders,
    energy,
    node_sensitivity,
    scorecard,
    figure4,
    figure5,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    figure18,
    figure19,
    overhead,
    table1,
)
from ..perf import engine
from .common import ExperimentResult

EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "table1": table1.run_experiment,
    "capacity": capacity.run_experiment,
    "overhead": overhead.run_experiment,
    "figure4": figure4.run_experiment,
    "figure5": figure5.run_experiment,
    "figure11": figure11.run_experiment,
    "figure12": figure12.run_experiment,
    "figure13": figure13.run_experiment,
    "figure14": figure14.run_experiment,
    "figure15": figure15.run_experiment,
    "figure16": figure16.run_experiment,
    "figure17": figure17.run_experiment,
    "figure18": figure18.run_experiment,
    "figure19": figure19.run_experiment,
    "ablation-ecp-density": ablation.run_ecp_density_ablation,
    "ablation-read-priority": ablation.run_read_priority_ablation,
    "ablation-din": ablation.run_din_ablation,
    "ablation-weak-cells": ablation.run_weak_cell_ablation,
    "node-sensitivity": node_sensitivity.run_experiment,
    "scorecard": scorecard.run_experiment,
    "encoders": encoders.run_experiment,
    "energy": energy.run_experiment,
}


# -- sweep checkpointing ---------------------------------------------------------


def manifest_path() -> Path:
    """Where the completed-experiment manifest lives (beside the cache)."""
    from ..perf.cache import default_cache_dir

    return default_cache_dir() / "runner_manifest.json"


def _manifest_stamp() -> Dict[str, object]:
    """The parameters a completed experiment is valid under."""
    from ..perf.cellspec import CACHE_SCHEMA_VERSION
    from .common import core_count, trace_length

    return {
        "trace_len": trace_length(),
        "cores": core_count(),
        "schema": CACHE_SCHEMA_VERSION,
    }


def load_manifest() -> Dict[str, Dict[str, object]]:
    """Completed experiments from disk ({} when absent or unreadable)."""
    path = manifest_path()
    try:
        with path.open("r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return {}
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        # A torn manifest only costs re-running experiments whose cells
        # are cached anyway; never let it kill the sweep.
        return {}
    return data if isinstance(data, dict) else {}


def save_manifest(manifest: Dict[str, Dict[str, object]]) -> None:
    """Atomically persist the manifest (tempfile + rename)."""
    path = manifest_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def mark_completed(name: str) -> None:
    """Checkpoint one finished experiment."""
    manifest = load_manifest()
    entry = dict(_manifest_stamp())
    entry["finished_at"] = time.time()
    manifest[name] = entry
    save_manifest(manifest)


def is_completed(name: str, manifest: Dict[str, Dict[str, object]]) -> bool:
    """Whether the manifest records ``name`` done under current parameters."""
    entry = manifest.get(name)
    if not isinstance(entry, dict):
        return False
    stamp = _manifest_stamp()
    return all(entry.get(key) == value for key, value in stamp.items())


# -- cross-experiment sweep planning ----------------------------------------


class _PlanAborted(Exception):
    """Control flow: the planning pass stops an experiment at its first
    ``run_cells`` call (the specs are recorded; nothing is simulated)."""


class _PlanningRunner:
    """Engine stub that records submitted specs instead of running them."""

    def __init__(self) -> None:
        self.specs: List[object] = []

    def run_cells(self, specs):
        self.specs.extend(specs)
        raise _PlanAborted


def collect_sweep_specs(names: List[str]) -> List[object]:
    """Every selected experiment's first-batch cell specs, in sweep order.

    Runs each experiment's preamble (spec-list construction is cheap)
    against a recording engine stub and aborts at the first
    ``run_cells`` call.  Experiments that never reach ``run_cells``
    (analytic ones) or that raise during planning contribute nothing —
    they run normally, and any real error surfaces, in the main loop.
    Experiments that batch in several ``run_cells`` calls have only
    their first batch prefetched; the rest still benefit from the warm
    pool and trace plane.
    """
    from ..perf import engine

    collected: List[object] = []
    for name in names:
        recorder = _PlanningRunner()
        with engine.use_runner(recorder):
            try:
                EXPERIMENTS[name]()
            except _PlanAborted:
                pass
            except Exception:
                continue
        collected.extend(recorder.specs)
    return collected


def usage() -> str:
    """The ``--help`` text: options and the known experiment names."""
    return (
        "usage: python -m repro.experiments.runner [options] [experiment ...]\n"
        "\n"
        "Runs the named experiments (all of them when none is named) and\n"
        "prints each table.\n"
        "\n"
        "options:\n"
        "  -h, --help             show this message and exit\n"
        "  --jobs N               worker processes for cold cells (REPRO_JOBS)\n"
        "  --json DIR             also write each table as DIR/<name>.json\n"
        "  --resume               skip experiments a previous sweep finished\n"
        "  --no-pipeline          no cross-experiment prefetch\n"
        f"  --plan MODE            {'/'.join(envconfig.PLAN_MODES)}\n"
        "  --batch-cells N        cells per batched dispatch\n"
        "  --kernel-backend NAME  "
        f"{'/'.join(envconfig.KERNEL_BACKENDS)}\n"
        "\n"
        f"experiments: {' '.join(EXPERIMENTS)}\n"
    )


def main(argv: list[str]) -> int:
    json_dir = None
    jobs = None
    batch_cells = None
    plan = None
    kernel_backend = None
    resume = False
    pipeline = envconfig.pipeline_enabled()
    names: list[str] = []
    argv = list(argv)
    while argv:
        arg = argv.pop(0)
        if arg in ("-h", "--help"):
            print(usage(), end="")
            return 0
        if arg == "--resume":
            resume = True
        elif arg == "--no-pipeline":
            pipeline = False
        elif arg in ("--json", "--jobs", "--batch-cells", "--plan",
                     "--kernel-backend"):
            if not argv:
                print(f"{arg} requires a value")
                return 2
            value = argv.pop(0)
            if arg == "--json":
                json_dir = value
            elif arg == "--plan":
                if value not in envconfig.PLAN_MODES:
                    print(
                        f"--plan must be one of "
                        f"{'/'.join(envconfig.PLAN_MODES)}, got {value!r}"
                    )
                    return 2
                plan = value
            elif arg == "--kernel-backend":
                if value not in envconfig.KERNEL_BACKENDS:
                    print(
                        f"--kernel-backend must be one of "
                        f"{'/'.join(envconfig.KERNEL_BACKENDS)}, "
                        f"got {value!r}"
                    )
                    return 2
                kernel_backend = value
            else:
                try:
                    parsed = int(value)
                except ValueError:
                    print(f"{arg} requires an integer, got {value!r}")
                    return 2
                if parsed < 1:
                    print(f"{arg} must be >= 1, got {parsed}")
                    return 2
                if arg == "--jobs":
                    jobs = parsed
                else:
                    batch_cells = parsed
        else:
            names.append(arg)
    requested = names or list(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; known: {sorted(EXPERIMENTS)}")
        return 2
    # One persistent runner for the whole sweep: the in-flight prefetch
    # table and the warm pool live on it across experiments.
    runner = engine.configure(jobs=jobs, plan=plan, batch_cells=batch_cells,
                              kernel_backend=kernel_backend)
    manifest = load_manifest() if resume else {}
    if not resume:
        # A fresh sweep starts a fresh checkpoint ledger.
        save_manifest({})
    pending = [
        name for name in requested
        if not (resume and is_completed(name, manifest))
    ]
    completed = 0
    # The planning pass and prefetch live inside the interrupt guard:
    # a Ctrl-C that lands mid-prefetch must still terminate the warm
    # pool's workers (otherwise they orphan, holding stdout open) and
    # unlink the trace segments already published.
    try:
        if pipeline and runner.jobs > 1 and len(pending) > 1:
            specs = collect_sweep_specs(pending)
            submitted = runner.prefetch(specs)
            if submitted:
                print(
                    f"  [pipeline: prefetched {submitted} cold cell(s) from "
                    f"{len(pending)} experiments into the warm pool]\n"
                )
        for name in requested:
            if resume and is_completed(name, manifest):
                print(f"  [{name} already completed; skipped (--resume)]\n")
                completed += 1
                continue
            start = time.time()
            result = EXPERIMENTS[name]()
            print(result.render())
            print(f"  [{name} finished in {time.time() - start:.1f}s]\n")
            if json_dir is not None:
                from . import export

                path = export.write_json(result, f"{json_dir}/{name}.json")
                print(f"  [wrote {path}]")
            mark_completed(name)
            completed += 1
    except KeyboardInterrupt:
        # Finished experiments are already checkpointed (and their cells
        # cached); cancel in-flight prefetches, tear the warm pool down
        # without joining possibly-busy workers, unlink every
        # shared-memory trace segment, then exit cleanly.  Further
        # Ctrl-C presses are ignored while this runs: a second
        # interrupt landing inside the teardown would abort the
        # worker-termination loop and orphan pool workers.  The
        # previous disposition is restored on the way out so in-process
        # callers (tests, library use) keep their Ctrl-C.
        try:
            previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
        except (ValueError, OSError):  # non-main thread / exotic host
            previous = None
        try:
            engine.teardown(terminate=True)
            print(
                f"\n  [interrupted after {completed}/{len(requested)} "
                f"experiments; finished work is checkpointed in "
                f"{manifest_path()} — rerun with --resume to continue]"
            )
        finally:
            if previous is not None:
                try:
                    signal.signal(signal.SIGINT, previous)
                except (ValueError, OSError):
                    pass
        return 130
    print(
        f"  [engine: {engine.STATS.summary()}; jobs={runner.jobs}, "
        f"cache={'on' if runner.cache.enabled else 'off'} "
        f"at {runner.cache.root}]"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
