"""Run every experiment and print its table.

Usage::

    python -m repro.experiments.runner                  # everything
    python -m repro.experiments.runner figure11         # one experiment
    python -m repro.experiments.runner figure11 --jobs 4     # parallel cells
    python -m repro.experiments.runner --json out figure11   # + JSON export
    python -m repro.experiments.runner --resume         # continue a sweep
    python -m repro.experiments.runner --help           # options, experiments
    REPRO_TRACE_LEN=4000 python -m repro.experiments.runner

Timing-simulation experiments scale with REPRO_TRACE_LEN; the analytic ones
(table1, capacity, overhead, encoders) are instant.  Simulated cells go
through the :mod:`repro.perf` engine: ``--jobs``/``REPRO_JOBS`` fans cold
cells out over a warm process pool, and finished cells are cached on disk
(``REPRO_CACHE_DIR``) so re-runs skip them entirely.

Every experiment that simulates declares its cells: a pure ``cells()``
beside its body returns them keyed by what the body looks each result
up by, and the body submits exactly those cells as one batch.
:data:`_REGISTRY` holds one row per experiment; :data:`EXPERIMENTS`
(name -> body) and :data:`CELLS` (name -> declared cells) are its two
views.

With ``--jobs`` > 1, two or more pending experiments and an ``auto`` or
``pool`` plan, the sweep is **pipelined across experiments**: the
pending experiments' declared cells are deduplicated globally and every
cold one is prefetched into the warm pool.  Each experiment then
collects its own cells as they complete — experiment N+1's cells
simulate while experiment N's table renders — and finished results
stream to disk on a background cache-writer thread.  A forced
``serial`` or ``batch`` plan runs every batch in that mode instead.
Results are byte-identical either way (every cell is an independent
simulation seeded from its own spec).

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

import argparse
import json
import os
import signal
import sys
import tempfile
import textwrap
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

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
from ..perf.cellspec import CellSpec
from .common import Cells, ExperimentResult
from .options import add_sweep_options

Body = Callable[[], ExperimentResult]
Declaration = Callable[[], Cells]

#: One row per experiment: its name, its zero-argument body and, for the
#: experiments that simulate, the zero-argument declaration of every
#: cell that body submits (``None`` for the analytic ones).
_REGISTRY: Tuple[Tuple[str, Body, Optional[Declaration]], ...] = (
    ("table1", table1.run_experiment, None),
    ("capacity", capacity.run_experiment, None),
    ("overhead", overhead.run_experiment, None),
    ("figure4", figure4.run_experiment, figure4.cells),
    ("figure5", figure5.run_experiment, figure5.cells),
    ("figure11", figure11.run_experiment, figure11.cells),
    ("figure12", figure12.run_experiment, figure12.cells),
    ("figure13", figure13.run_experiment, figure13.cells),
    ("figure14", figure14.run_experiment, figure14.cells),
    ("figure15", figure15.run_experiment, figure15.cells),
    ("figure16", figure16.run_experiment, figure16.cells),
    ("figure17", figure17.run_experiment, figure17.cells),
    ("figure18", figure18.run_experiment, figure18.cells),
    ("figure19", figure19.run_experiment, figure19.cells),
    ("ablation-ecp-density", ablation.run_ecp_density_ablation,
     ablation.ecp_density_cells),
    ("ablation-read-priority", ablation.run_read_priority_ablation,
     ablation.read_priority_cells),
    ("ablation-din", ablation.run_din_ablation, ablation.din_cells),
    ("ablation-weak-cells", ablation.run_weak_cell_ablation,
     ablation.weak_cell_cells),
    ("node-sensitivity", node_sensitivity.run_experiment,
     node_sensitivity.cells),
    ("scorecard", scorecard.run_experiment, scorecard.cells),
    ("encoders", encoders.run_experiment, None),
    ("energy", energy.run_experiment, energy.cells),
)

EXPERIMENTS: Dict[str, Body] = {name: body for name, body, _ in _REGISTRY}
CELLS: Dict[str, Declaration] = {
    name: cells for name, _, cells in _REGISTRY if cells is not None
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


# -- the sweep ---------------------------------------------------------------


def collect_sweep_specs(names: List[str]) -> List[CellSpec]:
    """Every cell the named experiments declare, in sweep order.

    Pure: it calls only the declarations in :data:`CELLS`, never an
    experiment body, so analytic experiments and names without a
    declaration contribute nothing.
    """
    return [
        spec for name in names if name in CELLS
        for spec in CELLS[name]().values()
    ]


def build_parser() -> argparse.ArgumentParser:
    """The runner's parser: the sweep's options plus the experiment list."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Runs the named experiments (all of them when none is\n"
        "named) and prints each table.",
        epilog=textwrap.fill(
            f"experiments: {' '.join(EXPERIMENTS)}",
            subsequent_indent="  ", break_on_hyphens=False,
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_sweep_options(parser)
    return parser


def main(argv: List[str]) -> int:
    try:
        args = build_parser().parse_intermixed_args(argv)
    except SystemExit as exc:  # --help (0) or a bad option (2)
        return int(exc.code or 0)
    return run(args)


def run(args: argparse.Namespace) -> int:
    """Run the sweep a :func:`build_parser` namespace describes."""
    requested = args.names or list(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; known: {sorted(EXPERIMENTS)}")
        return 2
    # One persistent runner for the whole sweep: the in-flight prefetch
    # table and the warm pool live on it across experiments.
    runner = engine.configure(jobs=args.jobs, plan=args.plan,
                              batch_cells=args.batch_cells,
                              kernel_backend=args.kernel_backend)
    resume = args.resume
    manifest = load_manifest() if resume else {}
    if not resume:
        # A fresh sweep starts a fresh checkpoint ledger.
        save_manifest({})
    pending = [
        name for name in requested
        if not (resume and is_completed(name, manifest))
    ]
    completed = 0
    # The prefetch lives inside the interrupt guard: a Ctrl-C that lands
    # mid-prefetch must still terminate the warm pool's workers
    # (otherwise they orphan, holding stdout open) and unlink the trace
    # segments already published.
    try:
        if (runner.jobs > 1 and len(pending) > 1
                and runner.plan in ("auto", "pool")):
            submitted = runner.prefetch(collect_sweep_specs(pending))
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
            if args.json_dir is not None:
                from . import export

                path = export.write_json(
                    result, f"{args.json_dir}/{name}.json"
                )
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
