"""Regenerate ``golden.json``: the digests every default-seed run checks.

Usage (from the root of a checkout)::

    python3 perfbench/make_golden.py

Run it only when the program's outputs are meant to change, and say so
in the change that commits the new file.  It records:

* ``sweep``: the sha256 of every experiment's rendered table at the
  benchmark's trace length, and how many cells a cold sweep simulates;
* ``cells_vnc`` / ``cells_novnc``: the ``SimulationResult`` digest of
  every cell of the default-seed mix;
* ``service``: the digest of the first unique specs of the default-seed
  job list.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import benchlib
import inputs

#: Unique service specs pinned (more than any run submits).
SERVICE_SPECS = 200


def sweep_digests(cache: Path) -> dict:
    env = benchlib.child_env(cache, cache,
                             REPRO_TRACE_LEN=str(inputs.SWEEP_TRACE_LEN),
                             REPRO_CORES=str(inputs.SWEEP_CORES))
    out = subprocess.run(
        [benchlib.python(), "-m", "repro.experiments.runner", "--jobs",
         str(inputs.JOBS)], cwd=benchlib.ROOT, env=env, check=True,
        stdout=subprocess.PIPE, text=True).stdout
    tables = benchlib.split_tables(out)
    simulated, _ = benchlib.engine_counts(out)
    return {
        "trace_len": inputs.SWEEP_TRACE_LEN,
        "simulated": simulated,
        "tables": {name: benchlib.sha256_text(text)
                   for name, text in tables.items()},
    }


def cell_digests(params_list) -> dict:
    from repro.pcm import kernels
    from repro.perf.cellspec import simulate_cell
    from repro.service.jobs import build_spec, result_digest, validate_params

    kernels.activate_preferred("compiled")
    return {
        inputs.spec_id(p): result_digest(
            simulate_cell(build_spec(validate_params(dict(p)))))
        for p in params_list
    }


def main() -> int:
    sys.path.insert(0, str(benchlib.SRC))
    with tempfile.TemporaryDirectory(dir=benchlib.ROOT) as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        golden = {"seed": inputs.DEFAULT_SEED,
                  "sweep": sweep_digests(Path(tmp) / "sweep")}
        for workload in inputs.CELL_MIXES:
            golden[workload] = cell_digests(
                inputs.cell_mix(workload, inputs.DEFAULT_SEED))
        unique = {}
        for job in inputs.service_jobs(inputs.DEFAULT_SEED):
            unique.setdefault(inputs.spec_id(job), job)
        golden["service"] = cell_digests(list(unique.values())[:SERVICE_SPECS])
    with benchlib.GOLDEN.open("w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
