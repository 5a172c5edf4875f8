"""The ``cells_vnc`` / ``cells_novnc`` body: cold cells in one process.

Usage: python perfbench/cells_child.py WORKLOAD SEED TRACE OUT.json

Cells run through ``CellRunner(jobs=1)`` with the result cache off, one
``run_cells`` call per cell; each cell's ``time.perf_counter`` window
lets ``run.py`` scale its wall time to the reference host speed.
Untraced (TRACE=0), the process runs one pass over the seeded mix.  ``run.py`` starts one process per pass, so
every pass begins with an empty state plane and trace memo, and
process-to-process variation of the host averages out over a run.
Traced (TRACE=1), one pass runs untraced and then the same pass runs
under the span wrappers, after emptying the state plane and trace memo;
the difference of the two is the tracing overhead.
"""

from __future__ import annotations

import json
import sys
import time

import inputs
import layers
from tracer import Tracer


def main(workload: str, seed: int, trace: bool, out_path: str) -> int:
    from repro.pcm import kernels, stateplane
    from repro.perf import engine
    from repro.perf.cache import ResultCache
    from repro.perf.engine import CellRunner
    from repro.service.jobs import build_spec, result_digest, validate_params
    from repro.traces import shm

    runner = CellRunner(jobs=1, cache=ResultCache(enabled=False))
    runner.run_cells([build_spec(validate_params(dict(inputs.WARMUP_JOB)))])
    mix = inputs.cell_mix(workload, seed)
    specs = [build_spec(validate_params(dict(p))) for p in mix]
    ids = [inputs.spec_id(p) for p in mix]

    def run_pass():
        """One pass over the mix from an empty state plane and trace memo."""
        stateplane.PLANE.reset()
        shm.reset()
        cells = []
        start = time.perf_counter()
        for cell_id, spec in zip(ids, specs):
            t0 = time.perf_counter()
            [result] = runner.run_cells([spec])
            t1 = time.perf_counter()
            c = result.counters
            cells.append({
                "id": cell_id, "wall_s": t1 - t0, "t0": t0, "t1": t1,
                "digest": result_digest(result),
                "refs": c.demand_reads + c.demand_writes,
                "writes": c.demand_writes,
                "cycles": result.cycles,
                "verifications": c.verifications,
                "corrections": c.corrections,
                "ecp_absorbed_errors": c.ecp_absorbed_errors,
            })
        plane = stateplane.PLANE
        return {
            "wall_s": time.perf_counter() - start, "cells": cells,
            "stateplane_hits": plane.row_hits + plane.mask_hits,
            "stateplane_misses": plane.row_misses + plane.mask_misses,
        }

    doc = {"workload": workload,
           "backend": kernels.active_name(),
           "fused": bool(kernels.fused_active())}
    doc["pass"] = run_pass()
    if trace:
        tracer = Tracer()
        layers.install(tracer, kernels_backend=kernels.active())
        try:
            with engine.scoped_stats() as scope:
                traced = run_pass()
        finally:
            tracer.uninstall()
        doc["traced_pass"] = traced
        doc["engine"] = scope.delta.as_dict()
        spans = tracer.dump(out_path.replace(".json", ".spans.npz"))
        doc["totals"] = spans.totals()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    workload, seed, trace, out = sys.argv[1:5]
    raise SystemExit(main(workload, int(seed), trace == "1", out))
