"""The traced ``sweep`` body: the experiment runner under span wrappers.

Usage: python perfbench/sweep_child.py TABLES.txt OUT.json

Runs ``repro.experiments.runner.main(["--jobs", N])`` in this process
with every layer wrapped, its output going to TABLES.txt, then writes
span totals, per-experiment walls and the engine's own counters.  Pool
workers fork without the wrappers, so cells simulated there show up
only through the profiler's ``simulate`` time.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

import inputs
import layers
from tracer import Tracer


def main(tables_path: str, out_path: str) -> int:
    from repro.experiments import runner
    from repro.pcm import stateplane
    from repro.perf import engine
    from repro.perf.profiler import PROFILER
    from repro.traces import shm

    tracer = Tracer()
    layers.install(tracer, sweep=True)
    start = time.perf_counter()
    try:
        with open(tables_path, "w", encoding="utf-8") as fh:
            with contextlib.redirect_stdout(fh):
                code = runner.main(["--jobs", str(inputs.JOBS)])
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - start
    if code != 0:
        return code
    spans = tracer.dump(out_path.replace(".json", ".spans.npz"))
    walls, experiments_self = layers.experiment_spans(spans)
    stats = engine.STATS
    plane = stateplane.PLANE
    counters = dict(stats.as_dict())
    counters.update({
        "simulate_s": PROFILER.seconds.get("simulate", 0.0),
        "jobs": inputs.JOBS,
        "sweep_wall_s": wall,
        "experiments_self_s": experiments_self,
        "trace_plane_hits": shm.PLANE.hits,
        "stateplane_hits": plane.row_hits + plane.mask_hits,
        "stateplane_misses": plane.row_misses + plane.mask_misses,
    })
    doc = {"totals": spans.totals(), "walls": walls, "counters": counters}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
