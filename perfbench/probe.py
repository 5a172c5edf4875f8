"""One set-up sample: import the program, build or load the compiled
kernels, and make one warm-up call; writes the timings as JSON.

Usage: python perfbench/probe.py OUT.json

Runs with ``REPRO_CACHE_DIR`` pointing at a fresh directory, so the
kernel build is a real build.  The warm-up call simulates a small cell
directly (no result cache), leaving the cache directory holding only
the kernel build.
"""

from __future__ import annotations

import json
import sys
import time

_t0 = time.perf_counter()


def main(out_path: str) -> int:
    import numpy
    import repro.experiments.runner  # noqa: F401  (the sweep's imports)
    import repro.service.daemon  # noqa: F401  (the service's imports)
    from repro.pcm import kernels
    from repro.pcm.kernels.base import BackendUnavailable
    from repro.perf.cellspec import simulate_cell
    from repro.service.jobs import build_spec, validate_params

    import inputs

    t_import = time.perf_counter()
    try:
        kernels.get_backend("compiled")
        compiled = True
    except BackendUnavailable:
        compiled = False
    t_build = time.perf_counter()
    simulate_cell(build_spec(validate_params(dict(inputs.WARMUP_JOB))))
    t_warm = time.perf_counter()
    doc = {
        "import_s": t_import - _t0,
        "kernel_build_s": t_build - t_import,
        "warmup_s": t_warm - t_build,
        "compiled": compiled,
        "numpy": numpy.__version__,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
