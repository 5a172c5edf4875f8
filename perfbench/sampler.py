"""The host-speed sampler that ``benchlib.HostSpeed`` runs beside the
program.

Usage: python perfbench/sampler.py

Every ``benchlib.PROBE_EVERY_S`` it times :func:`probe` and writes one
line to stdout, ``<time.perf_counter() at the start> <seconds>``, until
its stdin closes.  It is a process of its own so that the benchmark's
process stays small (Linux counts a parent's resident set into the peak
of a child it starts) and a probe never waits for that process's GIL.
"""

from __future__ import annotations

import heapq
import sys
import threading
import time
from typing import List, Tuple

import numpy as np

import benchlib

_RNG = np.random.default_rng(0)
#: Larger than the last-level cache.
_TABLE = _RNG.random(4_000_000)
_INDEX = _RNG.integers(0, _TABLE.size, 10_000)


def probe() -> float:
    """Wall seconds of one fixed, small piece of work of the kinds the
    simulator's host time is made of: an event heap churned in the
    interpreter, then a numpy gather of random elements from an array
    larger than the last-level cache, which slows the way the
    simulator's state planes do when other tenants crowd the memory
    system."""
    start = time.perf_counter()
    heap: List[Tuple[int, int]] = []
    x = 12345
    for i in range(800):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    _TABLE[_INDEX].sum()
    return time.perf_counter() - start


def main() -> int:
    stop = threading.Event()

    def watch_stdin() -> None:
        sys.stdin.read()
        stop.set()

    threading.Thread(target=watch_stdin, daemon=True).start()
    while not stop.wait(benchlib.PROBE_EVERY_S):
        start = time.perf_counter()
        seconds = probe()
        try:
            print(f"{start!r} {seconds!r}", flush=True)
        except BrokenPipeError:
            break
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
