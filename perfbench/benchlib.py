"""Helpers shared by ``run.py`` and the child processes it starts.

Nothing here imports the program: ``run.py`` only starts
processes, and each child imports ``repro`` itself.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
#: Scratch space of every run, inside the checkout (and git-ignored).
WORK = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program failure)."""


# -- statistics --------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  With fewer than twenty
    samples no percentile above the median qualifies, so the median is
    reported (and the percentile says so).
    """
    n = len(values)
    pct = max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 50
    if n < 2:
        return median(values), float(pct), n
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[pct - 1], float(pct), n


# -- host speed --------------------------------------------------------------

#: One probe's wall time at the reference host speed: the calm state of
#: the 2-vCPU Xeon VM (2.1 GHz) the bounds were set on.
PROBE_REF_S = 0.00075
#: Pause between probes (``perfbench/sampler.py``); at about 1 ms a
#: probe, the sampler takes ~5% of one CPU.
PROBE_EVERY_S = 0.02
#: An operation's speed is read from the probes in its window widened by
#: this much on either side: more probes, less noise in the estimate.
WINDOW_PAD_S = 0.2


class HostSpeed:
    """Samples the host's speed for the whole run, beside the program.

    On a shared VM the speed of a vCPU flips between a calm and a slowed
    state several times a second, and the share of slowed time drifts
    from one minute to the next, so wall times of the same work spread
    by a quarter between runs.  While the run lasts, a sampler process
    (``perfbench/sampler.py``) times a fixed probe every
    ``PROBE_EVERY_S``; a thread here collects its readings.
    :meth:`scaled` turns the wall time of an operation into seconds at
    the reference host speed: the wall time times ``PROBE_REF_S`` over
    the mean probe near the operation's window (``time.perf_counter``
    readings, which are comparable between processes).  The program
    cannot move the probe, so a scaled time still moves with the program
    but not with the host's state.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.probes: List[float] = []
        self._proc: Optional[subprocess.Popen] = None
        self._reader = threading.Thread(target=self._read, daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._proc = subprocess.Popen(
            [python(), str(HERE / "sampler.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        self._reader.start()
        return self

    def __exit__(self, *exc) -> None:
        proc = self._proc
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            kill_group(proc)
        self._reader.join()
        proc.stdout.close()

    def _read(self) -> None:
        for line in self._proc.stdout:
            start, seconds = line.split()
            self.probes.append(float(seconds))
            self.starts.append(float(start))

    def factor(self, start: float, end: float) -> float:
        """``PROBE_REF_S`` over the mean probe taken within ``WINDOW_PAD_S``
        of the window from ``start`` to ``end`` (at least the three
        nearest probes).  A probe is capped at four reference times, so
        that one preempted probe cannot swing a window."""
        start -= WINDOW_PAD_S
        end += WINDOW_PAD_S
        count = len(self.starts)
        if count == 0:
            raise BenchError("no host-speed probe was taken")
        lo = bisect.bisect_left(self.starts, start, 0, count)
        hi = bisect.bisect_right(self.starts, end, 0, count)
        while hi - lo < min(3, count):
            if lo > 0 and (hi >= count or start - self.starts[lo - 1]
                           <= self.starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        window = [min(p, 4 * PROBE_REF_S) for p in self.probes[lo:hi]]
        return PROBE_REF_S * len(window) / sum(window)

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)


# -- digests -----------------------------------------------------------------


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_FINISHED = re.compile(r"^  \[(?P<name>[\w-]+) finished in [\d.]+s\]$")


def split_tables(stdout: str) -> Dict[str, str]:
    """Per-experiment rendered tables from the runner's output.

    Each experiment prints its table, then ``  [<name> finished in
    X.Xs]``; bracketed engine/timing lines are dropped, as when tables
    are compared by hand (``grep -v "^  \\["``).
    """
    tables: Dict[str, str] = {}
    chunk: List[str] = []
    for line in stdout.splitlines():
        match = _FINISHED.match(line)
        if match:
            tables[match.group("name")] = "\n".join(chunk).strip("\n")
            chunk = []
        elif not line.startswith("  ["):
            chunk.append(line)
    return tables


_SIMULATED = re.compile(r"\[engine: (\d+) simulated, (\d+) cache hits")


def engine_counts(stdout: str) -> Tuple[int, int]:
    """(simulated, cache hits) from the runner's closing engine line."""
    match = _SIMULATED.search(stdout)
    if match is None:
        raise BenchError("runner printed no engine summary")
    return int(match.group(1)), int(match.group(2))


def load_golden() -> Dict[str, Dict[str, object]]:
    with GOLDEN.open("r", encoding="utf-8") as fh:
        return json.load(fh)


# -- host and processes ------------------------------------------------------


def host_record() -> Dict[str, object]:
    """The host facts every result carries (numpy's version comes from
    the set-up probe, which imports the program)."""
    return {
        "nproc": os.cpu_count(),
        "arch": platform.machine(),
        "python": platform.python_version(),
    }


def child_env(cache_dir: Path, tmp_dir: Path, **extra: str) -> Dict[str, str]:
    """The environment of every program process: sources from the
    checkout, result cache and temp files in the run's own directory,
    and no ``REPRO_*`` knob inherited from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(tmp_dir)
    env["PYTHONUNBUFFERED"] = "1"
    env.update(extra)
    return env


class Deadline:
    """The run's overall time limit, shared by every child it starts."""

    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("benchmark time limit reached")
        return left


def kill_group(proc: subprocess.Popen) -> None:
    """Kill a child and everything it started, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        pass


def run_child(argv: Sequence[str], env: Dict[str, str], deadline: Deadline,
              stdout_path: Optional[Path] = None) -> Tuple[float, str]:
    """Run one child to completion; returns (wall seconds, stdout).

    The child gets its own process group so that a timeout can kill its
    pool workers too.  A non-zero exit raises :class:`BenchError`.
    """
    out = stdout_path.open("w+", encoding="utf-8") if stdout_path else None
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=ROOT, env=env, start_new_session=True,
            stdout=out if out is not None else subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=deadline.left())
        except subprocess.TimeoutExpired:
            kill_group(proc)
            raise BenchError(f"{argv[1:3]} timed out")
        except BaseException:
            kill_group(proc)
            raise
        wall = time.perf_counter() - start
        if out is not None:
            out.seek(0)
            stdout = out.read()
    finally:
        if out is not None:
            out.close()
    if proc.returncode != 0:
        raise BenchError(
            f"{' '.join(argv[1:4])} exited {proc.returncode}: "
            f"{(stderr or '')[-2000:]}"
        )
    return wall, stdout


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def clear_results(cache_dir: Path) -> None:
    """Empty a result cache but keep its compiled-kernel build."""
    for entry in cache_dir.iterdir():
        if entry.name == "kernels":
            continue
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()


def python() -> str:
    return sys.executable or "python3"
