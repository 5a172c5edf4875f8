"""The ``service`` body: daemon start-ups, a closed-loop client, checks.

Usage: python perfbench/service_child.py SEED SECONDS TRACE WORK OUT.json CACHE_DIR...

For every CACHE_DIR (each holds only a fresh kernel build) one daemon
``repro serve --jobs 2 --port 0 --portfile ...`` starts; the time from
spawn to the first ``/healthz`` answer and one warm-up job are that set-
up sample.  Every set-up sample and job keeps its ``time.perf_counter``
window, so that ``run.py`` can scale it to the reference host speed.
Untraced (TRACE=0), the last daemon serves the timed run for SECONDS
from the start of the seeded job list: one client connection submits
the next ``wait=true`` job as soon as the previous one returns.  The
daemon runs one job at a time, so a second connection would only add a
wait for the other connection's job to every round trip; one connection
times each job alone.

Traced (TRACE=1), the next-to-last daemon first serves the list
untraced for SECONDS/2; the last daemon then serves exactly the same
jobs with ``ServiceClient.submit`` wrapped, which gives the tracing
overhead.  Afterwards every distinct spec a job returned is simulated
in this process and its digest compared with the served one.
"""

from __future__ import annotations

import json
import multiprocessing
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import benchlib
import inputs
import layers
from tracer import Tracer


class Daemon:
    """One ``repro serve`` subprocess with its own cache and journal."""

    def __init__(self, cache_dir: Path, work: Path, index: int) -> None:
        self.service_dir = benchlib.fresh_dir(work / f"service{index}")
        portfile = work / f"port{index}"
        env = benchlib.child_env(cache_dir, work / "tmp")
        self._log = (work / f"daemon{index}.log").open("w")
        self.start = start = time.perf_counter()
        self.proc = subprocess.Popen(
            [benchlib.python(), "-m", "repro", "serve", "--jobs",
             str(inputs.JOBS), "--port", "0", "--portfile",
             str(portfile), "--service-dir", str(self.service_dir)],
            cwd=benchlib.ROOT, env=env, start_new_session=True,
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self._await_up(portfile, start)
        except BaseException:
            benchlib.kill_group(self.proc)
            self._log.close()
            raise

    def _await_up(self, portfile: Path, start: float) -> None:
        from repro.service.client import ServiceClient

        deadline = time.monotonic() + 60
        while not portfile.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise benchlib.BenchError("daemon did not start")
            time.sleep(0.005)
        self.port = int(portfile.read_text().strip())
        self.client = ServiceClient(port=self.port, timeout_s=120.0)
        self.client.wait_until_up(timeout_s=30.0, poll_s=0.005)
        self.up_s = time.perf_counter() - start
        status, doc = self.client.submit(dict(inputs.WARMUP_JOB), wait=True)
        if status != 200 or doc.get("state") != "done":
            raise benchlib.BenchError(f"warm-up job failed: {status} {doc}")
        self.end = time.perf_counter()
        self.setup_s = self.end - start

    def journal_bytes(self) -> int:
        path = self.service_dir / "journal.jsonl"
        return path.stat().st_size if path.exists() else 0

    def stop(self) -> None:
        """SIGTERM drain; the daemon must exit 0 within its drain window."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=45)
        except subprocess.TimeoutExpired:
            benchlib.kill_group(self.proc)
            raise benchlib.BenchError("daemon did not drain")
        finally:
            self._log.close()
        if code != 0:
            raise benchlib.BenchError(f"daemon exited {code}")


def closed_loop(client_port: int, jobs, seconds: float, limit=None):
    """Submit jobs in list order over one connection, each as soon as the
    previous reply arrives, until ``seconds`` have passed (or ``limit``
    jobs are done); returns the per-job records and the loop's
    ``(start, end)`` window."""
    from repro.service.client import ServiceClient, ServiceUnreachable

    client = ServiceClient(port=client_port, timeout_s=120.0)
    records = []
    start = time.perf_counter()
    for index, params in enumerate(jobs):
        if (index == limit
                or (limit is None and time.perf_counter() >= start + seconds)):
            break
        t0 = time.perf_counter()
        try:
            status, doc = client.submit(dict(params), wait=True)
        except ServiceUnreachable as exc:
            status, doc = 0, {"error": str(exc)}
        t1 = time.perf_counter()
        records.append({
            "index": index, "id": inputs.spec_id(params),
            "status": status, "wall_s": t1 - t0, "t0": t0, "t1": t1,
            "digest": (doc.get("result") or {}).get("digest"),
            "dedup": bool(doc.get("dedup")),
            "state": doc.get("state"),
        })
    return records, (start, time.perf_counter())


def _local_digest(params) -> str:
    from repro.pcm import kernels
    from repro.perf.cellspec import simulate_cell
    from repro.service.jobs import build_spec, result_digest, validate_params

    kernels.activate_preferred("compiled")
    return result_digest(simulate_cell(build_spec(validate_params(params))))


def verify(records, jobs, seed: int):
    """Simulate every served spec locally (two spawned processes, after
    the daemons have stopped); returns the ids whose digest differs."""
    golden = benchlib.load_golden().get("service", {})
    served = {}
    for record in records:
        if record["status"] == 200 and record["digest"] is not None:
            served.setdefault(record["id"], dict(jobs[record["index"]]))
    ids = sorted(served)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        local = dict(zip(ids, pool.map(_local_digest,
                                       [served[i] for i in ids])))
    bad = set()
    for record in records:
        spec_id = record["id"]
        if spec_id not in local:
            continue
        expected = {local[spec_id]}
        if seed == inputs.DEFAULT_SEED and spec_id in golden:
            expected.add(golden[spec_id])
        if expected != {record["digest"]}:
            bad.add(spec_id)
    return sorted(bad)


def main(seed: int, seconds: float, trace: bool, work: Path, out_path: str,
         cache_dirs) -> int:
    jobs = inputs.service_jobs(seed)
    daemons, samples = [], []
    try:
        for index, cache_dir in enumerate(cache_dirs):
            daemon = Daemon(Path(cache_dir), work, index)
            samples.append({"up_s": daemon.up_s, "setup_s": daemon.setup_s,
                            "t0": daemon.start, "t1": daemon.end})
            if index < len(cache_dirs) - 2:
                daemon.stop()
            else:
                daemons.append(daemon)
        doc = {"setup": samples}
        if trace:
            untraced = daemons[0]
            records_u, (u0, u1) = closed_loop(untraced.port, jobs,
                                              seconds / 2)
            untraced.stop()
            traced = daemons[1]
            tracer = Tracer()
            layers.install(tracer, service=True)
            try:
                records, (t0, t1) = closed_loop(traced.port, jobs, 0.0,
                                                limit=len(records_u))
            finally:
                tracer.uninstall()
            spans = tracer.dump(out_path.replace(".json", ".spans.npz"))
            doc.update(untraced_window=(u0, u1), traced_window=(t0, t1),
                       totals=spans.totals())
        else:
            daemons.pop(0).stop()
            records_u = []
            records, doc["window"] = closed_loop(daemons[0].port, jobs,
                                                 seconds)
        body = daemons[-1]
        _status, stats = body.client.stats()
        doc["stats"] = stats
        doc["journal_bytes"] = body.journal_bytes()
        t0 = time.perf_counter()
        body.stop()
        daemons.clear()
        t1 = time.perf_counter()
        doc.update(records=records,
                   mismatches=verify(records_u + records, jobs, seed))
        doc.update(stop_s=t1 - t0, verify_s=time.perf_counter() - t1)
    finally:
        for daemon in daemons:
            try:
                daemon.stop()
            except benchlib.BenchError:
                pass
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    seed, seconds, trace, work, out = sys.argv[1:6]
    raise SystemExit(main(int(seed), float(seconds), trace == "1",
                          Path(work), out, sys.argv[6:]))
