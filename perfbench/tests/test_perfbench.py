"""Self-tests of the benchmark harness (no workload is run).

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import pytest

import benchlib
import inputs
import layers
import run as bench_run
import tracer as tracer_mod
from tracer import Tracer


class FakeClock:
    """A clock that only moves when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer_mod, "_clock", fake)
    return fake


class Tree:
    """root -> (a -> leaf) then b, with known durations."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def root(self):
        self.clock.advance(1.0)
        self.a()
        self.clock.advance(1.0)
        self.b()

    def a(self):
        self.clock.advance(2.0)
        self.leaf()

    def leaf(self):
        self.clock.advance(3.0)

    def b(self):
        self.clock.advance(4.0)


def test_self_time_on_a_synthetic_span_tree(clock):
    tracer = Tracer()
    for name in ("root", "a", "leaf", "b"):
        tracer.wrap(Tree, name, f"t.{name}")
    try:
        Tree(clock).root()
        Tree(clock).b()
    finally:
        tracer.uninstall()
    totals = tracer.spans().totals()
    # (calls, inclusive, self)
    assert totals["t.root"] == (1, 11.0, 2.0)
    assert totals["t.a"] == (1, 5.0, 2.0)
    assert totals["t.leaf"] == (1, 3.0, 3.0)
    assert totals["t.b"] == (2, 8.0, 8.0)
    spans = tracer.spans()
    roots = [i for i in range(len(spans)) if spans.parent[i] < 0]
    assert len(roots) == 2
    # Every span of the first tree carries the first root's trace id.
    assert set(spans.trace[:4]) == {roots[0]}
    assert spans.trace[4] == roots[1]
    # Self times add up to the wall the two roots cover.
    assert spans.self_time().sum() == pytest.approx(15.0)


def test_uninstall_restores_every_attribute():
    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    table = {"x": lambda: 1}
    original = Base.__dict__["method"]
    tracer = Tracer()
    tracer.wrap(Base, "method", "base")
    tracer.wrap(Child, "method", "child")
    tracer.wrap_dict(table, "x", "table")
    assert Child().method() == "base"
    tracer.uninstall()
    assert Base.__dict__["method"] is original
    assert "method" not in Child.__dict__
    assert table["x"]() == 1 and not hasattr(table["x"], "__wrapped__")
    assert tracer.spans().totals()["child"][0] == 1


def test_layer_metrics_cover_benchmark_json():
    doc = json.loads((benchlib.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    computed = layers.metrics({}, {}, {})
    assert list(per_layer) == list(computed)
    assert per_layer == {name: unit for name, (_, unit) in computed.items()}
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert end_to_end == bench_run.E2E_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(bench_run.WORKLOADS)


def test_layer_metrics_from_totals():
    totals = {
        "core.run": (2, 10.0, 4.0),
        "core.schedule": (1000, 0.5, 0.5),
        "core.vnc.execute": (100, 3.0, 2.0),
        "pcm.din.decode_int": (50, 0.25, 0.25),
        "pcm.kernel.sample_mask_int": (40, 0.75, 0.75),
    }
    m = layers.metrics(totals, {"stateplane_hits": 3, "stateplane_misses": 1,
                                "untraced_wall_s": 8.0,
                                "traced_wall_s": 10.0}, {})
    assert m["core.loop_self_s"] == (4.0, "s")
    assert m["core.us_per_event"][0] == pytest.approx(4000.0)
    assert m["core.vnc.us_per_write"][0] == pytest.approx(30000.0)
    assert m["pcm.din_s"][0] == 0.25 and m["pcm.kernels_s"][0] == 0.75
    assert m["pcm.stateplane.hit_ratio"][0] == 0.75
    assert m["trace.overhead_s"][0] == 2.0
    assert m["trace.overhead_ratio"][0] == pytest.approx(0.25)
    assert m["perf.cache.hit_ratio"][0] == 0.0


@pytest.mark.parametrize("workload", sorted(inputs.CELL_MIXES))
def test_cell_mix_is_deterministic_per_seed(workload):
    assert inputs.cell_mix(workload, 5) == inputs.cell_mix(workload, 5)
    assert inputs.cell_mix(workload, 5) != inputs.cell_mix(workload, 6)
    pairs = sorted((c["bench"], c["scheme"])
                   for c in inputs.cell_mix(workload, 6))
    assert pairs == sorted(inputs.CELL_MIXES[workload]
                           * inputs.CELLS_PER_PAIR[workload])


def test_service_jobs_are_deterministic_and_repeat_earlier_specs():
    jobs = inputs.service_jobs(3, count=200)
    assert jobs == inputs.service_jobs(3, count=200)
    assert jobs != inputs.service_jobs(4, count=200)
    seen = set()
    for index, job in enumerate(jobs):
        key = inputs.spec_id(job)
        repeat = index % inputs.REPEAT_EVERY == inputs.REPEAT_EVERY - 1
        assert (key in seen) == repeat
        seen.add(key)
        assert job["seed"] != inputs.WARMUP_JOB["seed"]
    # Unique specs cycle through the whole bench x scheme grid.
    grid = len(inputs.SERVICE_BENCHES) * len(inputs.SERVICE_SCHEMES)
    first_round = [j for i, j in enumerate(jobs)
                   if i % inputs.REPEAT_EVERY != inputs.REPEAT_EVERY - 1]
    assert len({(j["bench"], j["scheme"]) for j in first_round[:grid]}) == grid
    # ... and every whole block of jobs holds each pair exactly once.
    block = inputs.SERVICE_BLOCK
    for start in range(0, len(jobs) - block + 1, block):
        pairs = [(j["bench"], j["scheme"])
                 for i, j in enumerate(jobs[start:start + block], start)
                 if i % inputs.REPEAT_EVERY != inputs.REPEAT_EVERY - 1]
        assert len(pairs) == len(set(pairs)) == grid


def test_tail_percentile_needs_ten_samples_beyond():
    assert benchlib.tail(list(range(10)))[1:] == (50.0, 10)
    value, pct, n = benchlib.tail([float(i) for i in range(40)])
    assert (pct, n) == (75.0, 40)
    assert value == pytest.approx(29.25)


def test_host_speed_scales_by_the_probes_inside_a_window(monkeypatch):
    ref = benchlib.PROBE_REF_S
    monkeypatch.setattr(benchlib, "WINDOW_PAD_S", 0.0)
    speed = benchlib.HostSpeed()
    speed.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    speed.probes = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, ref, 100 * ref]
    # Calm inside the window: the wall time stands.
    assert speed.scaled(0.0, 2.0) == pytest.approx(2.0)
    # Half speed throughout: the wall time halves.
    assert speed.scaled(3.0, 5.0) == pytest.approx(1.0)
    # A short window borrows its three nearest probes (1, 2 and 3).
    assert speed.factor(2.4, 2.5) == pytest.approx(3.0 / 4.0)
    # One preempted probe is capped at four reference times.
    assert speed.factor(6.5, 7.5) == pytest.approx(3.0 / 7.0)
    # The window widens by WINDOW_PAD_S on either side.
    monkeypatch.setattr(benchlib, "WINDOW_PAD_S", 1.0)
    assert speed.factor(2.0, 2.5) == pytest.approx(3.0 / 4.0)


def test_host_speed_samples_while_open():
    with benchlib.HostSpeed() as speed:
        deadline = time.monotonic() + 30
        while len(speed.probes) < 3 and time.monotonic() < deadline:
            time.sleep(benchlib.PROBE_EVERY_S)
    assert len(speed.probes) >= 3
    assert len(speed.probes) == len(speed.starts)
    assert speed.starts == sorted(speed.starts)
    assert speed._proc.returncode == 0


def test_split_tables_drops_bracket_lines():
    out = ("  [pipeline: prefetched 3 cold cell(s)]\n\nTable A\n a 1\n\n"
           "  [figA finished in 0.1s]\n\nTable B\n  note: x\n"
           "  [fig-b finished in 2.0s]\n\n  [engine: 3 simulated, 1 cache "
           "hits, 0 deduplicated]\n")
    tables = benchlib.split_tables(out)
    assert tables == {"figA": "Table A\n a 1", "fig-b": "Table B\n  note: x"}
    assert benchlib.engine_counts(out) == (3, 1)


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setattr(benchlib, "WORK", tmp_path / "work")
    args = argparse.Namespace(workload="cells_novnc", seed=1, seconds=1.0,
                              trace=0)
    return bench_run.Run(args)


def _cell(cell_id, digest, verifications=0):
    return {"id": cell_id, "digest": digest, "verifications": verifications}


def test_digest_mismatch_counts_as_failed(bench):
    golden = {"a": "d-a", "b": "d-b"}
    passes = [{"cells": [_cell("a", "d-a"), _cell("b", "WRONG")]}]
    bench_run.check_cells(bench, passes, golden)
    assert bench.attempted == 4 and bench.failed == 1
    assert "b digest" in bench.problems[0]


def test_non_default_seed_checks_passes_against_each_other(bench):
    passes = [{"cells": [_cell("a", "x")]}, {"cells": [_cell("a", "x")]},
              {"cells": [_cell("a", "y", verifications=2)]}]
    bench_run.check_cells(bench, passes, {})
    # The third pass both changed its digest and verified.
    assert bench.failed == 2 and bench.attempted == 6


def test_mismatch_makes_the_run_incorrect(bench, capsys):
    bench.setups = [{"wall_s": 1.0, "scaled_s": 1.0, "compiled": True,
                     "numpy": "x"}]
    bench.e2e.update(refs_per_s=1.0, cold_s=1.0, ops_per_s=1.0,
                     op_p50_s=1.0, op_tail_s=1.0, peak_rss_mb=1.0)
    bench.check(False, "forced mismatch")
    bench.check(True, "fine")
    metrics = bench_run.report(bench)
    assert metrics["ok_ratio"]["value"] == 0.5
    assert "MISMATCH: forced mismatch" in capsys.readouterr().out


def test_refuses_to_run_without_program_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(benchlib, "SRC", tmp_path / "missing")
    code = bench_run.main(["--workload", "sweep", "--seconds", "1"])
    assert code == 2
    assert not os.path.exists(tmp_path / "missing")
