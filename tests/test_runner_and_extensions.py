"""Tests for the experiment runner, ablations, and the node extension."""

from __future__ import annotations

import argparse
import subprocess
import sys

import pytest

from repro import envconfig
from repro.experiments import (
    ablation,
    energy,
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
    node_sensitivity,
    runner,
    scorecard,
)
from repro.experiments.runner import EXPERIMENTS, main
from repro.perf import engine
from repro.perf.pool import WARM_POOL


#: One off-default call per declaring experiment: its body, its
#: declaration and the arguments it takes beyond ``length``/``workloads``.
OFF_DEFAULT = [
    pytest.param(figure4.run_experiment, figure4.cells, {}, id="figure4"),
    pytest.param(figure5.run_experiment, figure5.cells, {}, id="figure5"),
    pytest.param(figure11.run_experiment, figure11.cells, {},
                 id="figure11"),
    pytest.param(figure12.run_experiment, figure12.cells,
                 {"levels": (6, 0)}, id="figure12"),
    pytest.param(figure13.run_experiment, figure13.cells,
                 {"levels": (4, 0)}, id="figure13"),
    pytest.param(figure14.run_experiment, figure14.cells,
                 {"points": (0.5, 0.0)}, id="figure14"),
    pytest.param(figure15.run_experiment, figure15.cells,
                 {"sizes": (16,)}, id="figure15"),
    pytest.param(figure16.run_experiment, figure16.cells,
                 {"ratios": ((3, 4),)}, id="figure16"),
    pytest.param(figure17.run_experiment, figure17.cells, {},
                 id="figure17"),
    pytest.param(figure18.run_experiment, figure18.cells, {},
                 id="figure18"),
    pytest.param(figure19.run_experiment, figure19.cells, {},
                 id="figure19"),
    pytest.param(ablation.run_ecp_density_ablation,
                 ablation.ecp_density_cells, {},
                 id="ablation-ecp-density"),
    pytest.param(ablation.run_read_priority_ablation,
                 ablation.read_priority_cells, {},
                 id="ablation-read-priority"),
    pytest.param(ablation.run_din_ablation, ablation.din_cells, {},
                 id="ablation-din"),
    pytest.param(ablation.run_weak_cell_ablation,
                 ablation.weak_cell_cells, {"fractions": (0.5,)},
                 id="ablation-weak-cells"),
    pytest.param(node_sensitivity.run_experiment,
                 node_sensitivity.cells, {"nodes": (16.0,)},
                 id="node-sensitivity"),
    pytest.param(energy.run_experiment, energy.cells, {}, id="energy"),
    pytest.param(scorecard.run_experiment, scorecard.cells, {},
                 id="scorecard"),
]


class TestRunnerRegistry:
    def test_every_figure_registered(self):
        for name in (
            "table1",
            "capacity",
            "overhead",
            "figure4",
            "figure5",
            "figure11",
            "figure12",
            "figure13",
            "figure14",
            "figure15",
            "figure16",
            "figure17",
            "figure18",
            "figure19",
        ):
            assert name in EXPERIMENTS

    def test_extensions_registered(self):
        assert "ablation-ecp-density" in EXPERIMENTS
        assert "node-sensitivity" in EXPERIMENTS

    def test_unknown_name_rejected(self, capsys):
        assert main(["nope"]) == 2

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_prints_usage(self, flag, capsys):
        assert main(["figure11", flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: python -m repro.experiments.runner")
        assert "--kernel-backend" in out and "figure11" in out
        assert "unknown experiments" not in out

    def test_help_as_a_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "--help"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage:")

    def test_analytic_subset_runs(self, capsys):
        assert main(["table1", "overhead"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "overhead" in out


class TestDeclaredSweep:
    def test_collect_sweep_specs_runs_no_body(self, monkeypatch):
        def boom():
            raise KeyboardInterrupt

        for name in list(EXPERIMENTS):
            monkeypatch.setitem(EXPERIMENTS, name, boom)
        monkeypatch.setitem(EXPERIMENTS, "boom", boom)
        specs = runner.collect_sweep_specs(list(EXPERIMENTS))
        assert len(specs) == sum(len(cells()) for cells in runner.CELLS.values())
        analytic = ["table1", "capacity", "overhead", "encoders", "boom"]
        assert runner.collect_sweep_specs(analytic) == []

    @pytest.mark.parametrize("body, declare, kwargs", OFF_DEFAULT)
    def test_body_submits_its_declaration_off_default(
        self, body, declare, kwargs, monkeypatch
    ):
        """Declared == submitted also away from the default arguments."""
        monkeypatch.setenv("REPRO_CORES", "2")
        submitted = []
        run_cells = engine.CellRunner.run_cells

        def recording_run_cells(self, specs):
            submitted.extend(specs)
            return run_cells(self, specs)

        monkeypatch.setattr(engine.CellRunner, "run_cells", recording_run_cells)
        args = dict(length=40, workloads=("stream", "mcf"), **kwargs)
        body(**args)
        assert submitted == list(declare(**args).values())

    def test_off_default_cases_cover_every_declaration(self):
        assert sorted(case.id for case in OFF_DEFAULT) == sorted(runner.CELLS)

    @pytest.mark.parametrize("plan", ["serial", "batch"])
    def test_forced_plan_is_honoured_not_prefetched(
        self, plan, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_TRACE_LEN", "40")
        monkeypatch.setenv("REPRO_CORES", "2")
        argv = ["--jobs", "2", "--plan", plan, "figure4", "figure5"]
        assert main(argv) == 0
        assert "pipeline" not in capsys.readouterr().out
        stats = engine.STATS
        assert stats.prefetched == 0 and stats.inflight_hits == 0
        # A forced plan bypasses the adaptive planner entirely ...
        assert stats.planner_serial_picks == stats.planner_pool_picks == 0
        assert stats.planner_batch_picks == 0
        # ... and every cold cell ran in the forced mode.
        assert stats.simulated == 27
        if plan == "serial":
            assert stats.batched_cells == stats.pool_reuses == 0
            assert not WARM_POOL.alive
        else:
            assert stats.batched_cells == stats.simulated

    def test_plan_choices_pin_the_modes(self):
        from repro import cli

        choices = []

        def walk(parser):
            for action in parser._actions:
                if "--plan" in action.option_strings:
                    choices.append(tuple(action.choices))
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        walk(sub)

        walk(cli._build_parser())
        walk(runner.build_parser())
        assert choices == [envconfig.PLAN_MODES] * 2


class TestAblationsSmall:
    def test_ecp_density(self):
        result = ablation.run_ecp_density_ablation(
            length=200, workloads=("mcf",)
        )
        assert result.metrics["low_density"] >= result.metrics["dense"] * 0.98

    def test_read_priority(self):
        result = ablation.run_read_priority_ablation(
            length=200, workloads=("mcf",)
        )
        assert result.metrics["WP+LazyC"] > 1.0

    def test_din_ablation(self):
        result = ablation.run_din_ablation(length=200, workloads=("mcf",))
        assert result.metrics["without_din"] > result.metrics["with_din"]

    def test_weak_cell_ablation_preserves_rate(self):
        result = ablation.run_weak_cell_ablation(
            length=250, workloads=("mcf",), fractions=(0.25, 1.0)
        )
        # Mean error rate preserved within sampling noise.
        assert result.metrics["f0.25"] == pytest.approx(
            result.metrics["f1"], rel=0.25
        )

    def test_energy_experiment_shape(self):
        from repro.experiments import energy

        result = energy.run_experiment(length=200, workloads=("mcf",))
        assert result.metrics["DIN"] == 0.0
        assert result.metrics["baseline"] >= result.metrics["LazyC"] > 0.0

    def test_encoders_experiment_shape(self):
        from repro.experiments import encoders

        result = encoders.run_experiment(length=150, workloads=("mcf",))
        assert result.metrics["fnw_cells"] <= result.metrics["raw_cells"]
        assert result.metrics["din_vulnerable"] < result.metrics["raw_vulnerable"]


class TestNodeSensitivitySmall:
    def test_rates_scale_with_node(self):
        result = node_sensitivity.run_experiment(
            length=200, workloads=("mcf",), nodes=(30.0, 20.0, 16.0)
        )
        m = result.metrics
        assert m["p_bl_16"] > m["p_bl_20"] > m["p_bl_30"] > 0.0
        assert m["p_bl_20"] == pytest.approx(0.115, abs=1e-6)


class TestExampleScripts:
    @pytest.mark.parametrize(
        "args",
        [
            ["examples/device_scaling_study.py"],
            ["examples/quickstart.py", "wrf", "120"],
            ["examples/read_priority_study.py", "xalan", "120"],
            ["examples/priority_isolation.py", "wrf", "100"],
        ],
    )
    def test_example_runs(self, args):
        proc = subprocess.run(
            [sys.executable] + args,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()
