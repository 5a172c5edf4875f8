"""Tests for the experiment runner, ablations, and the node extension."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.experiments import ablation, node_sensitivity
from repro.experiments.runner import EXPERIMENTS, main


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
