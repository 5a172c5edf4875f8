"""Tests for the command-line interface."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.cli import main


class TestListCommands:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "RPKI" in out

    def test_list_schemes(self, capsys):
        assert main(["list-schemes"]) == 0
        out = capsys.readouterr().out
        assert "DIN" in out and "LazyC+PreRead" in out and "WP+LazyC" in out


class TestSimulate:
    def test_simulate_runs(self, capsys):
        rc = main(
            ["simulate", "wrf", "--scheme", "LazyC", "--length", "100",
             "--cores", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "CPI" in out and "corrections/write" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "not-a-workload"])

    def test_unknown_scheme_errors(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["simulate", "wrf", "--scheme", "bogus", "--length", "10",
                  "--cores", "1"])


class TestCompare:
    def test_compare_runs(self, capsys):
        rc = main(["compare", "xalan", "--length", "100", "--cores", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "(1:2)" in out


class TestTraceCommands:
    def test_gen_and_analyze_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        assert main(["gen-trace", "wrf", str(out), "--length", "500"]) == 0
        assert out.exists()
        assert main(["analyze", str(out)]) == 0
        text = capsys.readouterr().out
        assert "RPKI" in text and "footprint" in text

    def test_gen_text_format(self, tmp_path, capsys):
        out = tmp_path / "t.trace"
        assert main(["gen-trace", "stream", str(out), "--length", "100"]) == 0
        content = out.read_text()
        assert content.splitlines()[0].startswith("#")


class TestExperiment:
    def test_experiment_dispatch(self, capsys):
        rc = main(["experiment", "table1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_unknown_experiment(self, capsys):
        rc = main(["experiment", "figure99"])
        assert rc == 2

    def test_parser_imports_no_experiment_module(self):
        """Only `repro experiment` pays for importing the experiments."""
        code = (
            "import sys; from repro import cli; cli._build_parser(); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.experiments.') "
            "and m != 'repro.experiments.options'))"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_experiment_takes_the_runner_options(self, tmp_path, monkeypatch,
                                                 capsys):
        """`repro experiment` is the runner: no names runs every
        registered experiment, and `--json DIR` exports each table."""
        from repro.experiments import runner

        monkeypatch.setattr(runner, "EXPERIMENTS", {
            name: runner.EXPERIMENTS[name] for name in ("table1", "overhead")
        })
        out_dir = tmp_path / "tables"
        assert main(["experiment", "--json", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "table1 finished" in out
        assert "overhead finished" in out
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "overhead.json", "table1.json",
        ]
