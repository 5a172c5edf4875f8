"""The full paper sweep against committed golden table digests.

``perfbench/golden.json`` records the sha256 of every experiment's
rendered table for a small fixed sweep (``REPRO_TRACE_LEN=40``,
``REPRO_CORES=8``) and the number of cells it simulates cold.  Running
that sweep here turns "byte-identical" from a path-versus-path claim
into an absolute one: whatever kernel backend, planner mode or code
path produced the tables, they must hash to the committed digests.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from repro.experiments import runner

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"

_FINISHED = re.compile(r"^  \[(?P<name>[\w-]+) finished in [\d.]+s\]$")
_SIMULATED = re.compile(r"\[engine: (\d+) simulated")


def split_tables(stdout: str) -> dict:
    """Per-experiment tables: the lines before each ``[<name> finished
    in X.Xs]`` marker, with bracketed engine/timing lines dropped."""
    tables = {}
    chunk = []
    for line in stdout.splitlines():
        match = _FINISHED.match(line)
        if match:
            tables[match.group("name")] = "\n".join(chunk).strip("\n")
            chunk = []
        elif not line.startswith("  ["):
            chunk.append(line)
    return tables


def test_sweep_tables_match_golden_digests(monkeypatch, capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["sweep"]
    monkeypatch.setenv("REPRO_TRACE_LEN", str(golden["trace_len"]))
    monkeypatch.setenv("REPRO_CORES", "8")
    assert runner.main(["--jobs", "1"]) == 0
    stdout = capsys.readouterr().out

    tables = split_tables(stdout)
    digests = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in tables.items()
    }
    assert len(golden["tables"]) == 22
    assert digests == golden["tables"]
    match = _SIMULATED.search(stdout)
    assert match is not None, "runner printed no engine summary"
    assert int(match.group(1)) == golden["simulated"] == 344
