"""Toy-scale self-check of the benchmark; it asserts no timing.

    python3 -m pytest perfbench/test_selfcheck.py -q

Every workload runs one plain and one traced round at ``--scale tiny``:
every correctness check must pass, the last stdout line and the run record
must have the declared form, and the failed share must be the one the
known fault gives. Without the package sources the benchmark must refuse
to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# operations per round, and how many of them fail on the known fault
OPS = {"retrieval": (5, 0), "tuning": (2, 0), "selection": (4, 1)}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_form():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(OPS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(OPS))
def test_workload_at_toy_scale(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--scale", "tiny")  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr

    per_round, failing = OPS[workload]
    rounds = 2 if trace else 1  # a traced run pairs a plain and a traced round
    assert result["attempted"] == per_round * rounds
    assert result["failed"] == failing * rounds

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))

    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed3-trace{trace}.json").read_text())
    for key in ("git_sha", "python", "numpy", "cpu_count", "scale", "setup_times_s", "rounds"):
        assert key in record
    if trace:
        labels = [c[0] for c in record["rounds"][0]["commands"]]
        assert sorted(record["spans"]) == sorted(labels)
        for label, spans in record["spans"].items():
            name, start, end, parent, _ = spans[0]
            assert (name, parent) == (f"cli.{label}", -1) and end >= start


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "retrieval", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
