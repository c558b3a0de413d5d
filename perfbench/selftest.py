"""The benchmark's own tests: contract checks and smoke-length runs.

    python3 -m pytest -q perfbench/selftest.py

Not collected by the repository's tier-1 suite (the file name does not
match ``test_*.py``); each smoke run starts the real workload for two
seconds, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT,
         seconds: float = 2.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for m in BENCHMARK["end_to_end"]] + \
        [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(NAME.match(n) for n in names)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in BENCHMARK["end_to_end"])
    metric_names = [m["name"] for m in BENCHMARK["end_to_end"]] + \
        [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(set(metric_names)) == len(metric_names)


def test_spec_covers_every_workload_and_layer_metric():
    assert sorted(SPEC["workloads"]) == sorted(WORKLOADS)
    assert sorted(SPEC["per_layer"]) == \
        sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert sorted(SPEC["end_to_end"]) == sorted(
        [m["name"] for m in BENCHMARK["end_to_end"]] + ["printed_only"])
    assert SPEC["held_out_seed"] not in SPEC["tuning_seeds"]
    for w in WORKLOADS:
        assert SPEC["workloads"][w]["tail_percentile"] in \
            (50, 75, 90, 99, 99.9)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
