"""Smoke test of the benchmark itself: every workload once at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Checks that each run ends with the result line the benchmark promises, that
every metric named in BENCHMARK.json is in it with its declared unit, and
that every metric the run reports, including the per-layer ones that only
the human-readable lines carry, is printed with a unit.
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
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _printed_metrics(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            out[name] = (float(value), unit)
    return out


def test_spec_names_the_defined_workloads():
    # pipeline-default is defined but not gated (see workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == ["pipeline-2k", "predict-2k"]
    assert set(workloads.WORKLOADS) == {"pipeline-default", "pipeline-2k",
                                        "predict-2k"}
    layer_units = workloads.layer_metric_units()
    for m in SPEC["per_layer"]:
        assert layer_units[m["name"]] == m["unit"], m["name"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == (3 if trace else 1)

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))

    printed = _printed_metrics(proc.stdout)
    if trace:
        expected = workloads.layer_metric_units()
    else:
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        expected.update(workloads.UNGATED_END_TO_END)
        assert printed["error_rate"][0] == 0.0
    assert {name: unit for name, (_, unit) in printed.items()} == expected


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "pipeline-default", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
