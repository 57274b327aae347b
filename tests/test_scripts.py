"""Smoke runs of scripts/run_demo.py and scripts/run_ablations.py on the TINY
config: each main() exits 0 and prints its table."""

import importlib.util
import json
from pathlib import Path

import pytest

from test_cli import TINY

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
BRANCHES = ("duet", "ret", "reg")


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def tiny_config(tmp_path):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(TINY))
    return p


def test_run_demo_prints_the_run_summary(tmp_path, tiny_config, capsys):
    out = tmp_path / "demo"
    argv = ["--config", str(tiny_config), "--seed", "0", "--out", str(out)]
    assert _script("run_demo").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    report = json.loads((out / "metrics.json").read_text())
    assert lines[0] == f"workspace: {out}"
    assert lines[1].split() == ["mse", "mae", "pcc_mean"]
    for line, branch in zip(lines[2:5], BRANCHES):
        assert line.split() == [branch] + [f"{report[branch][k]:.4f}"
                                           for k in ("mse", "mae", "pcc_mean")]
    assert lines[5].startswith("alpha: mean ")
    assert [line.split(":")[0] for line in lines[6:]] == [
        f"variance-curve MAD ({branch})" for branch in BRANCHES]


def test_run_ablations_prints_one_row_per_seed_and_the_mean(tiny_config, capsys):
    assert _script("run_ablations").main(["--config", str(tiny_config),
                                          "--seeds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["held-out duet MSE per variant",
                         f"{'seed':>6s}{'full':>16s}{'no-gating':>16s}"
                         f"{'no-consistency':>16s}"]
    seed_row, mean_row = lines[2].split(), lines[3].split()
    assert len(lines) == 4 and seed_row[0] == "0" and mean_row[0] == "mean"
    assert len(seed_row) == 4 and mean_row[1:] == seed_row[1:]  # one seed
    assert all(float(v) > 0 for v in seed_row[1:])
