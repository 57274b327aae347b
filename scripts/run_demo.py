#!/usr/bin/env python3
"""Run the full synthetic pipeline once and summarize what it produced.

Writes every stage artifact into the workspace directory, then prints the
held-out metrics for the fused output and both branches, the adapter's mixing
weights, and the variance-curve fidelity per branch.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from duet.errors import InputError, NumericError
from duet.pipeline import PipelineConfig, run_pipeline
from duet.tsvio import read_matrix_tsv


def curve_mad(ws: Path, branch: str) -> float:
    m, _, _ = read_matrix_tsv(ws / f"variance_curve_{branch}.tsv")
    return float(np.mean(np.abs(m[:, 1] - m[:, 0])))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/demo.json")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="runs/demo")
    args = ap.parse_args(argv)

    cfg = PipelineConfig.from_json(args.config)
    ws = Path(args.out)
    report = run_pipeline(cfg, args.seed, ws)

    print(f"workspace: {ws}")
    print(f"{'':10s}{'mse':>10s}{'mae':>10s}{'pcc_mean':>10s}")
    for branch in ("duet", "ret", "reg"):
        r = report[branch]
        pcc = float("nan") if r["pcc_mean"] is None else r["pcc_mean"]  # no gene has one
        print(f"{branch:10s}{r['mse']:10.4f}{r['mae']:10.4f}{pcc:10.4f}")

    alphas, _, _ = read_matrix_tsv(ws / "alphas.tsv")
    print(f"alpha: mean {alphas.mean():.3f}, min {alphas.min():.3f}, "
          f"max {alphas.max():.3f}")
    for branch in ("duet", "ret", "reg"):
        print(f"variance-curve MAD ({branch}): {curve_mad(ws, branch):.4f}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        sys.exit(2)
