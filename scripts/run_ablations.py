#!/usr/bin/env python3
"""Seeded ablation sweep over the two design choices the fusion relies on.

For each seed the pipeline runs three times on the same config: unchanged,
with composition gating disabled (tau_c=1, tau_p=-1 lets every candidate
through), and with the consistency anneal turned off (lambda0=0). Held-out
MSE per variant is printed as one row per seed plus a mean row.
"""

import argparse
import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np

from duet.errors import InputError, NumericError
from duet.pipeline import PipelineConfig, run_pipeline


def variants(cfg: PipelineConfig):
    no_gate = dataclasses.replace(
        cfg, retrieval=dataclasses.replace(cfg.retrieval, tau_c=1.0, tau_p=-1.0))
    no_anneal = dataclasses.replace(
        cfg, anneal=dataclasses.replace(cfg.anneal, lambda0=0.0))
    return [("full", cfg), ("no-gating", no_gate), ("no-consistency", no_anneal)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None,
                    help="pipeline config JSON (defaults to built-in values)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--branch", default="duet", choices=["duet", "ret", "reg"],
                    help="which prediction's held-out MSE to tabulate")
    args = ap.parse_args(argv)

    base = (PipelineConfig.from_json(args.config) if args.config
            else PipelineConfig())
    named = variants(base)

    header = f"{'seed':>6s}" + "".join(f"{name:>16s}" for name, _ in named)
    print(f"held-out {args.branch} MSE per variant")
    print(header)
    table = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            row = []
            for name, cfg in named:
                ws = Path(tmp) / f"{name}-{seed}"
                report = run_pipeline(cfg, seed, ws)
                row.append(report[args.branch]["mse"])
            table.append(row)
            print(f"{seed:>6d}" + "".join(f"{v:>16.4f}" for v in row))
    means = np.asarray(table).mean(axis=0)
    print(f"{'mean':>6s}" + "".join(f"{v:>16.4f}" for v in means))
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
