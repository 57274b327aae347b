"""Command-line entry point.

Exit codes: 0 success, 1 bad input (files, flags, config), 2 numeric failure
during optimization. The run seed resolves as --seed, then the DUET_SEED
environment variable, then the config's "seed" key, then 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .errors import InputError, NumericError
from .metrics import metrics
from .pipeline import STAGES, PipelineConfig, run_pipeline
from .tsvio import read_matrix_tsv


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract wants usage + exit 1
    def error(self, message):
        raise InputError(f"{message}\n{self.format_usage().rstrip()}")


@functools.cache  # parse_args fills a new Namespace on every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="duet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_run_flags(p):
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config (defaults used when omitted)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=Path, required=True,
                       help="workspace directory")

    for name in (n for n in STAGES if n != "eval"):  # `eval` scores two files
        add_run_flags(sub.add_parser(name, help=f"run the {name} stage"))
    add_run_flags(sub.add_parser("pipeline", help="run every stage in order"))

    ev = sub.add_parser("eval", help="score a prediction TSV against a truth TSV")
    ev.add_argument("--pred", type=Path, required=True)
    ev.add_argument("--truth", type=Path, required=True)
    return parser


def _resolve_seed(args, cfg: PipelineConfig) -> int:
    for source, raw in (("--seed", args.seed), ("DUET_SEED", os.environ.get("DUET_SEED"))):
        if raw is not None:
            if not (str(raw).isdecimal() and int(raw) < 2**64):
                raise InputError(f"{source} must be an integer >= 0 and < 2**64, "
                                 f"got {raw!r}")
            return int(raw)
    return cfg.seed


def _run(argv) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "eval":
        pred, pred_ids, pred_cols = read_matrix_tsv(args.pred)
        truth, truth_ids, truth_cols = read_matrix_tsv(args.truth)
        if (pred_ids, pred_cols) != (truth_ids, truth_cols):
            raise InputError(f"--pred {args.pred} and --truth {args.truth}: row ids "
                             "or column ids disagree")
        report = metrics(pred, truth)
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0

    cfg = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    seed = _resolve_seed(args, cfg)
    if args.command == "pipeline":
        report = run_pipeline(cfg, seed, args.out)
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        STAGES[args.command](cfg, seed, args.out)
    return 0


def main(argv=None) -> int:
    try:
        return _run(argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
