#!/usr/bin/env python3
"""duet benchmark: closed-loop, in-process operations on one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

One caller in one process runs operations back to back, each a call into
``duet.cli.main`` that starts only after the previous one returned, while
another operation as long as the last still fits in --seconds (at least one
operation; a traced run makes one untraced and at least two traced ones).
Import, config and workspace preparation happen before the loop and are
reported as setup_s: importing duet in a fresh interpreter and the
preparation, three times each, of which the medians count. A predict
workload trains three workspaces from seeds derived from --seed (the median
training counts towards setup_s) and its operations take them in turn; a
traced run uses only the first.

Every operation is checked: main() returns 0, the prediction scores are
finite and equal, and every workspace file except manifest.json hashes the
same, as in the run's first operation (for predict-2k: as in the workspace
when set-up trained it). With --trace 0 the last stdout line carries the
end-to-end metrics named in BENCHMARK.json, where wall_ref and cpu_ref are
each operation's wall and CPU time divided by a fixed reference computation
timed just before and after it (see reference.py), and the raw wall_s and
cpu_s are printed above it; with --trace 1 it carries the
per-layer metrics, derived from spans recorded around duet's public
functions (see tracing.py), and the spans are written to
.bench_out/trace_<workload>.jsonl.

The source is imported from src/ next to this directory; the run writes only
under .bench_run/ and .bench_out/ and exits 2 if src/duet is missing.
"""

from __future__ import annotations

import os

# one BLAS thread (nproc is 2 on the reference machine): fixed before numpy
# is first imported, so runs compare and cpu_s equals single-core work
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PREPARE_REPEATS = 3
TRAIN_DRAWS = 3
MIN_TRACED_OPS = 2
# the reference computation (see reference.py) runs for REF_FIRST_S before
# the first operation and for REF_SHARE of each operation's time after it
REF_FIRST_S = 1.0
REF_SHARE = 0.05
TRAIN_TIMEOUT_S = 170


class SetupError(Exception):
    """The benchmark cannot run here: missing source, failed set-up."""


def _child_env() -> dict:
    """This process's environment (so the BLAS pin) with src/ importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _import_s() -> float:
    """Seconds a fresh interpreter takes to import duet.cli."""
    probe = ("import time; t0 = time.perf_counter(); import duet.cli; "
             "print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=TRAIN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"importing duet exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return float(proc.stdout)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink every workload to a tiny config (self-test)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "duet").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "src_duet_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------


def _workspace_hashes(ws: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(ws.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def _hash_diff(expected: dict, got: dict) -> str | None:
    for name in sorted(set(expected) | set(got)):
        if expected.get(name) != got.get(name):
            return f"{name} differs from the reference workspace"
    return None


def _scores(report: dict) -> tuple:
    pcc, mse = report["pcc_mean"], report["mse"]
    if not (isinstance(pcc, float) and isinstance(mse, float)
            and math.isfinite(pcc) and math.isfinite(mse)):
        raise ValueError(f"non-finite scores pcc_mean={pcc} mse={mse}")
    return pcc, mse


class Bench:
    """One workload's set-up, operations and checks, inside a scratch dir."""

    def __init__(self, name: str, seed: int, smoke: bool, work: Path):
        self.seed = seed
        self.spec = workloads.WORKLOADS[name]
        self.config = workloads.SMOKE_CONFIG if smoke else self.spec["config"]
        self.work = work
        self.cfg_path = work / "config.json"
        self.trained = []  # predict workloads: (seed, workspace) per draw
        # reference key -> (workspace hashes, scores) every operation on it
        # must match: "pipeline" for pipeline runs, the draw for predict runs
        self.references = {}
        self.main = None

    # --- set-up --------------------------------------------------------

    def import_duet(self) -> None:
        if not (SRC / "duet" / "cli.py").is_file():
            raise SetupError(f"no duet source under {SRC}")
        sys.path.insert(0, str(SRC))
        import duet.cli
        if not Path(duet.cli.__file__).resolve().is_relative_to(SRC.resolve()):
            raise SetupError(f"duet imported from {duet.cli.__file__}, not {SRC}")
        self.main = duet.cli.main

    def prepare(self, k: int) -> float:
        """Config, workspace dir and one tiny warm-up pipeline run."""
        t0 = time.perf_counter()
        self.work.mkdir(parents=True, exist_ok=True)
        self.cfg_path.write_text(json.dumps(self.config), encoding="utf-8")
        warm_cfg = self.work / "warmup.json"
        warm_cfg.write_text(json.dumps(workloads.SMOKE_CONFIG), encoding="utf-8")
        warm_ws = self.work / f"warmup{k}"
        rc, _ = self._cli(["pipeline", "--config", str(warm_cfg),
                           "--seed", str(self.seed), "--out", str(warm_ws)])
        shutil.rmtree(warm_ws, ignore_errors=True)
        if rc != 0:
            raise SetupError(f"warm-up pipeline exited {rc}")
        return time.perf_counter() - t0

    def train(self, k: int) -> float:
        """predict workloads: train draw k's workspace, in a child process.

        Draw k is seeded ``seed * TRAIN_DRAWS + k``, so a run's operations
        cover TRAIN_DRAWS data sets and its median depends less on one of
        them. A child keeps the training's memory and CPU out of the
        benchmark process, whose peak_rss_mb and cpu_s describe the
        operations.
        """
        seed, ws = self.seed * TRAIN_DRAWS + k, self.work / f"trained{k}"
        t0 = time.perf_counter()
        cmd = [sys.executable, "-m", "duet.cli", "pipeline",
               "--config", str(self.cfg_path), "--seed", str(seed),
               "--out", str(ws)]
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=TRAIN_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"training exited {proc.returncode}: {proc.stderr.strip()}")
        elapsed = time.perf_counter() - t0
        report = json.loads((ws / "metrics.json").read_text(encoding="utf-8"))
        self.references[k] = (_workspace_hashes(ws), _scores(report["duet"]))
        self.trained.append((seed, ws))
        return elapsed

    # --- operations ----------------------------------------------------

    def _cli(self, argv) -> tuple:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.main(argv)
        return rc, out.getvalue()

    def op(self, i: int) -> dict:
        """Run and check one operation; returns wall/cpu seconds and verdict."""
        if self.spec["kind"] == "pipeline":
            run, key = self._pipeline_op, "pipeline"
            seed, ws = self.seed, self.work / f"op{i}"
        else:  # the trained draws in turn
            run, key = self._predict_op, i % len(self.trained)
            seed, ws = self.trained[key]
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            rc, report = run(seed, ws)
        except Exception:  # an escaped error fails this operation, not the run
            traceback.print_exc()
            rc, report = -1, ""
        wall = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
        try:
            error, scores = self._check(rc, report, ws, key)
        finally:
            if self.spec["kind"] == "pipeline":
                shutil.rmtree(ws, ignore_errors=True)
        return {"wall_s": wall, "cpu_s": cpu, "error": error, "scores": scores}

    def _pipeline_op(self, seed: int, ws: Path) -> tuple:
        return self._cli(["pipeline", "--config", str(self.cfg_path),
                          "--seed", str(seed), "--out", str(ws)])

    def _predict_op(self, seed: int, ws: Path) -> tuple:
        rc, _ = self._cli(["predict", "--config", str(self.cfg_path),
                           "--seed", str(seed), "--out", str(ws)])
        if rc != 0:
            return rc, ""
        return self._cli(["eval", "--pred", str(ws / "pred_duet.tsv"),
                          "--truth", str(ws / "y_test.tsv")])

    def _check(self, rc: int, out: str, ws: Path, key) -> tuple:
        """(error or None, (pcc, mse) or None) for one finished operation."""
        if rc != 0:
            return f"duet exited {rc}", None
        try:
            report = json.loads(out)
            if self.spec["kind"] == "pipeline":
                on_disk = json.loads((ws / "metrics.json").read_text(encoding="utf-8"))
                if on_disk != report:
                    return "metrics.json disagrees with the printed report", None
                report = report["duet"]
            scores = _scores(report)
        except (OSError, ValueError, KeyError) as exc:
            return f"bad metrics: {exc}", None
        hashes = _workspace_hashes(ws)
        ref_hashes, ref_scores = self.references.setdefault(key, (hashes, scores))
        if scores != ref_scores:
            return f"scores {scores} differ from the reference {ref_scores}", scores
        return _hash_diff(ref_hashes, hashes), scores


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def _loop(bench: Bench, seconds: float, tracer) -> tuple:
    """Closed loop of operations; returns (results, indices of traced ones)."""
    ops, traced = [], []
    ref = reference.Reference()
    t_start = time.perf_counter()
    ref_before = ref.measure(REF_FIRST_S)
    while True:
        i = len(ops)
        if tracer is not None and i == 1:  # op 0 is the untraced baseline
            tracer.install()
        if tracer is not None:
            tracer.op = i
            if i >= 1:
                traced.append(i)
        o = bench.op(i)
        ref_after = ref.measure(REF_SHARE * o["wall_s"])
        o["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        ops.append(o)
        print(f"op {i} wall_s={o['wall_s']:.4f} cpu_s={o['cpu_s']:.4f} "
              f"ref_s={o['ref_s']:.6f} "
              f"traced={int(i in traced)} "
              + ("ok" if o["error"] is None else f"FAILED: {o['error']}"),
              flush=True)
        # stop once another operation as long as this one would end past
        # the window, so a run lasts about --seconds, never twice that
        elapsed = time.perf_counter() - t_start
        enough = tracer is None or len(traced) >= MIN_TRACED_OPS
        if enough and elapsed + o["wall_s"] > seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    return ops, traced


def _end_to_end(ops, setup_s: float, peak_rss_mb: float) -> tuple:
    """(values, notes) of the untraced run."""
    failed = sum(o["error"] is not None for o in ops)
    scores = [o["scores"] for o in ops if o["error"] is None] or [(math.nan, math.nan)]
    values = {
        "wall_ref": statistics.median(o["wall_s"] / o["ref_s"] for o in ops),
        "cpu_ref": statistics.median(o["cpu_s"] / o["ref_s"] for o in ops),
        "wall_s": statistics.median(o["wall_s"] for o in ops),
        "cpu_s": statistics.median(o["cpu_s"] for o in ops),
        "ref_s": statistics.median(o["ref_s"] for o in ops),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "pcc_duet": statistics.median(s[0] for s in scores),
        "mse_duet": statistics.median(s[1] for s in scores),
        "error_rate": failed / len(ops),
    }
    notes = {"wall_ref": f"median of {len(ops)} ops of wall_s / ref_s",
             "cpu_ref": f"median of {len(ops)} ops of cpu_s / ref_s",
             "wall_s": f"median of {len(ops)} ops",
             "cpu_s": f"median of {len(ops)} ops, user+sys",
             "ref_s": "median reference pass timed around each op",
             "error_rate": f"{failed} of {len(ops)} ops failed"}
    return values, notes


def _per_layer(ops, traced, tracer, workload: str) -> tuple:
    """(values, notes, count mismatches) of the traced run; writes the spans."""
    by_op = tracing.totals_by_op(tracer.spans)
    per_op = [by_op.get(i, {}) for i in traced]
    values = workloads.layer_metrics(
        per_op, [ops[i]["wall_s"] for i in traced],
        [o["wall_s"] for i, o in enumerate(ops) if i not in traced])
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace_{workload}.jsonl"
    tracer.write_jsonl(trace_path)
    print(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    for name in tracer.missing:
        print(f"NOTE {name} is not in the source, so its metrics read 0")
    for layer, moves in sorted(workloads.LAYER_MOVES.items()):
        print(f"layer {layer}: moves {moves}")
    units = workloads.layer_metric_units()
    trace_wall = values["trace.wall_s"]
    notes = {name: f"{100 * v / trace_wall:.1f}% of trace.wall_s"
             for name, v in values.items()
             if units[name] == "s" and not name.startswith("trace.") and trace_wall}
    return values, notes, workloads.count_mismatches(per_op)


def run(args) -> int:
    spec = _load_spec()
    work = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, args.smoke, work)
    try:
        bench.import_duet()
        print(f"# duet benchmark workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)}")
        print(f"config {json.dumps(bench.config, sort_keys=True)} "
              f"layers {','.join(bench.spec['layers'])}")
        env = environment()
        print("env " + " ".join(f"{k}={v!r}" if isinstance(v, str) and " " in v
                                else f"{k}={v}" for k, v in env.items()))
        prepare = [bench.prepare(k) for k in range(PREPARE_REPEATS)]
        train = ([bench.train(k) for k in range(TRAIN_DRAWS)]
                 if bench.spec["kind"] == "predict" else [0.0])
        if args.trace:  # exact counts are compared across ops on one draw
            bench.trained = bench.trained[:1]
        imports = [_import_s() for _ in range(PREPARE_REPEATS)]
        setup_s = (statistics.median(imports) + statistics.median(prepare)
                   + statistics.median(train))
        print("setup " + " ".join(f"{name}=" + ",".join(f"{t:.4f}" for t in ts)
                                  for name, ts in (("import_s", imports),
                                                   ("prepare_s", prepare),
                                                   ("train_s", train))))
        tracer = tracing.Tracer() if args.trace else None
        ops, traced = _loop(bench, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    failed = sum(o["error"] is not None for o in ops)
    correct = failed == 0
    if tracer is None:
        values, notes = _end_to_end(ops, setup_s, peak_rss_mb)
        declared = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        units.update(workloads.UNGATED_END_TO_END)
    else:
        values, notes, mismatches = _per_layer(ops, traced, tracer, args.workload)
        for m in mismatches:
            print(f"FLAG {m}")
        correct = correct and not mismatches
        declared = spec["per_layer"]
        units = workloads.layer_metric_units()

    for name, v in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} {v!r} {units[name]}{note}")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SetupError(f"BENCHMARK.json names metrics this run lacks: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
