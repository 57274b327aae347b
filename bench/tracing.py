"""In-memory span tracing around duet's public functions, from outside the package.

A Tracer swaps each traced function for a timing wrapper wherever the
function is bound: module attributes of every loaded ``duet.*`` module
(so ``pipeline``'s ``from .scprior import deconvolve`` is caught, as are
calls inside a module such as ``signature_loss`` -> ``nb_loglik``),
module-level dicts (``pipeline.STAGES``), and class attributes for
methods. ``uninstall`` puts every original back.

A span is ``[name, start_ns, end_ns, parent_index, op_id, counts]``; spans
stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (module, attribute path) of every traced function; its span is named
# "<module>.<attribute path>", e.g. "core.Mlp.forward"
TARGETS = [
    ("pipeline", "stage_synth"), ("pipeline", "stage_deconv"),
    ("pipeline", "stage_align"), ("pipeline", "stage_regress"),
    ("pipeline", "stage_fuse"), ("pipeline", "stage_predict"),
    ("pipeline", "stage_eval"),
    ("scprior", "fit_signatures"), ("scprior", "signature_loss"),
    ("scprior", "deconvolve"), ("scprior", "deconv_loss"),
    ("scprior", "nb_loglik"), ("scprior", "_nb_ddisp"),
    ("retrieval", "retrieve"), ("retrieval", "candidates"),
    ("retrieval", "rebuild_db"),
    ("regress", "train_regress"), ("regress", "_retrieved_targets"),
    ("tsvio", "read_matrix_tsv"), ("tsvio", "write_matrix_tsv"),
    ("tsvio", "update_manifest"),
    ("align", "train_align"), ("align", "infonce_loss"),
    ("align", "embed_images"), ("align", "embed_expressions"),
    ("core", "Mlp.forward"), ("core", "Mlp.backward"),
    ("core", "SgdState.step"),
    ("fuse", "train_fuse"), ("fuse", "fuse_predict_batch"),
    ("synth", "gen_sc"), ("synth", "gen_spots"),
    ("metrics", "metrics"), ("metrics", "variance_curve"),
]


def _count_elems(args, kwargs, result):
    return {"elems": int(getattr(result, "size", 1))}


def _count_flops(args, kwargs, result):
    n, d = args[0].h.shape  # one dot product per database row
    return {"flops": 2 * n * d}


def _count_gate(args, kwargs, result):
    considered, passed = result.mask_stats
    return {"gate_considered": considered, "gate_passed": passed,
            "fallback": int(passed == 0)}


def _count_file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}  # the TSV read or just written


COUNTERS = {
    "scprior.nb_loglik": _count_elems,
    "retrieval.candidates": _count_flops,
    "retrieval.retrieve": _count_gate,
    "tsvio.read_matrix_tsv": _count_file_bytes,
    "tsvio.write_matrix_tsv": _count_file_bytes,
}


class Tracer:
    """Collects spans while installed; ``op`` tags each span with its operation."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self.missing: list = []  # targets the source no longer has
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target; a removed one is listed in ``missing``, its metrics read 0."""
        modules = [m for key, m in sys.modules.items()
                   if key == "duet" or key.startswith("duet.")]
        for short, path in TARGETS:
            owner = sys.modules.get(f"duet.{short}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{short}.{path}")
                continue
            wrapper = self._wrap(f"{short}.{path}", original)
            if outer:  # a method: the class attribute is the only binding
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch_item(value, k, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_item(self, mapping, key, wrapper):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = wrapper

    def uninstall(self):
        while self._undo:
            restore, owner, key, original = self._undo.pop()
            restore(owner, key, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "op": op, "name": name,
                    "start_ns": t0, "end_ns": t1, "counts": counts or {},
                }) + "\n")


def totals_by_op(spans) -> dict:
    """{op: {span name: {calls, ns, self_ns, <counts>}}}; self excludes direct children."""
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, op, counts in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out: dict = {}
    for i, (name, t0, t1, parent, op, counts) in enumerate(spans):
        t = out.setdefault(op, {}).setdefault(
            name, {"calls": 0, "ns": 0, "self_ns": 0})
        t["calls"] += 1
        t["ns"] += t1 - t0
        t["self_ns"] += t1 - t0 - child_ns[i]
        for key, value in (counts or {}).items():
            t[key] = t.get(key, 0) + value
    return out
