"""Memory branch: gated k-nearest-neighbor retrieval over aligned embeddings.

A query spot embedding pulls the n_candidates most similar database entries,
the cell-aware gate drops candidates whose estimated cell count or type
composition disagrees with the query, survivors are re-ranked by a blend of
embedding and composition similarity, and the top_k survivors vote with
softmax weights to produce the retrieved expression prediction.

retrieve_batch is the one implementation. It works through the queries in
chunks of _CHUNK rows: one score block per chunk against the distinct
database rows, an exact top-n shortlist per query by partial selection, kept
in database index order, then gate, blend, top-k (one stable sort) and
softmax vectorized over the (queries x candidates) block. retrieve is its
one-row view, and retrieve_spots embeds image features and retrieves for a
whole spot set, once per stage.

All selection is exact (no approximate index) with ties broken by ascending
database index, and duplicated database rows share one score, so results are
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .align import AlignModel, embed_expressions, embed_images
from .core import as_matrix, bound, check_config
from .errors import InputError

# queries per chunk in retrieve_batch: the largest temporaries are
# (_CHUNK x database size) float64 blocks, 358 KB for the 1,400-entry database
# of a 2,000-spot run
_CHUNK = 32


@dataclass
class EmbeddingDB:
    """Immutable retrieval index: unit embeddings with aligned payloads."""

    h: np.ndarray  # (N, d) unit rows
    expressions: np.ndarray  # (N, G) log1p scale
    gating: np.ndarray  # (N, T) non-negative estimated cell counts
    spot_ids: list

    def __post_init__(self):
        self.h = as_matrix(self.h)
        self.expressions = as_matrix(self.expressions)
        self.gating = as_matrix(self.gating)
        self.spot_ids = list(self.spot_ids)
        n = self.h.shape[0]
        if n == 0:
            raise InputError("embedding database is empty")
        if self.expressions.shape[0] != n or self.gating.shape[0] != n \
                or len(self.spot_ids) != n:
            raise InputError("database arrays must share the same length")
        norms = np.linalg.norm(self.h, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise InputError("database embeddings must be unit rows")
        if np.any(self.gating < 0):
            raise InputError("gating rows must be non-negative")

    @property
    def size(self) -> int:
        return self.h.shape[0]


@dataclass
class RetrievalConfig:
    n_candidates: int = bound(150, ge=1)
    top_k: int = bound(100, ge=1)
    tau_c: float = bound(0.5, ge=0, le=1)
    # tau_p = -1 admits every finite composition, which is how the
    # gating ablation switches the composition test off
    tau_p: float = bound(0.3, ge=-1, le=1)
    beta: float = bound(0.3, ge=0, le=1)
    softmax_temp: float = bound(1.0, gt=0)

    def __post_init__(self):
        check_config(self, "retrieval")
        if self.top_k > self.n_candidates:
            raise InputError("bad config: need 'retrieval.top_k' <= "
                             "'retrieval.n_candidates'")


@dataclass
class RetrievalResult:
    p_ret: np.ndarray  # (G,)
    kept_ids: list  # spot ids of aggregated entries, rank order
    scores: np.ndarray  # blended r for the kept entries
    weights: np.ndarray  # softmax weights, sum to 1
    mask_stats: tuple  # (n_candidates_considered, n_passed_gate)


def _one_row(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError("expected a single query row")
    return x[None, :]


def _check_queries(db: EmbeddingDB, queries) -> np.ndarray:
    v = np.asarray(queries, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != db.h.shape[1]:
        raise InputError("query embedding dimension mismatch")
    if not np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 1e-6):
        raise InputError("query embeddings must be unit rows")  # NaN fails too
    return v


def _check_gating(db: EmbeddingDB, gating, n_queries: int) -> np.ndarray:
    g = np.asarray(gating, dtype=np.float64)
    if g.shape != (n_queries, db.gating.shape[1]):
        raise InputError("query gating row dimension mismatch")
    if np.any(g < 0):
        raise InputError("query gating rows must be non-negative")
    return g


def _unique_rows(h: np.ndarray):
    """Distinct rows of h and, per row of h, its position among them.

    Scores are computed for the distinct rows only, so duplicated database
    rows share one value and their ties are exact whatever the BLAS kernel.
    """
    uniq, inv = np.unique(h, axis=0, return_inverse=True)
    return uniq, inv.reshape(-1)


def _shortlist(uniq, inv, v: np.ndarray, n: int):
    """Per query row, the n database rows scoring highest, and their scores.

    Each row lists them in ascending database index: nothing is sorted here.
    uniq and inv come from _unique_rows: each distinct row is scored once and
    the scores are spread back over the (queries x database) block.
    """
    phi = (v @ uniq.T)[:, inv]
    rows, size = phi.shape
    if n >= size:
        return np.broadcast_to(np.arange(size), (rows, size)), phi
    # the n-th largest score is the cut; where more entries tie with it than
    # there is room for, they are admitted in ascending index order
    cut = np.partition(phi, size - n, axis=1)[:, [size - n]]
    keep = phi > cut
    tied = phi == cut
    room = n - keep.sum(axis=1, keepdims=True)
    over = tied.sum(axis=1) > room[:, 0]
    tied[over] &= np.cumsum(tied[over], axis=1) <= room[over]
    cols = np.nonzero(keep | tied)[1].reshape(rows, n)
    return cols, np.take_along_axis(phi, cols, axis=1)


def blended_scores(phi, sim, beta: float) -> np.ndarray:
    phi = np.asarray(phi, dtype=np.float64)
    sim = np.asarray(sim, dtype=np.float64)
    if phi.shape != sim.shape:
        raise InputError("phi and sim must be aligned")
    return (1.0 - beta) * phi + beta * sim


def _retrieve_chunk(db: EmbeddingDB, uniq, inv, v, g, cfg: RetrievalConfig):
    """Retrieval for a block of queries; every output has one row per query.

    Returns (p_ret, n_passed, kept, valid, scores, weights). kept, scores and
    weights have top_k columns in rank order; valid marks the entries that
    were pooled, a prefix of each row.
    """
    n_cand = min(cfg.n_candidates, db.size)
    cand, phi = _shortlist(uniq, inv, v, n_cand)

    # gate: total cell count deviation <= tau_c and composition cosine >=
    # tau_p, over the (queries x candidates) block
    gj = db.gating[cand]
    ts = g.sum(axis=1)[:, None]
    tj = gj.sum(axis=2)
    denom = np.maximum(ts, tj)
    deviation = np.where(denom == 0.0, 0.0,
                         np.abs(ts - tj) / np.where(denom == 0.0, 1.0, denom))
    ns = np.linalg.norm(g, axis=1)[:, None]
    nj = np.linalg.norm(gj, axis=2)
    zero = (ns == 0.0) | (nj == 0.0)
    # elementwise products, so identical gating rows get identical cosines
    dots = (gj * g[:, None, :]).sum(axis=2)
    sim = np.where(zero, 0.0, dots / np.where(zero, 1.0, ns * nj))
    passed = (deviation <= cfg.tau_c) & (sim >= cfg.tau_p)
    n_passed = passed.sum(axis=1)

    # where nothing survives the gate, fall back to the ungated nearest
    # entries so downstream consumers never see an empty prediction; cand
    # ascends along each row, so each stable sort breaks ties by index
    k = min(cfg.top_k, n_cand)
    pool, fall = passed, np.flatnonzero(n_passed == 0)[:, None]
    pool[fall, np.argsort(-phi[fall[:, 0]], axis=1, kind="stable")[:, :k]] = True
    r = blended_scores(phi, sim, cfg.beta)
    rank = np.argsort(np.where(pool, -r, np.inf), axis=1, kind="stable")[:, :k]
    kept = np.take_along_axis(cand, rank, axis=1)
    valid = np.take_along_axis(pool, rank, axis=1)
    scores = np.take_along_axis(r, rank, axis=1)

    # softmax over the pooled entries; column 0 holds each row's largest score
    z = scores / cfg.softmax_temp
    e = np.exp(np.where(valid, z - z[:, :1], -np.inf))
    weights = e / e.sum(axis=1, keepdims=True)
    dense = np.zeros((v.shape[0], db.size))
    np.put_along_axis(dense, kept, weights, axis=1)
    return dense @ db.expressions, n_passed, kept, valid, scores, weights


def retrieve_batch(db: EmbeddingDB, queries, gating, cfg: RetrievalConfig):
    """Gated softmax-weighted expression retrieval for every query row.

    queries are (Q, d) unit embeddings and gating their (Q, T) rows. Returns
    p_ret (Q, G) and mask_stats (Q, 2): per query, the candidates considered
    and the number that passed the gate (0 means the ungated fallback).
    """
    v = _check_queries(db, queries)
    g = _check_gating(db, gating, v.shape[0])
    uniq, inv = _unique_rows(db.h)
    p_ret = np.empty((v.shape[0], db.expressions.shape[1]))
    mask_stats = np.empty((v.shape[0], 2), dtype=np.int64)
    mask_stats[:, 0] = min(cfg.n_candidates, db.size)
    for lo in range(0, v.shape[0], _CHUNK):
        block = slice(lo, lo + _CHUNK)
        p_ret[block], mask_stats[block, 1], *_ = _retrieve_chunk(
            db, uniq, inv, v[block], g[block], cfg)
    return p_ret, mask_stats


def retrieve(db: EmbeddingDB, v_s, g_s, cfg: RetrievalConfig) -> RetrievalResult:
    """Gated softmax-weighted expression retrieval for one query spot."""
    v = _check_queries(db, _one_row(v_s))
    g = _check_gating(db, _one_row(g_s), 1)
    p_ret, n_passed, kept, valid, scores, weights = _retrieve_chunk(
        db, *_unique_rows(db.h), v, g, cfg)
    m = int(valid[0].sum())
    return RetrievalResult(
        p_ret=p_ret[0],
        kept_ids=[db.spot_ids[j] for j in kept[0, :m]],
        scores=scores[0, :m],
        weights=weights[0, :m],
        mask_stats=(min(cfg.n_candidates, db.size), int(n_passed[0])),
    )


def retrieve_spots(model: AlignModel, db: EmbeddingDB, img_features, gating,
                   cfg: RetrievalConfig) -> np.ndarray:
    """Retrieved expression (S, G) for spots given by image features and gating rows."""
    return retrieve_batch(db, embed_images(model, img_features), gating, cfg)[0]


def rebuild_db(model: AlignModel, train_expressions, train_gating,
               train_ids) -> EmbeddingDB:
    """Re-embed the training expressions with the current gene head."""
    expr = as_matrix(train_expressions)
    gating = as_matrix(train_gating)
    ids = list(train_ids)
    if expr.shape[0] == 0:
        raise InputError("cannot build a database from an empty training set")
    if gating.shape[0] != expr.shape[0] or len(ids) != expr.shape[0]:
        raise InputError("training arrays must share the same length")
    h = embed_expressions(model, expr)
    return EmbeddingDB(h=h, expressions=expr.copy(), gating=gating.copy(),
                       spot_ids=ids)
