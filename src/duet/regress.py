"""Parametric branch: feature regression with annealed retrieval consistency.

A plain MLP head maps precomputed per-spot features to log1p expression. For
the first E_d epochs its loss carries an extra consistency term pulling the
prediction toward the memory branch's retrieved expression, with a cosine
weight decaying from lambda0 to zero. The alignment model and the database
are frozen for the whole stage, so the retrieved targets are computed once, in
one batched pass on the first epoch with a positive weight, and reused as a
constant: no gradient flows into the contrastive heads. When the weight is
zero the retrieval machinery is skipped entirely, so a lambda0=0 schedule is
bitwise identical to training that never touches the database.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .align import AlignModel
from .core import Mlp, Rng, SgdState, as_matrix, bound, check_config
from .errors import InputError, NumericError
from .retrieval import RetrievalConfig, rebuild_db, retrieve_spots
from .tsvio import load_checkpoint, save_checkpoint

BATCH_SIZE = 128  # train_regress's minibatch, and the default of train.reg_batch
MAGIC_REG = b"DUET-REG1"


@dataclass
class RegModel:
    head: Mlp

    @property
    def feature_dim(self) -> int:
        return self.head.in_dim

    @property
    def gene_dim(self) -> int:
        return self.head.out_dim

    @classmethod
    def init(cls, feature_dim: int, gene_dim: int, rng: Rng, hidden: tuple) -> "RegModel":
        return cls(Mlp.init([feature_dim, *hidden, gene_dim], rng.child("reg-init")))

    def predict(self, features) -> np.ndarray:
        out, _ = self.head.forward(np.asarray(features, dtype=np.float64))
        return out


def save_reg(path, model: RegModel) -> bytes:
    return save_checkpoint(path, MAGIC_REG, [], [model.head])


def load_reg(path, data: bytes | None = None) -> RegModel:
    return load_checkpoint(path, data, MAGIC_REG, 0, 1, RegModel)


@dataclass
class AnnealSchedule:
    lambda0: float = bound(1.0, ge=0)
    decay_epochs: int = bound(30, ge=1)

    def __post_init__(self):
        check_config(self, "anneal")


def lambda_at(sched: AnnealSchedule, e: int) -> float:
    """Cosine decay from lambda0 at e=0 to exactly 0 at e >= decay_epochs."""
    if e < 0:
        raise InputError("epoch index must be non-negative")
    if e >= sched.decay_epochs:
        return 0.0
    # the phase fraction is computed first so the midpoint of an even decay
    # window lands on exactly pi/2 and the schedule returns exactly lambda0/2
    # lambda0 multiplies last, so a subnormal lambda0 is not flushed to zero
    return sched.lambda0 * (0.5 * (1.0 + np.cos(np.pi * (e / sched.decay_epochs))))


def reg_loss(p_reg, y, p_ret, lam: float):
    """MSE to truth plus lam-weighted MSE to the retrieved prediction, each a
    mean over all entries of aligned vectors or (n, g) batches.

    Returns (loss, gradient w.r.t. p_reg); p_ret is a constant here. A p_ret
    of None (lam must be 0) skips the term instead of zero-weighting it.
    """
    p_reg = np.asarray(p_reg, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    aligned = p_ret is None or np.shape(p_ret) == p_reg.shape
    if p_reg.shape != y.shape or p_reg.ndim not in (1, 2) or not aligned:
        raise InputError("reg_loss needs three aligned vectors or (n, g) batches")
    if lam < 0 or (p_ret is None and lam != 0):
        raise InputError("lam must be non-negative, and 0 without p_ret")
    err = p_reg - y
    e = err.ravel()
    if p_ret is None:
        return float(e @ e) / err.size, (2.0 / err.size) * err
    gap = p_reg - np.asarray(p_ret, dtype=np.float64)
    d = gap.ravel()
    return float(e @ e + lam * (d @ d)) / err.size, (2.0 / err.size) * (err + lam * gap)


@dataclass
class RetrievalSources:
    """Everything the consistency term needs to rebuild and query the DB."""

    expressions: np.ndarray  # (S, G) log1p expressions, the DB payload
    gating: np.ndarray  # (S, T)
    spot_ids: list
    img_features: np.ndarray  # (S, D_img) query-side inputs per training spot
    cfg: RetrievalConfig

    def __post_init__(self):
        self.expressions = as_matrix(self.expressions)
        self.gating = as_matrix(self.gating)
        self.img_features = as_matrix(self.img_features)
        n = self.expressions.shape[0]
        if self.gating.shape[0] != n or self.img_features.shape[0] != n \
                or len(self.spot_ids) != n:
            raise InputError("retrieval source arrays must share the same length")


def train_regress(features, targets, align_model: AlignModel | None,
                  db_sources: RetrievalSources | None, sched: AnnealSchedule,
                  epochs: int, opt: SgdState, rng: Rng, model: RegModel,
                  batch_size: int = BATCH_SIZE) -> RegModel:
    """Minibatch SGD on the annealed objective; retrieval runs at most once."""
    x = as_matrix(features)
    y = as_matrix(targets)
    if x.shape[0] != y.shape[0]:
        raise InputError("features and targets must have the same rows")
    if epochs < 1:
        raise InputError("train_regress needs epochs >= 1")
    n, g = y.shape
    if model.feature_dim != x.shape[1] or model.gene_dim != g:
        raise InputError("model dims disagree with the training data")
    if db_sources is not None and x.shape[0] != db_sources.expressions.shape[0]:
        raise InputError("db_sources must cover exactly the training spots")

    params = model.head.param_arrays()
    p_ret = None  # retrieved targets, computed on the first epoch that needs them
    for e in range(epochs):
        lam = lambda_at(sched, e)
        if lam > 0.0 and p_ret is None:
            if align_model is None or db_sources is None:
                raise InputError(
                    "consistency weight is positive but no retrieval sources given"
                )
            db = rebuild_db(align_model, db_sources.expressions,
                            db_sources.gating, db_sources.spot_ids)
            p_ret = retrieve_spots(align_model, db, db_sources.img_features,
                                   db_sources.gating, db_sources.cfg)

        perm = rng.child("shuffle", e).permutation(n)
        stop = max(n // batch_size, 1) * batch_size if n >= batch_size else n
        for lo in range(0, stop, batch_size):
            idx = perm[lo:lo + batch_size]
            out, tape = model.head.forward(x[idx])
            retrieved = None if lam == 0.0 else p_ret[idx]  # skipped, not zero-weighted
            with np.errstate(over="ignore", invalid="ignore"):
                batch_loss, d_out = reg_loss(out, y[idx], retrieved, lam)
            if not np.isfinite(batch_loss):
                raise NumericError(f"regression training diverged at epoch {e}")
            grads = model.head.backward(tape, d_out)
            opt.step(params, [a for pair in grads.layers for a in pair])
            model.head.touch()
    return model
