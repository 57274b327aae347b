"""Parametric branch: feature regression with annealed retrieval consistency.

The model is a plain core.Mlp that maps precomputed per-spot features to log1p
expression; its checkpoint (`DUET-REG1`) is that net alone. For the first E_d
epochs its loss carries an extra consistency term pulling the prediction
toward the memory branch's retrieved expression, with a cosine weight
decaying from lambda0 to zero. The caller passes those retrieved rows in as a
constant array: no gradient flows into the contrastive heads. When the weight
is zero the array is never read, so a lambda0=0 schedule is bitwise identical
to training without any retrieved targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Mlp, Rng, SgdState, as_matrix, bound, check_config, descend, minibatches
from .errors import InputError
from .tsvio import load_checkpoint, save_checkpoint

BATCH_SIZE = 128  # train_regress's minibatch
LR = 0.03  # the step size stage_regress fits with
MAGIC_REG = b"DUET-REG1"


def save_reg(path, model: Mlp) -> bytes:
    return save_checkpoint(path, MAGIC_REG, [model])


def load_reg(path, data: bytes | None = None) -> Mlp:
    return load_checkpoint(path, data, MAGIC_REG, 1, lambda model: model)


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


def train_regress(features, targets, p_ret, sched: AnnealSchedule, epochs: int,
                  opt: SgdState, rng: Rng, model: Mlp,
                  batch_size: int = BATCH_SIZE) -> Mlp:
    """Minibatch SGD on the annealed objective, in place on `model`, which it
    returns. p_ret is the (n, g) retrieved expression, one row per training
    row; it is read only while the consistency weight is positive, and may be
    None when lambda0 is 0."""
    x = as_matrix(features)
    y = as_matrix(targets)
    if x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise InputError("features and targets must have the same, non-zero rows")
    n, g = y.shape
    if model.in_dim != x.shape[1] or model.out_dim != g:
        raise InputError("model dims disagree with the training data")
    if sched.lambda0 > 0.0:  # lambda_at(sched, 0) is sched.lambda0
        if np.shape(p_ret) != y.shape:  # np.shape(None) is ()
            raise InputError(f"consistency weight is positive: the retrieved targets "
                             f"must be {y.shape}, one row per training row, not {np.shape(p_ret)}")
        p_ret = as_matrix(p_ret)

    def batches(e):
        lam = lambda_at(sched, e)
        for idx in minibatches(rng, e, n, batch_size):
            out, tape = model.forward(x[idx])
            retrieved = None if lam == 0.0 else p_ret[idx]  # skipped, not zero-weighted
            loss, d_out = reg_loss(out, y[idx], retrieved, lam)
            yield loss, model.backward(tape, d_out)
            model.touch()

    descend(opt, model.param_arrays(), epochs, batches, "regression training")
    return model
