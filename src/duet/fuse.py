"""Adaptive expert triage between the memory and parametric branches.

A small adapter reads the same per-spot features the regression branch uses
and emits one scalar, squashed to a fusion weight alpha in (0,1) through
0.5 + 0.5*tanh. The fused output is the convex blend of the two branch
predictions. Training happens post hoc on held-out spots with both branches
frozen: the loss is the fused MSE plus reg_coef times the squared deviation
of alpha from 0.5, so the adapter only departs from equal weighting where the
data rewards it. reg_coef is a weight of the fit, an argument of fuse_loss
and train_fuse, so the adapter and its checkpoint are the net alone. The
final layer is zero-initialized, which puts every fresh adapter exactly at
alpha = 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Mlp, Rng, SgdState, as_matrix, descend
from .errors import InputError
from .tsvio import load_checkpoint, save_checkpoint

Z_CLIP = 18.0  # tanh(18) is still strictly below 1 in float64
MAGIC_FUSE = b"DUET-FUS2"


@dataclass
class FuseAdapter:
    mlp: Mlp

    def __post_init__(self):
        if self.mlp.out_dim != 1:
            raise InputError("fusion adapter must emit one scalar")

    @classmethod
    def init(cls, feature_dim: int, rng: Rng, hidden: int) -> "FuseAdapter":
        mlp = Mlp.init([feature_dim, hidden, 1], rng.child("fuse-init"))
        final = mlp.layers[-1]
        final.weight[...] = 0.0
        final.bias[...] = 0.0
        mlp.touch()
        return cls(mlp)


def save_fuse(path, adapter: FuseAdapter) -> bytes:
    return save_checkpoint(path, MAGIC_FUSE, [adapter.mlp])


def load_fuse(path, data: bytes | None = None) -> FuseAdapter:
    return load_checkpoint(path, data, MAGIC_FUSE, 1, FuseAdapter)


def _squash(z: np.ndarray):
    """alpha and tanh value for the (clipped) adapter outputs."""
    a = np.tanh(np.clip(z, -Z_CLIP, Z_CLIP))
    return 0.5 + 0.5 * a, a


def alpha_batch(adapter: FuseAdapter, features) -> np.ndarray:
    out, _ = adapter.mlp.forward(as_matrix(features))
    val, _ = _squash(out[:, 0])
    return val


def fuse_predict_batch(adapter: FuseAdapter, features, y_ret, y_reg):
    """Vectorized blend over spots; returns (y_duet, alphas)."""
    y_ret = as_matrix(y_ret)
    y_reg = as_matrix(y_reg)
    if y_ret.shape != y_reg.shape:
        raise InputError("branch predictions must be aligned matrices")
    a = alpha_batch(adapter, features)
    if a.shape[0] != y_ret.shape[0]:
        raise InputError("features and predictions must have the same rows")
    return y_reg + a[:, None] * (y_ret - y_reg), a


def _check_heldout(heldout):
    try:
        f, y_ret, y_reg, y = heldout
    except (TypeError, ValueError):
        raise InputError("heldout must be (features, y_ret, y_reg, y)")
    f = as_matrix(f)
    y_ret = as_matrix(y_ret)
    y_reg = as_matrix(y_reg)
    y = as_matrix(y)
    if f.shape[0] == 0:
        raise InputError("held-out set is empty")
    if not (f.shape[0] == y_ret.shape[0] == y_reg.shape[0] == y.shape[0]):
        raise InputError("held-out arrays must share the same rows")
    if not (y_ret.shape == y_reg.shape == y.shape):
        raise InputError("held-out expression arrays must share shapes")
    return f, y_ret, y_reg, y


def fuse_loss(adapter: FuseAdapter, heldout, reg_coef: float):
    """Batch-mean fused MSE + reg_coef * delta^2 with exact adapter gradients."""
    if not reg_coef >= 0:
        raise InputError(f"reg_coef must be non-negative, got {reg_coef}")
    f, y_ret, y_reg, y = _check_heldout(heldout)
    s_n, g_n = y.shape
    out, tape = adapter.mlp.forward(f)
    a_val, a_tanh = _squash(out[:, 0])
    diff = y_ret - y_reg
    resid = y_reg + a_val[:, None] * diff - y
    delta = a_val - 0.5
    loss = float(np.mean(resid**2) + reg_coef * np.mean(delta**2))
    d_alpha = (2.0 / (s_n * g_n)) * np.sum(resid * diff, axis=1) \
        + (2.0 * reg_coef / s_n) * delta
    d_out = (d_alpha * 0.5 * (1.0 - a_tanh**2))[:, None]
    return loss, adapter.mlp.backward(tape, d_out)


def train_fuse(adapter: FuseAdapter, heldout, epochs: int, opt: SgdState,
               reg_coef: float) -> FuseAdapter:
    """Full-batch SGD on fuse_loss; both branch predictions stay frozen, and
    the fit draws no noise, so it needs no rng."""
    _check_heldout(heldout)

    def batches(epoch):
        yield fuse_loss(adapter, heldout, reg_coef)
        adapter.mlp.touch()

    descend(opt, adapter.mlp.param_arrays(), epochs, batches, "fusion training")
    return adapter
