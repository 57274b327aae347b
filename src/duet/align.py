"""Cross-modality alignment: dual projection heads trained with a symmetric
temperature-scaled contrastive objective, emitting L2-normalized embeddings.

Both heads normalize inside the head; the normalization Jacobian is part of
backward, so gradients reaching the raw MLP output are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Mlp, Rng, SgdState, as_matrix, descend, minibatches
from .errors import InputError, NumericError
from .tsvio import load_checkpoint, save_checkpoint

TEMPERATURE = 0.07  # the InfoNCE temperature train_align fits with
MAGIC_ALIGN = b"DUET-ALN2"


@dataclass
class AlignModel:
    img_head: Mlp
    gene_head: Mlp

    def __post_init__(self):
        if self.img_head.out_dim != self.gene_head.out_dim:
            raise InputError("embed dims disagree")

    @classmethod
    def init(cls, img_dim: int, gene_dim: int, rng: Rng, embed_dim: int,
             hidden: int) -> "AlignModel":
        img_head = Mlp.init([img_dim, hidden, embed_dim], rng.child("img_head"))
        gene_head = Mlp.init([gene_dim, hidden, embed_dim], rng.child("gene_head"))
        return cls(img_head, gene_head)


def save_align(path, model: AlignModel) -> bytes:
    return save_checkpoint(path, MAGIC_ALIGN, [model.img_head, model.gene_head])


def load_align(path, data: bytes | None = None) -> AlignModel:
    return load_checkpoint(path, data, MAGIC_ALIGN, 2, AlignModel)


def l2_normalize(raw: np.ndarray):
    """Row-wise unit normalization; returns (unit rows, norms) for backward."""
    raw = as_matrix(raw)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise NumericError("cannot normalize a zero embedding row")
    return raw / norms, norms


def l2_normalize_backward(unit: np.ndarray, norms: np.ndarray, d_unit: np.ndarray) -> np.ndarray:
    """Jacobian-vector product of row normalization: (I - e e^T)/|u| applied per row."""
    inner = np.sum(unit * d_unit, axis=1, keepdims=True)
    return (d_unit - unit * inner) / norms


def infonce_loss(v: np.ndarray, h: np.ndarray, tau: float):
    """Symmetric contrastive loss over paired rows.

    L = -(1/2N) sum_i [log softmax_j(v_i.h_j/tau)|_{j=i} + log softmax_j(h_i.v_j/tau)|_{j=i}]

    Returns (loss, dL/dv, dL/dh) with exact analytic gradients.
    """
    v = as_matrix(v)
    h = as_matrix(h)
    if v.shape != h.shape:
        raise InputError(f"embedding shapes differ: {v.shape} vs {h.shape}")
    n = v.shape[0]
    if n < 2:
        raise InputError("contrastive loss needs at least 2 pairs")
    if tau <= 0:
        raise InputError("temperature must be positive")

    scores = (v @ h.T) / tau
    # row direction: v_i against all h_j
    row_shift = scores - scores.max(axis=1, keepdims=True)
    row_exp = np.exp(row_shift)
    row_sum = row_exp.sum(axis=1, keepdims=True)
    row_soft = row_exp / row_sum
    # column direction: h_i against all v_j, same score matrix read down columns
    col_shift = scores - scores.max(axis=0, keepdims=True)
    col_exp = np.exp(col_shift)
    col_sum = col_exp.sum(axis=0, keepdims=True)
    col_soft = col_exp / col_sum

    diag = np.arange(n)
    loss = -0.5 / n * ((row_shift[diag, diag] - np.log(row_sum[:, 0])).sum()
                       + (col_shift[diag, diag] - np.log(col_sum[0])).sum())

    d_scores = (row_soft + col_soft) / (2.0 * n)
    d_scores[diag, diag] -= 1.0 / n
    dv = (d_scores @ h) / tau
    dh = (d_scores.T @ v) / tau
    if not np.isfinite(loss):
        raise NumericError("contrastive loss is non-finite")
    return float(loss), dv, dh


def embed_with_tapes(head: Mlp, x: np.ndarray):
    """Forward through a head including normalization, keeping state for backward."""
    raw, tape = head.forward(as_matrix(x))
    unit, norms = l2_normalize(raw)
    return unit, norms, tape


def head_backward(head: Mlp, tape, unit, norms, d_unit):
    d_raw = l2_normalize_backward(unit, norms, d_unit)
    return head.backward(tape, d_raw)


def embed_expressions(model: AlignModel, expressions: np.ndarray) -> np.ndarray:
    """Encode expression rows into unit-norm embeddings."""
    unit, _, _ = embed_with_tapes(model.gene_head, expressions)
    return unit


def embed_images(model: AlignModel, img_features: np.ndarray) -> np.ndarray:
    """Encode image feature rows into unit-norm embeddings."""
    unit, _, _ = embed_with_tapes(model.img_head, img_features)
    return unit


def train_align(img_features, expressions, epochs: int, opt: SgdState, rng: Rng, *,
                batch_size: int, embed_dim: int, hidden: int) -> AlignModel:
    """Train both projection heads on aligned rows of image features and log1p
    expression for the same spots; deterministic given rng."""
    x = as_matrix(img_features)
    y = as_matrix(expressions)
    n = x.shape[0]
    if n < 2:
        raise InputError("a contrastive batch needs at least 2 pairs")
    if y.shape[0] != n:
        raise InputError("img_features and expressions must align")
    model = AlignModel.init(x.shape[1], y.shape[1], rng.child("init"),
                            embed_dim=embed_dim, hidden=hidden)

    def batches(epoch):
        for idx in minibatches(rng, epoch, n, batch_size):
            v, nv, tape_v = embed_with_tapes(model.img_head, x[idx])
            h, nh, tape_h = embed_with_tapes(model.gene_head, y[idx])
            loss, dv, dh = infonce_loss(v, h, TEMPERATURE)
            yield loss, (head_backward(model.img_head, tape_v, v, nv, dv)
                         + head_backward(model.gene_head, tape_h, h, nh, dh))
            model.img_head.touch()
            model.gene_head.touch()

    descend(opt, model.img_head.param_arrays() + model.gene_head.param_arrays(),
            epochs, batches, "alignment training")
    return model
