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

TEMPERATURE = 0.07  # the InfoNCE temperature of every model AlignModel.init makes
MAGIC_ALIGN = b"DUET-ALN1"


@dataclass
class PairedBatch:
    """Aligned image features and log1p expression rows for the same spots."""

    img_features: np.ndarray  # (N, D_img)
    expressions: np.ndarray  # (N, G)
    spot_ids: list[str]

    def __post_init__(self):
        self.img_features = as_matrix(self.img_features)
        self.expressions = as_matrix(self.expressions)
        n = self.img_features.shape[0]
        if n < 2:
            raise InputError("a contrastive batch needs at least 2 pairs")
        if self.expressions.shape[0] != n or len(self.spot_ids) != n:
            raise InputError("img_features, expressions and spot_ids must align")

    def __len__(self) -> int:
        return self.img_features.shape[0]


@dataclass
class AlignModel:
    img_head: Mlp
    gene_head: Mlp
    temperature: float

    def __post_init__(self):
        if self.img_head.out_dim != self.gene_head.out_dim:
            raise InputError("embed dims disagree")

    @property
    def embed_dim(self) -> int:
        return self.img_head.out_dim

    @classmethod
    def init(cls, img_dim: int, gene_dim: int, rng: Rng, embed_dim: int,
             hidden: int) -> "AlignModel":
        img_head = Mlp.init([img_dim, hidden, embed_dim], rng.child("img_head"))
        gene_head = Mlp.init([gene_dim, hidden, embed_dim], rng.child("gene_head"))
        return cls(img_head, gene_head, TEMPERATURE)


def save_align(path, model: AlignModel) -> bytes:
    return save_checkpoint(path, MAGIC_ALIGN, [model.temperature],
                           [model.img_head, model.gene_head])


def load_align(path, data: bytes | None = None) -> AlignModel:
    return load_checkpoint(path, data, MAGIC_ALIGN, 1, 2,
                           lambda t, img, gene: AlignModel(img, gene, t))


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
    row_soft = row_exp / row_exp.sum(axis=1, keepdims=True)
    row_logp = row_shift - np.log(row_exp.sum(axis=1, keepdims=True))
    # column direction: h_i against all v_j, same score matrix read down columns
    col_shift = scores - scores.max(axis=0, keepdims=True)
    col_exp = np.exp(col_shift)
    col_soft = col_exp / col_exp.sum(axis=0, keepdims=True)
    col_logp = col_shift - np.log(col_exp.sum(axis=0, keepdims=True))

    diag = np.arange(n)
    loss = -0.5 / n * (row_logp[diag, diag].sum() + col_logp[diag, diag].sum())

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


@dataclass
class AlignTrainConfig:
    epochs: int
    batch_size: int
    embed_dim: int
    hidden: int


def train_align(data: PairedBatch, epochs: int, opt: SgdState, rng: Rng,
                cfg: AlignTrainConfig) -> AlignModel:
    """Train both projection heads on paired data; deterministic given rng."""
    if cfg.epochs != epochs:
        raise InputError(f"epochs {epochs} must equal cfg.epochs {cfg.epochs}")
    model = AlignModel.init(data.img_features.shape[1], data.expressions.shape[1],
                            rng.child("init"), embed_dim=cfg.embed_dim, hidden=cfg.hidden)

    def batches(epoch):
        for idx in minibatches(rng, epoch, len(data), cfg.batch_size):
            v, nv, tape_v = embed_with_tapes(model.img_head, data.img_features[idx])
            h, nh, tape_h = embed_with_tapes(model.gene_head, data.expressions[idx])
            loss, dv, dh = infonce_loss(v, h, model.temperature)
            g_img = head_backward(model.img_head, tape_v, v, nv, dv)
            g_gene = head_backward(model.gene_head, tape_h, h, nh, dh)
            yield loss, [a for g in (g_img, g_gene) for dw_db in g.layers for a in dw_db]
            model.img_head.touch()
            model.gene_head.touch()

    descend(opt, model.img_head.param_arrays() + model.gene_head.param_arrays(),
            epochs, batches, "alignment training")
    return model
