"""Cross-modality alignment: dual projection heads trained with a symmetric
temperature-scaled contrastive objective, emitting L2-normalized embeddings.

Both heads normalize inside the head; the normalization Jacobian is part of
backward, so gradients reaching the raw MLP output are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Mlp, Rng, SgdState, as_matrix
from .errors import InputError, NumericError
from .tsvio import load_checkpoint, save_checkpoint

DEFAULT_TEMPERATURE = 0.07
DEFAULT_EMBED_DIM = 64
DEFAULT_HIDDEN = 128
DEFAULT_BATCH_SIZE = 128
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
    temperature: float = DEFAULT_TEMPERATURE
    embed_dim: int = DEFAULT_EMBED_DIM

    def __post_init__(self):
        if not self.img_head.out_dim == self.gene_head.out_dim == self.embed_dim:
            raise InputError("embed dims disagree")

    @classmethod
    def init(cls, img_dim: int, gene_dim: int, rng: Rng, embed_dim: int = DEFAULT_EMBED_DIM,
             hidden: int = DEFAULT_HIDDEN, temperature: float = DEFAULT_TEMPERATURE) -> "AlignModel":
        img_head = Mlp.init([img_dim, hidden, embed_dim], rng.child("img_head"))
        gene_head = Mlp.init([gene_dim, hidden, embed_dim], rng.child("gene_head"))
        return cls(img_head, gene_head, temperature, embed_dim)


def save_align(path, model: AlignModel) -> bytes:
    return save_checkpoint(path, MAGIC_ALIGN, [model.temperature],
                           [model.img_head, model.gene_head])


def load_align(path, data: bytes | None = None) -> AlignModel:
    return load_checkpoint(path, data, MAGIC_ALIGN, 1, 2,
                           lambda t, img, gene: AlignModel(img, gene, t, img.out_dim))


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
    epochs: int = 40
    batch_size: int = DEFAULT_BATCH_SIZE
    embed_dim: int = DEFAULT_EMBED_DIM
    hidden: int = DEFAULT_HIDDEN
    temperature: float = DEFAULT_TEMPERATURE


def _epoch_batches(n: int, batch_size: int, perm: np.ndarray):
    # keep N constant inside the softmax: drop the final partial batch unless
    # the dataset itself is smaller than one batch
    if n < batch_size:
        yield perm
        return
    for start in range(0, n - batch_size + 1, batch_size):
        yield perm[start : start + batch_size]


def train_align(data: PairedBatch, epochs: int, opt: SgdState, rng: Rng,
                cfg: AlignTrainConfig | None = None, model: AlignModel | None = None) -> AlignModel:
    """Train both projection heads on paired data; deterministic given rng."""
    cfg = cfg or AlignTrainConfig(epochs=epochs)
    if epochs < 0 or cfg.epochs != epochs:
        raise InputError(f"epochs {epochs} must be >= 0 and equal cfg.epochs {cfg.epochs}")
    if model is None:
        model = AlignModel.init(
            data.img_features.shape[1], data.expressions.shape[1], rng.child("init"),
            embed_dim=cfg.embed_dim, hidden=cfg.hidden, temperature=cfg.temperature,
        )
    if data.img_features.shape[1] != model.img_head.in_dim:
        raise InputError("image feature dim drifted from the model")
    if data.expressions.shape[1] != model.gene_head.in_dim:
        raise InputError("expression dim drifted from the model")

    params = model.img_head.param_arrays() + model.gene_head.param_arrays()
    n = len(data)
    for epoch in range(epochs):
        perm = rng.child("shuffle", epoch).permutation(n)
        for batch_idx in _epoch_batches(n, cfg.batch_size, perm):
            xb = data.img_features[batch_idx]
            yb = data.expressions[batch_idx]
            v, nv, tape_v = embed_with_tapes(model.img_head, xb)
            h, nh, tape_h = embed_with_tapes(model.gene_head, yb)
            loss, dv, dh = infonce_loss(v, h, model.temperature)
            if not np.isfinite(loss):
                raise NumericError(f"contrastive loss diverged at epoch {epoch}")
            g_img = head_backward(model.img_head, tape_v, v, nv, dv)
            g_gene = head_backward(model.gene_head, tape_h, h, nh, dh)
            grads = [a for dw_db in g_img.layers for a in dw_db]
            grads += [a for dw_db in g_gene.layers for a in dw_db]
            opt.step(params, grads)
            model.img_head.touch()
            model.gene_head.touch()
    return model
