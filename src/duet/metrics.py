"""Evaluation metrics: error summaries and the variance-fidelity curve.

PCC is computed per gene across spots and averaged; genes whose prediction or
truth is constant across spots have no defined correlation and are reported
as NaN and left out of the mean rather than silently counted as zero. The
mean is NaN when no gene has a PCC. to_dict writes each NaN as null, so
metrics.json is standard JSON. A column is constant when its values are all
equal, as in core.standardize: its computed spread may be a rounding error
above 0, which is not a signal, so its variance counts as 0 too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_matrix
from .errors import InputError


@dataclass
class MetricsReport:
    mse: float
    mae: float
    pcc_per_gene: np.ndarray  # NaN marks undefined entries
    pcc_mean: float
    n_spots: int
    n_genes: int
    n_undefined_pcc: int

    def to_dict(self) -> dict:
        return {
            "mse": self.mse,
            "mae": self.mae,
            "pcc_mean": None if np.isnan(self.pcc_mean) else self.pcc_mean,
            "n_spots": self.n_spots,
            "n_genes": self.n_genes,
            "n_undefined_pcc": self.n_undefined_pcc,
            "pcc_per_gene": [
                None if np.isnan(v) else float(v) for v in self.pcc_per_gene
            ],
        }


@dataclass
class VarianceCurve:
    order: np.ndarray  # gene indices sorted by truth variance ascending
    truth_var_norm: np.ndarray
    pred_var_norm: np.ndarray


def log1p_transform(counts) -> np.ndarray:
    arr = np.asarray(counts, dtype=np.float64)
    if np.any(arr < 0):
        raise InputError("log1p transform needs non-negative input")
    if not np.all(np.isfinite(arr)):
        raise InputError("log1p transform needs finite input")
    return np.log1p(arr)


def metrics(pred, truth) -> MetricsReport:
    pred = as_matrix(pred)
    truth = as_matrix(truth)
    if pred.shape != truth.shape:
        raise InputError(f"shape mismatch: pred {pred.shape}, truth {truth.shape}")
    s_n, g_n = pred.shape
    if s_n < 2:
        raise InputError("metrics need at least 2 spots")

    diff = pred - truth
    mse = float(np.mean(diff**2))
    mae = float(np.mean(np.abs(diff)))

    pc = pred - pred.mean(axis=0)
    tc = truth - truth.mean(axis=0)
    sp = np.sqrt(np.sum(pc**2, axis=0))
    st = np.sqrt(np.sum(tc**2, axis=0))
    defined = (sp > 0) & (st > 0) & _varies(pred) & _varies(truth)
    pcc = np.full(g_n, np.nan)
    if defined.any():
        pcc[defined] = np.sum(pc[:, defined] * tc[:, defined], axis=0) \
            / (sp[defined] * st[defined])
    pcc_mean = float(np.mean(pcc[defined])) if defined.any() else float("nan")
    return MetricsReport(
        mse=mse,
        mae=mae,
        pcc_per_gene=pcc,
        pcc_mean=pcc_mean,
        n_spots=s_n,
        n_genes=g_n,
        n_undefined_pcc=int(g_n - defined.sum()),
    )


def _varies(m: np.ndarray) -> np.ndarray:
    """Whether each column of m holds two distinct values."""
    return ~(m == m[:1]).all(axis=0)


def _minmax(v: np.ndarray) -> np.ndarray:
    lo, hi = v.min(), v.max()
    if hi == lo:
        return np.zeros_like(v)
    return (v - lo) / (hi - lo)


def variance_curve(pred, truth) -> VarianceCurve:
    pred = as_matrix(pred)
    truth = as_matrix(truth)
    if pred.shape != truth.shape:
        raise InputError(f"shape mismatch: pred {pred.shape}, truth {truth.shape}")
    if pred.shape[1] == 0:
        raise InputError("variance curve needs at least one gene")
    if pred.shape[0] < 2:
        raise InputError("variance curve needs at least 2 spots")
    tv = np.where(_varies(truth), truth.var(axis=0), 0.0)
    pv = np.where(_varies(pred), pred.var(axis=0), 0.0)
    order = np.argsort(tv, kind="stable")
    return VarianceCurve(
        order=order,
        truth_var_norm=_minmax(tv[order]),
        pred_var_norm=_minmax(pv[order]),
    )
