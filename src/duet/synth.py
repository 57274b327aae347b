"""Synthetic ground-truth generator.

Produces single-cell reference data and spot mixtures from the same negative
binomial generative process the models assume, with every latent quantity
recorded so statistical tests can score recovery against known truth. Image
and foundation features are random linear maps of the noise-free expected
log-expression plus Gaussian noise; feature_noise_std is the knob that makes
spots look alike while differing molecularly.

The spot-side arrays are (S, G), and S may run to thousands: gen_spots keeps
mu_spot and the counts and lets at most one other (S, G) array live at a time.
It scales w @ mu_true in place to make mu_spot, drops the gamma draw, the log
expression and the log counts as soon as each is used, and takes the target
genes' variance in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Rng, bound, check_config
from .errors import InputError
from .scprior import GatingSignal, ScDataset, gating_from_rows

PANEL_RESERVE = 100  # non-target genes that must remain available


@dataclass
class SynthConfig:
    n_types: int = bound(4, ge=1)
    n_genes: int = bound(220, ge=1)
    n_target_genes: int = bound(80, ge=1)
    n_cells_per_type: int = bound(150, ge=1)
    n_spots: int = bound(80, ge=1)
    n_batches: int = bound(2, ge=1)
    reads_per_spot: float | None = bound(None, gt=0)
    feature_dim: int = bound(64, ge=1)
    feature_noise_std: float = bound(0.1, ge=0)
    seed: int = bound(0, ge=0, lt=2**64)

    def __post_init__(self):
        check_config(self, "synth")
        if self.n_target_genes + PANEL_RESERVE > self.n_genes:
            raise InputError(f"bad config: need 'synth.n_target_genes' + {PANEL_RESERVE} "
                             f"<= 'synth.n_genes' for a disjoint deconvolution panel")


@dataclass
class SynthTruth:
    mu_true: np.ndarray  # (T, G) signature rates
    batch_true: np.ndarray  # (B, G), row 0 zeros
    theta_true: np.ndarray  # (G,) single-cell dispersions
    alpha_true: np.ndarray  # (G,) spot dispersions
    l_true: np.ndarray  # (C,) cell scales
    gene_names: list[str]
    # spot-side fields, filled by gen_spots
    w_true: np.ndarray | None = None  # (S, T) abundances n_s * proportions
    n_true: np.ndarray | None = None  # (S,) cells per spot
    d_true: np.ndarray | None = None  # (S,) detection efficiency
    mu_spot: np.ndarray | None = None  # (S, G) noise-free expected counts
    target_idx: np.ndarray | None = None  # indices of HVG prediction targets
    target_genes: list[str] = field(default_factory=list)


def sample_nb_counts(rng: Rng, mean: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """Gamma-Poisson draw of NB(mean, disp), elementwise."""
    mean = np.asarray(mean, dtype=np.float64)
    disp = np.broadcast_to(np.asarray(disp, dtype=np.float64), mean.shape)
    return rng.poisson(rng.gamma(disp, mean / disp))  # numpy's default int


def expected_spot_expression(w: np.ndarray, mu_true: np.ndarray,
                             d: np.ndarray) -> np.ndarray:
    """mu_sg = d_s * sum_t w_st * M_gt with M_gt = mu_true[t, g]."""
    return d[:, None] * (w @ mu_true)


def gen_sc(cfg: SynthConfig) -> tuple[ScDataset, SynthTruth]:
    """Sample the single-cell reference from the signature model."""
    rng = Rng(cfg.seed).child("sc")
    t_n, g_n, b_n = cfg.n_types, cfg.n_genes, cfg.n_batches
    c_n = t_n * cfg.n_cells_per_type

    # shared gene scale times a per-type log-normal wiggle keeps signatures
    # positively correlated across types but still separable
    base = np.exp(rng.child("base").standard_normal(g_n))
    mu_true = base[None, :] * np.exp(0.8 * rng.child("mu").standard_normal((t_n, g_n)))
    theta_true = rng.child("theta").uniform(0.5, 5.0, size=g_n)
    alpha_true = rng.child("alpha").uniform(0.5, 5.0, size=g_n)
    batch_true = np.zeros((b_n, g_n))
    if b_n > 1:
        batch_true[1:] = 0.3 * rng.child("batch").standard_normal((b_n - 1, g_n))

    cell_type = np.repeat(np.arange(t_n), cfg.n_cells_per_type)
    batch = rng.child("assign").integers(0, b_n, size=c_n)
    l_true = np.exp(0.2 * rng.child("scale").standard_normal(c_n))

    rate = l_true[:, None] * np.exp(batch_true[batch]) * mu_true[cell_type]
    counts = sample_nb_counts(rng.child("counts"), rate, theta_true[None, :])

    data = ScDataset(counts=counts, cell_type=cell_type, batch=batch,
                     n_types=t_n, n_batches=b_n)
    truth = SynthTruth(
        mu_true=mu_true,
        batch_true=batch_true,
        theta_true=theta_true,
        alpha_true=alpha_true,
        l_true=l_true,
        gene_names=[f"g{i:04d}" for i in range(g_n)],
    )
    return data, truth


def gen_spots(cfg: SynthConfig, truth: SynthTruth):
    """Sample spot mixtures, features, and the ground-truth gating signal."""
    rng = Rng(cfg.seed).child("spots")
    s_n, t_n, g_n = cfg.n_spots, cfg.n_types, cfg.n_genes
    if truth.mu_true.shape != (t_n, g_n):
        raise InputError("truth does not match config dimensions")

    props = rng.child("props").dirichlet(np.ones(t_n), size=s_n)
    n_true = rng.child("cells").integers(5, 51, size=s_n).astype(np.float64)
    w_true = props * n_true[:, None]

    # expected_spot_expression, with w @ mu taken once and scaled in place
    mu_spot = w_true @ truth.mu_true  # (S, G) expected counts at d=1
    if cfg.reads_per_spot is not None:
        d_true = cfg.reads_per_spot / mu_spot.sum(axis=1)
    else:
        d_true = np.ones(s_n)
    mu_spot *= d_true[:, None]

    st_counts = sample_nb_counts(rng.child("counts"), mu_spot,
                                 truth.alpha_true[None, :])

    logexpr = np.log1p(mu_spot)
    scale = 1.0 / np.sqrt(g_n)
    map_img = rng.child("map-img").standard_normal((g_n, cfg.feature_dim)) * scale
    map_fm = rng.child("map-fm").standard_normal((g_n, cfg.feature_dim)) * scale
    features_img = logexpr @ map_img
    features_fm = logexpr @ map_fm
    del logexpr
    if cfg.feature_noise_std > 0:
        features_img = features_img + cfg.feature_noise_std * \
            rng.child("noise-img").standard_normal(features_img.shape)
        features_fm = features_fm + cfg.feature_noise_std * \
            rng.child("noise-fm").standard_normal(features_fm.shape)

    # prediction targets are the high-variance genes of the observed counts;
    # the variance is np.var's, step for step, in place on one array
    dev = np.log1p(st_counts, dtype=np.float64)
    dev -= dev.mean(axis=0)
    dev *= dev
    var = dev.mean(axis=0)
    order = np.argsort(-var, kind="stable")
    target_idx = np.sort(order[:cfg.n_target_genes])

    truth.w_true = w_true
    truth.n_true = n_true
    truth.d_true = d_true
    truth.mu_spot = mu_spot
    truth.target_idx = target_idx
    truth.target_genes = [truth.gene_names[i] for i in target_idx]

    gating_truth = gating_from_rows(w_true)
    return st_counts, features_img, features_fm, gating_truth
