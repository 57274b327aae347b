"""End-to-end orchestration over a file workspace.

Each stage reads its inputs from TSV/checkpoint files in the workspace and
writes its outputs back, so stages can run standalone from the CLI or in
sequence via run_pipeline. Every source of randomness is a named child of the
single run seed; re-running any stage with the same seed and inputs rewrites
byte-identical outputs (the manifest, which carries wall-clock timestamps, is
the one exception). Every file is written atomically (tsvio.write_atomic).

Workspace layout (all produced under the --out directory):
  sc_counts.tsv, sc_labels.tsv        single-cell reference
  st_counts.tsv                       spot counts, all genes
  features_img.tsv, features_fm.tsv   per-spot feature vectors
  truth_*.tsv, gating_truth.tsv       generator ground truth
  target_genes.tsv, panel_genes.tsv   gene id lists
  split_{train,fuse,test}.tsv         spot id lists
  signature.tsv, proportions.tsv, deconv_*.tsv, gating.tsv
  align.ckpt, reg.ckpt, fuse.ckpt
  pred_{duet,ret,reg}.tsv, alphas.tsv, y_test.tsv
  metrics.json, variance_curve_*.tsv, manifest.json
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .align import AlignTrainConfig, PairedBatch, train_align
from .core import Rng, SgdState
from .errors import InputError
from .fuse import FuseAdapter, fuse_predict_batch, train_fuse
from .metrics import log1p_transform, metrics, variance_curve
from .regress import AnnealSchedule, RegModel, RetrievalSources, train_regress
from .retrieval import RetrievalConfig, rebuild_db, retrieve_spots
from .scprior import build_gating, deconvolve, fit_signatures, select_panel
from .scprior import ScDataset
from .synth import SynthConfig, gen_sc, gen_spots
from .tsvio import (
    load_align,
    load_fuse,
    load_reg,
    read_ids_tsv,
    read_matrix_tsv,
    save_align,
    save_fuse,
    save_reg,
    update_manifest,
    write_atomic,
    write_ids_tsv,
    write_matrix_tsv,
)

MANIFEST = "manifest.json"


@dataclass
class TrainConfig:
    sig_epochs: int = 120
    deconv_epochs: int = 300
    align_epochs: int = 30
    reg_epochs: int = 45
    fuse_epochs: int = 150
    sig_lr: float = 0.2
    deconv_lr: float = 0.1
    align_lr: float = 0.05
    reg_lr: float = 0.03
    fuse_lr: float = 0.3
    embed_dim: int = 32
    align_hidden: int = 64
    reg_hidden: tuple = (64, 64)
    fuse_hidden: int = 32
    reg_coef: float = 1.0
    panel_size: int = 100
    train_frac: float = 0.7
    fuse_frac: float = 0.1
    align_batch: int = 128
    reg_batch: int = 128

    def __post_init__(self):
        if isinstance(self.reg_hidden, list):
            self.reg_hidden = tuple(self.reg_hidden)
        if not (0 < self.train_frac < 1 and 0 < self.fuse_frac < 1):
            raise InputError("split fractions must lie in (0, 1)")
        if self.train_frac + self.fuse_frac >= 1:
            raise InputError("train_frac + fuse_frac must leave room for a test split")


@dataclass
class PipelineConfig:
    synth: SynthConfig = field(default_factory=SynthConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    anneal: AnnealSchedule = field(default_factory=AnnealSchedule)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        if not isinstance(doc, dict):
            raise InputError("bad config: the top level must be an object")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise InputError(f"bad config: unknown key {unknown[0]!r}")
        if isinstance(doc.get("synth"), dict) and "seed" in doc["synth"]:
            raise InputError("bad config: 'synth.seed' is not accepted; the run "
                             "seed (--seed, DUET_SEED or top-level 'seed') is used")
        try:
            return cls(
                synth=SynthConfig(**doc.get("synth", {})),
                retrieval=RetrievalConfig(**doc.get("retrieval", {})),
                anneal=AnnealSchedule(**doc.get("anneal", {})),
                train=TrainConfig(**doc.get("train", {})),
                seed=int(doc.get("seed", 0)),
            )
        except TypeError as exc:
            raise InputError(f"bad config: {exc}") from None

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        p = Path(path)
        if not p.exists():
            raise InputError(f"no such file: {p}")
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON in {p}: {exc}") from None
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        doc = asdict(self)
        del doc["synth"]["seed"]  # the run seed replaces it (stage_synth)
        doc["train"]["reg_hidden"] = list(doc["train"]["reg_hidden"])
        return doc


def _spot_ids(n: int) -> list[str]:
    return [f"s{i:05d}" for i in range(n)]


def _stamp(ws: Path, stage: str, cfg: PipelineConfig, seed: int, outputs):
    update_manifest(ws / MANIFEST, stage, seed, cfg.to_dict(),
                    [ws / f for f in outputs])


# ---------------------------------------------------------------------------
# Stage: synth
# ---------------------------------------------------------------------------


def stage_synth(cfg: PipelineConfig, seed: int, ws: Path) -> None:
    ws.mkdir(parents=True, exist_ok=True)
    synth_cfg = replace(cfg.synth, seed=seed)
    sc, truth = gen_sc(synth_cfg)
    st_counts, f_img, f_fm, gating_truth = gen_spots(synth_cfg, truth)

    genes = truth.gene_names
    cells = [f"c{i:05d}" for i in range(sc.n_cells)]
    spots = _spot_ids(st_counts.shape[0])
    types = [f"t{j}" for j in range(synth_cfg.n_types)]
    feats = [f"f{j}" for j in range(synth_cfg.feature_dim)]

    write_matrix_tsv(ws / "sc_counts.tsv", sc.counts, cells, genes)
    labels = np.stack([sc.cell_type, sc.batch], axis=1).astype(np.float64)
    write_matrix_tsv(ws / "sc_labels.tsv", labels, cells, ["cell_type", "batch"])
    write_matrix_tsv(ws / "st_counts.tsv", st_counts, spots, genes)
    write_matrix_tsv(ws / "features_img.tsv", f_img, spots, feats)
    write_matrix_tsv(ws / "features_fm.tsv", f_fm, spots, feats)
    write_matrix_tsv(ws / "truth_w.tsv", truth.w_true, spots, types)
    write_matrix_tsv(ws / "truth_n.tsv", truth.n_true[:, None], spots, ["n"])
    write_matrix_tsv(ws / "truth_d.tsv", truth.d_true[:, None], spots, ["d"])
    write_matrix_tsv(ws / "truth_mu.tsv", truth.mu_true, types, genes)
    write_matrix_tsv(ws / "gating_truth.tsv", gating_truth.g, spots, types)
    write_ids_tsv(ws / "target_genes.tsv", truth.target_genes)

    n = len(spots)
    perm = Rng(seed).child("split").permutation(n)
    n_train = int(round(cfg.train.train_frac * n))
    n_fuse = int(round(cfg.train.fuse_frac * n))
    n_test = n - n_train - n_fuse
    if min(n_train, n_fuse, n_test) < 2:
        raise InputError(
            f"splits too small for {n} spots: {n_train}/{n_fuse}/{n_test}"
        )
    ids = np.array(spots)
    write_ids_tsv(ws / "split_train.tsv", ids[np.sort(perm[:n_train])])
    write_ids_tsv(ws / "split_fuse.tsv",
                  ids[np.sort(perm[n_train:n_train + n_fuse])])
    write_ids_tsv(ws / "split_test.tsv", ids[np.sort(perm[n_train + n_fuse:])])

    _stamp(ws, "synth", cfg, seed, [
        "sc_counts.tsv", "sc_labels.tsv", "st_counts.tsv", "features_img.tsv",
        "features_fm.tsv", "truth_w.tsv", "truth_n.tsv", "truth_d.tsv",
        "truth_mu.tsv", "gating_truth.tsv", "target_genes.tsv",
        "split_train.tsv", "split_fuse.tsv", "split_test.tsv",
    ])


# ---------------------------------------------------------------------------
# Workspace readers
# ---------------------------------------------------------------------------


def _read_targets(ws: Path):
    st, spots, genes = read_matrix_tsv(ws / "st_counts.tsv")
    target_genes = read_ids_tsv(ws / "target_genes.tsv")
    gene_pos = {g: i for i, g in enumerate(genes)}
    try:
        idx = np.array([gene_pos[g] for g in target_genes])
    except KeyError as exc:
        raise InputError(f"target gene missing from st_counts: {exc}") from None
    y = log1p_transform(st[:, idx])
    return st, spots, genes, target_genes, y


def _split_indices(ws: Path, spots: list[str]) -> dict:
    pos = {s: i for i, s in enumerate(spots)}
    out = {}
    for name in ("train", "fuse", "test"):
        ids = read_ids_tsv(ws / f"split_{name}.tsv")
        try:
            out[name] = np.array([pos[s] for s in ids])
        except KeyError as exc:
            raise InputError(f"split id missing from st_counts: {exc}") from None
    return out


def _read_features(ws: Path, name: str, n_spots: int) -> np.ndarray:
    feats, ids, _ = read_matrix_tsv(ws / name)
    if feats.shape[0] != n_spots:
        raise InputError(f"{name} rows disagree with st_counts")
    return feats


def _read_gating(ws: Path, n_spots: int) -> np.ndarray:
    g, _, _ = read_matrix_tsv(ws / "gating.tsv")
    if g.shape[0] != n_spots:
        raise InputError("gating.tsv rows disagree with st_counts")
    return g


# ---------------------------------------------------------------------------
# Stage: deconv (signatures + abundance posterior + gating)
# ---------------------------------------------------------------------------


def stage_deconv(cfg: PipelineConfig, seed: int, ws: Path) -> None:
    rng = Rng(seed).child("deconv-stage")
    sc_counts, cells, genes = read_matrix_tsv(ws / "sc_counts.tsv")
    labels, _, label_cols = read_matrix_tsv(ws / "sc_labels.tsv")
    if label_cols != ["cell_type", "batch"]:
        raise InputError("sc_labels.tsv must have cell_type and batch columns")
    data = ScDataset(
        counts=sc_counts.astype(np.int64),
        cell_type=labels[:, 0].astype(np.int64),
        batch=labels[:, 1].astype(np.int64),
    )
    model = fit_signatures(data, cfg.train.sig_epochs, lr=cfg.train.sig_lr)
    signature = model.signature()  # (G, T)
    types = [f"t{j}" for j in range(data.n_types)]
    write_matrix_tsv(ws / "signature.tsv", signature, genes, types)

    target_genes = read_ids_tsv(ws / "target_genes.tsv")
    panel = select_panel(genes, target_genes, k=cfg.train.panel_size,
                         rng=rng.child("panel"))
    write_ids_tsv(ws / "panel_genes.tsv", panel)
    gene_pos = {g: i for i, g in enumerate(genes)}
    panel_idx = np.array([gene_pos[g] for g in panel])

    st, spots, st_genes, _, _ = _read_targets(ws)
    if st_genes != genes:
        raise InputError("st_counts and sc_counts gene columns disagree")
    post = deconvolve(st[:, panel_idx].astype(np.int64), signature[panel_idx],
                      cfg.train.deconv_epochs, rng.child("vi"),
                      lr=cfg.train.deconv_lr)
    write_matrix_tsv(ws / "deconv_w_mean.tsv", post.w_mean, spots, types)
    write_matrix_tsv(ws / "deconv_w_q05.tsv", post.w_q05, spots, types)
    write_matrix_tsv(ws / "proportions.tsv", post.proportions(), spots, types)

    n_true, _, _ = read_matrix_tsv(ws / "truth_n.tsv")
    sig = build_gating(post, n_true[:, 0])
    write_matrix_tsv(ws / "gating.tsv", sig.g, spots, types)

    _stamp(ws, "deconv", cfg, seed, [
        "signature.tsv", "panel_genes.tsv", "deconv_w_mean.tsv",
        "deconv_w_q05.tsv", "proportions.tsv", "gating.tsv",
    ])


# ---------------------------------------------------------------------------
# Stage: align
# ---------------------------------------------------------------------------


def stage_align(cfg: PipelineConfig, seed: int, ws: Path) -> None:
    rng = Rng(seed).child("align-stage")
    st, spots, _, _, y = _read_targets(ws)
    f_img = _read_features(ws, "features_img.tsv", len(spots))
    idx = _split_indices(ws, spots)["train"]
    data = PairedBatch(
        img_features=f_img[idx],
        expressions=y[idx],
        spot_ids=[spots[i] for i in idx],
    )
    tc = cfg.train
    model = train_align(
        data, tc.align_epochs,
        SgdState(lr=tc.align_lr), rng,
        cfg=AlignTrainConfig(epochs=tc.align_epochs, batch_size=tc.align_batch,
                             embed_dim=tc.embed_dim, hidden=tc.align_hidden),
    )
    save_align(ws / "align.ckpt", model)
    _stamp(ws, "align", cfg, seed, ["align.ckpt"])


# ---------------------------------------------------------------------------
# Retrieval helpers shared by the later stages
# ---------------------------------------------------------------------------


def _train_db(ws: Path, spots, y, gating):
    idx = _split_indices(ws, spots)["train"]
    model = load_align(ws / "align.ckpt")
    db = rebuild_db(model, y[idx], gating[idx], [spots[i] for i in idx])
    return model, db


# ---------------------------------------------------------------------------
# Stage: regress
# ---------------------------------------------------------------------------


def stage_regress(cfg: PipelineConfig, seed: int, ws: Path) -> None:
    rng = Rng(seed).child("regress-stage")
    st, spots, _, _, y = _read_targets(ws)
    f_img = _read_features(ws, "features_img.tsv", len(spots))
    f_fm = _read_features(ws, "features_fm.tsv", len(spots))
    gating = _read_gating(ws, len(spots))
    idx = _split_indices(ws, spots)["train"]
    align_model = load_align(ws / "align.ckpt")
    sources = RetrievalSources(
        expressions=y[idx],
        gating=gating[idx],
        spot_ids=[spots[i] for i in idx],
        img_features=f_img[idx],
        cfg=cfg.retrieval,
    )
    tc = cfg.train
    model = RegModel.init(f_fm.shape[1], y.shape[1], rng.child("init"),
                          hidden=tc.reg_hidden)
    model = train_regress(
        f_fm[idx], y[idx], align_model, sources, cfg.anneal, tc.reg_epochs,
        SgdState(lr=tc.reg_lr), rng.child("fit"), batch_size=tc.reg_batch,
        model=model,
    )
    save_reg(ws / "reg.ckpt", model)
    _stamp(ws, "regress", cfg, seed, ["reg.ckpt"])


# ---------------------------------------------------------------------------
# Stage: fuse
# ---------------------------------------------------------------------------


def stage_fuse(cfg: PipelineConfig, seed: int, ws: Path) -> None:
    rng = Rng(seed).child("fuse-stage")
    st, spots, _, _, y = _read_targets(ws)
    f_img = _read_features(ws, "features_img.tsv", len(spots))
    f_fm = _read_features(ws, "features_fm.tsv", len(spots))
    gating = _read_gating(ws, len(spots))
    subset = _split_indices(ws, spots)["fuse"]

    align_model, db = _train_db(ws, spots, y, gating)
    y_ret = retrieve_spots(align_model, db, f_img[subset], gating[subset],
                           cfg.retrieval)
    reg_model = load_reg(ws / "reg.ckpt")
    y_reg = reg_model.predict(f_fm[subset])

    adapter = FuseAdapter.init(f_fm.shape[1], rng.child("init"),
                               hidden=cfg.train.fuse_hidden,
                               reg_coef=cfg.train.reg_coef)
    train_fuse(adapter, (f_fm[subset], y_ret, y_reg, y[subset]),
               cfg.train.fuse_epochs, SgdState(lr=cfg.train.fuse_lr),
               rng.child("fit"))
    save_fuse(ws / "fuse.ckpt", adapter)
    _stamp(ws, "fuse", cfg, seed, ["fuse.ckpt"])


# ---------------------------------------------------------------------------
# Stage: retrieve / predict
# ---------------------------------------------------------------------------


def stage_retrieve(cfg: PipelineConfig, seed: int, ws: Path) -> None:
    st, spots, _, target_genes, y = _read_targets(ws)
    f_img = _read_features(ws, "features_img.tsv", len(spots))
    gating = _read_gating(ws, len(spots))
    subset = _split_indices(ws, spots)["test"]
    model, db = _train_db(ws, spots, y, gating)
    y_ret = retrieve_spots(model, db, f_img[subset], gating[subset], cfg.retrieval)
    ids = [spots[i] for i in subset]
    write_matrix_tsv(ws / "pred_ret.tsv", y_ret, ids, target_genes)
    _stamp(ws, "retrieve", cfg, seed, ["pred_ret.tsv"])


def stage_predict(cfg: PipelineConfig, seed: int, ws: Path) -> None:
    st, spots, _, target_genes, y = _read_targets(ws)
    f_img = _read_features(ws, "features_img.tsv", len(spots))
    f_fm = _read_features(ws, "features_fm.tsv", len(spots))
    gating = _read_gating(ws, len(spots))
    subset = _split_indices(ws, spots)["test"]
    ids = [spots[i] for i in subset]

    align_model, db = _train_db(ws, spots, y, gating)
    y_ret = retrieve_spots(align_model, db, f_img[subset], gating[subset],
                           cfg.retrieval)
    reg_model = load_reg(ws / "reg.ckpt")
    y_reg = reg_model.predict(f_fm[subset])
    adapter = load_fuse(ws / "fuse.ckpt")
    y_duet, alphas = fuse_predict_batch(adapter, f_fm[subset], y_ret, y_reg)

    write_matrix_tsv(ws / "pred_ret.tsv", y_ret, ids, target_genes)
    write_matrix_tsv(ws / "pred_reg.tsv", y_reg, ids, target_genes)
    write_matrix_tsv(ws / "pred_duet.tsv", y_duet, ids, target_genes)
    write_matrix_tsv(ws / "alphas.tsv", alphas[:, None], ids, ["alpha"])
    write_matrix_tsv(ws / "y_test.tsv", y[subset], ids, target_genes)
    _stamp(ws, "predict", cfg, seed, [
        "pred_ret.tsv", "pred_reg.tsv", "pred_duet.tsv", "alphas.tsv",
        "y_test.tsv",
    ])


# ---------------------------------------------------------------------------
# Stage: eval
# ---------------------------------------------------------------------------


def stage_eval(cfg: PipelineConfig, seed: int, ws: Path) -> dict:
    y, ids, target_genes = read_matrix_tsv(ws / "y_test.tsv")
    report = {}
    outputs = ["metrics.json"]
    for branch in ("duet", "ret", "reg"):
        pred, pids, _ = read_matrix_tsv(ws / f"pred_{branch}.tsv")
        if pids != ids:
            raise InputError(f"pred_{branch}.tsv spot ids disagree with y_test.tsv")
        report[branch] = metrics(pred, y).to_dict()
        vc = variance_curve(pred, y)
        name = f"variance_curve_{branch}.tsv"
        write_matrix_tsv(
            ws / name,
            np.stack([vc.truth_var_norm, vc.pred_var_norm], axis=1),
            [target_genes[j] for j in vc.order],
            ["truth_var_norm", "pred_var_norm"],
        )
        outputs.append(name)
    write_atomic(ws / "metrics.json",
                 json.dumps(report, indent=2, sort_keys=True) + "\n")
    _stamp(ws, "eval", cfg, seed, outputs)
    return report


STAGES = {
    "synth": stage_synth,
    "deconv": stage_deconv,
    "align": stage_align,
    "regress": stage_regress,
    "fuse": stage_fuse,
    "retrieve": stage_retrieve,
    "predict": stage_predict,
    "eval": stage_eval,
}

PIPELINE_ORDER = ("synth", "deconv", "align", "regress", "fuse", "predict", "eval")


def run_pipeline(cfg: PipelineConfig, seed: int, ws: Path) -> dict:
    """All stages in order; returns the final metrics report."""
    result = None
    for name in PIPELINE_ORDER:
        result = STAGES[name](cfg, seed, ws)
    return result
