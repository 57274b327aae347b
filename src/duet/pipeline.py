"""End-to-end orchestration over a file workspace.

Each stage reads its inputs from TSV/checkpoint files in the workspace and
writes its outputs back, so stages can run standalone from the CLI or in
sequence via run_pipeline. Every source of randomness is a named child of the
single run seed; re-running any stage with the same seed and inputs rewrites
byte-identical outputs (the manifest, which carries wall-clock timestamps, is
the one exception). Every file is written atomically (tsvio.write_atomic).

The _stage decorator declares each stage where it is defined: its name and
its input and output files (STAGE_IO). It registers in STAGES the runner all
stages share, which wraps a path (the CLI, tests) in a fresh Workspace, sets
the running stage, runs the body and records the stage in the manifest. A
stage reads and writes only through a Workspace, which refuses (InputError)
any name its stage did not declare. The Workspace reads each file at most
once per run and hands every write to later reads: a TSV written or read
through it is held parsed, with read-only float64 arrays, so run_pipeline,
which passes one Workspace to every stage, parses no TSV at all; a checkpoint
is held as its bytes and decoded per load, so no two stages share a model.
It also keeps the sha256 of the bytes it read or wrote, and the manifest
records those for each stage's declared outputs and inputs. A file it reads
from disk must hash as the manifest records it among its producer's outputs
(if it records it at all), so a file changed since its stage wrote it fails
with an InputError naming it. A stage may ask for some rows (by position) and
columns (by id) of a matrix. Only those cells are parsed if the manifest
vouches for the file: every hash it records for it, as an output and as an
input, is the file's, so write_matrix_tsv wrote it and every cell parses.
Any other file is parsed whole, every cell checked, and then indexed, once
the rows asked for are known to exist. Every cell parsed from disk must be
finite: no stage writes another, and no fit takes one.
Per-spot matrices (features, gating, cell counts) must carry st_counts.tsv's
spot ids, in order, and a checkpoint's dims must match the feature columns
and target genes it is used with (_check_dims).
The workspace holds exactly the files STAGE_IO names, plus manifest.json.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .align import load_align, save_align, train_align
from .core import Mlp, Rng, SgdState, bound, check_config
from .errors import InputError
from .fuse import FuseAdapter, fuse_predict_batch, load_fuse, save_fuse, train_fuse
from .metrics import log1p_transform, metrics, variance_curve
from .regress import BATCH_SIZE as REG_BATCH, AnnealSchedule, load_reg, save_reg, train_regress
from .retrieval import RetrievalConfig, rebuild_db, retrieve_spots
from .scprior import ScDataset, build_gating, deconvolve, fit_signatures, select_panel
from .scprior import validate_counts
from .synth import SynthConfig, gen_sc, gen_spots
from .tsvio import (
    column_positions,
    read_bytes,
    read_ids_tsv,
    read_manifest,
    read_matrix_tsv,
    update_manifest,
    write_atomic,
    write_ids_tsv,
    write_matrix_tsv,
)

MANIFEST = "manifest.json"


@dataclass
class TrainConfig:
    sig_epochs: int = bound(30, ge=1)
    deconv_epochs: int = bound(40, ge=1)
    align_epochs: int = bound(30, ge=0)
    reg_epochs: int = bound(45, ge=1)
    fuse_epochs: int = bound(150, ge=0)
    sig_lr: float = bound(0.2, gt=0)
    deconv_lr: float = bound(0.1, gt=0)
    align_lr: float = bound(0.05, gt=0)
    reg_lr: float = bound(0.03, gt=0)
    fuse_lr: float = bound(0.3, gt=0)
    embed_dim: int = bound(32, ge=1)
    align_hidden: int = bound(64, ge=1)
    reg_hidden: tuple = bound((64, 64), ge=1)
    fuse_hidden: int = bound(32, ge=1)
    reg_coef: float = bound(1.0, ge=0)
    panel_size: int = bound(100, ge=1)
    # the split rule below bounds both fractions
    train_frac: float = 0.7
    fuse_frac: float = 0.1
    align_batch: int = bound(128, ge=2)  # InfoNCE needs two pairs a batch
    reg_batch: int = bound(REG_BATCH, ge=1)

    def __post_init__(self):
        check_config(self, "train")
        if not (0 < self.train_frac and 0 < self.fuse_frac
                and self.train_frac + self.fuse_frac < 1):
            raise InputError("bad config: split fractions 'train.train_frac' and "
                             "'train.fuse_frac' must be > 0 and leave room for a test split")


@dataclass
class PipelineConfig:
    synth: SynthConfig = field(default_factory=SynthConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    anneal: AnnealSchedule = field(default_factory=AnnealSchedule)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = bound(0, ge=0, lt=2**64)

    def __post_init__(self):
        check_config(self, "")
        s, t = self.synth, self.train
        if s.n_target_genes + t.panel_size > s.n_genes:
            raise InputError("bad config: need 'synth.n_target_genes' + 'train.panel_size' "
                             "<= 'synth.n_genes' for a disjoint deconvolution panel")
        sizes = _split_sizes(self)
        if min(sizes) < 2:
            raise InputError(f"bad config: splits too small: 'synth.n_spots' {s.n_spots}, "
                             f"'train.train_frac' {t.train_frac} and 'train.fuse_frac' "
                             f"{t.fuse_frac} give train/fuse/test {sizes}; each needs "
                             ">= 2 spots")

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """The config `doc` gives; a key it leaves out keeps its default."""
        return _from_doc(cls, doc, "")

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        p = Path(path)
        try:
            doc = json.loads(read_bytes(p).decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise InputError(f"invalid JSON in {p}: {exc}") from None
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        doc = asdict(self)
        del doc["synth"]["seed"]  # the run seed replaces it (stage_synth)
        doc["train"]["reg_hidden"] = list(doc["train"]["reg_hidden"])
        return doc


def _split_sizes(cfg: PipelineConfig) -> tuple[int, int, int]:
    """(n_train, n_fuse, n_test): how many of the run's spots each split gets."""
    n = cfg.synth.n_spots
    n_train = round(cfg.train.train_frac * n)
    n_fuse = round(cfg.train.fuse_frac * n)
    return n_train, n_fuse, n - n_train - n_fuse


def _from_doc(cls, doc, section: str):
    """A `cls` (config section `section`, or the top level if it is empty) from
    `doc`, which must be an object whose every key names a field of `cls`. The
    run seed replaces synth.seed, so that key is refused too."""
    if not isinstance(doc, dict):
        where = repr(section) if section else "the top level"
        raise InputError(f"bad config: {where} must be an object")
    if section == "synth" and "seed" in doc:
        raise InputError("bad config: 'synth.seed' is not accepted; the run seed "
                         "(--seed, DUET_SEED or top-level 'seed') is used")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise InputError(f"bad config: unknown key {f'{section}.{unknown[0]}'.lstrip('.')!r}")
    return cls(**{f.name: _from_doc(f.default_factory, doc[f.name], f.name)
                  if is_dataclass(f.default_factory) else doc[f.name]
                  for f in fields(cls) if f.name in doc})


# ---------------------------------------------------------------------------
# Workspace: one run's files
# ---------------------------------------------------------------------------


class Workspace:
    """A workspace directory as one run sees it; see the module docstring.

    An instance must not outlive one run: it never re-reads a file it holds,
    so files changed on disk after it read or wrote them are not seen.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.stage = None  # the running stage, whose STAGE_IO entry applies
        self._held = {}  # name -> parsed TSV, id list or checkpoint bytes
        self._fetched = {}  # name -> bytes read and checked, not yet parsed
        self._sha = {}  # name -> sha256 of the bytes read or written
        self._recorded = None  # ({name: output sha256}, {name: input sha256s})

    def _declared(self, name: str, io: int) -> Path:
        if name not in STAGE_IO[self.stage][io]:
            kind = ("input", "output")[io]
            raise InputError(f"stage {self.stage} does not declare {name} "
                             f"as an {kind}")
        return self.root / name

    def _load(self, name: str, parse=None):
        """What parse(path, data) makes of `name`'s bytes, held from the first
        call on; without `parse`, just read and check them for a later call."""
        path = self._declared(name, 0)
        if name not in self._held and name not in self._fetched:
            data = read_bytes(path)
            sha = hashlib.sha256(data).hexdigest()
            if self._records(name)[0] not in (None, sha):
                raise InputError(f"{path} changed after its stage wrote it: its "
                                 f"sha256 is not the one {MANIFEST} records")
            self._fetched[name], self._sha[name] = data, sha
        if parse and name not in self._held:
            self._held[name] = parse(path, self._fetched.pop(name))
        return self._held.get(name)

    def _records(self, name: str) -> tuple[str | None, set]:
        """The sha256 the manifest records for `name` as an output (or None)
        and those it records for it as an input; it is read at most once."""
        if self._recorded is None:
            self._recorded = ({}, {})
            path = self.root / MANIFEST
            if path.exists():
                for entry in read_manifest(path, read_bytes(path))["stages"].values():
                    self._recorded[0].update(entry["outputs"])
                    for n, sha in entry["inputs"].items():
                        self._recorded[1].setdefault(n, set()).add(sha)
        outputs, inputs = self._recorded
        return outputs.get(name), inputs.get(name, set())

    def _keep(self, name: str, value, data: bytes) -> None:
        self._held[name] = value
        self._sha[name] = hashlib.sha256(data).hexdigest()

    def matrix(self, name: str, rows=None, cols=None):
        """(matrix, row ids, column ids), as read_matrix_tsv; a read-only matrix
        of the rows at positions `rows` and the columns with ids `cols` (each
        all when None), parsed in part only if the manifest vouches for it."""
        want = None if rows is None and cols is None else (
            None if rows is None else tuple(rows), None if cols is None else tuple(cols))

        def parse(path, data):
            output, inputs = self._records(name)
            got = want if want and inputs | {output} == {self._sha[name]} else None
            m, row_ids, col_ids = (read_matrix_tsv(path, data, rows=rows, cols=cols)
                                   if got else read_matrix_tsv(path, data))
            if not np.isfinite(m).all():
                raise InputError(f"non-finite cell in {path}")
            return m, row_ids, col_ids, got

        if name in self._held and self._held[name][3] not in (None, want):
            del self._held[name]  # it holds other cells: parse again
        m, row_ids, col_ids, got = self._load(name, parse)
        if got != want:  # the whole matrix: take the cells asked for
            if rows is not None:
                pos = np.asarray(rows, dtype=np.intp)
                if pos.size and pos.max() >= len(m):
                    raise InputError(f"{self.root / name} has no row at position "
                                     f"{pos[pos >= len(m)].min()}")
                m = m[pos]
            if cols is not None:
                m = m[:, column_positions(self.root / name, col_ids, cols)]
        m.flags.writeable = False
        return m, list(row_ids), list(col_ids)

    def spot_matrix(self, name: str, rows=None) -> np.ndarray:
        """`name`'s matrix, as matrix(), whose row ids must be st_counts.tsv's."""
        m, ids, _ = self.matrix(name, rows=rows)
        if ids != (self._held.get("st_counts.tsv") or self.matrix("st_counts.tsv"))[1]:
            raise InputError(f"{name} row ids disagree with the spot ids of "
                             "st_counts.tsv")
        return m

    def ids(self, name: str) -> list[str]:
        return list(self._load(name, read_ids_tsv))

    def checkpoint(self, name: str, load):
        return load(self.root / name, self._load(name, lambda path, data: data))

    def write_matrix(self, name: str, matrix, row_ids, col_ids) -> None:
        m = np.array(matrix, dtype=np.float64)
        rows, cols = [str(r) for r in row_ids], [str(c) for c in col_ids]
        data = write_matrix_tsv(self._declared(name, 1), m, rows, cols)
        m.flags.writeable = False
        self._keep(name, (m, rows, cols, None), data)

    def write_ids(self, name: str, ids) -> None:
        ids = [str(i) for i in ids]
        self._keep(name, ids, write_ids_tsv(self._declared(name, 1), ids))

    def save(self, name: str, write, value) -> None:
        """Write `value` with write(path, value), which returns the bytes."""
        data = write(self._declared(name, 1), value)
        self._keep(name, data, data)

    def stamp(self, cfg: PipelineConfig, seed: int) -> None:
        """Record the running stage, with its files' hashes, in the manifest."""
        inputs, outputs = STAGE_IO[self.stage]
        update_manifest(self.root / MANIFEST, self.stage, seed, cfg.to_dict(),
                        {n: self._sha[n] for n in outputs},
                        {n: self._sha[n] for n in inputs})


# each stage's (inputs, outputs): the only files it may read and write, and
# the ones its manifest entry hashes
STAGE_IO = {}
STAGES = {}  # name -> runner(cfg, seed, path or Workspace), in pipeline order


def _stage(inputs: tuple, outputs: tuple):
    """Register the decorated `stage_<name>(cfg, seed, ws)` body as stage
    <name>, reading `inputs` and writing `outputs`. The decorated name is
    bound to the runner, which is STAGES[<name>]."""
    def register(body):
        name = body.__name__.removeprefix("stage_")
        STAGE_IO[name] = (inputs, outputs)

        @functools.wraps(body)
        def run(cfg: PipelineConfig, seed: int, ws: Path | Workspace):
            ws = ws if isinstance(ws, Workspace) else Workspace(ws)
            ws.stage = name
            result = body(cfg, seed, ws)
            ws.stamp(cfg, seed)
            return result

        STAGES[name] = run
        return run
    return register


# ---------------------------------------------------------------------------
# Workspace readers
# ---------------------------------------------------------------------------


def _targets(ws: Workspace):
    """Spot ids, target gene ids and log1p target expression (spots, targets)."""
    ws._load("st_counts.tsv")  # read first: its spot ids come before the targets
    target_genes = ws.ids("target_genes.tsv")
    try:
        st, spots, _ = ws.matrix("st_counts.tsv", cols=target_genes)
    except InputError as exc:  # a missing column may be the fault of either file
        raise InputError(f"{exc} (reading the columns of the target genes in "
                         f"{ws.root / 'target_genes.tsv'})") from None
    return spots, target_genes, log1p_transform(st)


def _splits(ws: Workspace, spots: list[str], *names: str) -> list[np.ndarray]:
    """Positions in `spots` of the ids in split_<name>.tsv, for each of
    `names`; each file lists at least one id, and no id may be listed twice
    across those files."""
    pos = {s: i for i, s in enumerate(spots)}
    listed = {}  # id -> the split file that lists it
    out = []
    for name in names:
        file = f"split_{name}.tsv"
        ids = ws.ids(file)
        if not ids:
            raise InputError(f"{ws.root / file}: lists no spots")
        try:
            out.append(np.array([pos[s] for s in ids], dtype=np.intp))
        except KeyError as exc:
            raise InputError(f"{ws.root / file}: split id missing from "
                             f"{ws.root / 'st_counts.tsv'}: {exc}") from None
        for s in ids:
            if s in listed:
                where = "listed twice" if listed[s] == file else f"also listed in {listed[s]}"
                raise InputError(f"{ws.root / file}: spot {s!r} is {where}")
            listed[s] = file
    return out


# ---------------------------------------------------------------------------
# Stage: synth
# ---------------------------------------------------------------------------


@_stage((), (
    "sc_counts.tsv", "sc_labels.tsv", "st_counts.tsv", "features_img.tsv",
    "features_fm.tsv", "cell_counts.tsv", "truth_w.tsv", "truth_d.tsv",
    "truth_mu.tsv", "target_genes.tsv",
    "split_train.tsv", "split_fuse.tsv", "split_test.tsv"))
def stage_synth(cfg: PipelineConfig, seed: int, ws: Workspace) -> None:
    try:
        ws.root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make workspace {ws.root}: {exc.strerror}") from None
    synth_cfg = replace(cfg.synth, seed=seed)
    sc, truth = gen_sc(synth_cfg)
    st_counts, f_img, f_fm = gen_spots(synth_cfg, truth)
    truth.mu_spot = None  # no file holds it; free its (S, G) array first

    genes = truth.gene_names
    cells = [f"c{i:05d}" for i in range(sc.n_cells)]
    spots = [f"s{i:05d}" for i in range(st_counts.shape[0])]
    types = [f"t{j}" for j in range(synth_cfg.n_types)]
    feats = [f"f{j}" for j in range(synth_cfg.feature_dim)]

    ws.write_matrix("sc_counts.tsv", sc.counts, cells, genes)
    labels = np.stack([sc.cell_type, sc.batch], axis=1).astype(np.float64)
    ws.write_matrix("sc_labels.tsv", labels, cells, ["cell_type", "batch"])
    ws.write_matrix("st_counts.tsv", st_counts, spots, genes)
    del st_counts  # the workspace holds its float64 copy
    ws.write_matrix("features_img.tsv", f_img, spots, feats)
    ws.write_matrix("features_fm.tsv", f_fm, spots, feats)
    # observed counts, which deconv reads; truth_* files are for scoring only
    ws.write_matrix("cell_counts.tsv", truth.n_true[:, None], spots, ["n"])
    ws.write_matrix("truth_w.tsv", truth.w_true, spots, types)
    ws.write_matrix("truth_d.tsv", truth.d_true[:, None], spots, ["d"])
    ws.write_matrix("truth_mu.tsv", truth.mu_true, types, genes)
    ws.write_ids("target_genes.tsv", truth.target_genes)

    n_train, n_fuse, _ = _split_sizes(cfg)
    perm = Rng(seed).child("split").permutation(len(spots))
    ids = np.array(spots)
    ws.write_ids("split_train.tsv", ids[np.sort(perm[:n_train])])
    ws.write_ids("split_fuse.tsv", ids[np.sort(perm[n_train:n_train + n_fuse])])
    ws.write_ids("split_test.tsv", ids[np.sort(perm[n_train + n_fuse:])])


# ---------------------------------------------------------------------------
# Stage: deconv (signatures + abundance posterior + gating)
# ---------------------------------------------------------------------------


@_stage(("sc_counts.tsv", "sc_labels.tsv", "target_genes.tsv", "st_counts.tsv",
         "cell_counts.tsv"),
        ("signature.tsv", "panel_genes.tsv", "proportions.tsv", "gating.tsv"))
def stage_deconv(cfg: PipelineConfig, seed: int, ws: Workspace) -> None:
    rng = Rng(seed).child("deconv-stage")
    sc_counts, _, genes = ws.matrix("sc_counts.tsv")
    labels, _, label_cols = ws.matrix("sc_labels.tsv")
    if label_cols != ["cell_type", "batch"]:
        raise InputError("sc_labels.tsv must have cell_type and batch columns")
    try:
        sc_counts = validate_counts(sc_counts, "single-cell counts")
    except InputError as exc:
        raise InputError(f"{ws.root / 'sc_counts.tsv'}: {exc}") from None
    if sc_counts.shape[0] == 0:
        raise InputError(f"{ws.root / 'sc_counts.tsv'}: empty single-cell dataset")
    try:
        data = ScDataset(counts=sc_counts, cell_type=labels[:, 0], batch=labels[:, 1])
    except InputError as exc:
        raise InputError(f"{ws.root / 'sc_labels.tsv'}: {exc}") from None
    model = fit_signatures(data, cfg.train.sig_epochs, lr=cfg.train.sig_lr)
    signature = model.signature()  # (G, T)
    types = [f"t{j}" for j in range(data.n_types)]
    ws.write_matrix("signature.tsv", signature, genes, types)

    target_genes = ws.ids("target_genes.tsv")
    panel = select_panel(genes, target_genes, k=cfg.train.panel_size,
                         rng=rng.child("panel"))
    ws.write_ids("panel_genes.tsv", panel)
    gene_pos = {g: i for i, g in enumerate(genes)}
    panel_idx = np.array([gene_pos[g] for g in panel])

    st, spots, st_genes = ws.matrix("st_counts.tsv")
    try:  # every target gene is measured
        column_positions(ws.root / "st_counts.tsv", st_genes, target_genes)
    except InputError as exc:
        raise InputError(f"{exc}, which {ws.root / 'target_genes.tsv'} lists") from None
    if st_genes != genes:
        raise InputError("st_counts and sc_counts gene columns disagree")
    try:
        post = deconvolve(st[:, panel_idx], signature[panel_idx],
                          cfg.train.deconv_epochs, rng.child("vi"),
                          lr=cfg.train.deconv_lr)
    except InputError as exc:
        raise InputError(f"{ws.root / 'st_counts.tsv'}: {exc}") from None
    ws.write_matrix("proportions.tsv", post.proportions(), spots, types)

    counts = ws.spot_matrix("cell_counts.tsv")[:, 0]
    try:
        gating = build_gating(post, counts)
    except InputError as exc:
        raise InputError(f"{ws.root / 'cell_counts.tsv'}: {exc}") from None
    ws.write_matrix("gating.tsv", gating, spots, types)


# ---------------------------------------------------------------------------
# Stage: align
# ---------------------------------------------------------------------------


@_stage(("st_counts.tsv", "target_genes.tsv", "features_img.tsv",
         "split_train.tsv"),
        ("align.ckpt",))
def stage_align(cfg: PipelineConfig, seed: int, ws: Workspace) -> None:
    rng = Rng(seed).child("align-stage")
    spots, _, y = _targets(ws)
    [idx] = _splits(ws, spots, "train")
    tc = cfg.train
    model = train_align(ws.spot_matrix("features_img.tsv", rows=idx), y[idx],
                        tc.align_epochs, SgdState(lr=tc.align_lr), rng,
                        batch_size=tc.align_batch, embed_dim=tc.embed_dim,
                        hidden=tc.align_hidden)
    ws.save("align.ckpt", save_align, model)


# ---------------------------------------------------------------------------
# Retrieval helpers shared by the later stages
# ---------------------------------------------------------------------------


def _check_dims(ws: Workspace, ckpt: str, *dims) -> None:
    """Each (what, the checkpoint's dim, file, the file's dim, unit) of `dims`
    must agree, or the InputError names the checkpoint and the file."""
    for what, got, name, want, unit in dims:
        if got != want:
            raise InputError(f"{ws.root / ckpt}: {what} is {got}, but {name} "
                             f"has {want} {unit}")


def _align_model(ws: Workspace, f_img, y):
    model = ws.checkpoint("align.ckpt", load_align)
    _check_dims(ws, "align.ckpt",
                ("image-head input dim", model.img_head.in_dim,
                 "features_img.tsv", f_img.shape[1], "columns"),
                ("gene-head input dim", model.gene_head.in_dim,
                 "target_genes.tsv", y.shape[1], "genes"))
    return model


def _retrieved(cfg: PipelineConfig, ws: Workspace, spots, y, train, query):
    """The retrieval branch's prediction for the spots at positions `query`
    (which may be `train` itself), from the database of the training spots at
    positions `train`: their log1p targets `y` and gating rows under the saved
    alignment model."""
    rows = train if query is train else np.concatenate((train, query))
    f_img = ws.spot_matrix("features_img.tsv", rows=query)
    gating = ws.spot_matrix("gating.tsv", rows=rows)
    model = _align_model(ws, f_img, y)
    db = rebuild_db(model, y[train], gating[:len(train)], [spots[i] for i in train])
    return retrieve_spots(model, db, f_img, gating[len(rows) - len(query):],
                          cfg.retrieval)


def _branch_predictions(cfg: PipelineConfig, ws: Workspace, split: str):
    """(spot ids, target genes, (f_fm, y_ret, y_reg, y)) on split_<split>.tsv's
    spots: their foundation-model features, the retrieval branch's prediction
    from the training spots' database, the regression branch's prediction and
    the log1p targets."""
    spots, target_genes, y = _targets(ws)
    idx, subset = _splits(ws, spots, "train", split)
    f_fm = ws.spot_matrix("features_fm.tsv", rows=subset)
    y_ret = _retrieved(cfg, ws, spots, y, idx, subset)
    reg = ws.checkpoint("reg.ckpt", load_reg)
    _check_dims(ws, "reg.ckpt",
                ("input dim", reg.in_dim, "features_fm.tsv", f_fm.shape[1], "columns"),
                ("output dim", reg.out_dim, "target_genes.tsv", y.shape[1], "genes"))
    y_reg, _ = reg.forward(f_fm)
    return [spots[i] for i in subset], target_genes, (f_fm, y_ret, y_reg, y[subset])


# ---------------------------------------------------------------------------
# Stage: regress
# ---------------------------------------------------------------------------


@_stage(("st_counts.tsv", "target_genes.tsv", "features_img.tsv",
         "features_fm.tsv", "gating.tsv", "split_train.tsv", "align.ckpt"),
        ("reg.ckpt",))
def stage_regress(cfg: PipelineConfig, seed: int, ws: Workspace) -> None:
    rng = Rng(seed).child("regress-stage")
    spots, _, y = _targets(ws)
    [idx] = _splits(ws, spots, "train")
    f_fm = ws.spot_matrix("features_fm.tsv", rows=idx)
    # the consistency targets are retrieved once, as the alignment model and
    # the database are frozen for the stage; at lambda0 = 0 the retrieval
    # inputs are only read, since the manifest hashes every input
    p_ret = _retrieved(cfg, ws, spots, y, idx, idx) if cfg.anneal.lambda0 > 0 else None
    for name in ("features_img.tsv", "gating.tsv", "align.ckpt"):
        ws._load(name)
    tc = cfg.train
    model = Mlp.init([f_fm.shape[1], *tc.reg_hidden, y.shape[1]],
                     rng.child("init", "reg-init"))
    train_regress(
        f_fm, y[idx], p_ret, cfg.anneal, tc.reg_epochs,
        SgdState(lr=tc.reg_lr), rng.child("fit"), model, batch_size=tc.reg_batch,
    )
    ws.save("reg.ckpt", save_reg, model)


# ---------------------------------------------------------------------------
# Stage: fuse
# ---------------------------------------------------------------------------


@_stage(("st_counts.tsv", "target_genes.tsv", "features_img.tsv",
         "features_fm.tsv", "gating.tsv", "split_train.tsv", "split_fuse.tsv",
         "align.ckpt", "reg.ckpt"),
        ("fuse.ckpt",))
def stage_fuse(cfg: PipelineConfig, seed: int, ws: Workspace) -> None:
    rng = Rng(seed).child("fuse-stage")
    _, _, data = _branch_predictions(cfg, ws, "fuse")
    adapter = FuseAdapter.init(data[0].shape[1], rng.child("init"),
                               hidden=cfg.train.fuse_hidden)
    train_fuse(adapter, data, cfg.train.fuse_epochs, SgdState(lr=cfg.train.fuse_lr),
               cfg.train.reg_coef)
    ws.save("fuse.ckpt", save_fuse, adapter)


# ---------------------------------------------------------------------------
# Stage: predict
# ---------------------------------------------------------------------------


@_stage(("st_counts.tsv", "target_genes.tsv", "features_img.tsv",
         "features_fm.tsv", "gating.tsv", "split_train.tsv", "split_test.tsv",
         "align.ckpt", "reg.ckpt", "fuse.ckpt"),
        ("pred_ret.tsv", "pred_reg.tsv", "pred_duet.tsv", "alphas.tsv",
         "y_test.tsv"))
def stage_predict(cfg: PipelineConfig, seed: int, ws: Workspace) -> None:
    ids, target_genes, (f_fm, y_ret, y_reg, y) = _branch_predictions(cfg, ws, "test")
    adapter = ws.checkpoint("fuse.ckpt", load_fuse)
    _check_dims(ws, "fuse.ckpt", ("input dim", adapter.mlp.in_dim, "features_fm.tsv",
                                   f_fm.shape[1], "columns"))
    y_duet, alphas = fuse_predict_batch(adapter, f_fm, y_ret, y_reg)

    ws.write_matrix("pred_ret.tsv", y_ret, ids, target_genes)
    ws.write_matrix("pred_reg.tsv", y_reg, ids, target_genes)
    ws.write_matrix("pred_duet.tsv", y_duet, ids, target_genes)
    ws.write_matrix("alphas.tsv", alphas[:, None], ids, ["alpha"])
    ws.write_matrix("y_test.tsv", y, ids, target_genes)


# ---------------------------------------------------------------------------
# Stage: eval
# ---------------------------------------------------------------------------


@_stage(("y_test.tsv", "pred_duet.tsv", "pred_ret.tsv", "pred_reg.tsv"),
        ("variance_curve_duet.tsv", "variance_curve_ret.tsv",
         "variance_curve_reg.tsv", "metrics.json"))
def stage_eval(cfg: PipelineConfig, seed: int, ws: Workspace) -> dict:
    y, ids, target_genes = ws.matrix("y_test.tsv")
    report = {}
    for branch in ("duet", "ret", "reg"):
        pred, pids, genes = ws.matrix(f"pred_{branch}.tsv")
        if (pids, genes) != (ids, target_genes):
            raise InputError(f"pred_{branch}.tsv spot ids or gene ids disagree "
                             "with y_test.tsv")
        report[branch] = metrics(pred, y).to_dict()
        vc = variance_curve(pred, y)
        ws.write_matrix(
            f"variance_curve_{branch}.tsv",
            np.stack([vc.truth_var_norm, vc.pred_var_norm], axis=1),
            [target_genes[j] for j in vc.order],
            ["truth_var_norm", "pred_var_norm"],
        )
    ws.save("metrics.json", write_atomic,
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


PIPELINE_ORDER = tuple(STAGES)


def run_pipeline(cfg: PipelineConfig, seed: int, ws: Path | Workspace) -> dict:
    """All stages in order, through one Workspace; returns the metrics report."""
    ws = ws if isinstance(ws, Workspace) else Workspace(ws)
    result = None
    for name in PIPELINE_ORDER:
        result = STAGES[name](cfg, seed, ws)
    return result
