import fnmatch
import hashlib
import json
import re
import shutil
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from duet import pipeline, scprior
from duet.errors import InputError
from duet.pipeline import (
    PIPELINE_ORDER,
    STAGE_IO,
    STAGES,
    PipelineConfig,
    TrainConfig,
    Workspace,
    run_pipeline,
    stage_predict,
)
from duet.scprior import fit_signatures
from duet.synth import gen_sc, gen_spots
from duet.tsvio import read_ids_tsv, read_matrix_tsv, write_matrix_tsv

ROOT = Path(__file__).parents[1]
# the README's small demo config; the pipeline, CLI and script tests run it
TINY = json.loads((ROOT / "configs" / "demo.json").read_bytes())

EXPECTED_FILES = [
    "sc_counts.tsv", "sc_labels.tsv", "st_counts.tsv", "features_img.tsv",
    "features_fm.tsv", "cell_counts.tsv", "truth_w.tsv", "truth_d.tsv",
    "truth_mu.tsv", "target_genes.tsv",
    "split_train.tsv", "split_fuse.tsv", "split_test.tsv",
    "signature.tsv", "panel_genes.tsv", "proportions.tsv", "gating.tsv",
    "align.ckpt", "reg.ckpt", "fuse.ckpt",
    "pred_duet.tsv", "pred_ret.tsv", "pred_reg.tsv", "alphas.tsv",
    "y_test.tsv", "metrics.json", "variance_curve_duet.tsv",
    "variance_curve_ret.tsv", "variance_curve_reg.tsv", "manifest.json",
]


# what a run is for: outputs no later stage reads, but a reader of the
# workspace does (scoring truth, the fitted prior, predictions, reports)
DELIVERABLES = {"truth_*", "signature.tsv", "panel_genes.tsv", "proportions.tsv",
                "pred_*", "alphas.tsv", "y_test.tsv", "variance_curve_*",
                "metrics.json"}

ID_LISTS = ["target_genes.tsv", "split_train.tsv", "split_fuse.tsv",
            "split_test.tsv", "panel_genes.tsv"]
MATRICES = [n for n in EXPECTED_FILES if n.endswith(".tsv") and n not in ID_LISTS]


def read_manifest(manifest_path) -> dict:
    return json.loads(Path(manifest_path).read_text(encoding="utf-8"))


def assert_manifest_hashes_files(d: Path, stages=PIPELINE_ORDER) -> None:
    """Every hash the manifest records for `stages` is that of the file on disk."""
    entries = read_manifest(d / "manifest.json")["stages"]
    for stage in stages:
        for kind in ("inputs", "outputs"):
            for name, sha in entries[stage][kind].items():
                disk = hashlib.sha256((d / name).read_bytes()).hexdigest()
                assert sha == disk, (stage, kind, name)


def rehash_outputs(d: Path, *names: str) -> None:
    """Record the files `names` as they are on disk among their producer's
    outputs in the manifest, so a stage reads an edited file as current."""
    path = d / "manifest.json"
    doc = read_manifest(path)
    for entry in doc["stages"].values():
        for name in set(names) & set(entry["outputs"]):
            entry["outputs"][name] = hashlib.sha256((d / name).read_bytes()).hexdigest()
    path.write_text(json.dumps(doc), encoding="utf-8")


def tiny_cfg() -> PipelineConfig:
    return PipelineConfig.from_dict(TINY)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipe")
    report = run_pipeline(tiny_cfg(), 3, d)
    return d, report


def test_all_expected_files_written(ws):
    d, _ = ws
    assert sorted(p.name for p in d.iterdir()) == sorted(EXPECTED_FILES)


def test_no_stage_but_synth_reads_generator_truth():
    for name, (inputs, _) in STAGE_IO.items():
        if name != "synth":
            assert [f for f in inputs if f.startswith("truth_")] == [], name


def test_cell_counts_are_the_true_counts(ws):
    # observed without counting noise: the generator's own counts, bit for bit
    d, _ = ws
    synth_cfg = replace(tiny_cfg().synth, seed=3)
    _, truth = gen_sc(synth_cfg)
    gen_spots(synth_cfg, truth)
    counts, _, cols = read_matrix_tsv(d / "cell_counts.tsv")
    assert cols == ["n"]
    assert np.array_equal(counts[:, 0].view(np.uint64), truth.n_true.view(np.uint64))


def test_no_two_workspace_files_share_bytes(ws):
    d, _ = ws
    seen = {}
    for p in sorted(d.iterdir()):
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        assert digest not in seen, (seen.get(digest), p.name)
        seen[digest] = p.name


def test_every_output_is_read_later_or_delivered():
    read, unread = set(), []
    for stage in reversed(PIPELINE_ORDER):
        inputs, outputs = STAGE_IO[stage]
        unread += [f for f in outputs if f not in read
                   and not any(fnmatch.fnmatch(f, pat) for pat in DELIVERABLES)]
        read.update(inputs)
    assert unread == []


def test_readme_workspace_layout_names_every_file():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Workspace layout\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- (.*?`):", section, re.MULTILINE | re.DOTALL)
    files = {f for _, outputs in STAGE_IO.values() for f in outputs} | {"manifest.json"}
    named = set()
    for head in items:
        for name in re.findall(r"`([^`]+)`", head):
            parts = re.split(r"\{([^}]*)\}", name)  # a{b,c}d -> [a, "b,c", d]
            for choice in product(*[p.split(",") if i % 2 else [p]
                                    for i, p in enumerate(parts)]):
                pattern = "".join(choice)
                hits = fnmatch.filter(files, pattern)
                assert hits, f"README names {pattern}, which no stage writes"
                named.update(hits)
    assert named == files


def test_splits_partition_spots(ws):
    d, _ = ws
    _, spots, _ = read_matrix_tsv(d / "st_counts.tsv")
    train = read_ids_tsv(d / "split_train.tsv")
    fuse = read_ids_tsv(d / "split_fuse.tsv")
    test = read_ids_tsv(d / "split_test.tsv")
    assert len(train) == 42 and len(fuse) == 6 and len(test) == 12
    assert sorted(train + fuse + test) == sorted(spots)
    assert not (set(train) & set(fuse)) and not (set(train) & set(test))


def test_prediction_shapes_and_alpha_range(ws):
    d, _ = ws
    test_ids = read_ids_tsv(d / "split_test.tsv")
    targets = read_ids_tsv(d / "target_genes.tsv")
    for name in ("pred_duet", "pred_ret", "pred_reg", "y_test"):
        m, rows, cols = read_matrix_tsv(d / f"{name}.tsv")
        assert rows == test_ids and cols == targets
        assert np.all(np.isfinite(m))
    a, rows, cols = read_matrix_tsv(d / "alphas.tsv")
    assert rows == test_ids and cols == ["alpha"]
    assert np.all((a > 0) & (a < 1))


def test_fused_is_pointwise_blend(ws):
    d, _ = ws
    duet, _, _ = read_matrix_tsv(d / "pred_duet.tsv")
    ret, _, _ = read_matrix_tsv(d / "pred_ret.tsv")
    reg, _, _ = read_matrix_tsv(d / "pred_reg.tsv")
    a, _, _ = read_matrix_tsv(d / "alphas.tsv")
    np.testing.assert_allclose(duet, reg + a * (ret - reg), rtol=0, atol=1e-12)


def test_proportions_rows_sum_to_one(ws):
    d, _ = ws
    p, _, _ = read_matrix_tsv(d / "proportions.tsv")
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(p >= 0)


def test_metrics_json_matches_returned_report(ws):
    d, report = ws
    doc = json.loads((d / "metrics.json").read_text())
    assert set(doc) == {"duet", "ret", "reg"}
    for branch in doc:
        assert doc[branch]["mse"] >= 0
        assert doc[branch] == report[branch]


def test_variance_curve_truth_sorted(ws):
    d, _ = ws
    for branch in ("duet", "ret", "reg"):
        vc, genes, cols = read_matrix_tsv(d / f"variance_curve_{branch}.tsv")
        assert cols == ["truth_var_norm", "pred_var_norm"]
        assert np.all(np.diff(vc[:, 0]) >= 0)
        assert len(genes) == len(set(genes))


def test_manifest_records_every_stage(ws):
    d, _ = ws
    doc = read_manifest(d / "manifest.json")
    assert doc["seed"] == 3
    assert doc["config"] == tiny_cfg().to_dict()
    stages = doc["stages"]
    for name in PIPELINE_ORDER:
        assert name in stages
        assert "completed_at" in stages[name]
        for entry in stages[name]["outputs"].values():
            assert len(entry) == 64  # sha256 hex


def test_rerun_is_bitwise_identical(ws, tmp_path):
    d, _ = ws
    run_pipeline(tiny_cfg(), 3, tmp_path)
    for name in EXPECTED_FILES:
        if name == "manifest.json":  # timestamps differ, everything else must not
            continue
        assert (tmp_path / name).read_bytes() == (d / name).read_bytes(), name


def test_stage_rerun_reproduces_outputs(ws):
    d, _ = ws
    before = (d / "pred_duet.tsv").read_bytes()
    stage_predict(tiny_cfg(), 3, d)
    assert (d / "pred_duet.tsv").read_bytes() == before


def test_stage_rewrites_are_atomic_and_identical(ws, tmp_path):
    d, _ = ws
    w = tmp_path / "ws"
    shutil.copytree(d, w)
    before = {p.name: (p.read_bytes(), p.stat().st_ino) for p in w.iterdir()}
    for name in PIPELINE_ORDER:
        STAGES[name](tiny_cfg(), 3, w)
        assert not list(w.glob("*.tmp")), name
        assert_manifest_hashes_files(w, [name])
    after = {p.name: (p.read_bytes(), p.stat().st_ino) for p in w.iterdir()}
    assert set(after) == set(before)
    for name, (data, inode) in after.items():
        assert inode != before[name][1], name  # replaced, not truncated in place
        if name != "manifest.json":
            assert data == before[name][0], name


def test_different_seed_changes_outputs(tmp_path):
    cfg = tiny_cfg()
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_pipeline(cfg, 3, a)
    run_pipeline(cfg, 4, b)
    assert (a / "st_counts.tsv").read_bytes() != (b / "st_counts.tsv").read_bytes()


def test_config_dict_roundtrip():
    cfg = tiny_cfg()
    again = PipelineConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert "seed" not in cfg.to_dict()["synth"]


def test_config_synth_seed_rejected():
    with pytest.raises(InputError, match="synth.seed"):
        PipelineConfig.from_dict({"synth": {"seed": 0}})
    with pytest.raises(InputError, match="synth.seed"):
        PipelineConfig.from_dict({"seed": 1, "synth": {"n_spots": 60, "seed": 1}})


def test_committed_configs_load():
    for path in sorted((Path(__file__).parents[1] / "configs").glob("*.json")):
        PipelineConfig.from_json(path)


def test_default_config_file_spells_the_defaults():
    # configs/default.json lists every key at the value the code defaults to
    doc = json.loads((ROOT / "configs" / "default.json").read_bytes())
    assert doc == PipelineConfig().to_dict()


def test_config_missing_file():
    with pytest.raises(InputError, match="nope.json"):
        PipelineConfig.from_json("/definitely/nope.json")


def test_config_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(InputError, match="invalid JSON"):
        PipelineConfig.from_json(p)


def test_config_unknown_key_rejected():
    with pytest.raises(InputError, match="bad config"):
        PipelineConfig.from_dict({"train": {"no_such_knob": 1}})
    with pytest.raises(InputError, match="'retreival'"):
        PipelineConfig.from_dict({"retreival": {"top_k": 5}})
    with pytest.raises(InputError, match="bad config"):
        PipelineConfig.from_dict([1, 2])


def test_split_fraction_validation():
    with pytest.raises(InputError, match="fractions"):
        TrainConfig(train_frac=0.0)
    with pytest.raises(InputError, match="test split"):
        TrainConfig(train_frac=0.8, fuse_frac=0.3)


def test_too_few_spots_for_splits(tmp_path):
    doc = dict(TINY)
    doc["synth"] = dict(TINY["synth"], n_spots=6)
    with pytest.raises(InputError, match="splits too small"):
        run_pipeline(PipelineConfig.from_dict(doc), 0, tmp_path)


def test_stage_before_dependencies(tmp_path):
    with pytest.raises(InputError, match="st_counts.tsv"):
        stage_predict(tiny_cfg(), 0, tmp_path)


def test_manifest_inputs_are_declared_and_match_their_producer(ws):
    d, _ = ws
    stages = read_manifest(d / "manifest.json")["stages"]
    produced = {}
    for name in PIPELINE_ORDER:
        inputs = stages[name]["inputs"]
        assert set(inputs) == set(STAGE_IO[name][0]), name
        for f, sha in inputs.items():
            assert sha == produced[f], (name, f)
        assert set(stages[name]["outputs"]) == set(STAGE_IO[name][1]), name
        produced.update(stages[name]["outputs"])
    assert_manifest_hashes_files(d)


def test_deconv_rejects_unmeasured_target_gene(ws, tmp_path):
    shutil.copytree(ws[0], tmp_path / "w")
    (tmp_path / "w" / "target_genes.tsv").write_text("id\nno_such_gene\n")
    rehash_outputs(tmp_path / "w", "target_genes.tsv")
    with pytest.raises(InputError, match="st_counts.tsv has no column 'no_such_gene'"):
        STAGES["deconv"](tiny_cfg(), 3, tmp_path / "w")


@pytest.mark.parametrize("name, what", [("sc_counts.tsv", "single-cell counts"),
                                        ("st_counts.tsv", "spot counts")])
def test_deconv_rejects_fractional_counts(ws, tmp_path, name, what):
    # the counts reach the fits as read, without a truncating int cast
    d = tmp_path / "w"
    shutil.copytree(ws[0], d)
    m, rows, cols = read_matrix_tsv(d / name)
    write_matrix_tsv(d / name, m + 0.5, rows, cols)
    rehash_outputs(d, name)
    with pytest.raises(InputError, match=f"{what} must be integers"):
        STAGES["deconv"](tiny_cfg(), 3, d)



@pytest.mark.parametrize("lambda0, calls", [(1.0, 1), (0.0, 0)])
def test_regress_stage_retrieves_once(ws, tmp_path, monkeypatch, lambda0, calls):
    # the align model and the database are frozen for the whole stage, so
    # every annealed epoch reuses one retrieval pass; at lambda0 0 there is
    # none, but the retrieval inputs are still hashed into the manifest
    d = tmp_path / "w"
    shutil.copytree(ws[0], d)
    counts = {"rebuild_db": 0, "retrieve_spots": 0}
    for name in counts:
        real = getattr(pipeline, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counting)
    cfg = tiny_cfg()
    cfg = replace(cfg, anneal=replace(cfg.anneal, lambda0=lambda0))
    STAGES["regress"](cfg, 3, d)
    assert counts == {"rebuild_db": calls, "retrieve_spots": calls}
    assert_manifest_hashes_files(d, ["regress"])
    assert set(read_manifest(d / "manifest.json")["stages"]["regress"]["inputs"]) \
        == set(STAGE_IO["regress"][0])
    if lambda0 == 1.0:  # the run's own config: the same checkpoint
        assert (d / "reg.ckpt").read_bytes() == (ws[0] / "reg.ckpt").read_bytes()


@pytest.mark.parametrize("stage, name, dup_of", [
    ("align", "split_train.tsv", "split_train.tsv"),
    ("fuse", "split_fuse.tsv", "split_train.tsv"),
    ("predict", "split_test.tsv", "split_test.tsv"),
    ("predict", "split_test.tsv", "split_train.tsv"),
])
def test_split_id_listed_twice_rejected_naming_the_file(ws, tmp_path, stage, name,
                                                       dup_of):
    # a repeated id would be trained or predicted twice, and a training spot
    # in a held-out split would find its own row in the retrieval database
    d = tmp_path / "w"
    shutil.copytree(ws[0], d)
    spot = read_ids_tsv(d / dup_of)[0]
    with open(d / name, "a", encoding="utf-8") as f:
        f.write(f"{spot}\n")
    rehash_outputs(d, name)
    with pytest.raises(InputError, match=f"spot '{spot}' is") as exc:
        STAGES[stage](tiny_cfg(), 3, d)
    assert str(d / name) in str(exc.value) and dup_of in str(exc.value)

def test_stale_input_rejected_naming_it(ws, tmp_path):
    d = tmp_path / "w"
    shutil.copytree(ws[0], d)
    with open(d / "st_counts.tsv", "a", encoding="utf-8") as f:
        f.write("\n")  # same matrix, other bytes
    with pytest.raises(InputError, match="st_counts.tsv.*manifest.json"):
        STAGES["deconv"](tiny_cfg(), 3, d)
    # a file the manifest has no record for is not checked
    doc = read_manifest(d / "manifest.json")
    del doc["stages"]["synth"]["outputs"]["st_counts.tsv"]
    (d / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    w = Workspace(d)
    w.stage = "align"
    assert w.matrix("st_counts.tsv")[0].shape == (60, 160)


def test_eval_rejects_swapped_gene_columns(ws, tmp_path):
    d = tmp_path / "w"
    shutil.copytree(ws[0], d)
    m, rows, cols = read_matrix_tsv(d / "pred_reg.tsv")
    write_matrix_tsv(d / "pred_reg.tsv", m, rows, [cols[1], cols[0], *cols[2:]])
    rehash_outputs(d, "pred_reg.tsv")
    with pytest.raises(InputError, match="pred_reg.tsv.*gene ids.*y_test.tsv"):
        STAGES["eval"](tiny_cfg(), 3, d)


@pytest.mark.parametrize("doc", ["{", "[]", '{"stages": 3}'])
def test_unreadable_manifest_rejected_naming_it(ws, tmp_path, doc):
    d = tmp_path / "w"
    shutil.copytree(ws[0], d)
    (d / "manifest.json").write_text(doc, encoding="utf-8")
    w = Workspace(d)
    w.stage = "align"
    with pytest.raises(InputError, match="manifest.json"):
        w.matrix("st_counts.tsv")


def test_manifest_read_once_and_hand_offs_unchecked(ws, tmp_path, monkeypatch):
    d = tmp_path / "w"
    shutil.copytree(ws[0], d)
    reads = []
    real = pipeline.read_bytes
    monkeypatch.setattr(pipeline, "read_bytes",
                        lambda path: reads.append(Path(path).name) or real(path))
    monkeypatch.setitem(STAGE_IO, "probe", (STAGE_IO["predict"][0] + ("gating.tsv",),
                                            ("gating.tsv",)))
    w = Workspace(d)
    w.stage = "probe"
    w.write_matrix("gating.tsv", np.ones((1, 1)), ["s"], ["t"])
    assert w.matrix("gating.tsv")[0].shape == (1, 1)  # handed over, not checked
    for name in STAGE_IO["predict"][0]:
        if name.endswith(".ckpt"):
            w.checkpoint(name, lambda path, data: data)
        elif name.startswith(("split_", "target_")):
            w.ids(name)
        else:
            w.matrix(name)
    assert reads.count("manifest.json") == 1
    assert "gating.tsv" not in reads


def _proportion_mae(d: Path, seed: int, **train) -> float:
    """Mean absolute error of proportions.tsv against the row-normalized
    truth_w.tsv after synth and deconv on the default config, with `train`'s
    overrides, in a fresh workspace at `d`."""
    cfg = PipelineConfig.from_dict({"train": train})
    w = Workspace(d)
    for name in ("synth", "deconv"):
        STAGES[name](cfg, seed, w)
    props, spots, types = read_matrix_tsv(d / "proportions.tsv")
    truth, truth_spots, truth_types = read_matrix_tsv(d / "truth_w.tsv")
    assert (spots, types) == (truth_spots, truth_types)
    return float(np.mean(np.abs(props - truth / truth.sum(axis=1, keepdims=True))))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_deconv_recovers_true_proportions(tmp_path, seed):
    # tests may read truth_*; no stage after synth does
    assert _proportion_mae(tmp_path, seed) < 0.10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_deconv_epochs_converge(tmp_path, seed):
    # a 3x longer fit recovers the proportions no better than by 0.02, so the
    # default epochs do not trade recovery for speed
    epochs = TrainConfig().deconv_epochs
    short = _proportion_mae(tmp_path / "short", seed)
    long = _proportion_mae(tmp_path / "long", seed, deconv_epochs=3 * epochs)
    assert short - long < 0.02


def _signature_fit(seed: int, epochs: int):
    """The default config's single-cell reference at `seed`, its truth, and
    its signature fit of `epochs` epochs at the default rate."""
    data, truth = gen_sc(replace(PipelineConfig().synth, seed=seed))
    return data, truth, fit_signatures(data, epochs, lr=TrainConfig().sig_lr)


def _log_mu_error(model, truth) -> float:
    return float(np.mean(np.abs(np.log(model.mu) - np.log(truth.mu_true))))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_signature_fit_moves_rates_and_batch_effects(seed):
    # the batch-1 effect's SD lands within 15% of the truth's (0.29-0.32;
    # unscaled steps left it at a tenth of that), and the log-rate error
    # falls at least 0.02 below the start's (unscaled, it stayed there)
    data, truth, model = _signature_fit(seed, TrainConfig().sig_epochs)
    sd, true_sd = model.batch_effect[1].std(), truth.batch_true[1].std()
    assert abs(sd / true_sd - 1.0) < 0.15
    start = scprior._init_signature_model(data)
    assert _log_mu_error(model, truth) < _log_mu_error(start, truth) - 0.02


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_sig_epochs_converge(seed):
    # a 3x longer fit lowers the final loss by under 0.002 and the log-rate
    # error by under 0.005, so the default epochs do not trade the fit for speed
    epochs = TrainConfig().sig_epochs
    _, truth, short = _signature_fit(seed, epochs)
    _, _, long = _signature_fit(seed, 3 * epochs)
    assert short.fit_trace[-1] - long.fit_trace[-1] < 0.002
    assert _log_mu_error(short, truth) - _log_mu_error(long, truth) < 0.005


def test_no_stage_after_deconv_reads_ground_truth():
    later = PIPELINE_ORDER[PIPELINE_ORDER.index("deconv") + 1:]
    assert [f for s in later for f in STAGE_IO[s][0] if "truth" in f] == []


def test_handed_off_files_equal_a_fresh_read(tmp_path, monkeypatch):
    # one run parses no TSV: every read is a hand-off of an earlier write,
    # and each equals, bit for bit, what a fresh Workspace parses from disk
    reads = []
    real = pipeline.read_matrix_tsv
    monkeypatch.setattr(pipeline, "read_matrix_tsv",
                        lambda *a: reads.append(a[0]) or real(*a))
    monkeypatch.setitem(STAGE_IO, "probe", (tuple(MATRICES + ID_LISTS), ()))
    run = Workspace(tmp_path)
    run_pipeline(PipelineConfig(), 3, run)  # the 80-spot default
    run.stage = "probe"
    handed = {name: run.matrix(name) for name in MATRICES}
    assert reads == []
    fresh = Workspace(tmp_path)
    fresh.stage = "probe"
    for name, (m, rows, cols) in handed.items():
        back, back_rows, back_cols = fresh.matrix(name)
        assert np.array_equal(m.view(np.uint64), back.view(np.uint64)), name
        assert (rows, cols) == (back_rows, back_cols), name
        for arr in (m, back):
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[...] = 0.0
    for name in ID_LISTS:
        assert run.ids(name) == fresh.ids(name), name
    assert len(reads) == len(MATRICES)


def test_workspace_refuses_undeclared_names(ws, tmp_path):
    d, _ = ws
    w = Workspace(d)
    w.stage = "align"
    for name in ("gating.tsv", "truth_w.tsv", "pred_duet.tsv"):
        with pytest.raises(InputError, match=name):
            w.matrix(name)
    with pytest.raises(InputError, match="split_test.tsv"):
        w.ids("split_test.tsv")
    w = Workspace(tmp_path)
    w.stage = "predict"
    with pytest.raises(InputError, match="reg.ckpt"):
        w.save("reg.ckpt", lambda path, value: b"", None)
    with pytest.raises(InputError, match="gating.tsv"):
        w.write_matrix("gating.tsv", np.zeros((1, 1)), ["s"], ["t"])
    assert list(tmp_path.iterdir()) == []
