import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from duet import pipeline
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
from duet.tsvio import read_ids_tsv, read_matrix_tsv, write_matrix_tsv

TINY = {
    "synth": {
        "n_types": 3,
        "n_genes": 160,
        "n_target_genes": 40,
        "n_cells_per_type": 60,
        "n_spots": 60,
        "feature_dim": 24,
    },
    "train": {
        "sig_epochs": 40,
        "deconv_epochs": 80,
        "align_epochs": 10,
        "reg_epochs": 12,
        "fuse_epochs": 40,
        "panel_size": 60,
        "reg_hidden": [32, 32],
        "embed_dim": 16,
        "align_hidden": 32,
        "fuse_hidden": 16,
    },
    "anneal": {"lambda0": 1.0, "decay_epochs": 8},
    "retrieval": {"n_candidates": 30, "top_k": 10},
}

EXPECTED_FILES = [
    "sc_counts.tsv", "sc_labels.tsv", "st_counts.tsv", "features_img.tsv",
    "features_fm.tsv", "cell_counts.tsv", "truth_w.tsv", "truth_n.tsv",
    "truth_d.tsv", "truth_mu.tsv", "gating_truth.tsv", "target_genes.tsv",
    "split_train.tsv", "split_fuse.tsv", "split_test.tsv",
    "signature.tsv", "panel_genes.tsv", "deconv_w_mean.tsv",
    "deconv_w_q05.tsv", "proportions.tsv", "gating.tsv",
    "align.ckpt", "reg.ckpt", "fuse.ckpt",
    "pred_duet.tsv", "pred_ret.tsv", "pred_reg.tsv", "alphas.tsv",
    "y_test.tsv", "metrics.json", "variance_curve_duet.tsv",
    "variance_curve_ret.tsv", "variance_curve_reg.tsv", "manifest.json",
]


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
    for name in EXPECTED_FILES:
        assert (d / name).exists(), name


def test_no_stage_but_synth_reads_generator_truth():
    for name, (inputs, _) in STAGE_IO.items():
        if name != "synth":
            truth = [f for f in inputs
                     if f.startswith("truth_") or f == "gating_truth.tsv"]
            assert truth == [], name


def test_cell_counts_are_the_true_counts(ws):
    # observed without counting noise: the same bytes as the ground truth
    d, _ = ws
    assert (d / "cell_counts.tsv").read_bytes() == (d / "truth_n.tsv").read_bytes()


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
    with pytest.raises(InputError, match="target gene missing.*no_such_gene"):
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
    for name in ("gating.tsv", "truth_n.tsv", "pred_duet.tsv"):
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
