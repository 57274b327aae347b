"""The config schema: every key's type and bound, checked when a config loads.

The cases are derived from dataclasses.fields, so a new field is covered by
the type cases at once, and by the bound cases as soon as it declares one.
"""

import dataclasses
import json
import math

import pytest

from duet.cli import main
from duet.errors import InputError
from duet.pipeline import STAGES, PipelineConfig
from duet.tsvio import read_ids_tsv

SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(PipelineConfig)
            if dataclasses.is_dataclass(f.default_factory)}
SPLIT = ("train_frac", "fuse_frac")  # bounded by the split rule, not bound()


def _keys():
    """(section, field) for every config key; section None is the top level."""
    for section, cls in SECTIONS.items():
        for f in dataclasses.fields(cls):
            yield section, f
    yield None, next(f for f in dataclasses.fields(PipelineConfig) if f.name == "seed")


def _past(kind: str, op: str, limit):
    """A value of type `kind` just past the limit `op` `limit`."""
    if kind == "int" or kind == "tuple":
        return {"ge": limit - 1, "gt": limit, "le": limit + 1, "lt": limit}[op]
    return {"ge": math.nextafter(limit, -math.inf), "gt": limit,
            "le": math.nextafter(limit, math.inf), "lt": limit}[op]


def _bad_values(f):
    """(label, value) for each value field `f` must refuse."""
    yield "string", "1"
    yield "true", True
    if f.type == "int":
        yield "fraction", 1.5
    if f.type.startswith("float"):
        yield "nan", math.nan
        yield "inf", math.inf
    for op, limit in f.metadata.items():
        value = _past(f.type, op, limit)
        yield f"{op}-{limit}", [value] if f.type == "tuple" else value


def _doc(section, key, value) -> dict:
    return {section: {key: value}} if section else {key: value}


BAD = [pytest.param(_doc(section, f.name, value),
                    f"'{section}.{f.name}'" if section else f"'{f.name}'",
                    id=f"{section or 'top'}.{f.name}-{label}")
       for section, f in _keys() for label, value in _bad_values(f)]

SPLIT_CASES = [
    ({"train": {"train_frac": 0}}, "'train.train_frac'"),
    ({"train": {"fuse_frac": -0.1}}, "'train.fuse_frac'"),
    ({"train": {"train_frac": 0.9, "fuse_frac": 0.1}}, "'train.train_frac'"),
]

# the rules PipelineConfig checks across sections, before synth writes a file
CROSS_SECTION_CASES = [
    ({"synth": {"n_spots": 3}}, "'synth.n_spots'"),  # a 2/0/1 split
    # 20 targets and a 500-gene panel need 520 of the 120 genes
    ({"synth": {"n_genes": 120, "n_target_genes": 20}, "train": {"panel_size": 500}},
     "'train.panel_size'"),
]

# the failures that, before the schema, a whole 80-spot `duet pipeline` run
# reached late (a traceback after some files) or never (all files written)
REPRODUCERS = [
    ({"train": {"align_batch": 0}}, "'train.align_batch'"),
    ({"train": {"reg_batch": 0}}, "'train.reg_batch'"),
    ({"train": {"sig_epochs": 0}}, "'train.sig_epochs'"),
    ({"train": {"fuse_hidden": 0}}, "'train.fuse_hidden'"),
    ({"train": {"fuse_lr": -1}}, "'train.fuse_lr'"),
    ({"train": {"reg_lr": "0.1"}}, "'train.reg_lr'"),
    ({"retrieval": {"softmax_temp": math.inf}}, "'retrieval.softmax_temp'"),
    ({"retrieval": {"top_k": 2.5}}, "'retrieval.top_k'"),
    ({"anneal": {"decay_epochs": True}}, "'anneal.decay_epochs'"),
    ({"synth": {"feature_noise_std": math.nan}}, "'synth.feature_noise_std'"),
    ({"synth": {"n_spots": "80"}}, "'synth.n_spots'"),
]

# configs the repository's own tools load: configs/default.json and
# configs/demo.json, bench/workloads.py's pipeline-2k, predict-2k and
# SMOKE_CONFIG, scripts/run_ablations.py's edge values, and the zero-epoch
# align and fuse runs that train_align and train_fuse accept
TRAFFIC = [
    {"anneal": {"decay_epochs": 30, "lambda0": 1.0},
     "retrieval": {"beta": 0.3, "n_candidates": 150, "softmax_temp": 1.0,
                   "tau_c": 0.5, "tau_p": 0.3, "top_k": 100},
     "seed": 0,
     "synth": {"feature_dim": 64, "feature_noise_std": 0.1, "n_batches": 2,
               "n_cells_per_type": 150, "n_genes": 220, "n_spots": 80,
               "n_target_genes": 80, "n_types": 4, "reads_per_spot": None},
     "train": {"align_batch": 128, "align_epochs": 30, "align_hidden": 64,
               "align_lr": 0.05, "deconv_epochs": 40, "deconv_lr": 0.1,
               "embed_dim": 32, "fuse_epochs": 150, "fuse_frac": 0.1,
               "fuse_hidden": 32, "fuse_lr": 0.3, "panel_size": 100,
               "reg_batch": 128, "reg_coef": 1.0, "reg_epochs": 45,
               "reg_hidden": [64, 64], "reg_lr": 0.03, "sig_epochs": 30,
               "sig_lr": 0.2, "train_frac": 0.7}},
    {"seed": 0,
     "synth": {"n_types": 3, "n_genes": 160, "n_target_genes": 40,
               "n_cells_per_type": 60, "n_spots": 60, "feature_dim": 24},
     "train": {"sig_epochs": 40, "deconv_epochs": 80, "align_epochs": 10,
               "reg_epochs": 12, "fuse_epochs": 40, "panel_size": 60,
               "reg_hidden": [32, 32], "embed_dim": 16, "align_hidden": 32,
               "fuse_hidden": 16},
     "anneal": {"lambda0": 1.0, "decay_epochs": 8},
     "retrieval": {"n_candidates": 30, "top_k": 10}},
    {"synth": {"n_spots": 2000}},
    {"synth": {"n_spots": 2000},
     "train": {"sig_epochs": 12, "deconv_epochs": 30, "align_epochs": 3,
               "reg_epochs": 5, "fuse_epochs": 15},
     "anneal": {"decay_epochs": 3}},
    {"synth": {"n_types": 3, "n_genes": 120, "n_target_genes": 20,
               "n_cells_per_type": 20, "n_spots": 40, "feature_dim": 16},
     "train": {"sig_epochs": 3, "deconv_epochs": 3, "align_epochs": 2,
               "reg_epochs": 3, "fuse_epochs": 3, "panel_size": 20,
               "reg_hidden": [16, 16], "embed_dim": 16, "align_hidden": 32,
               "fuse_hidden": 8},
     "anneal": {"decay_epochs": 2},
     "retrieval": {"n_candidates": 10, "top_k": 5}},
    {"retrieval": {"tau_c": 1, "tau_p": -1}},
    {"anneal": {"lambda0": 0}},
    {"train": {"align_epochs": 0, "fuse_epochs": 0}},
]


@pytest.fixture()
def no_env_seed(monkeypatch):
    monkeypatch.delenv("DUET_SEED", raising=False)


def _refused(tmp_path, capsys, argv, doc=None) -> str:
    """Run `duet` with `argv` (and `doc` as --config); it must exit 1 before
    the workspace exists, without a traceback. Returns stderr."""
    if doc is not None:
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
        argv = argv + ["--config", str(p)]
    assert main(argv + ["--out", str(tmp_path / "ws")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not (tmp_path / "ws").exists()
    return err


@pytest.mark.parametrize("doc, key", BAD + SPLIT_CASES + CROSS_SECTION_CASES)
def test_bad_value_exit_1_naming_key(tmp_path, capsys, no_env_seed, doc, key):
    assert key in _refused(tmp_path, capsys, ["synth"], doc)


def test_smallest_accepted_spot_count_splits_two_spots_each(tmp_path):
    def refusal(n):
        """The error refusing n spots, or None if they are accepted."""
        try:
            PipelineConfig.from_dict({"synth": {"n_spots": n, "n_cells_per_type": 5}})
        except InputError as exc:
            return str(exc)
        return None

    n = next(n for n in range(1, 100) if refusal(n) is None)
    assert all(refusal(m) for m in range(1, n))
    for key in ("'synth.n_spots'", "'train.train_frac'", "'train.fuse_frac'"):
        assert key in refusal(n - 1)
    STAGES["synth"](PipelineConfig.from_dict(
        {"synth": {"n_spots": n, "n_cells_per_type": 5}}), 0, tmp_path)
    sizes = [len(read_ids_tsv(tmp_path / f"split_{s}.tsv"))
             for s in ("train", "fuse", "test")]
    assert min(sizes) == 2 and sum(sizes) == n


@pytest.mark.parametrize("doc, key", REPRODUCERS)
def test_late_failure_now_refused_at_load(tmp_path, capsys, no_env_seed, doc, key):
    assert key in _refused(tmp_path, capsys, ["pipeline"], doc)


@pytest.mark.parametrize("argv, env, name", [
    (["--seed", "-1"], None, "--seed"),
    (["--seed", str(2**64)], None, "--seed"),
    ([], "-3", "DUET_SEED"),
    ([], str(2**64), "DUET_SEED"),
])
def test_seed_out_of_range_names_its_source(tmp_path, capsys, monkeypatch,
                                            argv, env, name):
    monkeypatch.delenv("DUET_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("DUET_SEED", env)
    assert name in _refused(tmp_path, capsys, ["synth"] + argv)


def test_every_key_declares_a_bound():
    for section, f in _keys():
        assert f.metadata or f.name in SPLIT, (section, f.name)


def test_round_trip_with_every_key_moved():
    def moved(f):
        value = f.default
        if f.type == "tuple":
            return tuple(v + 1 for v in value)
        if value is None:
            return 2.5
        return value + 1 if f.type == "int" else value / 2

    sections = {name: cls(**{f.name: moved(f) for f in dataclasses.fields(cls)
                             if f.name != "seed" or name != "synth"})
                for name, cls in SECTIONS.items()}
    cfg = PipelineConfig(**sections, seed=7)
    for section, f in _keys():
        if (section, f.name) != ("synth", "seed"):  # the run seed replaces it
            got = getattr(getattr(cfg, section) if section else cfg, f.name)
            assert got != f.default, (section, f.name)
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg
    assert PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize("doc", TRAFFIC)
def test_traffic_configs_load(doc):
    cfg = PipelineConfig.from_dict(doc)
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

