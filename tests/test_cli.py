import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import duet
from duet import cli, pipeline, regress
from duet.align import AlignModel, load_align, save_align
from duet.cli import _build_parser, main
from duet.core import Mlp, Rng
from duet.errors import InputError
from duet.fuse import MAGIC_FUSE, FuseAdapter, load_fuse, save_fuse
from duet.pipeline import STAGE_IO, STAGES
from duet.regress import load_reg, save_reg
from duet.tsvio import read_matrix_tsv, save_checkpoint, write_matrix_tsv
from test_pipeline import TINY, rehash_outputs


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(TINY))
    return p


@pytest.fixture()
def no_env_seed(monkeypatch):
    monkeypatch.delenv("DUET_SEED", raising=False)


def test_pipeline_command_runs_and_prints_report(tmp_path, cfg_path, capsys,
                                                 no_env_seed):
    code = main(["pipeline", "--config", str(cfg_path), "--seed", "7",
                 "--out", str(tmp_path / "ws")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"duet", "ret", "reg"}
    assert (tmp_path / "ws" / "pred_duet.tsv").exists()


def _dims(net: Mlp) -> list[int]:
    return [net.in_dim] + [layer.weight.shape[0] for layer in net.layers]


def test_config_sizes_reach_the_models(tmp_path, cfg_path, no_env_seed):
    # TINY sets every size off its default
    ws = tmp_path / "ws"
    assert main(["pipeline", "--config", str(cfg_path), "--seed", "7", "--out", str(ws)]) == 0
    s, t = TINY["synth"], TINY["train"]
    align = load_align(ws / "align.ckpt")
    assert _dims(align.img_head) == [s["feature_dim"], t["align_hidden"], t["embed_dim"]]
    assert _dims(align.gene_head) == [s["n_target_genes"], t["align_hidden"],
                                      t["embed_dim"]]
    assert _dims(load_reg(ws / "reg.ckpt")) == [s["feature_dim"], *t["reg_hidden"],
                                                s["n_target_genes"]]
    assert _dims(load_fuse(ws / "fuse.ckpt").mlp) == [s["feature_dim"], t["fuse_hidden"], 1]


def test_pipeline_loads_no_scipy(tmp_path, cfg_path):
    # scipy is a test-only dependency: a whole run must not import it
    script = (
        "import sys\n"
        "from duet.cli import main\n"
        f"code = main(['pipeline', '--config', {str(cfg_path)!r}, '--seed', '7', "
        f"'--out', {str(tmp_path / 'ws')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(duet.__file__).parents[1]))
    env.pop("DUET_SEED", None)
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 []"


def test_stage_commands_run_in_sequence(tmp_path, cfg_path, no_env_seed):
    ws = str(tmp_path / "ws")
    for cmd in ("synth", "deconv", "align", "regress", "fuse", "predict"):
        assert main([cmd, "--config", str(cfg_path), "--seed", "7",
                     "--out", ws]) == 0
    assert (tmp_path / "ws" / "pred_duet.tsv").exists()


def test_eval_perfect_prediction(tmp_path, capsys):
    p = tmp_path / "p.tsv"
    write_matrix_tsv(p, [[1.0, 2.0], [3.0, 5.0], [4.0, 0.5]],
                     ["s0", "s1", "s2"], ["g0", "g1"])
    assert main(["eval", "--pred", str(p), "--truth", str(p)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pcc_mean"] == 1.0
    assert doc["mse"] == 0.0


def test_eval_mismatched_ids(tmp_path, capsys):
    p = tmp_path / "p.tsv"
    q = tmp_path / "q.tsv"
    write_matrix_tsv(p, [[1.0], [2.0]], ["s0", "s1"], ["g0"])
    write_matrix_tsv(q, [[1.0], [2.0]], ["s0", "sX"], ["g0"])
    assert main(["eval", "--pred", str(p), "--truth", str(q)]) == 1
    assert "row ids" in capsys.readouterr().err


def test_eval_swapped_gene_columns_exit_1_naming_both_files(tmp_path, capsys):
    p = tmp_path / "p.tsv"
    q = tmp_path / "q.tsv"
    write_matrix_tsv(p, [[1.0, 2.0], [3.0, 5.0]], ["s0", "s1"], ["g1", "g0"])
    write_matrix_tsv(q, [[2.0, 1.0], [5.0, 3.0]], ["s0", "s1"], ["g0", "g1"])
    assert main(["eval", "--pred", str(p), "--truth", str(q)]) == 1
    err = capsys.readouterr().err
    assert "column ids" in err and str(p) in err and str(q) in err


def test_missing_file_exit_1_with_path(tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    exists = tmp_path / "t.tsv"
    write_matrix_tsv(exists, [[1.0], [2.0]], ["s0", "s1"], ["g0"])
    assert main(["eval", "--pred", str(missing), "--truth", str(exists)]) == 1
    assert str(missing) in capsys.readouterr().err


def test_undecodable_file_exit_1_with_path(tmp_path, capsys):
    bad = tmp_path / "latin1.tsv"
    bad.write_bytes("id\tg\xe9\ns0\t1\n".encode("latin-1"))
    assert main(["eval", "--pred", str(bad), "--truth", str(bad)]) == 1
    assert str(bad) in capsys.readouterr().err


# name -> (argv with {d} for a directory, {f} for a file and {x} for a
# non-UTF-8 config, the path the error names)
OS_ERROR_CASES = {
    "eval --pred a directory": (["eval", "--pred", "{d}", "--truth", "{f}"], "{d}"),
    "--config not UTF-8": (["pipeline", "--config", "{x}", "--out", "{d}/ws"], "{x}"),
    "--config a directory": (["pipeline", "--config", "{d}", "--out", "{d}/ws"],
                             "{d}"),
    "pipeline --out a file": (["pipeline", "--out", "{f}"], "{f}"),
    "synth --out under a file": (["synth", "--out", "{f}/ws"], "{f}/ws"),
}


@pytest.mark.parametrize("case", sorted(OS_ERROR_CASES))
def test_os_errors_exit_1_naming_the_path(case, tmp_path, no_env_seed, capsys):
    argv, named = OS_ERROR_CASES[case]
    paths = {"d": tmp_path / "adir", "f": tmp_path / "t.tsv", "x": tmp_path / "x.json"}
    paths["d"].mkdir()
    data = write_matrix_tsv(paths["f"], [[1.0], [2.0]], ["s0", "s1"], ["g0"])
    paths["x"].write_bytes(b'{"seed": "\xff"}')
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert named.format(**paths) in err and "Traceback" not in err
    assert paths["f"].read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "t.tsv", "x.json"]


def test_unwritable_id_exit_1(tmp_path, no_env_seed, capsys):
    # every non-target gene goes into the panel, so an empty gene name
    # reaches panel_genes.tsv, where an empty line would not read back
    doc = dict(TINY, train=dict(TINY["train"], sig_epochs=2, panel_size=120))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    ws = tmp_path / "ws"
    assert main(["synth", "--config", str(cfg), "--seed", "7", "--out", str(ws)]) == 0
    targets = set((ws / "target_genes.tsv").read_text().split("\n")[1:])
    for name in ("sc_counts.tsv", "st_counts.tsv"):
        counts, rows, genes = read_matrix_tsv(ws / name)
        genes[next(k for k, g in enumerate(genes) if g not in targets)] = ""
        write_matrix_tsv(ws / name, counts, rows, genes)
    rehash_outputs(ws, "sc_counts.tsv", "st_counts.tsv")
    assert main(["deconv", "--config", str(cfg), "--seed", "7", "--out", str(ws)]) == 1
    assert "panel_genes.tsv" in capsys.readouterr().err


def test_unknown_flag_exit_1_with_usage(capsys):
    assert main(["pipeline", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["transmogrify"]) == 1


def test_no_subcommand(capsys):
    assert main([]) == 1


def test_subcommands_are_the_registered_stages(capsys):
    # every stage but `eval` is a command; `eval` scores a --pred/--truth pair
    usage = _build_parser().format_usage()
    commands = re.search(r"\{(.+?)\}", usage).group(1).split(",")
    assert commands == [n for n in STAGES if n != "eval"] + ["pipeline", "eval"]
    assert main(["eval"]) == 1
    assert "--pred" in capsys.readouterr().err


def test_each_main_call_parses_into_a_fresh_namespace(tmp_path, monkeypatch, no_env_seed):
    # the parser is built once per process; its parse fills a new Namespace
    seen = []

    def stop(args, cfg):
        seen.append(args)
        raise InputError("stop before the stage")

    monkeypatch.setattr(cli, "_resolve_seed", stop)
    assert main(["synth", "--seed", "3", "--out", str(tmp_path / "a")]) == 1
    assert main(["predict", "--out", str(tmp_path / "b")]) == 1
    first, second = seen
    assert first is not second
    assert (first.command, first.seed, first.out) == ("synth", 3, tmp_path / "a")
    assert (second.command, second.seed, second.out) == ("predict", None, tmp_path / "b")
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("doc,key", [
    ({"seed": "abc"}, "'seed'"),
    ({"seed": 1.7}, "'seed'"),
    ({"seed": True}, "'seed'"),
    ({"train": {"reg_hidden": 5}}, "'train.reg_hidden'"),
    ({"train": {"reg_hidden": [32, 0]}}, "'train.reg_hidden'"),
    ({"train": {"reg_hidden": [32.5]}}, "'train.reg_hidden'"),
    ({"train": {"panel_size": 0}}, "'train.panel_size'"),
    ({"train": {"panel_size": 2.5}}, "'train.panel_size'"),
])
def test_wrong_type_config_value_exit_1_naming_key(tmp_path, capsys, no_env_seed,
                                                   doc, key):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert main(["synth", "--config", str(p), "--out", str(tmp_path / "ws")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "ws").exists()


def test_bad_config_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"train": {"no_such_knob": 1}}')
    assert main(["synth", "--config", str(p), "--out", str(tmp_path / "ws")]) == 1
    assert "bad config" in capsys.readouterr().err


def test_misspelled_section_exit_1(tmp_path, capsys):
    p = tmp_path / "typo.json"
    p.write_text('{"retreival": {"top_k": 5}}')
    assert main(["synth", "--config", str(p), "--out", str(tmp_path / "ws")]) == 1
    assert "retreival" in capsys.readouterr().err


def test_synth_seed_exit_1(tmp_path, capsys):
    p = tmp_path / "seeded.json"
    p.write_text(json.dumps(dict(TINY, synth=dict(TINY["synth"], seed=4))))
    assert main(["synth", "--config", str(p), "--out", str(tmp_path / "ws")]) == 1
    assert "synth.seed" in capsys.readouterr().err
    assert not (tmp_path / "ws").exists()


def test_seed_flag_overrides_env(tmp_path, cfg_path, monkeypatch):
    monkeypatch.setenv("DUET_SEED", "5")
    a, b, c = (tmp_path / n for n in ("a", "b", "c"))
    main(["synth", "--config", str(cfg_path), "--seed", "3", "--out", str(a)])
    monkeypatch.delenv("DUET_SEED")
    main(["synth", "--config", str(cfg_path), "--seed", "3", "--out", str(b)])
    main(["synth", "--config", str(cfg_path), "--seed", "5", "--out", str(c)])
    assert (a / "st_counts.tsv").read_bytes() == (b / "st_counts.tsv").read_bytes()
    assert (a / "st_counts.tsv").read_bytes() != (c / "st_counts.tsv").read_bytes()


def test_env_seed_used_when_flag_absent(tmp_path, cfg_path, monkeypatch):
    monkeypatch.setenv("DUET_SEED", "5")
    a = tmp_path / "a"
    main(["synth", "--config", str(cfg_path), "--out", str(a)])
    monkeypatch.delenv("DUET_SEED")
    b = tmp_path / "b"
    main(["synth", "--config", str(cfg_path), "--seed", "5", "--out", str(b)])
    assert (a / "st_counts.tsv").read_bytes() == (b / "st_counts.tsv").read_bytes()


def test_config_seed_is_last_resort(tmp_path, monkeypatch, no_env_seed):
    doc = dict(TINY, seed=11)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    a, b = tmp_path / "a", tmp_path / "b"
    main(["synth", "--config", str(p), "--out", str(a)])
    main(["synth", "--config", str(p), "--seed", "11", "--out", str(b)])
    assert (a / "st_counts.tsv").read_bytes() == (b / "st_counts.tsv").read_bytes()


def test_garbage_env_seed(tmp_path, cfg_path, monkeypatch, capsys):
    monkeypatch.setenv("DUET_SEED", "banana")
    assert main(["synth", "--config", str(cfg_path),
                 "--out", str(tmp_path / "ws")]) == 1
    assert "DUET_SEED" in capsys.readouterr().err


def test_divergence_exit_2(tmp_path, cfg_path, no_env_seed, capsys, monkeypatch):
    ws = str(tmp_path / "ws")
    for cmd in ("synth", "deconv", "align"):
        assert main([cmd, "--config", str(cfg_path), "--seed", "7",
                     "--out", ws]) == 0
    monkeypatch.setattr(regress, "LR", 1e12)
    assert main(["regress", "--config", str(cfg_path), "--seed", "7",
                 "--out", ws]) == 2
    assert "diverged" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(config path, workspace) of one full TINY run through the CLI."""
    d = tmp_path_factory.mktemp("trained")
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    assert main(["pipeline", "--config", str(cfg), "--seed", "7",
                 "--out", str(d / "ws")]) == 0
    return cfg, d / "ws"


@pytest.mark.parametrize("name,stage", [("features_img.tsv", "align"),
                                        ("features_fm.tsv", "regress"),
                                        ("gating.tsv", "fuse")])
def test_permuted_spot_rows_exit_1(trained, tmp_path, capsys, name, stage):
    # same row count, rows in another order: training would use wrong spots
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    m, rows, cols = read_matrix_tsv(ws / name)
    write_matrix_tsv(ws / name, m[::-1], rows[::-1], cols)
    rehash_outputs(ws, name)
    assert main([stage, "--config", str(cfg), "--seed", "7", "--out", str(ws)]) == 1
    assert name in capsys.readouterr().err



@pytest.mark.parametrize("value", ["nan", "inf", "-3"])
def test_bad_cell_count_exit_1_naming_the_file(trained, tmp_path, capsys, value):
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    m, rows, cols = read_matrix_tsv(ws / "cell_counts.tsv")
    m[4, 0] = float(value)
    write_matrix_tsv(ws / "cell_counts.tsv", m, rows, cols)
    rehash_outputs(ws, "cell_counts.tsv")
    assert main(["deconv", "--config", str(cfg), "--seed", "7", "--out", str(ws)]) == 1
    path = ws / "cell_counts.tsv"
    # the workspace refuses a non-finite cell as it parses the file
    assert (f"{path}: cell counts must be non-negative" if value == "-3"
            else f"non-finite cell in {path}") in capsys.readouterr().err


def test_header_only_st_counts_exit_1_naming_the_file(trained, tmp_path, capsys):
    # no spots: the deconvolution loss would divide by zero spots
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    header = (ws / "st_counts.tsv").read_bytes().split(b"\n", 1)[0]
    (ws / "st_counts.tsv").write_bytes(header + b"\n")
    rehash_outputs(ws, "st_counts.tsv")
    assert main(["deconv", "--config", str(cfg), "--seed", "7", "--out", str(ws)]) == 1
    assert f"{ws / 'st_counts.tsv'}: spot counts are empty" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["split_train.tsv", "split_test.tsv"])
def test_header_only_split_file_exit_1_naming_the_file(trained, tmp_path, capsys, name):
    # an empty split gives no positions to index with
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    (ws / name).write_text("id\n")
    rehash_outputs(ws, name)
    assert main(["predict", "--config", str(cfg), "--seed", "7", "--out", str(ws)]) == 1
    assert f"{ws / name}: lists no spots" in capsys.readouterr().err


@pytest.mark.parametrize("name,edit,message", [
    # the first spot used to be taken for the header and dropped
    ("split_test.tsv", lambda lines: lines[1:], "malformed TSV header in {}"),
    # the tab used to stay inside the gene id
    ("target_genes.tsv", lambda lines: [lines[0], lines[1] + "\tx", *lines[2:]],
     "ragged TSV row in {}"),
    # a one-column matrix is no id list
    ("split_test.tsv", lambda lines: [line + "\t1" for line in lines],
     "{}: an id list's header is 'id' alone"),
], ids=["header-less-split", "tab-in-target-row", "split-with-a-column"])
def test_misread_id_list_exit_1_naming_the_file(trained, tmp_path, capsys, name, edit,
                                                message):
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    (ws / name).write_text("\n".join(edit((ws / name).read_text().splitlines())) + "\n")
    rehash_outputs(ws, name)
    assert _run("predict", cfg, ws) == 1
    assert message.format(ws / name) in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["deconv", "align"])
def test_empty_target_list_exit_1_naming_the_file(trained, tmp_path, capsys, stage):
    # deconv used to exit 0, and align to blame st_counts.tsv for varying nowhere
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    (ws / "target_genes.tsv").write_text("id\n")
    rehash_outputs(ws, "target_genes.tsv")
    assert _run(stage, cfg, ws) == 1
    assert f"{ws / 'target_genes.tsv'}: lists no genes" in capsys.readouterr().err


def _corrupt_a_training_cell(ws: Path, name: str) -> None:
    """Replace the last cell of the first training spot's row in `name`."""
    spot = read_matrix_tsv(ws / "split_train.tsv")[1][0].encode()
    lines = (ws / name).read_bytes().split(b"\n")
    k = next(k for k, line in enumerate(lines) if line.startswith(spot + b"\t"))
    lines[k] = lines[k].rsplit(b"\t", 1)[0] + b"\tnot-a-number"
    (ws / name).write_bytes(b"\n".join(lines))


def test_edited_cell_outside_the_parsed_rows_exit_1(trained, tmp_path, capsys):
    # predict parses only the test rows of features_fm.tsv, but the file's
    # hash no longer matches the manifest's
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    _corrupt_a_training_cell(ws, "features_fm.tsv")
    assert main(["predict", "--config", str(cfg), "--seed", "7", "--out", str(ws)]) == 1
    err = capsys.readouterr().err
    assert str(ws / "features_fm.tsv") in err and "changed after its stage" in err


def test_rehashed_edit_is_parsed_whole_exit_1(trained, tmp_path, capsys):
    # the producer's record now matches, but the stages that read the file
    # recorded other bytes: the manifest does not vouch for it, so every
    # cell is parsed
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    _corrupt_a_training_cell(ws, "features_fm.tsv")
    rehash_outputs(ws, "features_fm.tsv")
    assert main(["predict", "--config", str(cfg), "--seed", "7", "--out", str(ws)]) == 1
    err = capsys.readouterr().err
    assert f"non-numeric cell in {ws / 'features_fm.tsv'}" in err


def test_predict_parses_only_the_cells_it_uses(trained, tmp_path, monkeypatch):
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    outputs = STAGE_IO["predict"][1]
    before = {name: (ws / name).read_bytes() for name in outputs}
    spots = read_matrix_tsv(ws / "st_counts.tsv")[1]
    test = read_matrix_tsv(ws / "split_test.tsv")[1]
    train = read_matrix_tsv(ws / "split_train.tsv")[1]
    reads, handed = [], {}  # file names read; name -> (row ids, columns) parsed
    real_read, real_loadtxt = pipeline.read_matrix_tsv, np.loadtxt

    def read(path, *args, **kwargs):
        reads.append(Path(path).name)
        return real_read(path, *args, **kwargs)

    def loadtxt(fh, *args, skiprows, usecols, **kwargs):
        lines = [line for line in fh.getvalue().split(b"\n")[skiprows:] if line]
        handed[reads[-1]] = ([line.split(b"\t", 1)[0].decode() for line in lines],
                             len(usecols))
        return real_loadtxt(fh, *args, skiprows=skiprows, usecols=usecols, **kwargs)

    monkeypatch.setattr(pipeline, "read_matrix_tsv", read)
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    assert main(["predict", "--config", str(cfg), "--seed", "7", "--out", str(ws)]) == 0
    assert {name: (ws / name).read_bytes() for name in outputs} == before
    assert sorted(reads) == sorted(set(reads))  # no file parsed twice
    dim = TINY["synth"]["feature_dim"]
    assert handed["features_img.tsv"] == handed["features_fm.tsv"] == (test, dim)
    assert handed["st_counts.tsv"] == (spots, TINY["synth"]["n_target_genes"])
    assert handed["gating.tsv"] == (train + test, TINY["synth"]["n_types"])


def test_non_finite_checkpoint_exit_1(trained, tmp_path, capsys):
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    model = load_reg(ws / "reg.ckpt")
    model.layers[0].weight[0, 0] = np.inf
    save_reg(ws / "reg.ckpt", model)
    rehash_outputs(ws, "reg.ckpt")
    assert main(["predict", "--config", str(cfg), "--seed", "7", "--out", str(ws)]) == 1
    assert "reg.ckpt" in capsys.readouterr().err


@pytest.mark.parametrize("name,tag", [("align.ckpt", b"DUET-ALN1"),
                                      ("fuse.ckpt", b"DUET-FUS1")])
def test_old_checkpoint_layout_exit_1_naming_the_file(trained, tmp_path, capsys, name,
                                                      tag):
    # the layout before checkpoints held only nets: the old tag, the dims,
    # an f64 scalar (the temperature, or reg_coef), then the parameters
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    blob = (ws / name).read_bytes()
    nets = 2 if name == "align.ckpt" else 1
    pos = len(tag)
    for _ in range(nets):
        pos += 4 + 8 * int.from_bytes(blob[pos:pos + 4], "little")
    (ws / name).write_bytes(tag + blob[len(tag):pos] + struct.pack("<d", 1.0) + blob[pos:])
    rehash_outputs(ws, name)
    assert main(["predict", "--config", str(cfg), "--seed", "7", "--out", str(ws)]) == 1
    err = capsys.readouterr().err
    assert f"bad checkpoint magic in {ws / name}" in err


def test_two_output_fuse_checkpoint_exit_1(trained, tmp_path, capsys):
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    feature_dim = load_fuse(ws / "fuse.ckpt").mlp.in_dim
    save_checkpoint(ws / "fuse.ckpt", MAGIC_FUSE, [Mlp.init([feature_dim, 4, 2], Rng(0))])
    rehash_outputs(ws, "fuse.ckpt")
    assert main(["predict", "--config", str(cfg), "--seed", "7", "--out", str(ws)]) == 1
    assert str(ws / "fuse.ckpt") in capsys.readouterr().err


def _resize_checkpoint(path, extra_in, extra_out=0):
    """Replace the checkpoint at `path` by a fresh model whose first input dim
    (the image head's, for align.ckpt) is larger by extra_in and whose output
    dim (the gene head's input dim, for align.ckpt) is larger by extra_out."""
    if path.name == "reg.ckpt":
        model = load_reg(path)
        save_reg(path, Mlp.init([model.in_dim + extra_in, 32, 32, model.out_dim + extra_out],
                                Rng(0)))
    elif path.name == "fuse.ckpt":
        save_fuse(path, FuseAdapter.init(load_fuse(path).mlp.in_dim + extra_in, Rng(0),
                                         hidden=16))
    else:
        model = load_align(path)
        save_align(path, AlignModel.init(model.img_head.in_dim + extra_in,
                                         model.gene_head.in_dim + extra_out, Rng(0),
                                         embed_dim=16, hidden=32))


@pytest.mark.parametrize("stage,ckpt,extra,other", [
    # reg.ckpt with 3 outputs more than target_genes.tsv has genes, and with 2
    # inputs more than features_fm.tsv has columns
    ("predict", "reg.ckpt", (0, 3), "target_genes.tsv"),
    ("predict", "reg.ckpt", (2, 0), "features_fm.tsv"),
    ("fuse", "reg.ckpt", (2, 0), "features_fm.tsv"),
    ("predict", "fuse.ckpt", (2,), "features_fm.tsv"),
    ("predict", "align.ckpt", (2, 0), "features_img.tsv"),
    ("fuse", "align.ckpt", (0, 3), "target_genes.tsv"),
    ("regress", "align.ckpt", (2, 0), "features_img.tsv"),
])
def test_checkpoint_dims_disagree_exit_1(trained, tmp_path, capsys, stage, ckpt,
                                         extra, other):
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    _resize_checkpoint(ws / ckpt, *extra)
    rehash_outputs(ws, ckpt)
    assert main([stage, "--config", str(cfg), "--seed", "7", "--out", str(ws)]) == 1
    err = capsys.readouterr().err
    assert str(ws / ckpt) in err and other in err


@pytest.mark.parametrize("doc", ["{", "[]", '{"stages": 3}'])
def test_unreadable_manifest_exit_1(doc, tmp_path, cfg_path, capsys, no_env_seed):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / "manifest.json").write_text(doc, encoding="utf-8")
    assert main(["synth", "--config", str(cfg_path), "--seed", "7", "--out", str(ws)]) == 1
    assert str(ws / "manifest.json") in capsys.readouterr().err


def test_stale_input_exit_1(tmp_path, cfg_path, capsys, no_env_seed):
    ws = tmp_path / "ws"
    assert main(["synth", "--config", str(cfg_path), "--seed", "7", "--out", str(ws)]) == 0
    counts, rows, genes = read_matrix_tsv(ws / "st_counts.tsv")
    counts[0, 0] += 1.0
    write_matrix_tsv(ws / "st_counts.tsv", counts, rows, genes)
    assert main(["deconv", "--config", str(cfg_path), "--seed", "7", "--out", str(ws)]) == 1
    assert str(ws / "st_counts.tsv") in capsys.readouterr().err


def _run(stage, cfg, ws) -> int:
    return main([stage, "--config", str(cfg), "--seed", "7", "--out", str(ws)])


@pytest.mark.parametrize("stage,name,edit", [("predict", "gating.tsv", "one row"),
                                             ("align", "features_img.tsv", "one row"),
                                             ("predict", "features_img.tsv", "last row dropped")])
def test_too_few_rows_exit_1_naming_the_file(trained, tmp_path, capsys, stage, name, edit):
    # the manifest no longer vouches for the file, so it is parsed whole, and
    # the split positions reach past its last row (the last spot is a test
    # spot at this seed)
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    lines = (ws / name).read_bytes().splitlines(keepends=True)
    (ws / name).write_bytes(b"".join(lines[:2] if edit == "one row" else lines[:-1]))
    rehash_outputs(ws, name)
    assert _run(stage, cfg, ws) == 1
    assert f"{ws / name} has no row at position" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_feature_cell_exit_1_naming_the_file(trained, tmp_path, capsys, value):
    # on a test spot's row, where it would reach the regressor
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    m, rows, cols = read_matrix_tsv(ws / "features_fm.tsv")
    m[rows.index(read_matrix_tsv(ws / "split_test.tsv")[1][0]), 0] = float(value)
    write_matrix_tsv(ws / "features_fm.tsv", m, rows, cols)
    rehash_outputs(ws, "features_fm.tsv")
    assert _run("predict", cfg, ws) == 1
    assert f"non-finite cell in {ws / 'features_fm.tsv'}" in capsys.readouterr().err


def test_unknown_split_id_exit_1_naming_the_file(trained, tmp_path, capsys):
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    with open(ws / "split_test.tsv", "a", encoding="utf-8") as f:
        f.write("no_such_spot\n")
    rehash_outputs(ws, "split_test.tsv")
    assert _run("predict", cfg, ws) == 1
    err = capsys.readouterr().err
    assert f"{ws / 'split_test.tsv'}: split id missing from" in err and "'no_such_spot'" in err


@pytest.mark.parametrize("stage", ["deconv", "align", "predict"])
def test_unmeasured_target_gene_exit_1_naming_both_files(trained, tmp_path, capsys, stage):
    # either file may be the one at fault
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    with open(ws / "target_genes.tsv", "a", encoding="utf-8") as f:
        f.write("gZZZZ\n")
    rehash_outputs(ws, "target_genes.tsv")
    assert _run(stage, cfg, ws) == 1
    err = capsys.readouterr().err
    assert f"{ws / 'st_counts.tsv'} has no column 'gZZZZ'" in err
    assert str(ws / "target_genes.tsv") in err


def _edit_cell(ws: Path, name: str, row: int, col: int, value: float) -> None:
    m, rows, cols = read_matrix_tsv(ws / name)
    m[row, col] = value
    write_matrix_tsv(ws / name, m, rows, cols)


def _merge_type_1_into_0(ws: Path) -> None:
    m, rows, cols = read_matrix_tsv(ws / "sc_labels.tsv")
    m[m[:, 0] == 1, 0] = 0
    write_matrix_tsv(ws / "sc_labels.tsv", m, rows, cols)


def _drop_last_label(ws: Path) -> None:
    lines = (ws / "sc_labels.tsv").read_bytes().splitlines(keepends=True)
    (ws / "sc_labels.tsv").write_bytes(b"".join(lines[:-1]))


@pytest.mark.parametrize("name,edit,message", [
    # a fractional label used to be truncated: batch 0.5 read as 0, type 1.7 as 1
    ("sc_labels.tsv", lambda ws: _edit_cell(ws, "sc_labels.tsv", 3, 1, 0.5),
     "batch labels must be integers"),
    ("sc_labels.tsv", lambda ws: _edit_cell(ws, "sc_labels.tsv", 3, 0, 1.7),
     "cell_type labels must be integers"),
    ("sc_labels.tsv", lambda ws: _edit_cell(ws, "sc_labels.tsv", 3, 1, -1.0),
     "batch labels out of range"),
    ("sc_labels.tsv", _drop_last_label, "cell_type and batch must have one label per cell"),
    ("sc_labels.tsv", _merge_type_1_into_0, "cell type 1 has no cells"),
    # one far label used to size the fit: a (2001, G) batch-effect table
    ("sc_labels.tsv", lambda ws: _edit_cell(ws, "sc_labels.tsv", 3, 1, 2000.0),
     "batch 2 has no cells"),
    ("sc_counts.tsv", lambda ws: _edit_cell(ws, "sc_counts.tsv", 3, 2, 2.5),
     "single-cell counts must be integers"),
], ids=["fractional-batch", "fractional-type", "negative-batch", "short-labels",
        "empty-type", "far-batch", "fractional-count"])
def test_bad_single_cell_input_exit_1_naming_the_file(trained, tmp_path, capsys, name,
                                                      edit, message):
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    edit(ws)
    rehash_outputs(ws, name)
    assert _run("deconv", cfg, ws) == 1
    assert f"{ws / name}: {message}" in capsys.readouterr().err


def test_label_rows_of_other_cells_exit_1_naming_both_files(trained, tmp_path, capsys):
    # each row keeps its cell's labels, but in reverse order: only the ids show
    # that each cell would be fitted under another cell's type and batch
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    m, rows, cols = read_matrix_tsv(ws / "sc_labels.tsv")
    write_matrix_tsv(ws / "sc_labels.tsv", m[::-1], rows[::-1], cols)
    rehash_outputs(ws, "sc_labels.tsv")
    assert _run("deconv", cfg, ws) == 1
    assert (f"{ws / 'sc_labels.tsv'}: row ids disagree with the cell ids of "
            f"{ws / 'sc_counts.tsv'}") in capsys.readouterr().err


def test_batch_the_draw_leaves_empty_exit_1_naming_the_key(tmp_path, capsys, no_env_seed):
    # far more batches than cells: the reference draw leaves some batch empty
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "synth": dict(TINY["synth"], n_batches=1000)}))
    assert _run("synth", cfg, tmp_path / "ws") == 1
    assert "'synth.n_batches' 1000 at seed 7: batch 0 has no cells" in capsys.readouterr().err


def _first_row_of(ws: Path, name: str, split: str) -> int:
    """The row of `name` that holds split_<split>.tsv's first spot."""
    return read_matrix_tsv(ws / name)[1].index(read_matrix_tsv(ws / f"split_{split}.tsv")[1][0])


def _huge_training_cell(ws: Path) -> None:
    _edit_cell(ws, "features_img.tsv", _first_row_of(ws, "features_img.tsv", "train"), 0, 1e308)


def _zero_features(ws: Path) -> None:
    m, rows, cols = read_matrix_tsv(ws / "features_img.tsv")
    write_matrix_tsv(ws / "features_img.tsv", np.zeros_like(m), rows, cols)


@pytest.mark.parametrize("edit,message", [
    # finite, but its column's SD overflows
    (_huge_training_cell, "column mean or SD is not finite"),
    # every spot would embed alike: the head's output is its bias alone
    (_zero_features, "no column varies over the training spots"),
], ids=["huge-cell", "all-zero"])
def test_bad_image_features_exit_1_naming_the_file(trained, tmp_path, capsys, edit, message):
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    edit(ws)
    rehash_outputs(ws, "features_img.tsv")
    assert _run("align", cfg, ws) == 1
    assert f"{ws / 'features_img.tsv'}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("split", ["test", "train"])
def test_negative_gating_cell_exit_1_naming_the_file(trained, tmp_path, capsys, split):
    # a test row is a query, a train row a database entry: both are refused
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    _edit_cell(ws, "gating.tsv", _first_row_of(ws, "gating.tsv", split), 1, -5.0)
    rehash_outputs(ws, "gating.tsv")
    assert _run("predict", cfg, ws) == 1
    assert (f"{ws / 'gating.tsv'}: negative cell in a row retrieval reads"
            in capsys.readouterr().err)


def test_huge_fm_cell_on_a_fuse_row_exit_1_naming_the_files(trained, tmp_path, capsys):
    # the regressor maps the row to a finite prediction near 1e307, whose
    # squared error the fit takes: it used to diverge at epoch 0 (exit 2)
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    _edit_cell(ws, "features_fm.tsv", _first_row_of(ws, "features_fm.tsv", "fuse"), 0, 1e308)
    rehash_outputs(ws, "features_fm.tsv")
    assert _run("fuse", cfg, ws) == 1
    assert (f"{ws / 'features_fm.tsv'}: a row overflows when fed to {ws / 'reg.ckpt'}"
            in capsys.readouterr().err)


# the regressor maps the huge fm row to a finite prediction near 1e307, and
# the adapter's net overflows on it
@pytest.mark.parametrize("name,ckpt", [("features_fm.tsv", "fuse.ckpt"),
                                       ("features_img.tsv", "align.ckpt")])
def test_huge_feature_cell_exit_1_naming_the_files(trained, tmp_path, capsys, name, ckpt):
    # finite, but a net it is fed to overflows; pyproject.toml turns the
    # RuntimeWarning numpy would give for that into a test error
    cfg, src = trained
    ws = tmp_path / "ws"
    shutil.copytree(src, ws)
    _edit_cell(ws, name, _first_row_of(ws, name, "test"), 0, 1e308)
    rehash_outputs(ws, name)
    assert _run("predict", cfg, ws) == 1
    assert f"{ws / name}: a row overflows when fed to {ws / ckpt}" in capsys.readouterr().err
