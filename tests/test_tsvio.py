import ast
import hashlib
import json
import struct
from datetime import datetime, timezone
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import duet
from duet import tsvio
from duet.align import (MAGIC_ALIGN, AlignModel, embed_expressions, embed_images,
                        load_align, save_align)
from duet.core import Layer, Mlp, Rng
from duet.errors import InputError
from duet.fuse import MAGIC_FUSE, FuseAdapter, alpha_batch, load_fuse, save_fuse
from duet.pipeline import PipelineConfig, stage_eval
from duet.regress import MAGIC_REG, load_reg, save_reg
from duet.tsvio import (
    read_bytes,
    read_ids_tsv,
    read_manifest,
    read_matrix_tsv,
    save_checkpoint,
    update_manifest,
    write_ids_tsv,
    write_matrix_tsv,
)
from test_scprior import traced_peak


class TestMatrixTsv:
    def test_roundtrip_lossless(self, tmp_path):
        rng = Rng(1)
        m = rng.child("m").standard_normal((7, 4)) * np.exp(
            rng.child("s").uniform(-30, 30, size=(7, 4))
        )
        m[0, 0] = 0.0
        m[1, 1] = -0.0
        m[2, 2] = np.pi
        path = tmp_path / "m.tsv"
        rows = [f"r{i}" for i in range(7)]
        cols = [f"c{j}" for j in range(4)]
        write_matrix_tsv(path, m, rows, cols)
        back, rids, cids = read_matrix_tsv(path)
        assert np.array_equal(back, m)
        assert rids == rows
        assert cids == cols

    def test_header_first_cell_is_id(self, tmp_path):
        path = tmp_path / "m.tsv"
        write_matrix_tsv(path, np.zeros((1, 2)), ["a"], ["x", "y"])
        text = path.read_text(encoding="utf-8")
        assert text.startswith("id\tx\ty\n")
        assert text.endswith("\n")
        assert "\r" not in text

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("spot\tx\na\t1\n", encoding="utf-8")
        with pytest.raises(InputError, match="id"):
            read_matrix_tsv(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.tsv"
        path.write_text("id\tx\ty\na\t1\n", encoding="utf-8")
        with pytest.raises(InputError):
            read_matrix_tsv(path)

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.tsv"
        with pytest.raises(InputError, match="nope.tsv"):
            read_matrix_tsv(missing)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 6),
        cols=st.integers(1, 5),
        scale=st.integers(-250, 250),
    )
    def test_roundtrip_property(self, seed, rows, cols, scale, tmp_path_factory):
        # repr-based serialization must be lossless across the float64 range
        m = Rng(seed).child("m").standard_normal((rows, cols)) * 10.0**scale
        path = tmp_path_factory.mktemp("rt") / "m.tsv"
        write_matrix_tsv(path, m, [f"r{i}" for i in range(rows)],
                         [f"c{j}" for j in range(cols)])
        back, _, _ = read_matrix_tsv(path)
        assert np.array_equal(back, m)

    def test_id_list_roundtrip(self, tmp_path):
        path = tmp_path / "ids.tsv"
        write_ids_tsv(path, ["a", "b", "c"])
        assert read_ids_tsv(path) == ["a", "b", "c"]


class TestCheckpoints:
    def test_align_roundtrip(self, tmp_path):
        model = AlignModel.init(img_dim=10, gene_dim=14, rng=Rng(2),
                                embed_dim=8, hidden=16)
        path = tmp_path / "align.ckpt"
        save_align(path, model)
        back = load_align(path)
        assert back.img_head.out_dim == back.gene_head.out_dim == 8
        x = Rng(3).child("x").standard_normal((5, 10))
        y = Rng(3).child("y").uniform(0, 3, size=(5, 14))
        assert np.array_equal(embed_images(back, x), embed_images(model, x))
        assert np.array_equal(embed_expressions(back, y),
                              embed_expressions(model, y))

    def test_reg_roundtrip(self, tmp_path):
        model = Mlp.init([12, 16, 16, 9], Rng(4))
        path = tmp_path / "reg.ckpt"
        save_reg(path, model)
        back = load_reg(path)
        assert back.in_dim == 12 and back.out_dim == 9
        x = Rng(5).child("x").standard_normal((6, 12))
        assert np.array_equal(back.forward(x)[0], model.forward(x)[0])

    def test_fuse_roundtrip(self, tmp_path):
        ad = FuseAdapter.init(7, Rng(6), hidden=32)
        ad.mlp.layers[-1].bias[...] = 0.3
        ad.mlp.touch()
        path = tmp_path / "fuse.ckpt"
        save_fuse(path, ad)
        back = load_fuse(path)
        f = Rng(7).child("f").standard_normal(7)
        assert np.array_equal(alpha_batch(back, f[None]), alpha_batch(ad, f[None]))

    def test_wrong_magic_rejected(self, tmp_path):
        model = Mlp.init([4, 8, 3], Rng(8))
        path = tmp_path / "reg.ckpt"
        save_reg(path, model)
        with pytest.raises(InputError, match="magic"):
            load_align(path)

    def test_truncated_rejected(self, tmp_path):
        model = Mlp.init([4, 8, 3], Rng(9))
        path = tmp_path / "reg.ckpt"
        save_reg(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(InputError, match="truncated"):
            load_reg(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = Mlp.init([4, 8, 3], Rng(10))
        path = tmp_path / "reg.ckpt"
        save_reg(path, model)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(InputError, match="trailing"):
            load_reg(path)


def _net(*layers) -> Mlp:
    """An Mlp of (weight rows, bias) pairs."""
    return Mlp([Layer(np.array(w, dtype=float), np.array(b, dtype=float))
                for w, b in layers])


class TestCheckpointGoldenBytes:
    """Each save function writes the layout the tsvio docstring gives: magic,
    per net a u32 layer count and u32 (out, in) dims, then per net each
    layer's weight row-major and bias, all little-endian."""

    def test_align(self, tmp_path):
        img = _net(([[1.5, -2.0]], [0.25]), ([[3.0], [-0.0]], [5e-324, 7.0]))
        gene = _net(([[0.5, 4.0, -1.0], [2.0, 0.0, 8.0]], [-3.5, 6.0]))
        expected = b"".join([
            b"DUET-ALN2",
            struct.pack("<5I", 2, 1, 2, 2, 1),
            struct.pack("<3I", 1, 2, 3),
            struct.pack("<3d", 1.5, -2.0, 0.25),
            struct.pack("<4d", 3.0, -0.0, 5e-324, 7.0),
            struct.pack("<8d", 0.5, 4.0, -1.0, 2.0, 0.0, 8.0, -3.5, 6.0),
        ])
        path = tmp_path / "align.ckpt"
        data = save_align(path, AlignModel(img, gene))
        assert data == path.read_bytes() == expected

    def test_reg(self, tmp_path):
        head = _net(([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [0.1, 0.2, 0.3]),
                    ([[-1.0, -2.0, -3.0]], [1e300]))
        expected = b"".join([
            b"DUET-REG1",
            struct.pack("<5I", 2, 3, 2, 1, 3),
            struct.pack("<9d", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.1, 0.2, 0.3),
            struct.pack("<4d", -1.0, -2.0, -3.0, 1e300),
        ])
        path = tmp_path / "reg.ckpt"
        data = save_reg(path, head)
        assert data == path.read_bytes() == expected

    def test_fuse(self, tmp_path):
        mlp = _net(([[0.5], [-0.25]], [1.0, 2.0]), ([[4.0, 8.0]], [-0.0]))
        expected = b"".join([
            b"DUET-FUS2",
            struct.pack("<5I", 2, 2, 1, 1, 2),
            struct.pack("<4d", 0.5, -0.25, 1.0, 2.0),
            struct.pack("<3d", 4.0, 8.0, -0.0),
        ])
        path = tmp_path / "fuse.ckpt"
        data = save_fuse(path, FuseAdapter(mlp))
        assert data == path.read_bytes() == expected


class TestCheckpointModelErrors:
    """The model's own checks run inside the loader, so they name the file."""

    def test_fuse_net_with_two_outputs(self, tmp_path):
        path = tmp_path / "fuse.ckpt"
        save_checkpoint(path, MAGIC_FUSE, [Mlp.init([3, 4, 2], Rng(0))])
        with pytest.raises(InputError, match="one scalar") as err:
            load_fuse(path)
        assert str(path) in str(err.value)

    def test_reg_layers_that_do_not_chain(self, tmp_path):
        path = tmp_path / "reg.ckpt"
        path.write_bytes(MAGIC_REG + struct.pack("<5I", 2, 4, 3, 2, 5)
                         + np.zeros(4 * 3 + 4 + 2 * 5 + 2).tobytes())
        with pytest.raises(InputError, match=r"chain mismatch: \(4, 3\) feeds \(2, 5\)") \
                as err:
            load_reg(path)
        assert str(path) in str(err.value)

    def test_align_heads_with_different_embed_dims(self, tmp_path):
        path = tmp_path / "align.ckpt"
        save_checkpoint(path, MAGIC_ALIGN, [Mlp.init([3, 2], Rng(0)), Mlp.init([4, 5], Rng(1))])
        with pytest.raises(InputError, match="embed dims") as err:
            load_align(path)
        assert str(path) in str(err.value)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestManifest:
    def test_records_hashes_and_stages(self, tmp_path):
        out = tmp_path / "a.tsv"
        data = write_matrix_tsv(out, np.ones((2, 2)), ["r0", "r1"], ["c0", "c1"])
        assert data == out.read_bytes()  # writers return the bytes they wrote
        man = tmp_path / "manifest.json"
        update_manifest(man, "synth", seed=7, config={"n": 2},
                        outputs={"a.tsv": sha256_file(out)}, inputs={})
        doc = json.loads(man.read_text(encoding="utf-8"))
        assert doc["seed"] == 7
        assert doc["stages"]["synth"]["outputs"]["a.tsv"] == sha256_file(out)
        update_manifest(man, "eval", seed=7, config={"n": 2}, outputs={},
                        inputs={"a.tsv": sha256_file(out)})
        doc = json.loads(man.read_text(encoding="utf-8"))
        assert set(doc["stages"]) == {"synth", "eval"}
        assert doc["stages"]["eval"]["inputs"] == {"a.tsv": sha256_file(out)}

    def test_hash_tracks_content(self, tmp_path):
        # the manifest hashes the bytes a writer returns; they are the file's
        out = tmp_path / "a.tsv"
        hashes = []
        for m in (np.ones((1, 1)), np.zeros((1, 1)), np.ones((1, 1))):
            data = write_matrix_tsv(out, m, ["r"], ["c"])
            assert data == out.read_bytes() == read_bytes(out)
            hashes.append(hashlib.sha256(data).hexdigest())
        assert hashes[0] != hashes[1] and hashes[2] == hashes[0]

    @pytest.mark.parametrize("doc", [
        b"{", b"[]", b'{"stages": 3}', b'{"stages": {"synth": 1}}',
        b'{"stages": {"synth": {"outputs": {}}}}',
        b'{"stages": {"synth": {"outputs": [], "inputs": {}}}}', b"\xff{}",
    ])
    def test_unreadable_manifest_names_the_file(self, doc, tmp_path):
        man = tmp_path / "manifest.json"
        man.write_bytes(doc)
        with pytest.raises(InputError, match="manifest.json"):
            read_manifest(man)
        with pytest.raises(InputError, match="manifest.json"):
            update_manifest(man, "s", seed=1, config={}, outputs={}, inputs={})
        assert man.read_bytes() == doc

    def test_manifest_is_valid_json(self, tmp_path):
        man = tmp_path / "manifest.json"
        update_manifest(man, "s", seed=1, config={}, outputs={}, inputs={})
        json.loads(man.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Bit-exact round trips
# ---------------------------------------------------------------------------

# st.floats draws -0.0, subnormals and values up to +-1.8e308 on its own; the
# examples below pin them so every run covers them.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE_ROW = [-0.0, 5e-324, -2.2250738585072e-308, 1.7e308, -1.7976931348623157e308]
INTEGRAL = st.integers(-(2**53 - 1), 2**53 - 1).map(float)
ID_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                blacklist_characters="\t\n\r"), min_size=1)


def _fmt(v: float) -> str:
    return "%.17g" % v


def per_value_matrix_text(matrix, row_ids, col_ids) -> str:
    """Oracle: the one-value-at-a-time formatting write_matrix_tsv replaced;
    a zero-column matrix is the header `id` and one bare row id per line."""
    lines = ["\t".join(["id", *map(str, col_ids)])]
    for rid, row in zip(row_ids, matrix):
        lines.append("\t".join([str(rid), *map(_fmt, row)]))
    return "\n".join(lines) + "\n"


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestExactRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(m=arrays(np.float64, st.tuples(st.integers(0, 7), st.integers(0, 6)),
                    elements=FINITE))
    @example(m=np.zeros((2, 0)))
    @example(m=np.zeros((0, 3)))
    @example(m=np.array([EDGE_ROW]))
    @example(m=np.array(EDGE_ROW)[:, None])
    @example(m=np.array([[0.0]]))
    def test_matrix_bits_and_bytes(self, m, tmp_path_factory):
        rows = [f"r{i}" for i in range(m.shape[0])]
        cols = [f"c{j}" for j in range(m.shape[1])]
        path = tmp_path_factory.mktemp("mx") / "m.tsv"
        write_matrix_tsv(path, m, rows, cols)
        assert path.read_bytes() == per_value_matrix_text(m, rows, cols).encode()
        back, rids, cids = read_matrix_tsv(path)
        assert back.shape == m.shape
        assert np.array_equal(bits(back), bits(m))
        assert (rids, cids) == (rows, cols)

    @settings(max_examples=60, deadline=None)
    @given(m=arrays(np.float64, st.tuples(st.integers(0, 7), st.integers(0, 6)),
                    elements=INTEGRAL))
    @example(m=np.array([[2.0**53 - 1, -(2.0**53 - 1)]]))
    @example(m=np.array([[3.0, 2.0**53], [-7.0, 0.0]]))
    @example(m=np.array([[3.0, -2.0**53], [-7.0, 0.0]]))
    @example(m=np.array([[3.0, 1e16], [-7.0, 0.0]]))
    @example(m=np.array([[3.0, -0.0], [-7.0, 0.0]]))
    @example(m=np.array([[3.0, np.nan], [-7.0, 0.0]]))
    @example(m=np.array([[3.0, np.inf], [-np.inf, 0.0]]))
    def test_integral_matrix_bits_and_bytes(self, m, tmp_path_factory):
        rows = [f"r{i}" for i in range(m.shape[0])]
        cols = [f"c{j}" for j in range(m.shape[1])]
        path = tmp_path_factory.mktemp("mx") / "m.tsv"
        write_matrix_tsv(path, m, rows, cols)
        assert path.read_bytes() == per_value_matrix_text(m, rows, cols).encode()
        back, _, _ = read_matrix_tsv(path)
        assert np.array_equal(bits(back), bits(m))

    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(ID_TEXT, max_size=8))
    @example(ids=[])
    @example(ids=["é", " x ", "\x0b\x0c\u2028", "id"])
    def test_ids_round_trip_and_bytes(self, ids, tmp_path_factory):
        path = tmp_path_factory.mktemp("ids") / "ids.tsv"
        write_ids_tsv(path, ids)
        assert path.read_bytes() == ("\n".join(["id", *ids]) + "\n").encode()
        assert read_ids_tsv(path) == ids

    @settings(max_examples=60, deadline=None)
    @given(m=arrays(np.float64, st.tuples(st.integers(0, 5), st.integers(0, 4)),
                    elements=FINITE),
           ids=st.lists(ID_TEXT, min_size=9, max_size=9))
    @example(m=np.array([[0.5, -0.0], [1e300, 3.0]]),
             ids=["\x00", "a\x00b", "\x01\x1f", "", "", "\x00\x00", "é\u2028", "", ""])
    def test_matrix_ids_bits_and_bytes(self, m, ids, tmp_path_factory):
        # ids hold NUL, C0 controls and non-ASCII: the cell text drops its
        # NUL padding, which must leave the id bytes alone
        rows, cols = ids[:m.shape[0]], ids[5:5 + m.shape[1]]
        path = tmp_path_factory.mktemp("mx") / "m.tsv"
        write_matrix_tsv(path, m, rows, cols)
        assert path.read_bytes() == per_value_matrix_text(m, rows, cols).encode()
        back, rids, cids = read_matrix_tsv(path)
        assert back.shape == m.shape
        assert np.array_equal(bits(back), bits(m))
        assert (rids, cids) == (rows, cols)

    def test_zero_column_matrix_round_trips(self, tmp_path):
        path = tmp_path / "m.tsv"
        assert write_matrix_tsv(path, np.zeros((2, 0)), ["a", "b"], []) == b"id\na\nb\n"
        back, rows, cols = read_matrix_tsv(path)
        assert (back.shape, rows, cols) == ((2, 0), ["a", "b"], [])
        # its rows are bare ids, and the reader skips an empty line
        with pytest.raises(InputError, match="row id ''"):
            write_matrix_tsv(tmp_path / "e.tsv", np.zeros((2, 0)), ["a", ""], [])


def e_format(v: float) -> tuple[int, int]:
    """Oracle for tsvio._decimal: the exponent k and the 17 digits q of '%.16e'."""
    mantissa, exponent = ("%.16e" % v).split("e")
    return int(exponent), int(mantissa.lstrip("-").replace(".", ""))


def around(v: float, n: int) -> list[float]:
    """v and its n float64 neighbours on each side."""
    out = [v]
    for direction in (np.inf, -np.inf):
        w = v
        for _ in range(n):
            w = float(np.nextafter(w, direction))
            out.append(w)
    return out


DECADES = [float(f"1e{k}") for k in range(-6, 18)]
# 1e15 + 0.25 is 1000000000000000.25 exactly: 18 digits ending in 5, a tie
# at 17 that dtoa rounds to even (…0.2), as for the others (…0.8, …5.12, …5.38)
TIES = [1e15 + 0.25, 1e15 + 0.75, 123456789012345.125, 123456789012345.375]
NINES = [float(f"{lead}.{'9' * n}{tail}e{k}") for k in range(-5, 17)
         for lead, n, tail in ((9, 16, 5), (9, 15, 4), (1, 15, 9), (4, 10, 6))]


class TestNumpyFormatter:
    """Each step of the numpy '%.17g' path against an exact oracle."""

    def test_decimal_exponent_and_rounding(self):
        # log10 lands on k + 1 for the float just below 10**(k+1) (1e3, 1e-2,
        # ...), so _decimal must move k; ties must round half to even
        rng = np.random.default_rng(11)
        edge = [v for d in DECADES for v in around(d, 3)] + TIES + NINES
        y = np.abs(np.array(edge + list(10 ** rng.uniform(-4, 16, 5000))))
        y = y[(y >= 1e-4) & (y < 1e16)]
        assert any(int(np.floor(np.log10(v))) != e_format(v)[0] for v in y)
        assert all(str(Decimal(v)).replace(".", "").endswith("5") for v in TIES)
        k, q, exact = tsvio._decimal(y)
        assert np.all(exact)
        assert list(zip(k.tolist(), q.tolist())) == [e_format(v) for v in y]

    @pytest.mark.parametrize("nudge", [1e-12, -1e-12])
    def test_decimal_moves_an_estimate_one_off(self, nudge, monkeypatch):
        # a log10 a little high (low) puts k one too high just below (at and
        # just above) each power of ten, where hi + lo straddles 1e16 (1e17)
        y = np.array([v for d in DECADES for v in around(d, 3) if 1e-4 <= v < 1e16])
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda v: log10(v) + nudge)
        for v in y:  # alone: no other cell of the pass sends it to the exact check
            k, q, exact = tsvio._decimal(np.array([v]))
            assert np.all(exact) and (int(k[0]), int(q[0])) == e_format(v)

    @pytest.mark.parametrize("off", [3.0, -3.0])
    def test_cells_not_pinned_down_go_through_percent_g(self, off, monkeypatch, tmp_path):
        m = 10 ** np.random.default_rng(14).uniform(-1, 12, (4, 6))
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda v: log10(v) + off)
        assert not np.any(tsvio._decimal(m.ravel())[2])
        rows, cols = [f"r{i}" for i in range(4)], [f"c{j}" for j in range(6)]
        got = write_matrix_tsv(tmp_path / "m.tsv", m, rows, cols)
        assert got == per_value_matrix_text(m, rows, cols).encode()

    def test_scaled_is_exact(self):
        rng = np.random.default_rng(12)
        y = np.concatenate([[1e-4, 1e16, np.nextafter(1e16, 0)],
                            10 ** rng.uniform(-4, 16, 3000)])
        p = rng.integers(0, 23, y.size)
        hi, lo = tsvio._scaled(y, p)
        assert all(Fraction(h) + Fraction(l) == Fraction(v) * 10**e
                   for h, l, v, e in zip(hi.tolist(), lo.tolist(), y.tolist(), p.tolist()))

    def test_digits(self):
        q = np.concatenate([[10**16, 10**17 - 1, 2**53 * 2, 12345678901234567],
                            np.random.default_rng(13).integers(10**16, 10**17, 5000)])
        assert [bytes(c).decode() for c in tsvio._digits(q).T] == [str(v) for v in q.tolist()]

    @pytest.mark.parametrize("cells", [
        # each decade of fixed notation, with and without fraction digits
        [[float(f"1.5e{k}"), float(f"-1e{k}"), float(f"1.25e{k}")] for k in range(-4, 16)],
        [[-0.0, 0.0, 0.5], [100.0, -3.0, 2.0**53], [1e15 + 0.5, -1e-4, 9999999999999998.0]],
        [TIES, [0.1, 0.2, 0.30000000000000004, 1 / 3]],
    ])
    def test_layout(self, cells, tmp_path):
        m = np.array(cells).reshape(len(cells), -1)
        rows, cols = [f"r{i}" for i in range(len(m))], [f"c{j}" for j in range(m.shape[1])]
        got = write_matrix_tsv(tmp_path / "m.tsv", m, rows, cols)
        assert got == per_value_matrix_text(m, rows, cols).encode()


def fuzz_cells(rng) -> tuple[np.ndarray, np.ndarray]:
    """(fractional, integral) cells for the exactness fuzz."""
    n = 40_000
    in_range = (rng.integers(1009, 1077, n, dtype=np.uint64) << np.uint64(52)
                | rng.integers(0, 2**52, n, dtype=np.uint64)
                | rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
    edges = ([v for d in DECADES for v in around(d, 3)] + around(1e-4, 4) + around(1e16, 4)
             + TIES + NINES + [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                               2.2250738585072014e-308, 2.225073858507201e-308])
    fractional = np.concatenate([
        rng.integers(0, 2**64, 2 * n, dtype=np.uint64).view(np.float64),  # any bits
        in_range.view(np.float64),  # any bits with 2**-14 <= |v| < 2**53
        np.round(rng.normal(size=n) * 10.0 ** rng.integers(-4, 12, n), 6),
        np.array(edges + [-v for v in edges]),
    ])
    return fractional, rng.integers(-2**53, 2**53, n, endpoint=True).astype(np.float64)


class TestExactnessFuzz:
    def test_matches_the_per_value_oracle(self, tmp_path):
        rng = np.random.default_rng(2024)
        fractional, integral = fuzz_cells(rng)
        cells = np.concatenate([fractional, integral])
        width = 97  # no divisor of the block: a block is its whole rows
        per_block = tsvio._BLOCK // width
        m = cells[:cells.size // width * width].reshape(-1, width)
        # swap a quarter of the integral rows in among the fractional ones, so
        # the numpy formatter sees mixed blocks and, last, wholly integral ones
        integral_rows = np.arange(-(-fractional.size // width), len(m))
        moved = integral_rows[: len(integral_rows) // 4]
        order = np.arange(len(m))
        swap = rng.choice(moved[0], moved.size, replace=False)
        order[swap], order[moved] = moved, swap
        tall = m[order]
        whole = np.isin(order, integral_rows)[: len(m) // per_block * per_block]
        whole = whole.reshape(-1, per_block).sum(axis=1)
        assert (whole == per_block).sum() >= 2
        assert ((whole > 0) & (whole < per_block)).sum() >= 2
        # one row that the writer formats in 3 pieces
        wide = cells[rng.permutation(cells.size)[:5 * tsvio._BLOCK // 2]][None, :]
        assert -(-wide.size // tsvio._BLOCK) >= 3
        assert m.size + wide.size >= 200_000
        for name, mat in (("tall", tall), ("wide", wide)):
            rows = [f"r{i}" for i in range(mat.shape[0])]
            cols = [f"c{j}" for j in range(mat.shape[1])]
            got = write_matrix_tsv(tmp_path / f"{name}.tsv", mat, rows, cols)
            assert got == per_value_matrix_text(mat, rows, cols).encode(), name


class TestWriterMemory:
    @staticmethod
    def assert_one_copy(m, tmp_path):
        rows = [f"s{i:05d}" for i in range(m.shape[0])]
        cols = [f"f{j}" for j in range(m.shape[1])]
        written = []
        peak = traced_peak(lambda: written.append(
            write_matrix_tsv(tmp_path / "m.tsv", m, rows, cols)))
        assert peak < len(written[0]) + m.nbytes + 256 * 1024

    def test_write_matrix_holds_one_copy_of_the_text(self, tmp_path):
        # the file's bytes, one float64 copy of the matrix and slack: a list
        # of row strings, its join and the encoded text held 3x the bytes
        self.assert_one_copy(np.random.default_rng(3).normal(size=(2000, 64)), tmp_path)

    @pytest.mark.parametrize("shape,integral", [((2000, 220), True), ((1, 200_000), False)])
    def test_blocks_count_cells_not_rows(self, shape, integral, tmp_path):
        m = np.random.default_rng(3).normal(size=shape)
        self.assert_one_copy(np.round(m * 1000) if integral else m, tmp_path)


class TestReaderMemory:
    def test_read_matrix_holds_no_copy_of_the_text(self, tmp_path):
        # the result, its row ids and slack: the decoded text and the list of
        # line strings the line-based reader parsed held twice the bytes
        m = np.random.default_rng(4).normal(size=(2000, 64))
        path = tmp_path / "m.tsv"
        data = write_matrix_tsv(path, m, [f"s{i:05d}" for i in range(2000)],
                                [f"f{j}" for j in range(64)])
        read = []
        peak = traced_peak(lambda: read.append(read_matrix_tsv(path, data)))
        assert np.array_equal(bits(read[0][0]), bits(m))
        assert peak < m.nbytes + 512 * 1024


class TestSelectedRead:
    @settings(max_examples=60, deadline=None)
    @given(m=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)),
                    elements=st.floats()),
           crlf=st.booleans(), blanks=st.sets(st.integers(0, 8)), data=st.data())
    def test_equals_a_full_read_then_indexing(self, m, crlf, blanks, data,
                                              tmp_path_factory):
        row_ids = [f"r{i}" for i in range(m.shape[0])]
        col_ids = [f"c{j}" for j in range(m.shape[1])]
        rows = data.draw(st.none() | st.lists(st.integers(0, m.shape[0] - 1),
                                              unique=True), label="rows")
        cols = data.draw(st.none() | st.lists(st.sampled_from(col_ids), unique=True),
                         label="cols")
        path = tmp_path_factory.mktemp("sel") / "m.tsv"
        lines = write_matrix_tsv(path, m, row_ids, col_ids).split(b"\n")
        for k in sorted(blanks, reverse=True):
            lines.insert(k % len(lines), b"")
        path.write_bytes((b"\r\n" if crlf else b"\n").join(lines))
        full, full_rows, full_cols = read_matrix_tsv(path)
        want = full if rows is None else full[np.array(rows, dtype=np.intp)]
        if cols is not None:
            want = want[:, [col_ids.index(c) for c in cols]]
        got, got_rows, got_cols = read_matrix_tsv(path, rows=rows, cols=cols)
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))
        assert (got_rows, got_cols) == (full_rows, full_cols) == (row_ids, col_ids)

    def test_unknown_column_id_names_the_file_and_the_id(self, tmp_path):
        path = tmp_path / "m.tsv"
        write_matrix_tsv(path, np.eye(2), ["a", "b"], ["x", "y"])
        with pytest.raises(InputError, match=r"m\.tsv has no column 'nope'"):
            read_matrix_tsv(path, cols=["y", "nope"])

    def test_row_position_out_of_range_names_the_file(self, tmp_path):
        path = tmp_path / "m.tsv"
        write_matrix_tsv(path, np.eye(2), ["a", "b"], ["x", "y"])
        with pytest.raises(InputError, match=r"m\.tsv has no row at position 2"):
            read_matrix_tsv(path, rows=[1, 2])

    @pytest.mark.parametrize("bad", [b"r1\t1\n", b"r1\t1\t2\t3\n",
                                     b"r1\t\xff\t2\n", b"r\xe9\t1\t2\n"])
    def test_whole_file_checks_cover_unselected_rows(self, bad, tmp_path):
        # a ragged row or bytes that are not UTF-8 outside the selection
        path = tmp_path / "m.tsv"
        path.write_bytes(b"id\tx\ty\nr0\t1\t2\n" + bad + b"r2\t5\t6\n")
        with pytest.raises(InputError, match="m.tsv"):
            read_matrix_tsv(path, rows=[2, 0], cols=["x"])

    def test_only_selected_cells_are_converted(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_bytes(b"id\tx\ty\nr0\t1\tbad\nr1\tbad\t4\n")
        back, rows, cols = read_matrix_tsv(path, rows=[1], cols=["y"])
        assert back.tolist() == [[4.0]] and rows == ["r0", "r1"] and cols == ["x", "y"]
        with pytest.raises(InputError, match="non-numeric cell in .*m.tsv"):
            read_matrix_tsv(path, rows=[0])

    def test_selected_read_peaks_below_a_full_read(self, tmp_path):
        m = np.random.default_rng(4).normal(size=(2000, 64))
        path = tmp_path / "m.tsv"
        data = write_matrix_tsv(path, m, [f"s{i:05d}" for i in range(2000)],
                                [f"f{j}" for j in range(64)])
        rows = range(0, 2000, 5)
        full = traced_peak(lambda: read_matrix_tsv(path, data))
        part = []
        peak = traced_peak(lambda: part.append(read_matrix_tsv(path, data, rows=rows)))
        assert np.array_equal(bits(part[0][0]), bits(m[rows]))
        assert peak < full


@st.composite
def mlps(draw, out_dim=None):
    """Nets with arbitrary finite parameters."""
    n_layers = draw(st.integers(1, 3))
    dims = [draw(st.integers(1, 5)) for _ in range(n_layers + 1)]
    dims[-1] = out_dim or dims[-1]
    layers = []
    for k in range(n_layers):
        w = draw(arrays(np.float64, (dims[k + 1], dims[k]), elements=FINITE))
        b = draw(arrays(np.float64, dims[k + 1], elements=FINITE))
        layers.append(Layer(w, b))
    return Mlp(layers)


def assert_same_mlp(a: Mlp, b: Mlp):
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers, b.layers):
        assert la.weight.shape == lb.weight.shape
        assert np.array_equal(bits(la.weight), bits(lb.weight))
        assert np.array_equal(bits(la.bias), bits(lb.bias))


def resave_matches(save, load, path):
    """Saving what was loaded reproduces the file byte for byte."""
    again = path.with_name("again.ckpt")
    save(again, load(path))
    assert again.read_bytes() == path.read_bytes()


@st.composite
def align_heads(draw):
    img = draw(mlps())
    return img, draw(mlps(out_dim=img.out_dim))


class TestCheckpointRoundTrips:
    @settings(max_examples=30, deadline=None)
    @given(heads=align_heads())
    @example(heads=(Mlp([Layer(np.array([EDGE_ROW]), [5e-324])]),
                    Mlp([Layer(np.array([[-0.0]]), [1.7e308])])))
    def test_align(self, heads, tmp_path_factory):
        img, gene = heads
        path = tmp_path_factory.mktemp("ck") / "align.ckpt"
        save_align(path, AlignModel(img_head=img, gene_head=gene))
        back = load_align(path)
        assert_same_mlp(back.img_head, img)
        assert_same_mlp(back.gene_head, gene)
        resave_matches(save_align, load_align, path)

    @settings(max_examples=30, deadline=None)
    @given(head=mlps())
    def test_reg(self, head, tmp_path_factory):
        path = tmp_path_factory.mktemp("ck") / "reg.ckpt"
        save_reg(path, head)
        assert_same_mlp(load_reg(path), head)
        resave_matches(save_reg, load_reg, path)

    @settings(max_examples=30, deadline=None)
    @given(mlp=mlps(out_dim=1))
    @example(mlp=Mlp([Layer(np.array([EDGE_ROW]), [-0.0])]))
    def test_fuse(self, mlp, tmp_path_factory):
        path = tmp_path_factory.mktemp("ck") / "fuse.ckpt"
        save_fuse(path, FuseAdapter(mlp=mlp))
        assert_same_mlp(load_fuse(path).mlp, mlp)
        resave_matches(save_fuse, load_fuse, path)


# ---------------------------------------------------------------------------
# Ids that cannot round-trip, and malformed input
# ---------------------------------------------------------------------------


class TestIdChecks:
    @pytest.mark.parametrize("ids,bad", [
        (["a\rb", "c\nd", ""], "a\rb"),
        (["ok", "c\nd"], "c\nd"),
        (["ok", "x\ty"], "x\ty"),
        (["ok", "", "z"], ""),
    ])
    def test_id_list_rejects(self, ids, bad, tmp_path):
        path = tmp_path / "ids.tsv"
        with pytest.raises(InputError) as info:
            write_ids_tsv(path, ids)
        assert repr(bad) in str(info.value)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", ["x\ty", "x\ny", "x\ry", "\r"])
    @pytest.mark.parametrize("axis", ["row", "column"])
    def test_matrix_rejects(self, bad, axis, tmp_path):
        rows, cols = ["r0", "r1"], ["c0", "c1", "c2"]
        (rows if axis == "row" else cols)[1] = bad
        path = tmp_path / "m.tsv"
        with pytest.raises(InputError) as info:
            write_matrix_tsv(path, np.zeros((2, 3)), rows, cols)
        assert f"{axis} id {bad!r}" in str(info.value)
        assert list(tmp_path.iterdir()) == []

    def test_empty_matrix_ids_round_trip(self, tmp_path):
        path = tmp_path / "m.tsv"
        write_matrix_tsv(path, np.eye(2), ["", "r1"], ["c0", ""])
        back, rows, cols = read_matrix_tsv(path)
        assert np.array_equal(back, np.eye(2))
        assert (rows, cols) == (["", "r1"], ["c0", ""])


@pytest.mark.parametrize("read", [read_bytes, read_matrix_tsv, read_ids_tsv,
                                  read_manifest])
@pytest.mark.parametrize("where", ["a directory", "under a file"])
def test_os_errors_name_the_path(read, where, tmp_path):
    path = tmp_path / "d.tsv"
    if where == "a directory":
        path.mkdir()
    else:
        path.write_bytes(b"id\n")
        path = path / "m.tsv"
    with pytest.raises(InputError) as err:
        read(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("read", [read_matrix_tsv, read_ids_tsv])
def test_readers_reject_undecodable_bytes(read, tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes("id\tcaf\xe9\nr0\t1\n".encode("latin-1"))
    with pytest.raises(InputError, match="latin1.tsv"):
        read(path)


class TestReaderGrammar:
    @pytest.mark.parametrize("row", ["r0", "r0\t1\t", "r0\t1_000", "r0\t\uff11",
                                     "r0\t0x10", "r0\t1,5", "r0\t", "r0\tx"])
    def test_rejects_with_file_named(self, row, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\tx\n" + row + "\n", encoding="utf-8")
        with pytest.raises(InputError, match="bad.tsv"):
            read_matrix_tsv(path)

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "NaN", "+1", ".5",
                                      " 2.5 ", "1e-3", "-0"])
    def test_accepts_what_float_accepts(self, cell, tmp_path):
        path = tmp_path / "ok.tsv"
        path.write_text(f"id\tx\tz\nr0\t{cell}\t1\n", encoding="utf-8")
        back, rows, cols = read_matrix_tsv(path)
        assert (rows, cols) == (["r0"], ["x", "z"])
        assert np.array_equal(bits(back), bits([[float(cell), 1.0]]))

    def test_crlf_and_blank_lines(self, tmp_path):
        path = tmp_path / "crlf.tsv"
        path.write_bytes(b"id\ta\r\n\r\nr0\t1\r\nr1\t2\rr2\t3\n")
        back, rows, cols = read_matrix_tsv(path)
        assert (rows, cols) == (["r0", "r1", "r2"], ["a"])
        assert back.tolist() == [[1.0], [2.0], [3.0]]

    def test_blank_lines_before_the_header(self, tmp_path):
        path = tmp_path / "blank.tsv"
        path.write_bytes(b"\n\r\n\nid\ta\tb\nr0\t1\t2\n\nr1\t3\t4")
        back, rows, cols = read_matrix_tsv(path)
        assert (rows, cols) == (["r0", "r1"], ["a", "b"])
        assert back.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_bytes_argument_is_parsed_instead_of_the_file(self, tmp_path):
        path = tmp_path / "m.tsv"
        data = write_matrix_tsv(path, np.eye(2), ["a", "b"], ["x", "y"])
        path.unlink()
        back, rows, _ = read_matrix_tsv(path, data)
        assert np.array_equal(back, np.eye(2)) and rows == ["a", "b"]


# name -> (save, load, a fresh model, the model's net)
CHECKPOINTS = {
    "align": (save_align, load_align,
              lambda: AlignModel.init(3, 4, Rng(1), embed_dim=2, hidden=3),
              lambda m: m.gene_head),
    "reg": (save_reg, load_reg, lambda: Mlp.init([3, 4, 2], Rng(2)), lambda m: m),
    "fuse": (save_fuse, load_fuse, lambda: FuseAdapter.init(3, Rng(3), hidden=32),
             lambda m: m.mlp),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which,where", [
    ("align", "weight"), ("align", "bias"),
    ("reg", "weight"), ("reg", "bias"),
    ("fuse", "weight"), ("fuse", "bias"),
])
def test_loaders_reject_non_finite(which, where, bad, tmp_path):
    save, load, make, net_of = CHECKPOINTS[which]
    model = make()
    if where == "weight":
        net_of(model).layers[-1].weight[0, -1] = bad
    else:
        net_of(model).layers[0].bias[-1] = bad
    path = tmp_path / f"{which}.ckpt"
    save(path, model)
    with pytest.raises(InputError, match=f"non-finite.*{which}.ckpt"):
        load(path)


TSV_TOKENS = [b"id", b"\t", b"\n", b"\r", b"1", b"-2.5e3", b"nan", b"inf",
              b"x", b"", b"\xff", b"\xc3\xa9", b"\xc3", b"\x00", b" "]
TSV_BYTES = st.one_of(st.binary(max_size=200),
                      st.lists(st.sampled_from(TSV_TOKENS), max_size=40).map(b"".join))


def _oracle_lines(p, data: bytes) -> list[str]:
    """Oracle: the non-empty lines of the whole decoded text, as the readers
    split them before they scanned the bytes in place."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{p} is not UTF-8 text: {exc}") from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return [ln for ln in text.split("\n") if ln]


def oracle_matrix(p, data: bytes):
    """Oracle: read_matrix_tsv on a list of line strings."""
    lines = _oracle_lines(p, data)
    if not lines:
        raise InputError(f"empty TSV: {p}")
    header = lines[0].split("\t")
    if header[0] != "id":
        raise InputError(f"malformed TSV header in {p}")
    n, body = len(header) - 1, lines[1:]
    if any(ln.count("\t") != n for ln in body):
        raise InputError(f"ragged TSV row in {p}")
    row_ids = [ln.split("\t", 1)[0] for ln in body]
    if not (n and body):
        return np.zeros((len(body), n)), row_ids, header[1:]
    try:
        matrix = np.loadtxt(body, delimiter="\t", comments=None,
                            usecols=range(1, n + 1), ndmin=2)
    except ValueError as exc:
        raise InputError(f"non-numeric cell in {p}: {exc}") from None
    return matrix, row_ids, header[1:]


def oracle_ids(p, data: bytes) -> list[str]:
    lines = _oracle_lines(p, data)
    if not lines:
        raise InputError(f"empty id list: {p}")
    return lines[1:]


def outcome(read, path, data):
    """read(path, data), or InputError when it raises one naming `path`."""
    try:
        return read(path, data)
    except InputError as exc:
        assert str(path) in str(exc)
        return InputError


def reads_like_oracle(path, blob: bytes):
    """Read from the file and from its bytes, read_matrix_tsv gives the
    oracle's matrix bits, ids and columns, or both raise an InputError naming
    the file; returns the oracle's outcome."""
    want = outcome(oracle_matrix, path, blob)
    for got in (outcome(read_matrix_tsv, path, None),
                outcome(read_matrix_tsv, path, blob)):
        if want is InputError:
            assert got is InputError
            continue
        assert got is not InputError
        assert got[0].shape == want[0].shape
        assert np.array_equal(bits(got[0]), bits(want[0]))
        assert got[1:] == want[1:]
    return want


# token blobs, some behind a header so that more of them parse
HEADED_BYTES = st.tuples(st.sampled_from([b"", b"id\t", b"\nid\ta\n"]),
                         TSV_BYTES).map(b"".join)
ORACLE_EXAMPLES = [
    b"\nid\ta\tb\nr0\t1\t2\n",  # a blank line before the header
    b"\r\n\rid\ta\r\nr0\t1\r\n",
    b"id\ta\r\nr0\t1\r\nr1\t2\r\n",  # \r\n line ends
    b"id\ta\rr0\t1\rr1\t2\r",  # lone \r
    b"id\ta\nr0\t1\r\nr1\t2\rr2\t3\n",
    b"id\ta\n\nr0\t1\n\n\nr1\t2\n\n",  # blank lines between rows
    "id\tg\u00e8ne\nsp\u00f6t\t1\n\u00e9\U0001f600\t2\n".encode(),  # non-ASCII ids
    "id\ta\tb\nr0\t1\u00a0\t\u00a02\n".encode(),  # U+00A0 inside a cell
    b"id\ta\nr0\t1\nr1\t2",  # no trailing newline
    b"id\ta\tb\n",  # header only
    b"id\ta\tb",
    b"id\nr0\nr1\n",  # an id-only header
    b"id",
]


def _with_examples(test):
    for blob in ORACLE_EXAMPLES:
        test = example(blob=blob)(test)
    return test


class TestReaderAgainstOracle:
    # from the file or from its bytes, each reader gives the oracle's ids,
    # columns and matrix bits, or both raise an InputError naming the file

    @settings(max_examples=200, deadline=None)
    @given(blob=HEADED_BYTES)
    @_with_examples
    def test_matrix(self, blob, tmp_path_factory):
        path = tmp_path_factory.mktemp("or") / "f.tsv"
        path.write_bytes(blob)
        reads_like_oracle(path, blob)

    @settings(max_examples=200, deadline=None)
    @given(blob=HEADED_BYTES)
    @_with_examples
    def test_ids(self, blob, tmp_path_factory):
        path = tmp_path_factory.mktemp("or") / "ids.tsv"
        path.write_bytes(blob)
        want = outcome(oracle_ids, path, blob)
        assert outcome(read_ids_tsv, path, None) == want
        assert outcome(read_ids_tsv, path, blob) == want

    def test_examples_parse(self, tmp_path):
        # the examples other than a non-UTF-8 file all read, so the test
        # above compares matrices on them, not two errors
        for blob in ORACLE_EXAMPLES:
            assert outcome(read_matrix_tsv, tmp_path / "f.tsv", blob) is not InputError


def slab_rows(size: int) -> bytes:
    """Whole rows 'r<i>\\t<i>\\t-<i>\\n' of `size` bytes in all (size >= 40), the
    last row's id padded with 'x' to fit."""
    lines, left, i = [], size, 0
    while left >= 40:
        lines.append(f"r{i}\t{i}\t-{i}\n")
        left, i = left - len(lines[-1]), i + 1
    tail = f"\t{i}\t-{i}\n"
    lines.append("r".ljust(left - len(tail), "x") + tail)
    return "".join(lines).encode()


def slab_blobs() -> dict:
    """Files whose bytes put a slab edge of the readers' scan where a line
    can be cut. The scan starts at the header's newline, so with header
    HEAD the k-th edge is at len(HEAD) - 1 + k * tsvio._SLAB."""
    size, head = tsvio._SLAB, b"id\ta\tb\n"
    wide = 1 + size // 2  # cells per row: each row is longer than a slab
    wide_head = "\t".join(["id"] + [f"c{j}" for j in range(wide)]).encode() + b"\n"
    wide_rows = [f"r{i}".encode() + b"\t1" * wide + b"\n" for i in range(3)]
    return {
        # the byte before the edge is a newline: the next slab starts a line
        "edge_after_newline": head + slab_rows(size - 1) + slab_rows(400),
        # the edge cuts a row id two bytes in
        "edge_in_row_id": head + slab_rows(size - 3) + b"r_long_id\t1\t2\n" + slab_rows(400),
        "id_longer_than_slab": head + slab_rows(200) + b"r" * (size + 7) + b"\t1\t2\n"
        + slab_rows(200),
        # tabs of one row in two or three slabs
        "row_longer_than_slab": wide_head + b"".join(wide_rows),
        "ragged_row_longer_than_slab": wide_head + wide_rows[0]
        + wide_rows[1].replace(b"\t1", b"", 1) + wide_rows[2],
        "last_line_longer_than_slab_no_newline": head + slab_rows(300) + b"r" * (size + 5)
        + b"\t1\t2",
    }


@pytest.fixture(scope="module")
def slab_files(tmp_path_factory):
    blobs = slab_blobs()
    blobs.update({f"{k}_crlf": v.replace(b"\n", b"\r\n") for k, v in list(blobs.items())})
    root = tmp_path_factory.mktemp("slab")
    for name, blob in blobs.items():
        (root / f"{name}.tsv").write_bytes(blob)
    return root, blobs


class TestReaderSlabEdges:
    # each file read from its path and from its bytes gives the oracle's
    # result, and a row subset across slabs gives the oracle's rows

    @pytest.mark.parametrize("name", [k + crlf for k in slab_blobs() for crlf in ("", "_crlf")])
    def test_matches_the_oracle(self, name, slab_files):
        root, blobs = slab_files
        path, blob = root / f"{name}.tsv", blobs[name]
        want = reads_like_oracle(path, blob)
        assert (want is InputError) == name.startswith("ragged")
        ids = outcome(oracle_ids, path, blob)
        assert outcome(read_ids_tsv, path, None) == outcome(read_ids_tsv, path, blob) == ids
        if want is InputError:
            return
        rows = [len(want[1]) - 1, 0, len(want[1]) // 2, 1]
        for data in (None, blob):
            got = read_matrix_tsv(path, data, rows=rows)
            assert np.array_equal(bits(got[0]), bits(want[0][rows]))
            assert got[1:] == want[1:]

    def test_edges_fall_where_named(self, slab_files):
        _, blobs = slab_files
        edge = len(b"id\ta\tb\n") - 1 + tsvio._SLAB
        assert blobs["edge_after_newline"][edge - 1:edge + 1] == b"\nr"
        assert blobs["edge_in_row_id"][edge - 2:edge + 1] == b"r_l"


class TestReaderFuzz:
    # each reader either returns or raises InputError, whatever the bytes

    @settings(max_examples=150, deadline=None)
    @given(blob=TSV_BYTES)
    @example(blob=b"id\tc\xe9\n")
    @example(blob=b"id\ta\r\nr\t1\r\n")
    def test_tsv_readers(self, blob, tmp_path_factory):
        path = tmp_path_factory.mktemp("fz") / "f.tsv"
        path.write_bytes(blob)
        try:
            matrix, rows, cols = read_matrix_tsv(path)
            assert matrix.shape == (len(rows), len(cols))
        except InputError:
            pass
        try:
            assert all(isinstance(i, str) for i in read_ids_tsv(path))
        except InputError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(which=st.sampled_from(["align", "reg", "fuse"]),
           start=st.integers(0, 400), drop=st.integers(0, 400),
           junk=st.binary(max_size=24), raw=st.booleans())
    def test_checkpoint_loaders(self, which, start, drop, junk, raw,
                                tmp_path_factory):
        path = tmp_path_factory.mktemp("fz") / "m.ckpt"
        save, load, model, _ = CHECKPOINTS[which]
        save(path, model())
        valid = path.read_bytes()
        # raw: the format's magic and then anything; otherwise a valid file
        # with a span cut out and arbitrary bytes put in its place
        magic = valid[:9]
        blob = magic + junk if raw else valid[:start] + junk + valid[start + drop:]
        path.write_bytes(blob)
        try:
            load(path)
        except InputError:
            pass


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


class _FrozenClock(datetime):
    @classmethod
    def now(cls, tz=None):
        return datetime(2020, 1, 1, tzinfo=timezone.utc)


def _write_eval_inputs(ws: Path, k: int):
    rng = Rng(50 + k)
    ids = [f"s{i}" for i in range(6)]
    genes = ["g0", "g1", "g2"]
    write_matrix_tsv(ws / "y_test.tsv", rng.child("y").standard_normal((6, 3)),
                     ids, genes)
    for branch in ("duet", "ret", "reg"):
        write_matrix_tsv(ws / f"pred_{branch}.tsv",
                         rng.child(branch).standard_normal((6, 3)), ids, genes)


def _run_eval(ws: Path, k: int):
    _write_eval_inputs(ws, k)
    stage_eval(PipelineConfig(), k, ws)


# name -> (file written, write(ws, k) for content variant k = 0 or 1)
WRITERS = {
    "write_matrix_tsv": ("m.tsv", lambda ws, k: write_matrix_tsv(
        ws / "m.tsv", np.full((3, 2), k + 0.5), ["a", "b", "c"], ["x", "y"])),
    "write_ids_tsv": ("ids.tsv", lambda ws, k: write_ids_tsv(
        ws / "ids.tsv", [f"id{k}_{i}" for i in range(4)])),
    "save_align": ("align.ckpt", lambda ws, k: save_align(
        ws / "align.ckpt", AlignModel.init(5, 6, Rng(k), embed_dim=4, hidden=8))),
    "save_reg": ("reg.ckpt", lambda ws, k: save_reg(
        ws / "reg.ckpt", Mlp.init([5, 8, 3], Rng(k)))),
    "save_fuse": ("fuse.ckpt", lambda ws, k: save_fuse(
        ws / "fuse.ckpt", FuseAdapter.init(5, Rng(k), hidden=32))),
    "update_manifest": ("manifest.json", lambda ws, k: update_manifest(
        ws / "manifest.json", "synth", seed=k, config={"k": k}, outputs={},
        inputs={})),
    "stage_eval": ("metrics.json", _run_eval),
}


@pytest.fixture()
def frozen_clock(monkeypatch):
    monkeypatch.setattr(tsvio, "datetime", _FrozenClock)


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_rewrite_replaces_inode(self, writer, tmp_path, monkeypatch,
                                    frozen_clock):
        name, write = WRITERS[writer]
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        write(fresh, 1)
        ws = tmp_path / "ws"
        ws.mkdir()
        write(ws, 0)
        old = (ws / name).read_bytes()
        inode = (ws / name).stat().st_ino
        real_rename = tsvio.os.rename
        onto_live = []

        def spy_rename(src, dst):
            onto_live.append(Path(dst).exists())  # renaming onto data forces a flush
            real_rename(src, dst)

        monkeypatch.setattr(tsvio.os, "rename", spy_rename)
        write(ws, 1)
        assert onto_live and not any(onto_live)
        assert (ws / name).stat().st_ino != inode
        assert (ws / name).read_bytes() == (fresh / name).read_bytes() != old
        assert not list(ws.glob("*.tmp"))

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_old_file(self, writer, tmp_path, monkeypatch,
                                         frozen_clock):
        name, write = WRITERS[writer]
        write(tmp_path, 0)
        old = (tmp_path / name).read_bytes()
        real_open = open

        class HalfThenFail:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("disk full")

        def failing_open(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            return HalfThenFail(fh) if Path(file).name == name + ".tmp" else fh

        monkeypatch.setattr(tsvio, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path, 1)
        assert (tmp_path / name).read_bytes() == old
        assert not list(tmp_path.glob("*.tmp"))

    def test_interrupt_removes_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.tsv"
        write_matrix_tsv(path, np.ones((2, 2)), ["a", "b"], ["x", "y"])

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(tsvio.os, "rename", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_matrix_tsv(path, np.zeros((2, 2)), ["a", "b"], ["x", "y"])
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_checkpoint_layout_lives_in_tsvio(self):
        """tsvio imports no model module, and only tsvio packs bytes."""
        imports = {}
        for src in sorted(Path(duet.__file__).parent.glob("*.py")):
            names = set()
            for node in ast.walk(ast.parse(src.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names |= {a.name for a in node.names}
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names.add("." * node.level + node.module)
                elif isinstance(node, ast.ImportFrom):
                    names |= {"." * node.level + a.name for a in node.names}
            imports[src.stem] = names
        assert {n for n in imports["tsvio"] if n.startswith(".")} <= {".core", ".errors"}
        assert [m for m, names in imports.items() if "struct" in names] == ["tsvio"]

    def test_no_other_writes_in_package(self):
        """Every file the package writes goes through tsvio.write_atomic."""
        offenders = []
        for src in sorted(Path(duet.__file__).parent.glob("*.py")):
            tree = ast.parse(src.read_text(encoding="utf-8"))
            skip = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "write_atomic":
                    skip |= {id(n) for n in ast.walk(node)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call) or id(node) in skip:
                    continue
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
                if name in ("write_text", "write_bytes"):
                    offenders.append(f"{src.name}:{node.lineno} {name}")
                elif name == "open":
                    mode = node.args[1] if len(node.args) > 1 else next(
                        (k.value for k in node.keywords if k.arg == "mode"), None)
                    if mode is None or (isinstance(mode, ast.Constant)
                                        and not set(mode.value) & set("wax+")):
                        continue
                    offenders.append(f"{src.name}:{node.lineno} open")
        assert offenders == []
