import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duet.align import AlignModel
from duet.core import Rng
from duet.errors import InputError
from duet.retrieval import (
    _CHUNK,
    EmbeddingDB,
    RetrievalConfig,
    RetrievalResult,
    _check_queries,
    _one_row,
    _retrieve_chunk,
    _shortlist,
    _unique_rows,
    blended_scores,
    rebuild_db,
    retrieve,
    retrieve_batch,
)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def gate_mask(g_s, g_j, tau_c: float, tau_p: float) -> int:
    """Scalar gate oracle: 1 iff total count deviation <= tau_c and composition cos >= tau_p."""
    g_s = np.asarray(g_s, dtype=np.float64)
    g_j = np.asarray(g_j, dtype=np.float64)
    if np.any(g_s < 0) or np.any(g_j < 0):
        raise InputError("gating rows must be non-negative")
    ts, tj = g_s.sum(), g_j.sum()
    denom = max(ts, tj)
    deviation = 0.0 if denom == 0.0 else abs(ts - tj) / denom
    return int(deviation <= tau_c and _cosine(g_s, g_j) >= tau_p)


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_db(seed, n=300, d=8, g=12, t=4, duplicate_every=0):
    rng = Rng(seed)
    h = rng.child("h").standard_normal((n, d))
    if duplicate_every:
        # copy each k-th row onto the next to force exact ties
        for i in range(0, n - 1, duplicate_every):
            h[i + 1] = h[i]
    h = unit_rows(h)
    expr = rng.child("e").uniform(0.0, 4.0, size=(n, g))
    gating = rng.child("g").uniform(0.0, 10.0, size=(n, t))
    gating[:: max(n // 10, 1)] = 0.0  # sprinkle empty spots
    ids = [f"s{i:04d}" for i in range(n)]
    return EmbeddingDB(h=h, expressions=expr, gating=gating, spot_ids=ids)


def unit_query(seed, d=8):
    v = Rng(seed).child("q").standard_normal(d)
    return v / np.linalg.norm(v)


def candidates(db, v_s, n):
    """Indices of the n largest dot products, ties by ascending index: the
    shortlist retrieve_batch takes, for one query."""
    v = _check_queries(db, _one_row(v_s))
    if not 0 < n <= db.size:
        raise InputError(f"need 0 < n <= {db.size}, got {n}")
    cols, phi = _shortlist(*_unique_rows(db.h), v, n)
    return cols[0][np.lexsort((cols[0], -phi[0]))]


def brute_force_retrieve(db, v, g_s, cfg):
    """Literal reference: score, shortlist, gate, rank, and aggregate."""
    n = db.size
    phi = np.array([float(np.dot(db.h[j], v)) for j in range(n)])
    short = sorted(range(n), key=lambda j: (-phi[j], j))[: cfg.n_candidates]
    sim = np.array([_cosine(g_s, db.gating[j]) for j in range(n)])
    passed = [j for j in short
              if gate_mask(g_s, db.gating[j], cfg.tau_c, cfg.tau_p)]
    r = (1.0 - cfg.beta) * phi + cfg.beta * sim
    if passed:
        pool = sorted(passed, key=lambda j: (-r[j], j))
        kept = pool[: cfg.top_k]
    else:
        kept = short[: cfg.top_k]
        kept.sort(key=lambda j: (-r[j], j))
    z = np.array([r[j] for j in kept]) / cfg.softmax_temp
    w = np.exp(z - z.max())
    w = w / w.sum()
    p = w @ db.expressions[kept]
    return p, kept, len(passed)


class TestCandidates:
    def test_exact_self_match(self):
        db = random_db(1, n=40)
        idx = candidates(db, db.h[17], 1)
        assert list(idx) == [17]

    def test_tie_break_by_index(self):
        h = np.tile(unit_query(2, 6), (5, 1))
        db = EmbeddingDB(h=h, expressions=np.zeros((5, 3)),
                         gating=np.ones((5, 2)), spot_ids=list(range(5)))
        assert list(candidates(db, h[0], 3)) == [0, 1, 2]

    def test_matches_full_sort_oracle(self):
        db = random_db(3, n=500)
        v = unit_query(4)
        phi = db.h @ v
        oracle = sorted(range(500), key=lambda j: (-phi[j], j))[:150]
        assert list(candidates(db, v, 150)) == oracle

    def test_empty_query_rejected(self):
        db = random_db(5, n=10)
        with pytest.raises(InputError):
            candidates(db, np.zeros(8), 3)


class TestGateMask:
    def test_identical_rows_pass(self):
        g = np.array([2.0, 3.0, 5.0])
        assert gate_mask(g, g, 0.0, 1.0) == 1

    def test_count_deviation_blocks(self):
        assert gate_mask(np.array([10.0, 0.0]), np.array([30.0, 0.0]), 0.5, -1.0) == 0

    def test_orthogonal_composition_blocks(self):
        assert gate_mask(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0, 0.3) == 0

    def test_zero_rows(self):
        z = np.zeros(3)
        # deviation 0/0 is 0; cosine with a zero vector is 0
        assert gate_mask(z, z, 0.0, 0.0) == 1
        assert gate_mask(z, z, 0.0, 0.1) == 0
        assert gate_mask(z, np.array([1.0, 1.0, 1.0]), 1.0, 0.1) == 0

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            gate_mask(np.array([-1.0, 2.0]), np.array([1.0, 1.0]), 0.5, 0.3)


class TestBlendedScores:
    def test_beta_limits(self):
        phi = np.array([0.2, 0.9])
        sim = np.array([0.7, 0.1])
        assert np.array_equal(blended_scores(phi, sim, 0.0), phi)
        assert np.array_equal(blended_scores(phi, sim, 1.0), sim)

    def test_arithmetic(self):
        r = blended_scores(np.array([0.8]), np.array([0.5]), 0.3)
        assert abs(r[0] - 0.71) < 1e-15

    def test_constant_phi_shift_preserves_ranking(self):
        rng = Rng(6)
        phi = rng.child("p").uniform(-1, 1, size=50)
        sim = rng.child("s").uniform(-1, 1, size=50)
        r1 = blended_scores(phi, sim, 0.3)
        r2 = blended_scores(phi + 0.37, sim, 0.3)
        assert np.allclose(r2 - r1, 0.7 * 0.37)
        assert np.array_equal(np.argsort(-r1, kind="stable"),
                              np.argsort(-r2, kind="stable"))

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            blended_scores(np.zeros(3), np.zeros(4), 0.5)


class TestRetrieve:
    def test_rejects_a_negative_query_gating_cell(self):
        # as EmbeddingDB refuses a negative database row
        db = random_db(1, n=20)
        g = np.ones((2, db.gating.shape[1]))
        g[1, 2] = -5.0
        with pytest.raises(InputError, match="query gating rows must be non-negative"):
            retrieve_batch(db, unit_rows(np.ones((2, db.h.shape[1]))), g,
                           RetrievalConfig(n_candidates=5, top_k=3))

    def test_single_entry_db(self):
        v = unit_query(7, 5)
        db = EmbeddingDB(h=v[None, :], expressions=np.array([[1.0, 2.0, 3.0]]),
                         gating=np.array([[4.0, 1.0]]), spot_ids=["only"])
        cfg = RetrievalConfig(n_candidates=1, top_k=1)
        res = retrieve(db, v, np.array([4.0, 1.0]), cfg)
        assert np.array_equal(res.p_ret, np.array([1.0, 2.0, 3.0]))
        assert res.kept_ids == ["only"]
        assert res.mask_stats == (1, 1)

    def test_equal_scores_average_exactly(self):
        v = unit_query(8, 5)
        h = np.vstack([v, v])
        expr = np.array([[0.0, 2.0], [4.0, 6.0]])
        gat = np.array([[3.0, 3.0], [3.0, 3.0]])
        db = EmbeddingDB(h=h, expressions=expr, gating=gat, spot_ids=[0, 1])
        cfg = RetrievalConfig(n_candidates=2, top_k=2)
        res = retrieve(db, v, np.array([3.0, 3.0]), cfg)
        assert np.array_equal(res.p_ret, np.array([2.0, 4.0]))
        assert np.array_equal(res.weights, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("tau_p", [0.3, 0.15])
    @pytest.mark.parametrize("dup", [0, 3])
    def test_matches_brute_force_oracle(self, tau_p, dup):
        db = random_db(9 + dup, n=300, duplicate_every=dup)
        cfg = RetrievalConfig(n_candidates=300, top_k=100, tau_c=0.5,
                              tau_p=tau_p, beta=0.3)
        for q in range(20):
            v = unit_query(100 + q)
            g_s = Rng(200 + q).child("g").uniform(0.0, 10.0, size=4)
            res = retrieve(db, v, g_s, cfg)
            p_ref, kept_ref, passed_ref = brute_force_retrieve(db, v, g_s, cfg)
            assert [db.spot_ids[j] for j in kept_ref] == res.kept_ids
            assert res.mask_stats[1] == passed_ref
            assert np.max(np.abs(res.p_ret - p_ref)) < 1e-12

    def test_output_is_convex_combination(self):
        db = random_db(10, n=120)
        cfg = RetrievalConfig(n_candidates=120, top_k=30)
        v = unit_query(11)
        g_s = np.array([2.0, 2.0, 2.0, 2.0])
        res = retrieve(db, v, g_s, cfg)
        kept_rows = db.expressions[[db.spot_ids.index(i) for i in res.kept_ids]]
        assert np.all(res.p_ret >= kept_rows.min(axis=0) - 1e-12)
        assert np.all(res.p_ret <= kept_rows.max(axis=0) + 1e-12)
        assert abs(res.weights.sum() - 1.0) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        top_k=st.integers(1, 20),
        tau_c=st.floats(0.0, 1.0),
        tau_p=st.floats(-1.0, 1.0),
        beta=st.floats(0.0, 1.0),
        temp=st.floats(0.05, 5.0),
    )
    def test_result_invariants(self, seed, n, top_k, tau_c, tau_p, beta, temp):
        # for any gate settings the result is a simplex-weighted pool of at
        # most top_k database rows, and fallback fires iff nothing passed
        db = random_db(seed, n=n, duplicate_every=5)
        cfg = RetrievalConfig(n_candidates=n, top_k=min(top_k, n), tau_c=tau_c,
                              tau_p=tau_p, beta=beta, softmax_temp=temp)
        v = unit_query(seed + 1)
        g_s = Rng(seed + 2).child("g").uniform(0.0, 10.0, size=4)
        res = retrieve(db, v, g_s, cfg)
        n_passed = res.mask_stats[1]
        assert len(res.kept_ids) == min(cfg.top_k, n_passed or n)
        assert len(set(res.kept_ids)) == len(res.kept_ids)
        assert np.all(res.weights >= 0.0)
        assert abs(res.weights.sum() - 1.0) < 1e-12
        kept_rows = db.expressions[[db.spot_ids.index(i) for i in res.kept_ids]]
        assert np.all(res.p_ret >= kept_rows.min(axis=0) - 1e-12)
        assert np.all(res.p_ret <= kept_rows.max(axis=0) + 1e-12)

    def test_gate_tightening_shrinks_kept_set(self):
        db = random_db(12, n=80)
        v = unit_query(13)
        g_s = Rng(14).child("g").uniform(0.0, 8.0, size=4)
        base = RetrievalConfig(n_candidates=80, top_k=80, tau_c=0.9, tau_p=-1.0)
        kept_prev = None
        for tau_p in (-1.0, 0.0, 0.4, 0.8):
            cfg = RetrievalConfig(n_candidates=80, top_k=80, tau_c=0.9, tau_p=tau_p)
            res = retrieve(db, v, g_s, cfg)
            if res.mask_stats[1] == 0:
                break
            kept = set(res.kept_ids)
            if kept_prev is not None:
                assert kept <= kept_prev
            kept_prev = kept
        kept_prev = None
        for tau_c in (1.0, 0.6, 0.3, 0.1):
            cfg = RetrievalConfig(n_candidates=80, top_k=80, tau_c=tau_c, tau_p=-1.0)
            res = retrieve(db, v, g_s, cfg)
            if res.mask_stats[1] == 0:
                break
            kept = set(res.kept_ids)
            if kept_prev is not None:
                assert kept <= kept_prev
            kept_prev = kept

    def test_gating_disabled_equals_plain_softmax_knn(self):
        db = random_db(15, n=200)
        v = unit_query(16)
        g_s = np.array([1.0, 2.0, 3.0, 4.0])
        k = 25
        cfg = RetrievalConfig(n_candidates=200, top_k=k, tau_c=1.0,
                              tau_p=-1.0, beta=0.0)
        res = retrieve(db, v, g_s, cfg)
        phi = db.h @ v
        top = sorted(range(200), key=lambda j: (-phi[j], j))[:k]
        z = phi[top] - phi[top].max()
        w = np.exp(z) / np.exp(z).sum()
        assert np.max(np.abs(res.p_ret - w @ db.expressions[top])) < 1e-12

    def test_empty_gate_falls_back_to_ungated(self):
        db = random_db(17, n=60)
        v = unit_query(18)
        g_s = np.full(4, 1e6)  # count deviation ~1 for every entry
        cfg = RetrievalConfig(n_candidates=60, top_k=10, tau_c=0.01, tau_p=0.99)
        res = retrieve(db, v, g_s, cfg)
        assert res.mask_stats[1] == 0
        assert len(res.kept_ids) == 10
        phi = db.h @ v
        top = sorted(range(60), key=lambda j: (-phi[j], j))[:10]
        assert set(res.kept_ids) == {db.spot_ids[j] for j in top}
        assert abs(res.weights.sum() - 1.0) < 1e-12

    def test_deterministic_with_ties(self):
        db = random_db(19, n=90, duplicate_every=2)
        v = unit_query(20)
        g_s = Rng(21).child("g").uniform(0.0, 8.0, size=4)
        cfg = RetrievalConfig(n_candidates=90, top_k=40)
        a = retrieve(db, v, g_s, cfg)
        b = retrieve(db, v, g_s, cfg)
        assert a.kept_ids == b.kept_ids
        assert np.array_equal(a.p_ret, b.p_ret)


def batch_queries(seed, q, d=8, t=4):
    rng = Rng(seed)
    v = unit_rows(rng.child("v").standard_normal((q, d)))
    g = rng.child("g").uniform(0.0, 10.0, size=(q, t))
    return v, g


def batched_kept_ids(db, v, g, cfg):
    """Kept ids per query from the batched kernel, chunked as retrieve_batch is."""
    uniq, inv = _unique_rows(db.h)
    out = []
    for lo in range(0, v.shape[0], _CHUNK):
        _, _, kept, valid, _, _ = _retrieve_chunk(
            db, uniq, inv, v[lo:lo + _CHUNK], g[lo:lo + _CHUNK], cfg)
        out += [[db.spot_ids[j] for j in row[ok]] for row, ok in zip(kept, valid)]
    return out


def assert_batch_matches_oracle(db, v, g, cfg):
    """Kept ids exactly, p_ret within 1e-12, gate counts exactly; returns the stats."""
    p_ret, stats = retrieve_batch(db, v, g, cfg)
    kept = batched_kept_ids(db, v, g, cfg)
    assert p_ret.shape == (v.shape[0], db.expressions.shape[1])
    for q in range(v.shape[0]):
        p_ref, kept_ref, passed_ref = brute_force_retrieve(db, v[q], g[q], cfg)
        assert kept[q] == [db.spot_ids[j] for j in kept_ref]
        assert tuple(stats[q]) == (min(cfg.n_candidates, db.size), passed_ref)
        assert np.max(np.abs(p_ret[q] - p_ref)) < 1e-12
    return kept, stats


class TestRetrieveBatch:
    def test_duplicated_rows_keep_exact_ties(self):
        # 250 pairs of identical rows (embedding and gating) at random
        # positions score identically, so the oracle orders each pair by
        # index; any ulp of difference between the two scores in the batched
        # block would flip some of those pairs (a plain queries @ h.T product
        # does that to a few hundred of them here)
        db = random_db(40, n=500, d=32)
        pair = Rng(40).child("pair").permutation(500)
        src, dst = pair[:250], pair[250:]
        db.h[dst] = db.h[src]
        db.gating[dst] = db.gating[src]
        v, g = batch_queries(41, 128, d=32)
        cfg = RetrievalConfig(n_candidates=150, top_k=100, tau_c=0.5,
                              tau_p=0.15, beta=0.3)
        kept, _ = assert_batch_matches_oracle(db, v, g, cfg)
        both = sum(db.spot_ids[i] in ids and db.spot_ids[j] in ids
                   for ids in kept for i, j in zip(src, dst))
        assert both > 1000

    def test_ties_straddle_candidate_cut(self):
        # 20 distinct embeddings repeated 25 times each: a shortlist of 60
        # always cuts through the third tie group, which must be admitted in
        # ascending index order
        rng = Rng(42)
        base = unit_rows(rng.child("b").standard_normal((20, 8)))
        h = base[rng.child("p").permutation(np.repeat(np.arange(20), 25))]
        expr = rng.child("e").uniform(0.0, 4.0, size=(500, 12))
        gating = rng.child("g").uniform(0.0, 10.0, size=(500, 4))
        db = EmbeddingDB(h=h, expressions=expr, gating=gating,
                         spot_ids=[f"s{i:04d}" for i in range(500)])
        v, g = batch_queries(43, 40)
        cfg = RetrievalConfig(n_candidates=60, top_k=40, tau_c=0.6, tau_p=0.2)
        assert_batch_matches_oracle(db, v, g, cfg)
        for q in range(v.shape[0]):
            phi = db.h @ v[q]
            oracle = sorted(range(500), key=lambda j: (-phi[j], j))
            assert phi[oracle[59]] == phi[oracle[60]]
            assert list(candidates(db, v[q], 60)) == oracle[:60]

    def test_fallback_rows_and_zero_gating(self):
        db = random_db(44, n=200)  # every 20th gating row is zero
        v, g = batch_queries(45, 30)
        g[::3] = 1e6  # count deviation ~1 for every entry
        g[1::3] = 0.0
        strict = RetrievalConfig(n_candidates=120, top_k=30, tau_c=0.01,
                                 tau_p=0.99)
        _, stats = assert_batch_matches_oracle(db, v, g, strict)
        assert np.all(stats[:, 1] == 0)
        # a zero query passes exactly the zero database rows when tau_p <= 0
        open_cos = RetrievalConfig(n_candidates=200, top_k=30, tau_c=0.5,
                                   tau_p=0.0)
        _, stats = assert_batch_matches_oracle(db, v, g, open_cos)
        assert np.all(stats[::3, 1] == 0)
        assert np.all(stats[1::3, 1] == 10)

    def test_fallback_ties_at_top_k_beside_passing_rows(self):
        # 40 distinct embeddings 5 times each: a fallback row's ungated top 12
        # cuts through its third tie group, which must be taken in ascending
        # index order, in one chunk with rows that pass the gate
        rng = Rng(51)
        base = unit_rows(rng.child("b").standard_normal((40, 8)))
        h = base[rng.child("p").permutation(np.repeat(np.arange(40), 5))]
        expr = rng.child("e").uniform(0.0, 4.0, size=(200, 12))
        gating = rng.child("g").uniform(0.0, 10.0, size=(200, 4))
        db = EmbeddingDB(h=h, expressions=expr, gating=gating,
                         spot_ids=[f"s{i:04d}" for i in range(200)])
        v, g = batch_queries(52, _CHUNK)
        g[::2] = 1e6  # count deviation ~1 for every entry
        cfg = RetrievalConfig(n_candidates=60, top_k=12, tau_c=0.5, tau_p=0.15)
        _, stats = assert_batch_matches_oracle(db, v, g, cfg)
        assert np.all(stats[::2, 1] == 0) and np.all(stats[1::2, 1] > 0)
        for q in range(0, _CHUNK, 2):
            phi = sorted((float(np.dot(row, v[q])) for row in db.h), reverse=True)
            assert phi[11] == phi[12]

    @pytest.mark.parametrize("n_queries", [1, _CHUNK, 2 * _CHUNK + 5])
    def test_chunk_boundaries(self, n_queries):
        db = random_db(46, n=300, duplicate_every=3)
        v, g = batch_queries(47, n_queries)
        cfg = RetrievalConfig(n_candidates=100, top_k=25, tau_p=0.15,
                              softmax_temp=0.7)
        assert_batch_matches_oracle(db, v, g, cfg)

    def test_single_row_view_agrees(self):
        db = random_db(48, n=150)
        v, g = batch_queries(49, 1)
        cfg = RetrievalConfig(n_candidates=80, top_k=20)
        p_ret, stats = retrieve_batch(db, v, g, cfg)
        res = retrieve(db, v[0], g[0], cfg)
        assert np.array_equal(p_ret[0], res.p_ret)
        assert tuple(stats[0]) == res.mask_stats

    def test_empty_and_invalid_batches(self):
        db = random_db(50, n=20)
        cfg = RetrievalConfig(n_candidates=10, top_k=5)
        p_ret, stats = retrieve_batch(db, np.zeros((0, 8)), np.zeros((0, 4)), cfg)
        assert p_ret.shape == (0, 12) and stats.shape == (0, 2)
        v, g = batch_queries(51, 3)
        with pytest.raises(InputError):
            retrieve_batch(db, v, g[:2], cfg)
        with pytest.raises(InputError):
            retrieve_batch(db, 2.0 * v, g, cfg)
        with pytest.raises(InputError):
            retrieve_batch(db, np.full_like(v, np.nan), g, cfg)
        with pytest.raises(InputError):
            retrieve_batch(db, v[:, :5], g, cfg)


class TestRebuildDb:
    def setup_method(self):
        rng = Rng(30)
        self.model = AlignModel.init(img_dim=10, gene_dim=15, rng=rng,
                                     embed_dim=8, hidden=16)
        self.expr = rng.child("e").uniform(0.0, 3.0, size=(12, 15))
        self.gat = rng.child("g").uniform(0.0, 5.0, size=(12, 3))
        self.ids = [f"s{i}" for i in range(12)]

    def test_rebuild_deterministic(self):
        a = rebuild_db(self.model, self.expr, self.gat, self.ids)
        b = rebuild_db(self.model, self.expr, self.gat, self.ids)
        assert np.array_equal(a.h, b.h)
        assert a.spot_ids == b.spot_ids

    def test_head_perturbation_changes_embeddings(self):
        a = rebuild_db(self.model, self.expr, self.gat, self.ids)
        self.model.gene_head.layers[0].weight[0, 0] += 0.05
        self.model.gene_head.touch()
        b = rebuild_db(self.model, self.expr, self.gat, self.ids)
        assert np.any(a.h != b.h)

    def test_empty_training_set_rejected(self):
        with pytest.raises(InputError):
            rebuild_db(self.model, np.zeros((0, 15)), np.zeros((0, 3)), [])

    def test_misaligned_rejected(self):
        with pytest.raises(InputError):
            rebuild_db(self.model, self.expr, self.gat[:-1], self.ids)


class TestValidation:
    def test_config_bounds(self):
        with pytest.raises(InputError):
            RetrievalConfig(top_k=0)
        with pytest.raises(InputError):
            RetrievalConfig(top_k=200, n_candidates=100)
        with pytest.raises(InputError):
            RetrievalConfig(tau_c=1.5)
        with pytest.raises(InputError):
            RetrievalConfig(tau_p=-2.0)
        with pytest.raises(InputError):
            RetrievalConfig(softmax_temp=0.0)

    def test_db_requires_unit_rows(self):
        with pytest.raises(InputError):
            EmbeddingDB(h=np.ones((2, 3)), expressions=np.zeros((2, 4)),
                        gating=np.zeros((2, 2)), spot_ids=[0, 1])

    def test_db_rejects_empty(self):
        with pytest.raises(InputError):
            EmbeddingDB(h=np.zeros((0, 3)), expressions=np.zeros((0, 4)),
                        gating=np.zeros((0, 2)), spot_ids=[])
