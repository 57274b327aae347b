import numpy as np
import pytest

from duet.align import (
    TEMPERATURE,
    AlignModel,
    embed_expressions,
    embed_images,
    embed_with_tapes,
    infonce_loss,
    l2_normalize,
    l2_normalize_backward,
    train_align,
)
from duet.core import Rng, SgdState
from duet.errors import InputError


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def make_linear_pairs(seed, n, d_img=24, g=30, noise=0.05):
    """(image features, expression): expression = linear map of image features
    + noise"""
    rng = Rng(seed)
    feats = rng.child("feats").standard_normal((n, d_img))
    a = rng.child("map").standard_normal((d_img, g)) / np.sqrt(d_img)
    expr = feats @ a + noise * rng.child("noise").standard_normal((n, g))
    return feats, expr


def init_model(img_dim, gene_dim, rng):
    return AlignModel.init(img_dim, gene_dim, rng, embed_dim=64, hidden=128)


def train(data, epochs, rng):
    """train_align on (image features, expression) at lr 0.05 with a batch of
    128, 64 embedding dims and 128 hidden units."""
    return train_align(*data, epochs, SgdState(lr=0.05), rng, batch_size=128,
                       embed_dim=64, hidden=128)


class TestInfoNce:
    def test_orthonormal_pairs_near_zero(self):
        v = np.eye(2)
        loss, dv, dh = infonce_loss(v, v.copy(), 0.07)
        expected = np.log(1.0 + np.exp(-1.0 / 0.07))
        assert abs(loss - expected) < 1e-12
        assert loss < 1e-6

    def test_indistinguishable_positives_at_chance(self):
        row = np.array([[0.6, 0.8]])
        v = np.repeat(row, 2, axis=0)
        loss, _, _ = infonce_loss(v, v.copy(), 0.07)
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_symmetric_in_arguments(self):
        rng = Rng(3)
        v = unit_rows(rng.child("v"), 5, 8)
        h = unit_rows(rng.child("h"), 5, 8)
        loss_vh, dv1, dh1 = infonce_loss(v, h, 0.07)
        loss_hv, dh2, dv2 = infonce_loss(h, v, 0.07)
        assert abs(loss_vh - loss_hv) < 1e-12
        assert np.allclose(dv1, dv2, atol=1e-12)
        assert np.allclose(dh1, dh2, atol=1e-12)

    def test_invariant_under_joint_row_permutation(self):
        rng = Rng(4)
        v = unit_rows(rng.child("v"), 6, 8)
        h = unit_rows(rng.child("h"), 6, 8)
        perm = Rng(5).permutation(6)
        loss, _, _ = infonce_loss(v, h, 0.07)
        loss_p, _, _ = infonce_loss(v[perm], h[perm], 0.07)
        assert abs(loss - loss_p) < 1e-12

    def test_self_similarity_bounded_by_log_n(self):
        for seed in range(5):
            v = unit_rows(Rng(seed).child("v"), 7, 10)
            loss, _, _ = infonce_loss(v, v.copy(), 0.07)
            assert loss <= np.log(7) + 1e-12

    def test_rejects_single_pair(self):
        with pytest.raises(InputError):
            infonce_loss(np.ones((1, 4)), np.ones((1, 4)), 0.07)

    def test_rejects_bad_temperature(self):
        v = unit_rows(Rng(0), 3, 4)
        with pytest.raises(InputError):
            infonce_loss(v, v, 0.0)


def infonce_oracle(v, h, tau):
    """infonce_loss as it was before it computed in place: the reference its
    loss and gradients must equal bit for bit."""
    n = v.shape[0]
    scores = (v @ h.T) / tau
    row_shift = scores - scores.max(axis=1, keepdims=True)
    row_exp = np.exp(row_shift)
    row_sum = row_exp.sum(axis=1, keepdims=True)
    row_soft = row_exp / row_sum
    col_shift = scores - scores.max(axis=0, keepdims=True)
    col_exp = np.exp(col_shift)
    col_sum = col_exp.sum(axis=0, keepdims=True)
    col_soft = col_exp / col_sum
    diag = np.arange(n)
    loss = -0.5 / n * ((row_shift[diag, diag] - np.log(row_sum[:, 0])).sum()
                       + (col_shift[diag, diag] - np.log(col_sum[0])).sum())
    d_scores = (row_soft + col_soft) / (2.0 * n)
    d_scores[diag, diag] -= 1.0 / n
    return float(loss), (d_scores @ h) / tau, (d_scores.T @ v) / tau


@pytest.mark.parametrize("n", [2, 3, 17, 128])
def test_infonce_equals_the_oracle_bit_for_bit(n):
    for seed in range(3):
        rng = Rng(seed)
        v = unit_rows(rng.child("v"), n, 32)
        h = unit_rows(rng.child("h"), n, 32)
        loss, dv, dh = infonce_loss(v, h, TEMPERATURE)
        want_loss, want_dv, want_dh = infonce_oracle(v, h, TEMPERATURE)
        assert loss == want_loss
        assert np.array_equal(dv, want_dv) and np.array_equal(dh, want_dh)


class TestNormalization:
    def test_gradient_orthogonal_to_embedding(self):
        # tangency: the gradient reaching the raw output has no radial component
        rng = Rng(8)
        raw = rng.child("raw").standard_normal((6, 9))
        unit, norms = l2_normalize(raw)
        d_unit = rng.child("co").standard_normal((6, 9))
        d_raw = l2_normalize_backward(unit, norms, d_unit)
        radial = np.sum(d_raw * unit, axis=1)
        assert np.max(np.abs(radial)) < 1e-8

    def test_unit_norm_output(self):
        raw = Rng(1).standard_normal((5, 7)) * 10
        unit, _ = l2_normalize(raw)
        assert np.max(np.abs(np.linalg.norm(unit, axis=1) - 1.0)) < 1e-9


class TestEmbedding:
    def test_row_norms_are_one(self):
        _, expr = make_linear_pairs(0, 32)
        model = init_model(24, 30, Rng(2))
        emb = embed_expressions(model, expr)
        assert np.max(np.abs(np.linalg.norm(emb, axis=1) - 1.0)) < 1e-9

    def test_duplicate_rows_identical(self):
        model = init_model(4, 6, Rng(3))
        y = np.tile(Rng(4).standard_normal(6), (2, 1))
        emb = embed_expressions(model, y)
        assert np.array_equal(emb[0], emb[1])

    def test_cosine_with_itself(self):
        model = init_model(4, 6, Rng(5))
        emb = embed_expressions(model, Rng(6).standard_normal((3, 6)))
        assert np.max(np.abs(np.sum(emb * emb, axis=1) - 1.0)) < 1e-12


class TestTraining:
    def test_zero_epochs_returns_initialized_model(self):
        data = make_linear_pairs(1, 40)
        model = train(data, 0, Rng(7))
        fresh = init_model(24, 30, Rng(7).child("init"))
        assert np.array_equal(model.img_head.get_flat(), fresh.img_head.get_flat())
        assert np.array_equal(model.gene_head.get_flat(), fresh.gene_head.get_flat())

    def test_same_seed_bitwise_identical(self):
        data = make_linear_pairs(2, 64)
        m1 = train(data, 3, Rng(11))
        m2 = train(data, 3, Rng(11))
        assert np.array_equal(m1.img_head.get_flat(), m2.img_head.get_flat())
        assert np.array_equal(m1.gene_head.get_flat(), m2.gene_head.get_flat())

    def test_probe_loss_decreases(self):
        data = make_linear_pairs(3, 256)
        feats, expr = data[0][:64], data[1][:64]

        def probe_loss(model):
            v = embed_images(model, feats)
            h = embed_expressions(model, expr)
            loss, _, _ = infonce_loss(v, h, TEMPERATURE)
            return loss

        init = train(data, 0, Rng(13))
        trained = train(data, 15, Rng(13))
        assert probe_loss(trained) < probe_loss(init)

    def test_heldout_top1_beats_chance_by_10x(self):
        feats, expr = make_linear_pairs(21, 1280, noise=0.05)
        model = train((feats[:1024], expr[:1024]), 30, Rng(23))
        v = embed_images(model, feats[1024:])
        h = embed_expressions(model, expr[1024:])
        hits = int(np.sum(np.argmax(v @ h.T, axis=1) == np.arange(256)))
        assert hits > 10  # chance is 1/256


class TestPairedBatch:
    """train_align's checks on its paired rows."""

    def test_requires_two_pairs(self):
        with pytest.raises(InputError, match="at least 2 pairs"):
            train(make_linear_pairs(1, 1), 1, Rng(0))

    def test_requires_aligned_rows(self):
        with pytest.raises(InputError, match="must align"):
            train((np.ones((3, 2)), np.ones((2, 2))), 1, Rng(0))
