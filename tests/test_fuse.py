from dataclasses import dataclass

import numpy as np
import pytest

from duet.core import Rng, SgdState, fd_check
from duet.errors import InputError
from duet.fuse import (
    FuseAdapter,
    _squash,
    alpha_batch,
    fuse_loss,
    fuse_predict_batch,
    train_fuse,
)


# Test-only oracles: the single-spot forms of the fusion weight and the blend,
# moved here from duet.fuse with their bodies unchanged (the package runs only
# alpha_batch/fuse_predict_batch).


@dataclass
class FusedPrediction:
    y_duet: np.ndarray
    alpha: float
    y_ret: np.ndarray
    y_reg: np.ndarray


def alpha(adapter: FuseAdapter, f_s) -> float:
    """Fusion weight for one spot, strictly inside (0, 1)."""
    f_s = np.asarray(f_s, dtype=np.float64)
    if f_s.ndim != 1:
        raise InputError("alpha takes a single feature vector")
    out, _ = adapter.mlp.forward(f_s[None])
    val, _ = _squash(out[0])
    return float(val[0])


def fuse_predict(adapter: FuseAdapter, f_s, y_ret, y_reg) -> FusedPrediction:
    """y_duet = alpha*y_ret + (1-alpha)*y_reg, single rounding per entry."""
    y_ret = np.asarray(y_ret, dtype=np.float64)
    y_reg = np.asarray(y_reg, dtype=np.float64)
    if y_ret.shape != y_reg.shape or y_ret.ndim != 1:
        raise InputError("branch predictions must be aligned vectors")
    a = alpha(adapter, f_s)
    y_duet = y_reg + a * (y_ret - y_reg)
    return FusedPrediction(y_duet=y_duet, alpha=a, y_ret=y_ret, y_reg=y_reg)


def fresh_adapter(seed=1, d=6):
    return FuseAdapter.init(d, Rng(seed), hidden=32)


def randomized_adapter(seed=2, d=6):
    ad = fresh_adapter(seed, d)
    final = ad.mlp.layers[-1]
    r = Rng(seed).child("w")
    final.weight[...] = r.standard_normal(final.weight.shape)
    final.bias[...] = r.standard_normal(final.bias.shape)
    ad.mlp.touch()
    return ad


class TestAlpha:
    def test_fresh_adapter_is_half(self):
        ad = fresh_adapter()
        for i in range(10):
            f = Rng(3).child("f", i).standard_normal(6)
            assert alpha(ad, f) == 0.5

    def test_large_output_saturates_toward_one(self):
        ad = fresh_adapter()
        ad.mlp.layers[-1].bias[...] = 1e6
        ad.mlp.touch()
        a = alpha(ad, np.zeros(6))
        assert 1.0 - a < 1e-9
        assert a < 1.0  # never exactly 1, even clipped

    def test_range_sweep_strictly_open(self):
        ad = randomized_adapter()
        f = Rng(4).child("f").standard_normal((1000, 6)) * 5.0
        vals = alpha_batch(ad, f)
        assert np.all(vals > 0.0) and np.all(vals < 1.0)

    def test_rejects_batch_input(self):
        with pytest.raises(InputError):
            alpha(fresh_adapter(), np.zeros((2, 6)))

    def test_adapter_must_output_scalar(self):
        from duet.core import Mlp
        with pytest.raises(InputError):
            FuseAdapter(mlp=Mlp.init([4, 8, 2], Rng(5)))


class TestFusePredict:
    def test_equal_branches_exact(self):
        ad = randomized_adapter()
        y = Rng(6).child("y").standard_normal(9)
        res = fuse_predict(ad, np.ones(6), y, y)
        assert np.array_equal(res.y_duet, y)

    def test_half_alpha_is_mean(self):
        ad = fresh_adapter()
        y_ret = np.array([2.0, 0.0, -4.0])
        y_reg = np.array([0.0, 1.0, 4.0])
        res = fuse_predict(ad, np.zeros(6), y_ret, y_reg)
        assert res.alpha == 0.5
        assert np.max(np.abs(res.y_duet - np.array([1.0, 0.5, 0.0]))) < 1e-15

    def test_between_branches(self):
        ad = randomized_adapter(7)
        rng = Rng(8)
        for i in range(50):
            f = rng.child("f", i).standard_normal(6)
            y_ret = rng.child("r", i).standard_normal(5)
            y_reg = rng.child("g", i).standard_normal(5)
            res = fuse_predict(ad, f, y_ret, y_reg)
            lo = np.minimum(y_ret, y_reg)
            hi = np.maximum(y_ret, y_reg)
            assert np.all(res.y_duet >= lo - 1e-12)
            assert np.all(res.y_duet <= hi + 1e-12)
            check = res.alpha * y_ret + (1.0 - res.alpha) * y_reg
            assert np.max(np.abs(res.y_duet - check)) < 1e-12

    def test_linear_in_branches_for_fixed_alpha(self):
        ad = randomized_adapter(9)
        f = np.ones(6)
        rng = Rng(10)
        u1, w1 = rng.child("a").standard_normal((2, 7))
        u2, w2 = rng.child("b").standard_normal((2, 7))
        lhs = fuse_predict(ad, f, u1 + u2, w1 + w2).y_duet
        rhs = fuse_predict(ad, f, u1, w1).y_duet + fuse_predict(ad, f, u2, w2).y_duet
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_alpha_ignores_branch_values(self):
        ad = randomized_adapter(11)
        f = Rng(12).child("f").standard_normal(6)
        a = fuse_predict(ad, f, np.zeros(4), np.ones(4)).alpha
        b = fuse_predict(ad, f, np.full(4, 100.0), np.full(4, -3.0)).alpha
        assert a == b

    def test_batch_matches_single(self):
        ad = randomized_adapter(13)
        rng = Rng(14)
        f = rng.child("f").standard_normal((8, 6))
        y_ret = rng.child("r").standard_normal((8, 5))
        y_reg = rng.child("g").standard_normal((8, 5))
        yd, alphas = fuse_predict_batch(ad, f, y_ret, y_reg)
        # batched and single-row matmuls may differ in the last ulp
        for s in range(8):
            res = fuse_predict(ad, f[s], y_ret[s], y_reg[s])
            assert np.max(np.abs(res.y_duet - yd[s])) < 1e-12
            assert abs(res.alpha - alphas[s]) < 1e-12


def synthetic_heldout(seed, s_n=200, g_n=12, d=6, ret_noise=0.0, reg_noise=1.0):
    rng = Rng(seed)
    f = rng.child("f").standard_normal((s_n, d))
    y = rng.child("y").standard_normal((s_n, g_n))
    y_ret = y + ret_noise * rng.child("nr").standard_normal((s_n, g_n))
    y_reg = y + reg_noise * rng.child("ng").standard_normal((s_n, g_n))
    return f, y_ret, y_reg, y


class TestFuseLoss:
    def test_gradients_match_finite_differences(self):
        heldout = synthetic_heldout(20, s_n=12, g_n=5)
        ad = randomized_adapter(21)
        shapes = [p.shape for p in ad.mlp.param_arrays()]
        sizes = [int(np.prod(s)) for s in shapes]

        def f(flat):
            i = 0
            for p, sz, sh in zip(ad.mlp.param_arrays(), sizes, shapes):
                p[...] = flat[i:i + sz].reshape(sh)
                i += sz
            ad.mlp.touch()
            loss, grads = fuse_loss(ad, heldout, 1.0)
            return loss, np.concatenate([g.ravel() for g in grads])

        flat0 = ad.mlp.get_flat()
        assert fd_check(f, flat0) < 1e-4

    @pytest.mark.parametrize("reg_coef", [-1.0, np.nan])
    def test_rejects_a_negative_or_nan_reg_coef(self, reg_coef):
        with pytest.raises(InputError, match="reg_coef must be non-negative"):
            fuse_loss(fresh_adapter(22), synthetic_heldout(23, s_n=4), reg_coef)


class TestTrainFuse:
    def test_zero_epochs_leaves_adapter_at_half(self):
        ad = fresh_adapter(30)
        before = ad.mlp.get_flat().copy()
        train_fuse(ad, synthetic_heldout(31), epochs=0, opt=SgdState(lr=0.1), reg_coef=1.0)
        assert np.array_equal(ad.mlp.get_flat(), before)
        assert alpha(ad, np.ones(6)) == 0.5

    def test_retrieval_strictly_better_pushes_alpha_up(self):
        heldout = synthetic_heldout(33, ret_noise=0.0, reg_noise=2.0)
        ad = fresh_adapter(34)
        train_fuse(ad, heldout, epochs=300, opt=SgdState(lr=0.5), reg_coef=1.0)
        assert alpha_batch(ad, heldout[0]).mean() > 0.8

    def test_symmetric_branches_stay_near_half(self):
        heldout = synthetic_heldout(36, ret_noise=0.8, reg_noise=0.8)
        ad = fresh_adapter(37)
        train_fuse(ad, heldout, epochs=300, opt=SgdState(lr=0.5), reg_coef=1.0)
        mean_alpha = alpha_batch(ad, heldout[0]).mean()
        assert 0.4 <= mean_alpha <= 0.6

    def test_huge_regularizer_pins_alpha_to_half(self):
        # the 1e6 penalty raises loss curvature by ~1e4, so the step size
        # must shrink accordingly or momentum oscillates into saturation
        heldout = synthetic_heldout(39, ret_noise=0.0, reg_noise=2.0)
        ad = fresh_adapter(40)
        train_fuse(ad, heldout, epochs=200, opt=SgdState(lr=1e-6), reg_coef=1e6)
        vals = alpha_batch(ad, heldout[0])
        assert np.max(np.abs(vals - 0.5)) < 1e-2

    def test_training_reduces_fused_error(self):
        heldout = synthetic_heldout(42, ret_noise=0.1, reg_noise=1.5)
        ad = fresh_adapter(43)
        loss0, _ = fuse_loss(ad, heldout, 1.0)
        train_fuse(ad, heldout, epochs=200, opt=SgdState(lr=0.5), reg_coef=1.0)
        loss1, _ = fuse_loss(ad, heldout, 1.0)
        assert loss1 < loss0

    def test_empty_heldout_rejected(self):
        ad = fresh_adapter(45)
        empty = (np.zeros((0, 6)), np.zeros((0, 3)), np.zeros((0, 3)),
                 np.zeros((0, 3)))
        with pytest.raises(InputError):
            train_fuse(ad, empty, epochs=1, opt=SgdState(lr=0.1), reg_coef=1.0)

    def test_misaligned_heldout_rejected(self):
        ad = fresh_adapter(47)
        f, y_ret, y_reg, y = synthetic_heldout(48, s_n=10)
        with pytest.raises(InputError):
            train_fuse(ad, (f, y_ret[:-1], y_reg, y), epochs=1, opt=SgdState(lr=0.1),
                       reg_coef=1.0)
