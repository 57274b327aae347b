import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import duet.regress as regress_module
from duet.align import AlignModel
from duet.core import Rng, SgdState, fd_check
from duet.errors import InputError, NumericError
from duet.regress import (
    AnnealSchedule,
    RegModel,
    RetrievalSources,
    lambda_at,
    reg_loss,
    train_regress,
)
from duet.retrieval import RetrievalConfig


class TestAnneal:
    def test_exact_values(self):
        sched = AnnealSchedule(lambda0=1.0, decay_epochs=30)
        assert lambda_at(sched, 0) == 1.0
        assert lambda_at(sched, 15) == 0.5
        assert lambda_at(sched, 30) == 0.0
        assert lambda_at(sched, 45) == 0.0

    def test_monotone_and_bounded(self):
        sched = AnnealSchedule(lambda0=2.5, decay_epochs=17)
        vals = [lambda_at(sched, e) for e in range(18)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 2.5 for v in vals)

    def test_negative_epoch_rejected(self):
        with pytest.raises(InputError):
            lambda_at(AnnealSchedule(), -1)

    def test_bad_schedule_rejected(self):
        with pytest.raises(InputError):
            AnnealSchedule(lambda0=-0.1)
        with pytest.raises(InputError):
            AnnealSchedule(decay_epochs=0)

    @settings(max_examples=60, deadline=None)
    @given(
        lambda0=st.floats(0.0, 16.0, allow_nan=False),
        decay_epochs=st.integers(1, 200),
    )
    @example(lambda0=5e-324, decay_epochs=1)  # subnormal: 0.5 * lambda0 underflows
    def test_schedule_properties(self, lambda0, decay_epochs):
        sched = AnnealSchedule(lambda0=lambda0, decay_epochs=decay_epochs)
        vals = [lambda_at(sched, e) for e in range(decay_epochs + 2)]
        assert vals[0] == lambda0
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= lambda0 for v in vals)
        assert vals[decay_epochs] == 0.0 and vals[decay_epochs + 1] == 0.0
        if decay_epochs % 2 == 0:
            # the midpoint halves lambda0 exactly, for every even window
            assert vals[decay_epochs // 2] == 0.5 * lambda0


class TestRegLoss:
    def test_perfect_prediction(self):
        y = np.array([0.3, -1.2, 4.0])
        loss, grad = reg_loss(y, y, y, 0.7)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_plain_mse_arithmetic(self):
        loss, _ = reg_loss(np.ones(2), np.zeros(2), np.zeros(2), 0.0)
        assert loss == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = Rng(40)
        y = rng.child("y").standard_normal(12)
        p_ret = rng.child("r").standard_normal(12)

        def f(p):
            return reg_loss(p, y, p_ret, 0.8)

        p0 = rng.child("p").standard_normal(12)
        assert fd_check(f, p0) < 1e-6

    def test_convex_midpoint(self):
        rng = Rng(41)
        for trial in range(25):
            y = rng.child("y", trial).standard_normal(6)
            p_ret = rng.child("r", trial).standard_normal(6)
            a = rng.child("a", trial).standard_normal(6)
            b = rng.child("b", trial).standard_normal(6)
            lam = float(rng.child("l", trial).uniform(0, 3))
            fa, _ = reg_loss(a, y, p_ret, lam)
            fb, _ = reg_loss(b, y, p_ret, lam)
            fm, _ = reg_loss(0.5 * (a + b), y, p_ret, lam)
            assert fm <= 0.5 * (fa + fb) + 1e-12

    def test_large_lam_step_pulls_toward_retrieval(self):
        rng = Rng(42)
        for trial in range(10):
            y = rng.child("y", trial).standard_normal(8)
            p_ret = rng.child("r", trial).standard_normal(8)
            p = rng.child("p", trial).standard_normal(8)
            _, grad = reg_loss(p, y, p_ret, 1e3)
            stepped = p - 1e-5 * grad
            assert np.linalg.norm(stepped - p_ret) < np.linalg.norm(p - p_ret)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            reg_loss(np.zeros(3), np.zeros(4), np.zeros(3), 0.1)
        with pytest.raises(InputError):
            reg_loss(np.zeros(3), np.zeros(3), np.zeros(3), -0.5)


class TestRegLossBatches:
    def test_batch_gradient_matches_finite_differences(self):
        rng = Rng(43)
        y = rng.child("y").standard_normal((5, 4))
        p_ret = rng.child("r").standard_normal((5, 4))
        p0 = rng.child("p").standard_normal((5, 4))
        assert fd_check(lambda p: reg_loss(p, y, p_ret, 0.8), p0) < 1e-6

    def test_batch_is_the_mean_of_its_rows(self):
        rng = Rng(44)
        p, y, p_ret = (rng.child(k).standard_normal((6, 3)) for k in "pyr")
        loss, grad = reg_loss(p, y, p_ret, 0.4)
        rows = [reg_loss(p[i], y[i], p_ret[i], 0.4) for i in range(6)]
        assert np.isclose(loss, np.mean([l for l, _ in rows]), rtol=1e-14)
        assert np.allclose(grad, np.stack([g for _, g in rows]) / 6, rtol=1e-14,
                           atol=0.0)

    @pytest.mark.parametrize("shape", [(7,), (4, 3)])
    def test_no_p_ret_is_the_plain_mse(self, shape):
        rng = Rng(45)
        p, y, p_ret = (rng.child(k).standard_normal(shape) for k in "pyr")
        loss, grad = reg_loss(p, y, None, 0.0)
        err = p - y
        assert np.isclose(loss, np.mean(err**2), rtol=1e-14)
        assert np.array_equal(grad, (2.0 / err.size) * err)
        assert np.array_equal(grad, reg_loss(p, y, p_ret, 0.0)[1])

    def test_rejects(self):
        with pytest.raises(InputError):
            reg_loss(np.zeros(3), np.zeros(3), None, 0.1)
        with pytest.raises(InputError):
            reg_loss(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 2)), 0.1)
        with pytest.raises(InputError):
            reg_loss(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), None, 0.0)

    def test_train_regress_steps_on_reg_loss(self, monkeypatch):
        calls = []
        real = regress_module.reg_loss

        def spy(p_reg, y, p_ret, lam):
            calls.append((lam, p_ret is None))
            return real(p_reg, y, p_ret, lam)

        monkeypatch.setattr(regress_module, "reg_loss", spy)
        x, y = linear_problem(46, n=64, d=8, g=6)
        train_regress(x, y, make_align(8, 6, 47), make_sources(x, y, 48),
                      AnnealSchedule(lambda0=1.0, decay_epochs=2), epochs=3,
                      opt=SgdState(lr=0.01), rng=Rng(49), model=wide_model(x, y, Rng(49)),
                      batch_size=32)
        assert calls == [(1.0, False)] * 2 + [(0.5, False)] * 2 + [(0.0, True)] * 2


def linear_problem(seed, n=400, d=16, g=20, noise=0.05):
    rng = Rng(seed)
    x = rng.child("x").standard_normal((n, d))
    w = rng.child("w").standard_normal((d, g)) / np.sqrt(d)
    y = x @ w + noise * rng.child("n").standard_normal((n, g))
    return x, y


def make_sources(x, y, seed, t=3):
    rng = Rng(seed)
    gating = rng.child("gate").uniform(1.0, 3.0, size=(x.shape[0], t))
    cfg = RetrievalConfig(n_candidates=50, top_k=20)
    return RetrievalSources(
        expressions=y,
        gating=gating,
        spot_ids=[f"s{i}" for i in range(x.shape[0])],
        img_features=x,
        cfg=cfg,
    )


def wide_model(x, y, rng):
    """A RegModel for x -> y with two hidden layers of 256 units."""
    return RegModel.init(x.shape[1], y.shape[1], rng, hidden=(256, 256))


def make_align(d_img, g, seed):
    return AlignModel.init(img_dim=d_img, gene_dim=g, rng=Rng(seed).child("am"),
                           embed_dim=16, hidden=32)


class TestTrainRegress:
    def test_lambda_zero_ignores_database_bitwise(self):
        x, y = linear_problem(50, n=80, d=8, g=6)
        align = make_align(8, 6, 51)
        sched = AnnealSchedule(lambda0=0.0)
        runs = []
        for shift in (0.0, 5.0):
            sources = make_sources(x, y + shift, 52)  # corrupt the DB payload
            opt = SgdState(lr=0.01)
            model = train_regress(x, y, align, sources, sched, epochs=5,
                                  opt=opt, rng=Rng(7), batch_size=32,
                                  model=RegModel.init(8, 6, Rng(8), hidden=(16,)))
            runs.append(model.head.get_flat())
        none_run = train_regress(x, y, None, None, sched, epochs=5,
                                 opt=SgdState(lr=0.01), rng=Rng(7), batch_size=32,
                                 model=RegModel.init(8, 6, Rng(8), hidden=(16,)))
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], none_run.head.get_flat())

    def test_heldout_pcc_beats_half(self):
        x, y = linear_problem(56, n=500, d=16, g=20)
        x_tr, y_tr = x[:400], y[:400]
        x_te, y_te = x[400:], y[400:]
        align = make_align(16, 20, 57)
        sources = make_sources(x_tr, y_tr, 58)
        sched = AnnealSchedule(lambda0=1.0, decay_epochs=30)
        model = RegModel.init(16, 20, Rng(11), hidden=(64, 64))
        fresh_mse = float(np.mean((model.predict(x_te) - y_te) ** 2))
        model = train_regress(x_tr, y_tr, align, sources, sched, epochs=60,
                              opt=SgdState(lr=0.03), rng=Rng(12), model=model)
        pred = model.predict(x_te)
        final_mse = float(np.mean((pred - y_te) ** 2))
        assert final_mse < fresh_mse
        pccs = [
            np.corrcoef(pred[:, j], y_te[:, j])[0, 1] for j in range(20)
        ]
        assert np.mean(pccs) > 0.5

    def test_divergence_reports_epoch(self):
        x, y = linear_problem(59, n=50, d=8, g=6)
        sched = AnnealSchedule(lambda0=0.0)
        with pytest.raises(NumericError, match="epoch"):
            train_regress(x, y, None, None, sched, epochs=10,
                          opt=SgdState(lr=1e12), rng=Rng(13),
                          model=wide_model(x, y, Rng(13)), batch_size=32)

    @pytest.mark.parametrize("lambda0, builds", [(1.0, 1), (0.0, 0)])
    def test_database_built_once_per_stage(self, monkeypatch, lambda0, builds):
        # the align model and the database are frozen for the whole stage, so
        # every annealed epoch reuses one retrieval pass
        calls = []
        real = regress_module.rebuild_db

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(regress_module, "rebuild_db", counting)
        x, y = linear_problem(62, n=60, d=8, g=6)
        train_regress(x, y, make_align(8, 6, 63), make_sources(x, y, 64),
                      AnnealSchedule(lambda0=lambda0, decay_epochs=30),
                      epochs=4, opt=SgdState(lr=0.01), rng=Rng(16),
                      model=wide_model(x, y, Rng(16)), batch_size=32)
        assert len(calls) == builds

    def test_requires_sources_when_lambda_positive(self):
        x, y = linear_problem(60, n=40, d=8, g=6)
        with pytest.raises(InputError):
            train_regress(x, y, None, None, AnnealSchedule(lambda0=1.0),
                          epochs=1, opt=SgdState(lr=0.01), rng=Rng(14),
                          model=wide_model(x, y, Rng(14)))

    def test_rejects_row_mismatch(self):
        x, y = linear_problem(61, n=40, d=8, g=6)
        with pytest.raises(InputError):
            train_regress(x[:-1], y, None, None, AnnealSchedule(lambda0=0.0),
                          epochs=1, opt=SgdState(lr=0.01), rng=Rng(15),
                          model=wide_model(x, y, Rng(15)))

    def test_rejects_empty_training_set(self):
        # with no rows there is no batch to train on
        x, y = linear_problem(63, n=40, d=8, g=6)
        with pytest.raises(InputError, match="non-zero rows"):
            train_regress(x[:0], y[:0], None, None, AnnealSchedule(lambda0=0.0),
                          epochs=1, opt=SgdState(lr=0.01), rng=Rng(18),
                          model=wide_model(x, y, Rng(18)))

    def test_rejects_model_dim_mismatch(self):
        x, y = linear_problem(62, n=40, d=8, g=6)
        with pytest.raises(InputError):
            train_regress(x, y, None, None, AnnealSchedule(lambda0=0.0),
                          epochs=1, opt=SgdState(lr=0.01), rng=Rng(16),
                          model=RegModel.init(8, 7, Rng(17), hidden=(16,)))
