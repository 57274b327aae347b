import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from duet.core import Rng
from duet.errors import InputError
from duet.metrics import log1p_transform, metrics, variance_curve


def naive_pcc(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    if vx == 0 or vy == 0:
        return None
    return cov / math.sqrt(vx * vy)


class TestLog1p:
    def test_fixed_points(self):
        assert log1p_transform(np.array([[0.0]]))[0, 0] == 0.0
        assert abs(log1p_transform(np.array([[math.e - 1]]))[0, 0] - 1.0) < 1e-15

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            log1p_transform(np.array([[1.0, -0.5]]))

    @given(st.floats(0, 1e6), st.floats(0, 1e6))
    def test_monotone(self, x, y):
        if x == y:
            return
        lo, hi = sorted([x, y])
        vals = log1p_transform(np.array([[lo, hi]]))
        assert vals[0, 0] < vals[0, 1] or lo == hi


class TestMetrics:
    def test_perfect_prediction(self):
        t = Rng(1).child("t").standard_normal((10, 4))
        rep = metrics(t, t)
        assert rep.mse == 0.0
        assert rep.mae == 0.0
        assert abs(rep.pcc_mean - 1.0) < 1e-12
        assert rep.n_undefined_pcc == 0

    def test_anticorrelated(self):
        t = Rng(2).child("t").standard_normal((12, 5))
        rep = metrics(-t + 3.0, t)
        assert np.max(np.abs(rep.pcc_per_gene + 1.0)) < 1e-12

    def test_matches_textbook_oracle(self):
        rng = Rng(3)
        pred = rng.child("p").standard_normal((20, 5))
        truth = rng.child("t").standard_normal((20, 5))
        rep = metrics(pred, truth)
        for j in range(5):
            ref = naive_pcc(list(pred[:, j]), list(truth[:, j]))
            assert abs(rep.pcc_per_gene[j] - ref) < 1e-12
        mse_ref = sum(
            (pred[i, j] - truth[i, j]) ** 2 for i in range(20) for j in range(5)
        ) / 100
        mae_ref = sum(
            abs(pred[i, j] - truth[i, j]) for i in range(20) for j in range(5)
        ) / 100
        assert abs(rep.mse - mse_ref) < 1e-12
        assert abs(rep.mae - mae_ref) < 1e-12

    def test_zero_variance_sentinel_excluded(self):
        rng = Rng(4)
        pred = rng.child("p").standard_normal((15, 3))
        truth = rng.child("t").standard_normal((15, 3))
        pred[:, 1] = 7.0  # constant prediction for gene 1
        rep = metrics(pred, truth)
        assert np.isnan(rep.pcc_per_gene[1])
        assert rep.n_undefined_pcc == 1
        others = [rep.pcc_per_gene[0], rep.pcc_per_gene[2]]
        assert abs(rep.pcc_mean - np.mean(others)) < 1e-12

    def test_all_constant_gives_nan_mean(self):
        rep = metrics(np.ones((5, 2)), np.ones((5, 2)))
        assert math.isnan(rep.pcc_mean)
        assert rep.n_undefined_pcc == 2
        assert rep.mse == 0.0
        assert rep.to_dict()["pcc_mean"] is None  # JSON has no NaN

    def test_one_distinct_row_is_constant(self):
        # 0.1 * 7 / 7 != 0.1: the column mean is off by a rounding error, so
        # the centred column is noise around 0, not a signal to correlate
        truth = Rng(9).child("t").standard_normal((7, 6))
        pred = np.tile([0.1, 0.7, 1.3, -2.9, 1e-3, 5.5], (7, 1))
        rep = metrics(pred, truth)
        assert rep.n_undefined_pcc == 6 and np.isnan(rep.pcc_per_gene).all()
        assert np.all(variance_curve(pred, truth).pred_var_norm == 0.0)

    def test_shape_and_size_guards(self):
        with pytest.raises(InputError):
            metrics(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(InputError):
            metrics(np.zeros((1, 2)), np.zeros((1, 2)))

    def test_report_serializes(self):
        rng = Rng(5)
        pred = rng.child("p").standard_normal((6, 3))
        pred[:, 0] = 0.0
        d = metrics(pred, rng.child("t").standard_normal((6, 3))).to_dict()
        assert d["pcc_per_gene"][0] is None
        assert isinstance(d["mse"], float)


class TestVarianceCurve:
    def test_identical_inputs_identical_curves(self):
        t = Rng(6).child("t").standard_normal((25, 8))
        vc = variance_curve(t, t)
        assert np.array_equal(vc.truth_var_norm, vc.pred_var_norm)

    def test_truth_curve_sorted_and_normalized(self):
        rng = Rng(7)
        pred = rng.child("p").standard_normal((30, 10))
        truth = rng.child("t").standard_normal((30, 10)) * \
            rng.child("s").uniform(0.1, 3.0, size=10)
        vc = variance_curve(pred, truth)
        assert np.all(np.diff(vc.truth_var_norm) >= 0)
        assert vc.truth_var_norm[0] == 0.0
        assert vc.truth_var_norm[-1] == 1.0
        tv = truth.var(axis=0)
        assert np.array_equal(vc.order, np.argsort(tv, kind="stable"))

    def test_constant_prediction_normalizes_to_zero(self):
        truth = Rng(8).child("t").standard_normal((12, 6))
        vc = variance_curve(np.full((12, 6), 2.5), truth)
        assert np.all(vc.pred_var_norm == 0.0)

    def test_empty_genes_rejected(self):
        with pytest.raises(InputError):
            variance_curve(np.zeros((5, 0)), np.zeros((5, 0)))
