import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats
from scipy.special import digamma, expit, gammaln

from duet import scprior
from duet.core import Rng, SgdState, fd_check
from duet.errors import InputError, NumericError
from duet.scprior import (
    DeconvPosterior,
    NbSignatureModel,
    ScDataset,
    _count_table,
    _nb_terms,
    build_gating,
    deconv_loss,
    deconvolve,
    fit_signatures,
    gating_from_rows,
    positive,
    positive_inv,
    select_panel,
    signature_loss,
)


# Elementwise NB oracles: the formulas the fused kernel `_nb_terms` computes
# from reductions (dll/dmu entry for entry). TestNbLoglik anchors them to
# scipy.stats.nbinom.


def nb_loglik(x, mu, disp):
    """Log pmf of NB with mean mu and inverse-dispersion disp, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    disp = np.asarray(disp, dtype=np.float64)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(mu)) and np.all(np.isfinite(disp))):
        raise NumericError("non-finite inputs to nb_loglik")
    if np.any(mu <= 0) or np.any(disp <= 0):
        raise InputError("nb_loglik needs mu > 0 and disp > 0")
    if np.any(x < 0):
        raise InputError("nb_loglik needs non-negative counts")
    total = mu + disp
    out = (
        gammaln(x + disp)
        - gammaln(disp)
        - gammaln(x + 1.0)
        + disp * (np.log(disp) - np.log(total))
        + x * (np.log(mu) - np.log(total))
    )
    if np.isscalar(out) or out.ndim == 0:
        return float(out)
    return out


def _nb_dmu(x, mu, disp):
    return x / mu - (x + disp) / (disp + mu)


def _nb_ddisp(x, mu, disp):
    total = disp + mu
    return digamma(x + disp) - digamma(disp) + np.log(disp / total) + (mu - x) / total


def deconv_oracle(params, y, m_panel, eps_w, eps_d):
    """deconv_loss's negative ELBO and gradients through the per-entry chain:
    (S, G) oracle arrays for the NB terms, dll/dw = (s * d) @ M and
    dll/dd = sum_g s * base. Also returns the chain's intermediates."""
    s_n, g_n = y.shape
    scale = 1.0 / (s_n * g_n)
    sd_w, sd_d = np.exp(params["w_logstd"]), np.exp(params["d_logstd"])
    w = np.exp(params["w_loc"] + sd_w * eps_w)
    d = np.exp(params["d_loc"] + sd_d * eps_d)
    alpha = positive(params["raw_alpha"])
    base = w @ m_panel.T
    rate = d[:, None] * base
    disp_row = np.broadcast_to(alpha, y.shape)
    ll = float(np.sum(nb_loglik(y, rate, disp_row)))
    s = _nb_dmu(y, rate, disp_row)
    d_ll_d_alpha = _nb_ddisp(y, rate, disp_row).sum(axis=0)
    kl = float(np.sum(scprior._kl_std_normal(params["w_loc"], params["w_logstd"])))
    kl += float(np.sum(scprior._kl_std_normal(params["d_loc"], params["d_logstd"])))
    d_ll_d_w = (s * d[:, None]) @ m_panel
    d_ll_d_d = np.sum(s * base, axis=1)
    grads = {
        "w_loc": -scale * (d_ll_d_w * w - params["w_loc"]),
        "w_logstd": -scale * (d_ll_d_w * w * eps_w * sd_w - (sd_w**2 - 1.0)),
        "d_loc": -scale * (d_ll_d_d * d - params["d_loc"]),
        "d_logstd": -scale * (d_ll_d_d * d * eps_d * sd_d - (sd_d**2 - 1.0)),
        "raw_alpha": -scale * d_ll_d_alpha * scprior.positive_grad(params["raw_alpha"]),
    }
    chain = dict(w=w, d=d, sd_w=sd_w, sd_d=sd_d, alpha=alpha, rate=rate, s=s,
                 ll=ll, kl=kl, d_ll_d_w=d_ll_d_w, d_ll_d_d=d_ll_d_d)
    return -scale * (ll - kl), grads, chain


# Reductions whose summation order the kernel changed are compared with the
# oracles within the standard worst-case bound for two sums of the same n
# addends in different orders and groupings: each is within (n-1)u * sum|t|
# of the exact sum, u = eps/2 (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., sec. 4.2), and each addend carries a few roundings of
# its own, so 2 * n * eps * sum|t| covers both sides for n >= 3.
EPS = np.finfo(np.float64).eps


def summation_bound(terms, axis=None):
    """2 n eps sum|t| over the addends `terms`, reduced along `axis`."""
    a = np.abs(np.asarray(terms))
    n = a.size if axis is None else a.size // np.sum(a, axis=axis).size
    return 2.0 * n * EPS * np.sum(a, axis=axis)


def nb_ll_terms(x, mu, disp):
    """The addends of the NB log pmf, stacked: (7, S, G)."""
    log_total = np.log(mu + disp)
    return np.stack(np.broadcast_arrays(
        gammaln(x + disp), gammaln(disp), gammaln(x + 1.0), disp * np.log(disp),
        disp * log_total, x * np.log(mu), x * log_total))


def nb_ddisp_terms(x, mu, disp):
    """The addends of dll/ddisp, digamma(x+disp) - digamma(disp) + log(disp)
    - log(total) + 1 - (x+disp)/total, stacked: (6, S, G)."""
    total = mu + disp
    return np.stack(np.broadcast_arrays(
        digamma(x + disp), digamma(disp), np.log(disp), np.log(total),
        np.ones_like(total), (x + disp) / total))


def sample_nb(rng: Rng, mu, disp, shape):
    """Gamma-Poisson draw of NB(mu, disp) for building test data."""
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), shape)
    disp = np.broadcast_to(np.asarray(disp, dtype=np.float64), shape)
    lam = rng.gamma(disp, mu / disp)
    return rng.poisson(lam).astype(np.int64)


class TestNbLoglik:
    def test_matches_scipy_nbinom(self):
        # scipy parameterizes by (n, p) with n=disp, p=disp/(disp+mu)
        rng = np.random.default_rng(3)
        x = rng.integers(0, 40, size=200)
        mu = rng.uniform(0.1, 20.0, size=200)
        disp = rng.uniform(0.3, 8.0, size=200)
        ours = nb_loglik(x, mu, disp)
        ref = stats.nbinom.logpmf(x, disp, disp / (disp + mu))
        assert np.max(np.abs(ours - ref)) < 1e-10

    def test_normalizes_over_support(self):
        for mu, disp in [(0.5, 0.7), (3.0, 1.5), (10.0, 4.0)]:
            xs = np.arange(0, 4000)
            total = np.exp(nb_loglik(xs, np.full_like(xs, mu, dtype=float),
                                     np.full_like(xs, disp, dtype=float))).sum()
            assert abs(total - 1.0) < 1e-8

    def test_geometric_case_half(self):
        # disp=1, mu=1 is geometric with p=1/2, so P(0) = 1/2 exactly
        assert abs(nb_loglik(0, 1.0, 1.0) - np.log(0.5)) < 1e-14

    def test_poisson_limit(self):
        # disp -> inf approaches Poisson; at mu=1, x=0 the log pmf is -1
        assert abs(nb_loglik(0, 1.0, 1e6) - (-1.0)) < 1e-3

    def test_rejects_bad_domain(self):
        with pytest.raises(InputError):
            nb_loglik(1, -0.5, 1.0)
        with pytest.raises(InputError):
            nb_loglik(1, 1.0, 0.0)
        with pytest.raises(InputError):
            nb_loglik(-1, 1.0, 1.0)


# _lgamma_psi_diffs against scipy.special, pair by pair. The bound is set by
# the method, not by the observed error. The series' truncation: each series
# is cut at z >= 16 before a term below 1/(156 z^13) (lnΓ) or 1/(12 z^14)
# (ψ), and a difference takes two of them. The roundings: a running product
# or sum of up to 16 steps, or about ten operations of the series on values
# no larger than the addends f(c+α) and f(α), each carry at most 8 eps of the
# addends' magnitude |f(c+α)| + |f(α)|; scipy's two values carry a few ulp
# more, so 16 eps of that magnitude covers both sides.
SERIES_REMAINDER = {gammaln: 2.0 / (156.0 * 16.0**13), digamma: 2.0 / (12.0 * 16.0**14)}


def diff_bound(f, count, alpha):
    return SERIES_REMAINDER[f] + 16 * EPS * (np.abs(f(count + alpha)) + np.abs(f(alpha)))


def lgamma_psi_case(alphas):
    """Every count below 16 and the boundary, then up to 1e5 in geometric
    steps, for each gene (one per alpha), in shuffled pair order."""
    counts = np.unique(np.concatenate((np.arange(40.0), np.round(np.geomspace(40, 1e5, 200)))))
    count = np.tile(counts, len(alphas))
    gene = np.repeat(np.arange(len(alphas)), counts.size)
    order = np.random.default_rng(0).permutation(count.size)
    count, gene = count[order], gene[order]
    alpha = np.asarray(alphas, dtype=np.float64)
    lg, psi = scprior._lgamma_psi_diffs(alpha, scprior._term_sources(count, gene, alpha.size))
    return count, alpha[gene], lg, psi


class TestLgammaPsiDiffs:
    @pytest.mark.parametrize("alphas", [[1e-6, 1.0, 17.0, 1e4, 1e8], [1.0], [1e8, 1e-6]])
    def test_matches_scipy_within_bound(self, alphas):
        count, alpha, lg, psi = lgamma_psi_case(alphas)
        assert count.max() == 1e5 and np.all(np.isin(np.arange(17.0), count))
        for got, f in ((lg, gammaln), (psi, digamma)):
            want = f(count + alpha) - f(alpha)
            assert np.all(np.abs(got - want) <= diff_bound(f, count, alpha))

    def test_zero_count_is_exactly_zero(self):
        count, _, lg, psi = lgamma_psi_case([1e-6, 1.0, 17.0, 1e4, 1e8])
        assert np.all(lg[count == 0] == 0.0) and np.all(psi[count == 0] == 0.0)

    def test_finite_up_to_huge_alpha(self):
        # the running product of 16 steps near 1e300 would overflow unscaled
        _, _, lg, psi = lgamma_psi_case([1e20, 1e100, 1e200, 1e300])
        assert np.all(np.isfinite(lg)) and np.all(np.isfinite(psi))


def kernel_case(s_n, g_n, order, disp_kind, seed=0):
    """Counts in the given memory order (column 0 all zero when G > 1, a few
    entries up to 5000), positive rates, and a (G,) dispersion."""
    rng = np.random.default_rng(seed)
    x = rng.poisson(3.0, size=(s_n, g_n)).astype(np.float64)
    big = rng.random((s_n, g_n)) < 0.05
    x[big] = rng.integers(0, 5001, size=int(big.sum()))
    if g_n > 1:
        x[:, 0] = 0.0
    x = np.asarray(x, order=order)
    mu = rng.uniform(1e-3, 60.0, size=(s_n, g_n))
    disp = {
        "mixed": rng.uniform(0.3, 8.0, size=g_n),
        "floor": np.full(g_n, scprior.POSITIVE_FLOOR),
        "large": rng.uniform(1e5, 1e8, size=g_n),
    }[disp_kind]
    if disp_kind == "mixed" and g_n > 2:
        disp[1], disp[2] = scprior.POSITIVE_FLOOR, 1e7
    return x, mu, disp


class TestNbKernel:
    # 327 x 100 float64 is just under numpy's 256 KiB temporary-elision
    # threshold and 328 x 100 just over it; the oracle's own layout flips there
    @pytest.mark.parametrize("disp_kind", ["mixed", "floor", "large"])
    @pytest.mark.parametrize("s_n,g_n,order", [
        (327, 100, "C"), (327, 100, "F"), (328, 100, "C"), (328, 100, "F"),
        (1, 60, "C"), (60, 1, "F"),
    ])
    def test_matches_oracles_exactly(self, s_n, g_n, order, disp_kind):
        # dll/dmu is the oracle's expression entry for entry, so it is exact;
        # the log-likelihood and dll/ddisp are reduced per distinct pair and
        # per column, so they are held to the summation bound
        x, mu, disp = kernel_case(s_n, g_n, order, disp_kind, seed=s_n * g_n)
        ll, dmu, ddisp = _nb_terms(_count_table(x), mu, disp)
        disp_row = np.broadcast_to(disp, x.shape)
        assert np.array_equal(dmu, _nb_dmu(x, mu, disp_row))
        assert dmu.flags.c_contiguous
        want_ll = np.sum(nb_loglik(x, mu, disp_row))
        assert abs(ll - want_ll) <= summation_bound(nb_ll_terms(x, mu, disp))
        want_ddisp = _nb_ddisp(x, mu, disp_row).sum(axis=0)
        bound = summation_bound(nb_ddisp_terms(x, mu, disp), axis=(0, 1))
        assert np.all(np.abs(ddisp - want_ddisp) <= bound)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_table_maps_back_to_counts(self, order):
        # the pairs, by gene and then count, with how often each occurs
        x, _, _ = kernel_case(40, 7, order, "mixed")
        table = _count_table(x)
        assert table.x.flags.c_contiguous
        assert np.array_equal(table.x, x)
        want = Counter(zip(x.ravel().tolist(), np.tile(np.arange(7), 40).tolist()))
        got = zip(table.count.tolist(), table.gene.tolist(), table.mult.tolist())
        assert {(c, g): m for c, g, m in got} == want
        assert table.count.size == len(want)
        assert np.all(np.diff(table.gene * 1e4 + table.count) > 0)
        # lnΓ(c+1) is the lnΓ difference at α = 1, bit for bit, and scipy's
        # gammaln within the helper's bound
        at_one = scprior._lgamma_psi_diffs(np.ones(7), table.sources)[0]
        assert np.array_equal(table.lgamma_x1, at_one)
        assert np.all(np.abs(table.lgamma_x1 - gammaln(table.count + 1.0))
                      <= diff_bound(gammaln, table.count, 1.0))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_counts_rejected(self, bad):
        x, mu, disp = kernel_case(5, 4, "C", "mixed")
        x[2, 3] = bad
        with pytest.raises(InputError):
            _count_table(x)
        eps_w, eps_d = np.zeros((5, 2)), np.zeros(5)
        params = {"w_loc": np.zeros((5, 2)), "w_logstd": np.zeros((5, 2)),
                  "d_loc": np.zeros(5), "d_logstd": np.zeros(5),
                  "raw_alpha": np.zeros(4)}
        with pytest.raises(InputError):
            deconv_loss(params, x, np.ones((4, 2)), eps_w, eps_d)

    @pytest.mark.parametrize("bad,error", [
        (np.nan, NumericError), (np.inf, NumericError), (0.0, InputError),
        (-1.0, InputError),
    ])
    def test_bad_dispersion_rejected(self, bad, error):
        x, mu, disp = kernel_case(5, 4, "C", "mixed")
        table = _count_table(x)
        disp[1] = bad
        with pytest.raises(error):
            _nb_terms(table, mu, disp)

    def test_table_built_once_per_fit(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(scprior, "_count_table",
                            counting("table", scprior._count_table))
        monkeypatch.setattr(scprior, "signature_loss",
                            counting("sig", scprior.signature_loss))
        monkeypatch.setattr(scprior, "deconv_loss",
                            counting("deconv", scprior.deconv_loss))
        fit_signatures(tiny_dataset(), epochs=5, lr=0.2)
        assert calls == ["table"] + ["sig"] * 5
        calls.clear()
        y, m_panel, _, _, _ = small_deconv_problem(28, s_n=6)
        deconvolve(y, m_panel, epochs=4, rng=Rng(2), lr=0.1)
        assert calls == ["table"] + ["deconv"] * 4

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_reused_table_matches_fresh_tables(self, order):
        # every call on a table overwrites the scratch arrays the previous
        # call left, including the dll/dmu it returned
        x, _, _ = kernel_case(328, 100, order, "mixed")
        table = _count_table(x)
        for seed, disp_kind in [(1, "mixed"), (2, "floor"), (3, "large"), (4, "mixed")]:
            _, mu, disp = kernel_case(328, 100, order, disp_kind, seed=seed)
            ll, dmu, ddisp = _nb_terms(table, mu, disp)
            assert dmu.flags.c_contiguous
            dmu = dmu.copy()
            want_ll, want_dmu, want_ddisp = _nb_terms(_count_table(x), mu, disp)
            assert ll == want_ll
            assert np.array_equal(dmu, want_dmu)
            assert np.array_equal(ddisp, want_ddisp)

    def test_group_sums_match_masked_sums(self):
        rng = np.random.default_rng(4)
        p = rng.normal(size=(97, 13))
        labels = rng.integers(0, 5, size=97)
        labels[labels == 3] = 4  # labels 3 and 5 have no rows
        got = scprior._group_sums(p, scprior._row_groups(labels, 6), np.empty_like(p))
        want = np.zeros((6, 13))
        for k in range(6):
            mask = labels == k
            if mask.any():
                want[k] = p[mask].sum(axis=0)
        assert np.array_equal(got, want)


def traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScratch:
    # a step writes every (S, G) array into its fit's scratch, so after one
    # warm-up call a loss call allocates less than one (S, G) float64 array

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_deconv_loss_allocates_no_full_array(self, order):
        y, m_panel, _, _, _ = small_deconv_problem(31, s_n=2000, t_n=5, g_n=100)
        y = np.asarray(y, dtype=np.float64, order=order)
        rng = np.random.default_rng(5)
        params = {"w_loc": rng.normal(0.0, 0.3, (2000, 5)),
                  "w_logstd": np.full((2000, 5), -2.0),
                  "d_loc": rng.normal(-1.0, 0.1, 2000),
                  "d_logstd": np.full(2000, -2.0), "raw_alpha": np.zeros(100)}
        eps_w, eps_d = rng.standard_normal((2000, 5)), rng.standard_normal(2000)
        table = _count_table(y)
        first = deconv_loss(params, y, m_panel, eps_w, eps_d, table)
        peak = traced_peak(lambda: deconv_loss(params, y, m_panel, eps_w, eps_d, table))
        assert peak < y.nbytes
        again = deconv_loss(params, y, m_panel, eps_w, eps_d, table)
        assert again[0] == first[0]
        assert all(np.array_equal(again[1][k], first[1][k]) for k in params)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_deconvolve_peak_memory(self, order):
        # with six scratch arrays and an entry index, a whole deconvolve at
        # 2000 x 100 peaked at 15.14 MB; the fit now keeps three scratch
        # arrays, so it must stay their 4.8 MB below that, and a second
        # scratch set, or a second copy of the counts, does not fit
        y, m_panel, _, _, _ = small_deconv_problem(31, s_n=2000, t_n=5, g_n=100)
        y = np.asarray(y, order=order)
        peak = traced_peak(lambda: deconvolve(y, m_panel, epochs=3, rng=Rng(2), lr=0.1))
        assert peak < 15_136_716 - 3 * y.size * 8

    def test_signature_loss_allocates_no_full_array(self):
        data = tiny_dataset(c=600, g=220, t=4, b=3)
        model = scprior._init_signature_model(data)
        table = scprior._signature_table(data)
        signature_loss(model, data, table)
        peak = traced_peak(lambda: signature_loss(model, data, table))
        assert peak < data.counts.size * 8

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_deconv_invalid_rates_rejected(self, bad):
        y, m_panel, _, _, _ = small_deconv_problem(32, s_n=6, t_n=1)
        m_panel[2, 0] = bad
        params = {"w_loc": np.zeros((6, 1)), "w_logstd": np.zeros((6, 1)),
                  "d_loc": np.zeros(6), "d_logstd": np.zeros(6),
                  "raw_alpha": np.zeros(30)}
        with pytest.raises(NumericError):
            deconv_loss(params, y.astype(float), m_panel, np.zeros((6, 1)), np.zeros(6))

    @pytest.mark.parametrize("bad", [-np.inf, np.nan, np.inf])
    def test_signature_invalid_rates_rejected(self, bad):
        data = tiny_dataset()
        model = scprior._init_signature_model(data)
        model.batch_effect[1, 2] = bad  # exp gives a rate of 0, NaN or inf
        with pytest.raises(NumericError):
            signature_loss(model, data)


class TestPositive:
    def test_roundtrip(self):
        vals = np.array([1e-5, 0.1, 1.0, 37.5, 900.0])
        assert np.max(np.abs(positive(positive_inv(vals)) - vals)) < 1e-9

    def test_grad_is_the_logistic(self):
        # e/(1+e) or 1/(1+e), e = exp(-|x|): a few roundings, relative
        x = np.concatenate((np.linspace(-700.0, 700.0, 4001), [0.0, -0.0, 1e-300]))
        assert np.allclose(scprior.positive_grad(x), expit(x), rtol=4 * EPS, atol=0.0)

    def test_grad_does_not_overflow(self):
        x = np.array([-np.inf, -1e308, -800.0, 800.0, 1e308, np.inf])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = scprior.positive_grad(x)
        assert np.array_equal(got, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])


def tiny_dataset(seed=11, c=40, g=6, t=2, b=2):
    rng = Rng(seed)
    mu_true = rng.child("mu").uniform(0.5, 6.0, size=(t, g))
    types = rng.child("ty").integers(0, t, size=c)
    types[:t] = np.arange(t)  # every type present
    batches = rng.child("ba").integers(0, b, size=c)
    batches[:b] = np.arange(b)
    m_true = np.zeros((b, g))
    if b > 1:
        m_true[1:] = rng.child("m").uniform(-0.4, 0.4, size=(b - 1, g))
    rate = np.exp(m_true[batches]) * mu_true[types]
    counts = sample_nb(rng.child("x"), rate, 2.0, rate.shape)
    return ScDataset(counts=counts, cell_type=types, batch=batches)


class TestScDataset:
    def test_rejects_missing_type(self):
        with pytest.raises(InputError):
            ScDataset(
                counts=np.zeros((3, 2), dtype=int),
                cell_type=np.array([0, 0, 0]),
                batch=np.array([0, 0, 0]),
                n_types=2,
            )

    def test_rejects_negative_counts(self):
        with pytest.raises(InputError):
            ScDataset(
                counts=np.array([[1, -2]]),
                cell_type=np.array([0]),
                batch=np.array([0]),
            )

    def test_rejects_fractional_float_counts(self):
        with pytest.raises(InputError, match="single-cell counts must be integers"):
            ScDataset(counts=np.array([[1.0, 2.5]]), cell_type=np.array([0]),
                      batch=np.array([0]))

    def test_counts_copied_only_to_change_dtype(self):
        ints = np.array([[1, 2], [0, 3]], dtype=np.int64)
        floats = ints.astype(np.float64)
        assert scprior.validate_counts(ints) is ints
        assert scprior.validate_counts(floats, dtype=np.float64) is floats
        assert np.array_equal(scprior.validate_counts(floats), ints)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(InputError):
            ScDataset(
                counts=np.ones((2, 2), dtype=int),
                cell_type=np.array([0, 1]),
                batch=np.array([0, 3]),
                n_batches=2,
            )


class TestSignatureLoss:
    def test_gradients_match_finite_differences(self):
        data = tiny_dataset(c=12, g=4)
        model = NbSignatureModel(
            raw_mu=Rng(5).child("a").standard_normal((2, 4)) * 0.3 + 0.4,
            batch_effect=np.vstack([np.zeros(4),
                                    Rng(5).child("b").standard_normal((1, 4)) * 0.2]),
            raw_cell_scale=Rng(5).child("c").standard_normal(12) * 0.1 + 0.5,
            raw_dispersion=Rng(5).child("d").standard_normal(4) * 0.2 + 0.8,
        )
        shapes = [p.shape for p in model.param_arrays()]
        sizes = [int(np.prod(s)) for s in shapes]

        def unpack(flat):
            out, i = [], 0
            for sh, sz in zip(shapes, sizes):
                out.append(flat[i:i + sz].reshape(sh).copy())
                i += sz
            # the reference batch row is a constant of the objective, so the
            # function ignores perturbations there, matching the zeroed grad
            out[1][0] = 0.0
            return out

        def f(flat):
            arrs = unpack(flat)
            m = NbSignatureModel(*arrs)
            loss, grads = signature_loss(m, data)
            return loss, np.concatenate([g.ravel() for g in grads])

        flat0 = np.concatenate([p.ravel() for p in model.param_arrays()])
        err = fd_check(f, flat0, h=1e-6)
        assert err < 1e-3

    def test_loss_drops_from_init(self):
        data = tiny_dataset()
        model = fit_signatures(data, epochs=60, lr=0.2)
        assert model.fit_trace[-1] < model.fit_trace[0]


class TestFitSignatures:
    def test_recovers_mean_single_type(self):
        rng = Rng(7)
        counts = sample_nb(rng.child("x"), 5.0, 2.0, (300, 8))
        data = ScDataset(
            counts=counts,
            cell_type=np.zeros(300, dtype=int),
            batch=np.zeros(300, dtype=int),
        )
        model = fit_signatures(data, epochs=250, lr=0.2)
        mu_hat = model.mu[0]
        assert np.all(np.abs(mu_hat - 5.0) / 5.0 < 0.1)

    def test_identical_batches_give_small_effect(self):
        rng = Rng(9)
        counts = sample_nb(rng.child("x"), 4.0, 2.0, (400, 6))
        batches = np.repeat([0, 1], 200)
        data = ScDataset(
            counts=counts,
            cell_type=np.zeros(400, dtype=int),
            batch=batches,
        )
        model = fit_signatures(data, epochs=250, lr=0.2)
        assert np.mean(np.abs(model.batch_effect[1])) < 0.1

    def test_zero_counts_hit_floor_without_crash(self):
        data = ScDataset(
            counts=np.zeros((3, 4), dtype=int),
            cell_type=np.array([0, 1, 2]),
            batch=np.array([0, 0, 0]),
        )
        model = fit_signatures(data, epochs=80, lr=0.2)
        assert np.all(np.isfinite(model.mu))
        assert np.all(model.mu >= 1e-6)
        assert np.all(model.mu < 0.1)

    def test_reference_batch_stays_zero(self):
        data = tiny_dataset()
        model = fit_signatures(data, epochs=40, lr=0.2)
        assert np.all(model.batch_effect[0] == 0.0)

    def test_cell_scales_pinned_to_mean_one(self):
        data = tiny_dataset()
        model = fit_signatures(data, epochs=40, lr=0.2)
        assert abs(model.cell_scale.mean() - 1.0) < 1e-6

    def test_loss_non_increasing_late(self):
        data = tiny_dataset()
        model = fit_signatures(data, epochs=200, lr=0.2)
        tail = np.asarray(model.fit_trace[-20:])
        assert np.all(np.diff(tail) <= 1e-9)


class TestDeconvLoss:
    def test_gradients_match_finite_differences(self):
        rng = Rng(13)
        s_n, t_n, g_n = 3, 2, 5
        m_panel = rng.child("m").uniform(0.5, 3.0, size=(g_n, t_n))
        y = sample_nb(rng.child("y"), 6.0, 1.5, (s_n, g_n))
        eps_w = rng.child("ew").standard_normal((s_n, t_n))
        eps_d = rng.child("ed").standard_normal(s_n)
        shapes = {
            "w_loc": (s_n, t_n), "w_logstd": (s_n, t_n),
            "d_loc": (s_n,), "d_logstd": (s_n,), "raw_alpha": (g_n,),
        }
        names = list(shapes)
        sizes = {k: int(np.prod(v)) for k, v in shapes.items()}

        def f(flat):
            params, i = {}, 0
            for k in names:
                params[k] = flat[i:i + sizes[k]].reshape(shapes[k])
                i += sizes[k]
            loss, grads = deconv_loss(params, y.astype(float), m_panel, eps_w, eps_d)
            return loss, np.concatenate([grads[k].ravel() for k in names])

        init = {
            "w_loc": rng.child("p1").standard_normal((s_n, t_n)) * 0.2,
            "w_logstd": np.full((s_n, t_n), -1.5),
            "d_loc": rng.child("p2").standard_normal(s_n) * 0.2,
            "d_logstd": np.full(s_n, -1.5),
            "raw_alpha": rng.child("p3").standard_normal(g_n) * 0.2 + 0.6,
        }
        flat0 = np.concatenate([init[k].ravel() for k in names])
        assert fd_check(f, flat0, h=1e-6) < 1e-3

    def test_matches_per_entry_chain(self):
        # the kernel's reductions within their summation bounds, and the
        # chains dll/dw = d * (s @ M), dll/dd = sum_t w * (s @ M) within
        # theirs, each carried through the few roundings that follow it
        s_n, t_n, g_n = 40, 4, 60
        y, m_panel, _, _, _ = small_deconv_problem(33, s_n=s_n, t_n=t_n, g_n=g_n)
        y = y.astype(float)
        rng = np.random.default_rng(6)
        params = {"w_loc": rng.normal(0.0, 0.5, (s_n, t_n)),
                  "w_logstd": rng.normal(-1.5, 0.3, (s_n, t_n)),
                  "d_loc": rng.normal(-1.0, 0.3, s_n),
                  "d_logstd": rng.normal(-1.5, 0.3, s_n),
                  "raw_alpha": rng.normal(0.5, 1.0, g_n)}
        eps_w, eps_d = rng.standard_normal((s_n, t_n)), rng.standard_normal(s_n)
        loss, grads = deconv_loss(params, y, m_panel, eps_w, eps_d)
        want_loss, want, c = deconv_oracle(params, y, m_panel, eps_w, eps_d)
        scale = 1.0 / y.size
        s_abs, m_abs = np.abs(c["s"]), np.abs(m_panel)
        ll_bound = summation_bound(nb_ll_terms(y, c["rate"], c["alpha"]))
        alpha_bound = summation_bound(nb_ddisp_terms(y, c["rate"], c["alpha"]), axis=(0, 1))
        w_bound = 2 * g_n * EPS * ((s_abs * c["d"][:, None]) @ m_abs)
        d_bound = 2 * g_n * t_n * EPS * np.sum(s_abs * (c["w"] @ m_abs.T), axis=1)
        # per gradient: (chain bound, factor, chain value, prior part)
        parts = {
            "w_loc": (w_bound, c["w"], c["d_ll_d_w"], params["w_loc"]),
            "w_logstd": (w_bound, c["w"] * eps_w * c["sd_w"], c["d_ll_d_w"],
                         c["sd_w"]**2 - 1.0),
            "d_loc": (d_bound, c["d"], c["d_ll_d_d"], params["d_loc"]),
            "d_logstd": (d_bound, c["d"] * eps_d * c["sd_d"], c["d_ll_d_d"],
                         c["sd_d"]**2 - 1.0),
            "raw_alpha": (alpha_bound, scprior.positive_grad(params["raw_alpha"]),
                          -want["raw_alpha"] / scale, 0.0),
        }
        for k, (chain_bound, factor, value, prior) in parts.items():
            f = np.abs(factor)
            bound = scale * (f * chain_bound + 4 * EPS * (f * np.abs(value) + np.abs(prior)))
            assert np.all(np.abs(grads[k] - want[k]) <= bound), k
        assert abs(loss - want_loss) <= scale * (
            ll_bound + 4 * EPS * (abs(c["ll"]) + abs(c["kl"])))


def small_deconv_problem(seed, s_n=25, t_n=3, g_n=30):
    rng = Rng(seed)
    m_panel = rng.child("sig").uniform(0.2, 4.0, size=(g_n, t_n))
    # make columns distinguishable: each type gets a block of strong genes
    block = g_n // t_n
    for t in range(t_n):
        m_panel[t * block:(t + 1) * block, t] += 8.0
    props = rng.child("pi").dirichlet(np.ones(t_n), size=s_n)
    n_cells = rng.child("n").integers(5, 30, size=s_n).astype(float)
    w_true = props * n_cells[:, None]
    rate = w_true @ m_panel.T
    y = sample_nb(rng.child("y"), rate, 3.0, rate.shape)
    return y, m_panel, props, w_true, n_cells


class TestDeconvolve:
    def test_recovers_proportions(self):
        y, m_panel, props, _, _ = small_deconv_problem(21)
        post = deconvolve(y, m_panel, epochs=400, rng=Rng(2), lr=0.1)
        est = post.proportions()
        err = np.abs(est - props).mean()
        assert err < 0.1

    def test_single_type_proportions_are_one(self):
        y, m_panel, _, _, _ = small_deconv_problem(22, t_n=1)
        post = deconvolve(y, m_panel, epochs=50, rng=Rng(2), lr=0.1)
        assert np.allclose(post.proportions(), 1.0)
        assert np.allclose(post.q05_normalized(), 1.0)

    def test_zero_count_spot_stays_positive(self):
        y, m_panel, _, _, _ = small_deconv_problem(23, s_n=6)
        y[0] = 0
        post = deconvolve(y, m_panel, epochs=80, rng=Rng(2), lr=0.1)
        assert np.all(post.w_q05 > 0)
        assert np.allclose(post.q05_normalized().sum(axis=1), 1.0)

    def test_q05_below_mean(self):
        y, m_panel, _, _, _ = small_deconv_problem(24, s_n=8)
        post = deconvolve(y, m_panel, epochs=100, rng=Rng(2), lr=0.1)
        assert np.all(post.w_q05 < post.w_mean)

    def test_type_permutation_equivariance(self):
        y, m_panel, _, _, _ = small_deconv_problem(25, s_n=15)
        perm = np.array([2, 0, 1])
        diffs = []
        for seed in (31, 32, 33):
            a = deconvolve(y, m_panel, epochs=300, rng=Rng(seed), lr=0.1).proportions()
            b = deconvolve(y, m_panel[:, perm], epochs=300, rng=Rng(seed), lr=0.1).proportions()
            diffs.append(np.abs(a[:, perm] - b).mean())
        assert np.mean(diffs) < 0.02

    def test_rejects_gene_mismatch(self):
        y, m_panel, _, _, _ = small_deconv_problem(26, s_n=4)
        with pytest.raises(InputError):
            deconvolve(y[:, :-1], m_panel, epochs=5, rng=Rng(0), lr=0.1)

    def test_counts_layout_does_not_change_posterior(self):
        # the fit works on one C-ordered copy of the counts, so C- and
        # F-ordered counts give the same sums and the same posterior
        y, m_panel, _, _, _ = small_deconv_problem(34, s_n=328, t_n=4, g_n=100)
        a, b = (deconvolve(np.asarray(y, order=o), m_panel, epochs=20, rng=Rng(3), lr=0.1)
                for o in "CF")
        for k in ("w_mean", "w_q05"):
            assert np.array_equal(getattr(a, k), getattr(b, k)), k
        assert a.fit_trace == b.fit_trace

    def test_integral_float_counts_give_the_int_posterior(self):
        # a float64 panel goes to the fit as it is, an int64 one is converted
        # once; both must give the same posterior bit for bit
        y, m_panel, _, _, _ = small_deconv_problem(35, s_n=40)
        a, b = (deconvolve(c, m_panel, epochs=20, rng=Rng(3), lr=0.1)
                for c in (y, y.astype(np.float64)))
        for k in ("w_mean", "w_q05"):
            assert np.array_equal(getattr(a, k), getattr(b, k)), k
        assert a.fit_trace == b.fit_trace

    @pytest.mark.parametrize("bad, rule", [(1.5, "integers"), (np.nan, "integers"),
                                           (np.inf, "integers"), (-1.0, "non-negative")])
    def test_rejects_float_non_counts(self, bad, rule):
        y, m_panel, _, _, _ = small_deconv_problem(36, s_n=4)
        y = y.astype(np.float64)
        y[1, 2] = bad
        with pytest.raises(InputError, match=f"spot counts must be {rule}"):
            deconvolve(y, m_panel, epochs=5, rng=Rng(0), lr=0.1)

    def test_same_seed_reproduces(self):
        y, m_panel, _, _, _ = small_deconv_problem(27, s_n=5)
        a = deconvolve(y, m_panel, epochs=60, rng=Rng(4), lr=0.1)
        b = deconvolve(y, m_panel, epochs=60, rng=Rng(4), lr=0.1)
        assert np.array_equal(a.w_mean, b.w_mean)
        assert np.array_equal(a.w_q05, b.w_q05)


DECONV_GROUPS = ("w_loc", "w_logstd", "d_loc", "d_logstd", "raw_alpha")


def first_deconv_step(y, m_panel, eps_w, eps_d) -> dict:
    """How far the first deconvolve step moves each parameter group, with the
    step's noise replaced by eps_w and eps_d."""
    moves = {}
    real_loss, real_step = scprior.deconv_loss, SgdState.step

    def loss(params, y, m_panel, _eps_w, _eps_d, table):
        return real_loss(params, y, m_panel, eps_w, eps_d, table)

    def step(opt, params, grads):
        before = [p.copy() for p in params]
        real_step(opt, params, grads)
        moves.update({k: p - b for k, p, b in zip(DECONV_GROUPS, params, before)})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scprior, "deconv_loss", loss)
        mp.setattr(SgdState, "step", step)
        deconvolve(y, m_panel, epochs=1, rng=Rng(0), lr=0.1)
    return moves


def duplicated_cells(data: ScDataset) -> ScDataset:
    return ScDataset(counts=np.vstack([data.counts] * 2),
                     cell_type=np.tile(data.cell_type, 2),
                     batch=np.tile(data.batch, 2))


class TestScaledStep:
    """Both fits scale each parameter group's step by the share of the count
    table it sums over, so a spot's or a cell's step does not depend on how
    many others share the table; the losses stay means over the table."""

    def test_deconvolve_spot_steps_do_not_depend_on_spot_count(self):
        y, m_panel, _, _, _ = small_deconv_problem(41, s_n=12)
        rng = Rng(42)
        eps_w = rng.child("w").standard_normal((12, 3))
        eps_d = rng.child("d").standard_normal(12)
        one = first_deconv_step(y, m_panel, eps_w, eps_d)
        two = first_deconv_step(np.vstack([y, y]), m_panel,
                                np.vstack([eps_w, eps_w]), np.concatenate([eps_d, eps_d]))
        for k in DECONV_GROUPS[:4]:
            assert np.any(one[k] != 0.0), k
            for half in (two[k][:12], two[k][12:]):
                assert np.allclose(half, one[k], rtol=0.0, atol=1e-12), k
        assert np.allclose(two["raw_alpha"], one["raw_alpha"], rtol=0.0, atol=1e-12)

    def test_fit_signatures_cell_steps_do_not_depend_on_cell_count(self):
        data = tiny_dataset()
        c = data.n_cells
        one = fit_signatures(data, 1, lr=0.2)
        two = fit_signatures(duplicated_cells(data), 1, lr=0.2)
        init = float(positive_inv(1.0))
        assert np.all(one.raw_cell_scale != init)
        for half in (two.raw_cell_scale[:c], two.raw_cell_scale[c:]):
            assert np.allclose(half, one.raw_cell_scale, rtol=0.0, atol=1e-12)
        for k in ("raw_mu", "batch_effect", "raw_dispersion"):
            assert np.allclose(getattr(two, k), getattr(one, k), rtol=0.0, atol=1e-12), k

    def test_deconv_loss_stays_a_mean_over_spots(self):
        # stacking the table on itself leaves the loss and the shared
        # gradient as they are and halves each spot's gradient
        y, m_panel, _, _, _ = small_deconv_problem(43, s_n=10)
        rng = np.random.default_rng(44)
        params = {"w_loc": rng.normal(0.0, 0.5, (10, 3)),
                  "w_logstd": rng.normal(-1.5, 0.3, (10, 3)),
                  "d_loc": rng.normal(-1.0, 0.3, 10),
                  "d_logstd": rng.normal(-1.5, 0.3, 10),
                  "raw_alpha": rng.normal(0.5, 1.0, 30)}
        eps_w, eps_d = rng.standard_normal((10, 3)), rng.standard_normal(10)
        loss, grads = deconv_loss(params, y.astype(float), m_panel, eps_w, eps_d)
        stacked = {k: v if k == "raw_alpha" else np.concatenate([v, v])
                   for k, v in params.items()}
        loss2, grads2 = deconv_loss(stacked, np.vstack([y, y]).astype(float), m_panel,
                                    np.vstack([eps_w, eps_w]), np.concatenate([eps_d, eps_d]))
        assert loss2 == pytest.approx(loss, rel=1e-12)
        for k in DECONV_GROUPS[:4]:
            for half in (grads2[k][:10], grads2[k][10:]):
                assert np.allclose(2.0 * half, grads[k], rtol=1e-12, atol=0.0), k
        assert np.allclose(grads2["raw_alpha"], grads["raw_alpha"], rtol=1e-12, atol=0.0)

    def test_signature_loss_stays_a_mean_over_cells(self):
        # batch effects at zero, so the penalty, which is not summed over
        # cells, adds nothing; duplicated cells then leave the loss and the
        # shared gradients as they are and halve each cell's
        data = tiny_dataset(c=12, g=4)
        rng = Rng(45)
        model = NbSignatureModel(
            raw_mu=rng.child("a").standard_normal((2, 4)) * 0.3 + 0.4,
            batch_effect=np.zeros((2, 4)),
            raw_cell_scale=rng.child("c").standard_normal(12) * 0.1 + 0.5,
            raw_dispersion=rng.child("d").standard_normal(4) * 0.2 + 0.8,
        )
        loss, (g_mu, g_m, g_l, g_disp) = signature_loss(model, data)
        twice = NbSignatureModel(model.raw_mu, model.batch_effect,
                                 np.tile(model.raw_cell_scale, 2), model.raw_dispersion)
        loss2, (g_mu2, g_m2, g_l2, g_disp2) = signature_loss(twice, duplicated_cells(data))
        assert loss2 == pytest.approx(loss, rel=1e-12)
        for got, want in ((g_mu2, g_mu), (g_m2, g_m), (g_disp2, g_disp),
                          (2.0 * g_l2[:12], g_l), (2.0 * g_l2[12:], g_l)):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


class TestSelectPanel:
    def test_deterministic_and_disjoint(self):
        genes = [f"g{i:03d}" for i in range(150)]
        targets = genes[:40]
        a = select_panel(genes, targets, k=100, rng=Rng(5))
        b = select_panel(genes, targets, k=100, rng=Rng(5))
        assert a == b
        assert len(a) == 100
        assert len(set(a)) == 100
        assert not set(a) & set(targets)

    def test_order_of_input_does_not_matter(self):
        genes = [f"g{i:03d}" for i in range(150)]
        targets = genes[:40]
        shuffled = list(reversed(genes))
        a = select_panel(genes, targets, k=50, rng=Rng(5))
        b = select_panel(shuffled, targets, k=50, rng=Rng(5))
        assert a == b

    def test_insufficient_candidates(self):
        with pytest.raises(InputError):
            select_panel(["a", "b", "c"], ["a"], k=3, rng=Rng(0))

    def test_k_zero(self):
        assert select_panel(["a", "b"], ["a"], k=0, rng=Rng(0)) == []


class TestBuildGating:
    def make_post(self, s_n=4, t_n=3):
        q05 = Rng(6).child("q").uniform(0.1, 2.0, size=(s_n, t_n))
        return DeconvPosterior(
            w_mean=q05 * 2.0,
            w_q05=q05,
        )

    def test_rows_sum_to_cell_count(self):
        post = self.make_post()
        n = np.array([5.0, 12.0, 0.0, 33.0])
        sig = build_gating(post, n)
        assert np.max(np.abs(sig.g.sum(axis=1) - n)) < 1e-9

    def test_rejects_length_mismatch(self):
        post = self.make_post()
        with pytest.raises(InputError):
            build_gating(post, np.array([1.0, 2.0]))

    def test_rejects_negative_counts(self):
        post = self.make_post()
        with pytest.raises(InputError):
            build_gating(post, np.array([1.0, -2.0, 3.0, 4.0]))

    def test_gating_from_rows_matches(self):
        rows = np.array([[1.0, 3.0], [0.0, 2.0]])
        sig = gating_from_rows(rows)
        assert np.array_equal(sig.cell_count, np.array([4.0, 2.0]))
