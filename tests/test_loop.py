"""The one training loop (core.descend) and minibatch schedule
(core.minibatches) that the five fits run on, and the contract each fit
inherits from them: epochs < 0 is an InputError naming the fit, 0 epochs
leave the initial state, and a numeric failure reads
'<what> diverged at epoch <e>: <cause>'."""

import numpy as np
import pytest

from duet.align import AlignModel, train_align
from duet.core import Mlp, Rng, SgdState, descend, minibatches
from duet.errors import InputError, NumericError
from duet.fuse import FuseAdapter, train_fuse
from duet.regress import AnnealSchedule, train_regress
from duet.scprior import (
    PRIOR_Z05,
    ScDataset,
    _count_table,
    _init_signature_model,
    _initial_params,
    deconvolve,
    fit_signatures,
)

# ---------------------------------------------------------------------------
# minibatches, against the two schedules it replaced
# ---------------------------------------------------------------------------


def align_schedule(rng, epoch, n, batch_size):
    """train_align's former _epoch_batches over its shuffle permutation."""
    perm = rng.child("shuffle", epoch).permutation(n)
    if n < batch_size:
        return [perm]
    return [perm[start:start + batch_size]
            for start in range(0, n - batch_size + 1, batch_size)]


def regress_schedule(rng, epoch, n, batch_size):
    """train_regress's former inline stop/slice batching."""
    perm = rng.child("shuffle", epoch).permutation(n)
    stop = max(n // batch_size, 1) * batch_size if n >= batch_size else n
    return [perm[lo:lo + batch_size] for lo in range(0, stop, batch_size)]


class TestMinibatches:
    B = 8

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B, 3 * B + 5])
    def test_matches_both_former_schedules(self, n):
        rng = Rng(5)
        for epoch in range(4):
            got = minibatches(rng, epoch, n, self.B)
            for oracle in (align_schedule, regress_schedule):
                want = oracle(rng, epoch, n, self.B)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
            rows = np.concatenate(got)
            assert len(np.unique(rows)) == len(rows)  # no row twice in an epoch
            if n < self.B:
                assert len(got) == 1 and sorted(got[0]) == list(range(n))
            else:
                assert all(len(b) == self.B for b in got)
                assert len(rows) == n - n % self.B


# ---------------------------------------------------------------------------
# descend on its own
# ---------------------------------------------------------------------------


class TestDescend:
    def test_steps_each_yield_and_resumes_after_the_step(self):
        p = np.array([1.0])
        opt = SgdState(lr=0.5, momentum=0.0, weight_decay=0.0)
        seen = []

        def batches(epoch):
            for _ in range(2):
                yield float(p[0]), [np.array([1.0])]
                seen.append((epoch, float(p[0])))

        trace = descend(opt, [p], 2, batches, "toy")
        assert trace == [1.0, 0.5, 0.0, -0.5]
        assert seen == [(0, 0.5), (0, 0.0), (1, -0.5), (1, -1.0)]

    def test_non_finite_loss_names_fit_and_epoch(self):
        p = np.array([1.0])

        def batches(epoch):
            yield (np.nan if epoch == 2 else 1.0), [np.zeros(1)]

        with pytest.raises(NumericError,
                           match=r"^toy diverged at epoch 2: non-finite loss nan$"):
            descend(SgdState(lr=0.1), [p], 5, batches, "toy")


# ---------------------------------------------------------------------------
# the five fits
# ---------------------------------------------------------------------------


def sc_data():
    rng = Rng(3)
    types = np.arange(40) % 2
    rates = rng.child("mu").uniform(1.0, 6.0, size=(2, 8))
    counts = rng.child("x").poisson(rates[types])
    return ScDataset(counts=counts, cell_type=types, batch=(np.arange(40) // 2) % 2)


def deconv_inputs():
    rng = Rng(4)
    m_panel = rng.child("sig").uniform(0.5, 4.0, size=(12, 3))
    w = rng.child("w").uniform(1.0, 10.0, size=(20, 3))
    return rng.child("y").poisson(w @ m_panel.T), m_panel


def paired_rows(seed, n=30):
    rng = Rng(seed)
    return rng.child("x").standard_normal((n, 5)), rng.child("y").standard_normal((n, 4))


def run_signatures(epochs, lr=0.2):
    data = sc_data()
    model = fit_signatures(data, epochs, lr=lr)
    init = _init_signature_model(data)
    return init.param_arrays(), model.param_arrays(), model.fit_trace


def run_deconvolve(epochs, lr=0.1):
    y, m_panel = deconv_inputs()
    post = deconvolve(y, m_panel, epochs, Rng(5), lr=lr)
    start = _initial_params(_count_table(y), m_panel)  # the closed-form start
    loc, sd = start["w_loc"], np.exp(start["w_logstd"])
    init = [np.exp(loc + 0.5 * sd**2), np.exp(loc + sd * PRIOR_Z05)]
    return init, [post.w_mean, post.w_q05], post.fit_trace


def run_align(epochs, lr=0.05):
    x, y = paired_rows(6)
    model = train_align(x, np.log1p(np.abs(y)), epochs, SgdState(lr=lr), Rng(7),
                        batch_size=8, embed_dim=4, hidden=8)
    fresh = AlignModel.init(5, 4, Rng(7).child("init"), embed_dim=4, hidden=8)
    return ([fresh.img_head.get_flat(), fresh.gene_head.get_flat()],
            [model.img_head.get_flat(), model.gene_head.get_flat()], None)


def run_regress(epochs, lr=0.01):
    x, y = paired_rows(8)
    model = Mlp.init([5, 8, 4], Rng(9))
    before = model.get_flat().copy()
    train_regress(x, y, None, AnnealSchedule(lambda0=0.0), epochs,
                  SgdState(lr=lr), Rng(10), model, batch_size=8)
    return [before], [model.get_flat()], None


def run_fuse(epochs, lr=0.1, nan=False):
    rng = Rng(11)
    f = rng.child("f").standard_normal((20, 5))
    y_ret, y_reg, y = (rng.child(k).standard_normal((20, 4)) for k in ("ret", "reg", "y"))
    if nan:
        y[3, 1] = np.nan
    adapter = FuseAdapter.init(5, rng.child("init"), hidden=4)
    before = adapter.mlp.get_flat().copy()
    train_fuse(adapter, (f, y_ret, y_reg, y), epochs, SgdState(lr=lr), 1.0)
    return [before], [adapter.mlp.get_flat()], None


# (runner, the name its errors carry, how to drive it to a numeric failure);
# the fusion adapter saturates in its tanh clip rather than diverge at any lr,
# so a NaN held-out target drives it
FITS = [
    (run_signatures, "signature fit", {"lr": 1e8}),
    (run_deconvolve, "deconvolution", {"lr": 1e8}),
    (run_align, "alignment training", {"lr": 1e12}),
    (run_regress, "regression training", {"lr": 1e12}),
    (run_fuse, "fusion training", {"nan": True}),
]
IDS = [what for _, what, _ in FITS]


@pytest.mark.parametrize("run, what, hot", FITS, ids=IDS)
def test_numeric_failure_names_fit_and_epoch(run, what, hot):
    with pytest.raises(NumericError, match=rf"^{what} diverged at epoch \d+: "):
        run(10, **hot)


@pytest.mark.parametrize("run, what, hot", FITS, ids=IDS)
def test_negative_epochs_name_the_fit(run, what, hot):
    with pytest.raises(InputError, match=rf"^{what} needs epochs >= 0, got -1$"):
        run(-1)


@pytest.mark.parametrize("run, what, hot", FITS, ids=IDS)
def test_zero_epochs_return_the_initial_state(run, what, hot):
    init, got, trace = run(0)
    assert len(init) == len(got)
    for a, b in zip(init, got):
        assert np.array_equal(a, b)
    assert trace in (None, [])


@pytest.mark.parametrize("run, what, hot", FITS, ids=IDS)
def test_one_epoch_moves_the_state(run, what, hot):
    # the zero-epoch check above is not vacuous: a single epoch changes it
    init, got, _ = run(1)
    assert any(not np.array_equal(a, b) for a, b in zip(init, got))
