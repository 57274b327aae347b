import numpy as np
import pytest

from duet.core import Rng
from duet.errors import InputError
from duet.pipeline import PipelineConfig
from duet.synth import SynthConfig, gen_sc, gen_spots, sample_nb_counts
from test_scprior import traced_peak


def expected_spot_expression(w: np.ndarray, mu_true: np.ndarray,
                             d: np.ndarray) -> np.ndarray:
    """Reference: mu_sg = d_s * sum_t w_st * M_gt with M_gt = mu_true[t, g]."""
    return d[:, None] * (w @ mu_true)


class TestConfig:
    def test_rejects_infeasible_panel(self):
        # 80 targets and the default 100-gene panel need 180 of the 150 genes
        with pytest.raises(InputError, match="'train.panel_size'"):
            PipelineConfig.from_dict({"synth": {"n_genes": 150, "n_target_genes": 80}})

    def test_rejects_more_targets_than_genes(self):
        # a direct SynthConfig has no panel rule to catch this
        with pytest.raises(InputError, match="'synth.n_target_genes' <= 'synth.n_genes'"):
            SynthConfig(n_genes=50, n_target_genes=80)
        SynthConfig(n_genes=50, n_target_genes=50)  # every gene a target is fine

    def test_rejects_bad_sizes(self):
        with pytest.raises(InputError):
            SynthConfig(n_types=0)
        with pytest.raises(InputError):
            SynthConfig(reads_per_spot=-5.0)


class TestGenSc:
    def test_single_batch_has_zero_effects(self):
        cfg = SynthConfig(n_batches=1, n_cells_per_type=5, n_spots=4, seed=3)
        _, truth = gen_sc(cfg)
        assert np.all(truth.batch_true == 0.0)

    def test_empirical_means_match_model(self):
        # law of large numbers on 10^4 cells per type, single batch
        cfg = SynthConfig(n_types=2, n_genes=150, n_target_genes=40,
                          n_cells_per_type=10_000, n_batches=1, seed=5)
        data, truth = gen_sc(cfg)
        for t in range(cfg.n_types):
            mask = data.cell_type == t
            emp = data.counts[mask].mean(axis=0)
            expect = truth.l_true[mask].mean() * truth.mu_true[t]
            rel = np.abs(emp - expect) / expect
            assert np.mean(rel < 0.05) > 0.95
            assert np.median(rel) < 0.02

    def test_same_seed_identical(self):
        cfg = SynthConfig(seed=11, n_cells_per_type=20)
        a, _ = gen_sc(cfg)
        b, _ = gen_sc(cfg)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.batch, b.batch)

    def test_dataset_passes_validation(self):
        cfg = SynthConfig(seed=2, n_cells_per_type=8)
        data, truth = gen_sc(cfg)
        assert data.n_types == cfg.n_types
        assert data.n_batches == cfg.n_batches
        assert np.all(truth.mu_true > 0)
        assert np.all(truth.theta_true >= 0.5) and np.all(truth.theta_true <= 5.0)


class TestGenSpots:
    def test_noiseless_features_are_linear_in_logexpr(self):
        cfg = SynthConfig(seed=7, feature_noise_std=0.0, n_spots=120,
                          n_cells_per_type=5)
        _, truth = gen_sc(cfg)
        _, f_img, f_fm = gen_spots(cfg, truth)
        logexpr = np.log1p(truth.mu_spot)
        for feats in (f_img, f_fm):
            coef, *_ = np.linalg.lstsq(logexpr, feats, rcond=None)
            resid = logexpr @ coef - feats
            assert np.max(np.abs(resid)) < 1e-8

    def test_one_hot_mixture_is_proportional_to_signature(self):
        mu_true = Rng(1).child("m").uniform(0.5, 4.0, size=(3, 10))
        w = np.zeros((2, 3))
        w[0, 1] = 7.0
        w[1, 2] = 3.0
        d = np.array([2.0, 0.5])
        mu = expected_spot_expression(w, mu_true, d)
        assert np.allclose(mu[0], 2.0 * 7.0 * mu_true[1])
        assert np.allclose(mu[1], 0.5 * 3.0 * mu_true[2])

    @pytest.mark.parametrize("reads", [None, 5000.0])
    def test_mu_spot_is_the_expected_expression(self, reads):
        cfg = SynthConfig(seed=11, reads_per_spot=reads, n_cells_per_type=5)
        _, truth = gen_sc(cfg)
        gen_spots(cfg, truth)
        expected = expected_spot_expression(truth.w_true, truth.mu_true, truth.d_true)
        assert np.array_equal(truth.mu_spot.view(np.uint64), expected.view(np.uint64))

    def test_monte_carlo_spot_mean(self):
        # replicate count draws for one fixed spot through the same sampler
        cfg = SynthConfig(seed=9, n_spots=6, n_cells_per_type=5)
        _, truth = gen_sc(cfg)
        gen_spots(cfg, truth)
        mu = truth.mu_spot[2]
        rng = Rng(77)
        reps = np.stack([
            sample_nb_counts(rng.child("rep", i), mu, truth.alpha_true)
            for i in range(10_000)
        ])
        emp = reps.mean(axis=0)
        rel = np.abs(emp - mu) / mu
        assert np.mean(rel < 0.05) > 0.95

    def test_reads_per_spot_sets_efficiency(self):
        cfg = SynthConfig(seed=13, reads_per_spot=5000.0, n_cells_per_type=5)
        _, truth = gen_sc(cfg)
        gen_spots(cfg, truth)
        assert np.allclose(truth.mu_spot.sum(axis=1), 5000.0)

    def test_default_efficiency_is_one(self):
        cfg = SynthConfig(seed=13, n_cells_per_type=5)
        _, truth = gen_sc(cfg)
        gen_spots(cfg, truth)
        assert np.all(truth.d_true == 1.0)

    def test_gating_truth_rows_sum_to_cell_count(self):
        cfg = SynthConfig(seed=17, n_cells_per_type=5)
        _, truth = gen_sc(cfg)
        gen_spots(cfg, truth)
        assert np.max(np.abs(truth.w_true.sum(axis=1) - truth.n_true)) < 1e-9
        assert np.all(truth.n_true >= 5) and np.all(truth.n_true <= 50)

    def test_determinism_and_target_selection(self):
        cfg = SynthConfig(seed=19, n_cells_per_type=5)
        _, truth_a = gen_sc(cfg)
        counts_a, fa, _ = gen_spots(cfg, truth_a)
        _, truth_b = gen_sc(cfg)
        counts_b, fb, _ = gen_spots(cfg, truth_b)
        assert np.array_equal(counts_a, counts_b)
        assert np.array_equal(fa, fb)
        assert np.array_equal(truth_a.target_idx, truth_b.target_idx)
        assert len(truth_a.target_genes) == cfg.n_target_genes
        # targets really are the top-variance genes
        var = np.log1p(counts_a.astype(float)).var(axis=0)
        worst_target = var[truth_a.target_idx].min()
        rest = np.setdiff1d(np.arange(cfg.n_genes), truth_a.target_idx)
        assert worst_target >= var[rest].max() - 1e-12

    def test_truth_shape_mismatch_rejected(self):
        cfg = SynthConfig(seed=3, n_cells_per_type=5)
        _, truth = gen_sc(cfg)
        bad_cfg = SynthConfig(seed=3, n_types=cfg.n_types + 1,
                              n_cells_per_type=5)
        with pytest.raises(InputError):
            gen_spots(bad_cfg, truth)


class TestGenSpotsMemory:
    def test_peak_in_spot_by_gene_arrays(self):
        # mu_spot and the counts are outputs, and each step needs one more
        # (S, G) array: the gamma draw, log1p(mu_spot), then the log-count
        # deviations. The peak, 3.7 arrays, is reached twice with the same
        # named arrays live: mu_spot, the int64 counts and one temporary
        # (log1p(mu_spot) while features_fm is made, then the deviations),
        # plus features_img and features_fm, (S, 64) each, 0.29 of an array.
        # No numpy-internal temporary adds to it. Holding each temporary to
        # the end of the function peaked at 6.7
        cfg = SynthConfig(seed=4, n_spots=2000)
        _, truth = gen_sc(cfg)
        peak = traced_peak(lambda: gen_spots(cfg, truth))
        assert peak < 4 * cfg.n_spots * cfg.n_genes * 8
