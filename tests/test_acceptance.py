"""Acceptance gate: eight end-to-end checks, one PASS/FAIL line each.

Each test prints its verdict to the real stdout so the lines survive pytest
capture. The constructions are self-contained; tolerances and runtime budgets
are asserted inside each test.
"""

import json
import time

import numpy as np
import pytest

from duet.align import (
    TEMPERATURE,
    AlignModel,
    embed_expressions,
    embed_images,
    embed_with_tapes,
    head_backward,
    infonce_loss,
    train_align,
)
from duet.cli import main
from duet.core import Mlp, Rng, SgdState, fd_check
from duet.fuse import FuseAdapter, fuse_loss, fuse_predict_batch, train_fuse
from duet.metrics import log1p_transform, metrics
from duet.pipeline import PipelineConfig, run_pipeline
from duet.regress import (
    AnnealSchedule,
    lambda_at,
    reg_loss,
    train_regress,
)
from duet.retrieval import EmbeddingDB, RetrievalConfig, rebuild_db, retrieve, retrieve_spots
from duet.scprior import (
    NbSignatureModel,
    ScDataset,
    deconv_loss,
    deconvolve,
    fit_signatures,
    select_panel,
    signature_loss,
)
from duet.synth import SynthConfig, gen_sc, gen_spots
from duet.tsvio import read_matrix_tsv


@pytest.fixture
def report(capfd):
    """Verdict printer that bypasses capture so every run shows the line."""

    def _report(num: int, name: str, ok: bool, detail: str):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
        with capfd.disabled():
            print(f"\n{line}", flush=True)
        assert ok, line

    return _report


def _flat_mlp_grads(grads) -> np.ndarray:
    return np.concatenate([a.ravel() for a in grads])


def _spot_data(seed, **kw):
    cfg = SynthConfig(seed=seed, **kw)
    sc, truth = gen_sc(cfg)
    st, f_img, f_fm = gen_spots(cfg, truth)
    y = log1p_transform(st[:, truth.target_idx])
    return sc, truth, st, f_img, f_fm, truth.w_true, y


# ---------------------------------------------------------------------------
# 1. Finite-difference suite over every trained objective
# ---------------------------------------------------------------------------


def _fd_align(rng) -> float:
    model = AlignModel.init(6, 8, rng, embed_dim=4, hidden=7)
    x = rng.child("x").standard_normal((5, 6))
    expr = rng.child("e").standard_normal((5, 8))
    n_img = model.img_head.get_flat().size

    def f(flat):
        model.img_head.set_flat(flat[:n_img])
        model.gene_head.set_flat(flat[n_img:])
        v, vn, vt = embed_with_tapes(model.img_head, x)
        h, hn, ht = embed_with_tapes(model.gene_head, expr)
        loss, dv, dh = infonce_loss(v, h, TEMPERATURE)
        gi = head_backward(model.img_head, vt, v, vn, dv)
        gg = head_backward(model.gene_head, ht, h, hn, dh)
        return loss, np.concatenate([_flat_mlp_grads(gi), _flat_mlp_grads(gg)])

    p0 = np.concatenate([model.img_head.get_flat(), model.gene_head.get_flat()])
    return fd_check(f, p0)


def _fd_regress(rng) -> float:
    model = Mlp.init([5, 6, 3], rng.child("reg-init"))
    x = rng.child("x").standard_normal((4, 5))
    y = rng.child("y").standard_normal((4, 3))
    p_ret = rng.child("r").standard_normal((4, 3))
    n = x.shape[0]

    def f(flat):
        model.set_flat(flat)
        out, tape = model.forward(x)
        total = 0.0
        d_out = np.zeros_like(out)
        for s in range(n):
            l_s, g_s = reg_loss(out[s], y[s], p_ret[s], 0.7)
            total += l_s / n
            d_out[s] = g_s / n
        return total, _flat_mlp_grads(model.backward(tape, d_out))

    return fd_check(f, model.get_flat())


def _fd_fuse(rng) -> float:
    adapter = FuseAdapter.init(5, rng, hidden=6)
    adapter.mlp.set_flat(rng.child("p").standard_normal(
        adapter.mlp.get_flat().size) * 0.4)
    heldout = (
        rng.child("f").standard_normal((7, 5)),
        rng.child("a").standard_normal((7, 4)),
        rng.child("b").standard_normal((7, 4)),
        rng.child("y").standard_normal((7, 4)),
    )

    def f(flat):
        adapter.mlp.set_flat(flat)
        loss, grads = fuse_loss(adapter, heldout, 0.3)
        return loss, np.concatenate([g.ravel() for g in grads])

    return fd_check(f, adapter.mlp.get_flat())


def _fd_signature(rng) -> float:
    t_n, b_n, c_n, g_n = 2, 2, 6, 4
    counts = rng.child("c").poisson(3.0, size=(c_n, g_n)).astype(np.int64)
    data = ScDataset(counts=counts,
                     cell_type=np.arange(c_n) % t_n,
                     batch=np.arange(c_n) % b_n)
    shapes = [(t_n, g_n), (b_n, g_n), (c_n,), (g_n,)]
    base = [rng.child(k).standard_normal(s) * 0.3 + 0.5
            for k, s in zip("mu m l th".split(), shapes)]

    def f(flat):
        parts, off = [], 0
        for s in shapes:
            n = int(np.prod(s))
            parts.append(flat[off:off + n].reshape(s).copy())
            off += n
        parts[1][0] = 0.0  # reference batch row is pinned, not a free parameter
        model = NbSignatureModel(raw_mu=parts[0], batch_effect=parts[1],
                                 raw_cell_scale=parts[2], raw_dispersion=parts[3])
        loss, grads = signature_loss(model, data)
        return loss, np.concatenate([g.ravel() for g in grads])

    p0 = np.concatenate([b.ravel() for b in base])
    return fd_check(f, p0)


def _fd_deconv(rng) -> float:
    s_n, t_n, g_n = 4, 3, 5
    y = rng.child("y").poisson(4.0, size=(s_n, g_n)).astype(np.float64)
    m_panel = rng.child("m").uniform(0.2, 2.0, size=(g_n, t_n))
    eps_w = rng.child("ew").standard_normal((s_n, t_n))
    eps_d = rng.child("ed").standard_normal(s_n)
    keys = ["w_loc", "w_logstd", "d_loc", "d_logstd", "raw_alpha"]
    shapes = [(s_n, t_n), (s_n, t_n), (s_n,), (s_n,), (g_n,)]
    base = {k: rng.child(k).standard_normal(s) * 0.3 for k, s in zip(keys, shapes)}
    base["raw_alpha"] += 0.5

    def f(flat):
        params, off = {}, 0
        for k, s in zip(keys, shapes):
            n = int(np.prod(s))
            params[k] = flat[off:off + n].reshape(s).copy()
            off += n
        loss, grads = deconv_loss(params, y, m_panel, eps_w, eps_d)
        return loss, np.concatenate([grads[k].ravel() for k in keys])

    p0 = np.concatenate([base[k].ravel() for k in keys])
    return fd_check(f, p0)


def test_criterion_1_gradient_suite(report):
    t0 = time.perf_counter()
    rng = Rng(11)
    mlp_paths = {
        "contrastive": _fd_align(rng.child("align")),
        "regression": _fd_regress(rng.child("reg")),
        "fusion": _fd_fuse(rng.child("fuse")),
    }
    count_models = {
        "signature": _fd_signature(rng.child("sig")),
        "abundance": _fd_deconv(rng.child("dec")),
    }
    elapsed = time.perf_counter() - t0
    worst_mlp = max(mlp_paths.values())
    worst_all = max(worst_mlp, max(count_models.values()))
    ok = worst_mlp < 1e-4 and worst_all < 1e-3 and elapsed < 60
    detail = (f"max rel err {worst_all:.2e} (mlp-only {worst_mlp:.2e}), "
              f"{elapsed:.1f}s; " +
              ", ".join(f"{k} {v:.1e}" for k, v in
                        {**mlp_paths, **count_models}.items()))
    report(1, "gradient suite", ok, detail)


# ---------------------------------------------------------------------------
# 2. Anneal exactness
# ---------------------------------------------------------------------------


def test_criterion_2_anneal_exactness(report):
    sched = AnnealSchedule(lambda0=1.0, decay_epochs=30)
    vals = [lambda_at(sched, e) for e in range(31)]
    ok = (
        vals[0] == 1.0
        and vals[15] == 0.5
        and lambda_at(sched, 30) == 0.0
        and lambda_at(sched, 31) == 0.0
        and lambda_at(sched, 10**6) == 0.0
        and all(a >= b for a, b in zip(vals, vals[1:]))
    )
    report(2, "anneal exactness", ok,
            "start 1.0, midpoint 0.5, tail 0.0, monotone on the decay window")


# ---------------------------------------------------------------------------
# 3. Retrieval matches a literal brute-force oracle
# ---------------------------------------------------------------------------


def _brute_force(db, v, g_s, cfg):
    n = db.size
    phi = np.array([float(np.dot(db.h[j], v)) for j in range(n)])
    sim = np.zeros(n)
    passed = np.zeros(n, dtype=bool)
    ts = float(np.sum(g_s))
    ns = float(np.linalg.norm(g_s))
    for j in range(n):
        gj = db.gating[j]
        tj = float(np.sum(gj))
        denom = max(ts, tj)
        dev = 0.0 if denom == 0.0 else abs(ts - tj) / denom
        nj = float(np.linalg.norm(gj))
        cos = 0.0 if ns == 0.0 or nj == 0.0 else float(np.dot(g_s, gj) / (ns * nj))
        sim[j] = cos
        passed[j] = (dev <= cfg.tau_c) and (cos >= cfg.tau_p)
    r = (1.0 - cfg.beta) * phi + cfg.beta * sim
    if passed.any():
        pool = [j for j in range(n) if passed[j]]
        pool.sort(key=lambda j: (-r[j], j))
        kept = pool[: cfg.top_k]
    else:
        pool = sorted(range(n), key=lambda j: (-phi[j], j))
        kept = pool[: cfg.top_k]
        kept.sort(key=lambda j: (-r[j], j))
    z = np.array([r[j] for j in kept]) / cfg.softmax_temp
    w = np.exp(z - z.max())
    w = w / w.sum()
    return w @ db.expressions[kept], [db.spot_ids[j] for j in kept], w


def test_criterion_3_retrieval_oracle(report):
    t0 = time.perf_counter()
    n, d, g_dim, t_dim = 300, 8, 12, 4
    rng = Rng(42)
    h = rng.child("h").standard_normal((n, d))
    for i in range(0, n - 1, 9):  # duplicated rows force exact score ties
        h[i + 1] = h[i]
    h = h / np.linalg.norm(h, axis=1, keepdims=True)
    expr = rng.child("e").uniform(0.0, 4.0, size=(n, g_dim))
    gating = rng.child("g").uniform(0.0, 10.0, size=(n, t_dim))
    gating[::17] = 0.0
    db = EmbeddingDB(h=h, expressions=expr, gating=gating,
                     spot_ids=[f"s{i:04d}" for i in range(n)])
    cfg = RetrievalConfig(n_candidates=n, top_k=25, tau_c=0.5, tau_p=0.3,
                          beta=0.3, softmax_temp=0.7)

    mismatches = 0
    worst = 0.0
    for q in range(100):
        qr = rng.child("q", q)
        v = qr.child("v").standard_normal(d)
        v = v / np.linalg.norm(v)
        g_s = qr.child("g").uniform(0.0, 10.0, size=t_dim)
        if q % 10 == 0:
            g_s = np.zeros(t_dim)
        got = retrieve(db, v, g_s, cfg)
        want_p, want_ids, want_w = _brute_force(db, v, g_s, cfg)
        # kept ids (tie order included) must agree exactly; the float outputs
        # are compared at 1e-12 because the index scores candidates with one
        # batched matvec while the oracle loops over np.dot, and those two
        # summation orders can differ in the final ulp
        num = max(float(np.max(np.abs(got.weights - want_w))),
                  float(np.max(np.abs(got.p_ret - want_p))))
        worst = max(worst, num)
        same = got.kept_ids == want_ids and num < 1e-12
        mismatches += 0 if same else 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10
    report(3, "retrieval oracle", ok,
            f"100 queries against a 300-entry index, {mismatches} rank "
            f"mismatches, max numeric gap {worst:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Deconvolution recovery
# ---------------------------------------------------------------------------


def test_criterion_4_deconvolution_recovery(report):
    t0 = time.perf_counter()
    sc, truth, st, _, _, _, _ = _spot_data(
        7, n_types=5, n_genes=140, n_target_genes=30, n_cells_per_type=200,
        n_spots=50, n_batches=2, reads_per_spot=5000)
    props_true = truth.w_true / truth.w_true.sum(axis=1, keepdims=True)
    rng = Rng(7)
    signature = fit_signatures(sc, 150, lr=0.2).signature()
    panel = select_panel(truth.gene_names, truth.target_genes, k=100,
                         rng=rng.child("panel"))
    pos = {g: i for i, g in enumerate(truth.gene_names)}
    pidx = np.array([pos[g] for g in panel])
    post = deconvolve(st[:, pidx], signature[pidx], 3000, rng.child("vi"),
                      lr=0.3)
    mae = float(np.mean(np.abs(post.proportions() - props_true)))
    elapsed = time.perf_counter() - t0
    ok = mae < 0.05 and elapsed < 300
    report(4, "deconvolution recovery", ok,
            f"5 types, 100 panel genes, 50 spots, 5000 reads, seed 7: "
            f"proportion MAE {mae:.4f} (< 0.05), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. End-to-end dual-branch fusion gain
# ---------------------------------------------------------------------------


def test_criterion_5_fusion_gain(report):
    t0 = time.perf_counter()
    _, truth, st, f_img, f_fm, g, y = _spot_data(
        0, n_types=4, n_genes=200, n_target_genes=40, n_cells_per_type=50,
        n_spots=400, feature_dim=48, feature_noise_std=0.05)
    tr = np.arange(0, 200)
    fu = np.arange(200, 300)
    te = np.arange(300, 400)
    # retrieval gets exact database matches only where feature 0 is high, so
    # each branch dominates on one half of the held-out spots
    in_a = f_fm[:, 0] > np.median(f_fm[:, 0])

    rng = Rng(0)
    align = train_align(
        f_img[tr], y[tr],
        60, SgdState(lr=0.05), rng.child("align"),
        batch_size=128, embed_dim=16, hidden=32)

    cover = tr[:40]  # sparse coverage keeps plain retrieval mediocre
    extra = np.concatenate([fu[in_a[fu]], te[in_a[te]]])
    db_idx = np.concatenate([cover, extra])
    db = rebuild_db(align, y[db_idx], g[db_idx], [f"s{i}" for i in db_idx])

    reg = train_regress(
        f_fm[tr], y[tr], None, AnnealSchedule(lambda0=0.0, decay_epochs=1),
        300, SgdState(lr=0.03), rng.child("reg"),
        model=Mlp.init([48, 128, 128, 40], rng.child("reg-init", "reg-init")))

    rcfg = RetrievalConfig(n_candidates=db.size, top_k=5, tau_c=0.5, tau_p=0.3,
                           beta=0.6, softmax_temp=0.03)

    def branches(sub):
        q = embed_images(align, f_img[sub])
        y_ret = np.stack([retrieve(db, q[k], g[s], rcfg).p_ret
                          for k, s in enumerate(sub)])
        return y_ret, reg.forward(f_fm[sub])[0]

    yr_fu, yg_fu = branches(fu)
    yr_te, yg_te = branches(te)

    adapter = FuseAdapter.init(48, rng.child("fuse"), hidden=16)
    train_fuse(adapter, (f_fm[fu], yr_fu, yg_fu, y[fu]), 3000, SgdState(lr=0.02), 0.1)
    yd_te, _ = fuse_predict_batch(adapter, f_fm[te], yr_te, yg_te)

    m_ret = metrics(yr_te, y[te]).mse
    m_reg = metrics(yg_te, y[te]).mse
    m_duet = metrics(yd_te, y[te]).mse
    m_half = metrics(0.5 * (yr_te + yg_te), y[te]).mse
    a_mask = in_a[te]
    m_ret_a = metrics(yr_te[a_mask], y[te][a_mask]).mse
    m_reg_a = metrics(yg_te[a_mask], y[te][a_mask]).mse
    m_ret_b = metrics(yr_te[~a_mask], y[te][~a_mask]).mse
    m_reg_b = metrics(yg_te[~a_mask], y[te][~a_mask]).mse
    elapsed = time.perf_counter() - t0

    regimes = m_ret_a < m_reg_a and m_reg_b < m_ret_b
    ok = (m_duet <= 1.05 * min(m_ret, m_reg)
          and m_duet <= 1.01 * m_half
          and regimes
          and elapsed < 600)
    report(5, "dual-branch fusion gain", ok,
            f"test MSE fused {m_duet:.4f} vs retrieval {m_ret:.4f} / "
            f"regression {m_reg:.4f} / fixed-half {m_half:.4f}; "
            f"A: {m_ret_a:.2f} vs {m_reg_a:.2f}, B: {m_ret_b:.2f} vs "
            f"{m_reg_b:.2f}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Ablation directions over three seeds
# ---------------------------------------------------------------------------


def _gating_ablation(seed):
    _, truth, st, f_img, f_fm, g, y = _spot_data(
        seed, n_types=4, n_genes=200, n_target_genes=40, n_cells_per_type=50,
        n_spots=160, feature_dim=32, feature_noise_std=0.1)
    tr = np.arange(0, 100)
    te = np.arange(100, 160)
    rng = Rng(seed)
    align = train_align(
        f_img[tr], y[tr],
        20, SgdState(lr=0.05), rng.child("align"),
        batch_size=128, embed_dim=16, hidden=32)
    q = embed_images(align, f_img[te])
    h_tr = embed_expressions(align, y[tr])

    # decoys: query-identical embeddings that carry the expression and gating
    # of the train spot with the least similar composition
    gn = g / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-12)
    z = tr[np.argmin(gn[te] @ gn[tr].T, axis=1)]
    db = EmbeddingDB(
        h=np.vstack([h_tr, q]),
        expressions=np.vstack([y[tr], y[z]]),
        gating=np.vstack([g[tr], g[z]]),
        spot_ids=[f"s{i}" for i in tr] + [f"decoy{k}" for k in range(len(te))])

    def run(tau_c, tau_p):
        cfg = RetrievalConfig(n_candidates=db.size, top_k=5, tau_c=tau_c,
                              tau_p=tau_p, beta=0.3, softmax_temp=0.1)
        rows = [retrieve(db, q[k], g[s], cfg).p_ret for k, s in enumerate(te)]
        return metrics(np.stack(rows), y[te]).mse

    return run(0.5, 0.3), run(1.0, -1.0)


def _consistency_ablation(seed):
    _, truth, st, f_img, f_fm, g, y = _spot_data(
        seed, n_types=4, n_genes=200, n_target_genes=40, n_cells_per_type=50,
        n_spots=300, feature_dim=32, feature_noise_std=0.05)
    tr = np.arange(0, 150)
    te = np.arange(150, 300)
    rng = Rng(seed)
    # degrade the regression inputs so the retrieval signal carries real
    # information the regressor cannot reach on its own
    f_fm = f_fm + 0.4 * rng.child("fm-extra").standard_normal(f_fm.shape)

    align = train_align(
        f_img[tr], y[tr],
        30, SgdState(lr=0.05), rng.child("align"),
        batch_size=128, embed_dim=16, hidden=32)
    p_ret = retrieve_spots(
        align, rebuild_db(align, y[tr], g[tr], [f"s{i}" for i in tr]), f_img[tr], g[tr],
        RetrievalConfig(n_candidates=150, top_k=5, tau_c=0.5, tau_p=0.3,
                        beta=0.3, softmax_temp=0.1))

    def fit(lambda0):
        model = Mlp.init([32, 64, 64, 40], Rng(seed).child("reg-init", "reg-init"))
        return train_regress(
            f_fm[tr], y[tr], p_ret,
            AnnealSchedule(lambda0=lambda0, decay_epochs=40),
            60, SgdState(lr=0.03), Rng(seed).child("reg"), model=model)

    m_on = metrics(fit(1.0).forward(f_fm[te])[0], y[te]).mse
    m_off = metrics(fit(0.0).forward(f_fm[te])[0], y[te]).mse
    return m_on, m_off


def test_criterion_6_ablation_directions(report):
    t0 = time.perf_counter()
    tie_band = 0.005
    gate_rows, cons_rows = [], []
    gate_ok = cons_ok = True
    for seed in (0, 1, 2):
        m_on, m_off = _gating_ablation(seed)
        gate_ok &= m_off >= m_on * (1 - tie_band)
        gate_rows.append(f"{m_on:.3f}->{m_off:.3f}")
        m_on, m_off = _consistency_ablation(seed)
        cons_ok &= m_off >= m_on * (1 - tie_band)
        cons_rows.append(f"{m_on:.3f}->{m_off:.3f}")
    elapsed = time.perf_counter() - t0
    ok = gate_ok and cons_ok
    report(6, "ablation directions", ok,
            f"retrieval MSE with gating disabled {gate_rows} and regression "
            f"MSE without the consistency term {cons_rows} never improve "
            f"beyond a {tie_band:.1%} tie band; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. Variance fidelity of the fused prediction
# ---------------------------------------------------------------------------


def test_criterion_7_variance_fidelity(report, tmp_path):
    t0 = time.perf_counter()

    def mad(ws, branch):
        m, _, _ = read_matrix_tsv(ws / f"variance_curve_{branch}.tsv")
        return float(np.mean(np.abs(m[:, 1] - m[:, 0])))

    duet_mads, reg_mads = [], []
    for seed in (0, 1, 2):
        ws = tmp_path / f"seed{seed}"
        run_pipeline(PipelineConfig(), seed, ws)
        duet_mads.append(mad(ws, "duet"))
        reg_mads.append(mad(ws, "reg"))
    mean_duet = float(np.mean(duet_mads))
    mean_reg = float(np.mean(reg_mads))
    elapsed = time.perf_counter() - t0
    ok = mean_duet <= mean_reg + 1e-12
    report(7, "variance fidelity", ok,
            f"normalized-variance curve MAD, mean of 3 seeds: fused "
            f"{mean_duet:.4f} <= regression {mean_reg:.4f} "
            f"(per seed {[f'{d:.3f}/{r:.3f}' for d, r in zip(duet_mads, reg_mads)]}); "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Pipeline determinism
# ---------------------------------------------------------------------------


def test_criterion_8_pipeline_determinism(report, tmp_path, monkeypatch):
    monkeypatch.delenv("DUET_SEED", raising=False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "synth": {"n_types": 3, "n_genes": 160, "n_target_genes": 40,
                  "n_cells_per_type": 60, "n_spots": 60, "feature_dim": 24},
        "train": {"sig_epochs": 40, "deconv_epochs": 80, "align_epochs": 10,
                  "reg_epochs": 12, "fuse_epochs": 40, "panel_size": 60,
                  "reg_hidden": [32, 32], "embed_dim": 16, "align_hidden": 32,
                  "fuse_hidden": 16},
        "anneal": {"lambda0": 1.0, "decay_epochs": 8},
        "retrieval": {"n_candidates": 30, "top_k": 10},
    }))
    a, b = tmp_path / "a", tmp_path / "b"
    code_a = main(["pipeline", "--config", str(cfg_path), "--seed", "7",
                   "--out", str(a)])
    code_b = main(["pipeline", "--config", str(cfg_path), "--seed", "7",
                   "--out", str(b)])

    names = sorted(p.name for p in a.iterdir())
    diffs = []
    for name in names:
        if name == "manifest.json":
            # the manifest carries wall-clock stage timestamps; compare it
            # with those stripped
            da = json.loads((a / name).read_text())
            db = json.loads((b / name).read_text())
            for doc in (da, db):
                for stage in doc["stages"].values():
                    stage.pop("completed_at")
            if da != db:
                diffs.append(name)
        elif (a / name).read_bytes() != (b / name).read_bytes():
            diffs.append(name)
    ok = (code_a == 0 and code_b == 0
          and names == sorted(p.name for p in b.iterdir())
          and not diffs)
    report(8, "pipeline determinism", ok,
            f"two seeded runs produced {len(names)} files with "
            f"{'no differences' if not diffs else 'diffs in ' + ', '.join(diffs)} "
            f"(manifest compared modulo timestamps)")
