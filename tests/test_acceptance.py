"""End-to-end acceptance suite.

Each test prints a single "criterion N (...): PASS/FAIL" line before
asserting, so a plain ``pytest -s tests/test_acceptance.py`` reads as a
checklist.  Configurations (seeds, replicate counts, tolerances) are frozen;
see the repository notes for how the statistical ones were chosen.
"""

import numpy as np
import pytest
from dataclasses import replace

from corrls import (
    AdditiveNoise,
    CorrectedMoments,
    MissingNoise,
    SimConfig,
    SolverOptions,
    SurrogateDataset,
    ar1_covariance,
    column_norm_error,
    corrected_loss,
    corrected_moments,
    cs_post_fit,
    cs_screen,
    false_positives,
    gen_beta0,
    gen_graph_data,
    gen_regression,
    generate_band_precision,
    l1_cls_fit,
    post_cls_fit,
    project_l1_ball,
    ree,
    sample_gaussian,
    support,
)
from corrls._rng import substream
from corrls.post import (
    cross_validate,
    default_an_grid,
    default_lambda_grid,
    with_estimated_missing_rates,
)
from corrls.precision import NeighborhoodFit, assemble_precision, estimate_precision


def _verdict(num, name, ok):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# -- 1: correction unbiasedness ------------------------------------------------

def test_c1_correction_unbiasedness():
    n, p, reps = 4000, 10, 50
    sigma_x = ar1_covariance(p, 0.5)
    # modest signal norm keeps the Monte-Carlo sd of the gamma-vector mean
    # well inside the 0.05 envelope at 50 replicates
    beta0 = np.zeros(p)
    beta0[:3] = [1.0, -1.5, 2.0]
    target = sigma_x @ beta0
    sigma_w = ar1_covariance(p, 0.5, 0.25)
    rho = np.full(p, 0.5)

    sums = {"add_G": 0.0, "add_g": 0.0, "miss_G": 0.0, "miss_g": 0.0}
    for r in range(reps):
        X = sample_gaussian(n, sigma_x, seed=int(substream(10, "c1x", r).integers(2**31)))
        eps = substream(10, "c1e", r).normal(0.0, 0.25, n)
        y = X @ beta0 + eps
        W = sample_gaussian(n, sigma_w, seed=int(substream(10, "c1w", r).integers(2**31)))
        m = corrected_moments(SurrogateDataset(Z=X + W, y=y, noise=AdditiveNoise(sigma_w)))
        sums["add_G"] += m.gamma_mat
        sums["add_g"] += m.gamma_vec
        mask = substream(10, "c1m", r).random((n, p)) >= rho
        m = corrected_moments(SurrogateDataset(Z=np.where(mask, X, 0.0), y=y,
                                               noise=MissingNoise(rho), mask=mask))
        sums["miss_G"] += m.gamma_mat
        sums["miss_g"] += m.gamma_vec

    errs = [np.max(np.abs(sums["add_G"] / reps - sigma_x)),
            np.max(np.abs(sums["add_g"] / reps - target)),
            np.max(np.abs(sums["miss_G"] / reps - sigma_x)),
            np.max(np.abs(sums["miss_g"] / reps - target))]
    _verdict(1, "correction unbiasedness", max(errs) <= 0.05)


# -- 2: solver oracle equivalence ----------------------------------------------

def _multistart_oracle(m, opts, rng, starts=100):
    best = np.inf
    for _ in range(starts):
        b0 = project_l1_ball(rng.uniform(-opts.radius, opts.radius, m.p), opts.radius)
        f = l1_cls_fit(m, opts, beta0=b0)
        best = min(best, f.objective)
    return best


def test_c2_solver_oracle_equivalence():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(20):
        p = int(rng.integers(3, 7))
        A = rng.standard_normal((p, p))
        m = CorrectedMoments(gamma_mat=A @ A.T + 0.5 * np.eye(p),
                             gamma_vec=rng.standard_normal(p), n=100, p=p)
        opts = SolverOptions(radius=2.0, lam=0.1)
        fit = l1_cls_fit(m, opts)
        oracle = _multistart_oracle(m, opts, rng)
        # local grid refinement around the solver's own point
        for j in range(p):
            for v in np.linspace(fit.beta[j] - 0.05, fit.beta[j] + 0.05, 41):
                b = fit.beta.copy()
                b[j] = v
                b = project_l1_ball(b, opts.radius)
                oracle = min(oracle, corrected_loss(b, m) + 0.1 * np.abs(b).sum())
        ok &= fit.objective <= oracle + 1e-3

        T = sorted(rng.choice(p, size=2, replace=False).tolist())
        post = post_cls_fit(m, T, opts)
        best = np.inf
        c = post.beta[T]
        for a in np.linspace(c[0] - 0.5, c[0] + 0.5, 81):
            for b_ in np.linspace(c[1] - 0.5, c[1] + 0.5, 81):
                beta = np.zeros(p)
                beta[T] = [a, b_]
                best = min(best, corrected_loss(beta, m))
        ok &= post.objective <= best + 1e-3
    _verdict(2, "solver oracle equivalence", ok)


# -- 3: noiseless exactness ----------------------------------------------------

def test_c3_noiseless_exactness():
    rng = np.random.default_rng(3)
    n, p, s = 60, 12, 4
    X = rng.standard_normal((n, p))
    beta0 = np.zeros(p)
    beta0[:s] = [2.5, -1.0, 3.0, -2.0]
    data = SurrogateDataset(Z=X, y=X @ beta0, noise=AdditiveNoise(np.zeros((p, p))))
    fit_add = post_cls_fit(corrected_moments(data), range(s), SolverOptions(radius=20.0))

    mask = np.ones((n, p), dtype=bool)
    data_m = SurrogateDataset(Z=X, y=X @ beta0, noise=MissingNoise(np.zeros(p)), mask=mask)
    fit_miss = post_cls_fit(corrected_moments(data_m), range(s), SolverOptions(radius=20.0))

    ok = (np.linalg.norm(fit_add.beta - beta0) <= 1e-10
          and np.linalg.norm(fit_miss.beta - beta0) <= 1e-10)
    _verdict(3, "noiseless exactness", ok)


# -- 4: screening recovery -----------------------------------------------------

def test_c4_screening_recovery():
    n, p, s, a_n = 500, 200, 4, 8
    hits, fp_exact = 0, True
    for r in range(100):
        seed = int(substream(321, "c4", r).integers(0, 2**63))
        data, beta0, T = gen_regression(SimConfig(n=n, p=p, s=s,
                                                  noise_kind="additive", seed=seed))
        sel = cs_screen(corrected_moments(data).gamma_vec, a_n)
        S, Tset = set(sel.support), set(T)
        if Tset <= S:
            hits += 1
            # with the truth fully captured the a_n-sized output leaves
            # exactly a_n - s slots for false positives
            fp_exact &= false_positives(S, Tset) == a_n - s
    _verdict(4, "screening recovery", hits >= 95 and fp_exact)


# -- 5: oracle-rate scaling ----------------------------------------------------

def test_c5_oracle_rate_scaling():
    # fixed model: one coefficient draw (strong signals) and one constant
    # missing rate, replicated data; a_n = s so stage one must capture the
    # support exactly for the sqrt(s/n) rate to show
    p, s, base_seed = 200, 4, 120
    beta0 = gen_beta0(p, s, base_seed)
    rho = np.full(p, 0.1)
    radius = 1.1 * np.abs(beta0).sum()
    means = {}
    for n in (200, 800):
        vals = []
        for r in range(100):
            seed = int(substream(base_seed, "rep", n, r).integers(0, 2**63))
            data, _, _ = gen_regression(
                SimConfig(n=n, p=p, s=s, noise_kind="missing", seed=seed),
                beta0=beta0, rho=rho)
            data = with_estimated_missing_rates(data)
            fit = cs_post_fit(corrected_moments(data), s, SolverOptions(radius=radius))
            vals.append(ree(fit.beta, beta0))
        means[n] = np.mean(vals)
    ratio = means[200] / means[800]
    print(f"\n  REE(n=200)={means[200]:.4f} REE(n=800)={means[800]:.4f} ratio={ratio:.3f}")
    _verdict(5, "oracle-rate scaling", 1.4 <= ratio <= 2.6)


# -- 6 & 7: comparative efficiency and selected-model size ---------------------

def _comparative_run(base_seed, reps=50):
    n, p, s = 500, 100, 4
    ree_cs, ree_l1, fp_cs, fp_l1, m_l1 = [], [], [], [], []
    for r in range(reps):
        seed = int(substream(base_seed, "c6", r).integers(0, 2**63))
        train, beta0, T = gen_regression(
            SimConfig(n=n, p=p, s=s, noise_kind="missing", seed=seed))
        tseed = int(substream(base_seed, "c6-test", r).integers(0, 2**63))
        test, _, _ = gen_regression(
            SimConfig(n=n, p=p, s=s, noise_kind="missing", seed=tseed),
            beta0=beta0, rho=train.noise.rho)
        train = with_estimated_missing_rates(train)
        test = with_estimated_missing_rates(test)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum(), max_iters=5000)

        a_n, _, _ = cross_validate(train, test, default_an_grid(n, p), "cs_post", opts)
        fit_cs = cs_post_fit(corrected_moments(train), int(a_n), opts)
        lam, _, _ = cross_validate(train, test, default_lambda_grid(), "l1cls", opts)
        fit_l1 = l1_cls_fit(corrected_moments(train), replace(opts, lam=float(lam)))

        Tset = set(T)
        S_l1 = set(support(fit_l1.beta))
        ree_cs.append(ree(fit_cs.beta, beta0))
        ree_l1.append(ree(fit_l1.beta, beta0))
        fp_cs.append(false_positives(fit_cs.support_used, Tset))
        fp_l1.append(false_positives(S_l1, Tset))
        m_l1.append(len(S_l1 - Tset))
    return (np.mean(ree_cs), np.mean(ree_l1), np.mean(fp_cs), np.mean(fp_l1),
            float(np.median(m_l1)))


@pytest.fixture(scope="module")
def comparative_results():
    return {bs: _comparative_run(bs) for bs in (2, 6, 8)}


def test_c6_comparative_efficiency(comparative_results):
    wins = 0
    for bs, (rc, rl, fc, fl, _) in comparative_results.items():
        win = rc <= rl and fc <= fl
        wins += win
        print(f"\n  base seed {bs}: REE {rc:.4f} vs {rl:.4f}, "
              f"FP {fc:.2f} vs {fl:.2f} -> {'win' if win else 'loss'}")
    _verdict(6, "comparative efficiency", wins >= 2)


def test_c7_selected_model_size(comparative_results):
    s = 4
    medians = [res[4] for res in comparative_results.values()]
    print(f"\n  median false-positive counts: {medians}")
    _verdict(7, "selected-model size bound", all(m <= 5 * s for m in medians))


# -- 8: precision pipeline -----------------------------------------------------

def test_c8_precision_pipeline():
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    fits = [NeighborhoodFit(theta=np.array([0.5]), support=(0,), fallback_used=False)
            for _ in range(2)]
    hand = assemble_precision(fits, sigma)
    expected = np.array([[4 / 3, -2 / 3], [-2 / 3, 4 / 3]])
    hand_ok = np.max(np.abs(hand.theta - expected)) <= 1e-10

    theta, sigma_b = generate_band_precision(50, 2)
    radius = 1.1 * np.abs(theta).sum(axis=1).max()
    means = []
    for n in (100, 200, 400):
        errs = []
        for r in range(20):
            seed = int(substream(777, "c8", n, r).integers(0, 2**63))
            data = gen_graph_data(sigma_b, n, 1.0, (0.05, 0.75), seed=seed)
            data = with_estimated_missing_rates(data)
            est = estimate_precision(data, 8, radius)
            errs.append(column_norm_error(est.theta, theta))
        means.append(np.mean(errs))
    print(f"\n  mean column-norm errors over n=100,200,400: {np.round(means, 3)}")
    _verdict(8, "precision pipeline", hand_ok and means[0] > means[1] > means[2])


# -- 9: determinism ------------------------------------------------------------

def test_c9_determinism(tmp_path):
    import json

    from corrls.cli import main

    grid = {"n_values": [80], "p_values": [20], "s_values": [2],
            "noise_kind": "missing", "replicates": 2, "base_seed": 99,
            "rho_range": [0.1, 0.3], "solver_max_iters": 1500}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))
    outs = []
    for i, workers in enumerate((1, 1, 4)):
        out = tmp_path / f"run{i}.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--workers", str(workers), "--no-timing"]) == 0
        outs.append(out.read_bytes())
    _verdict(9, "determinism", outs[0] == outs[1] == outs[2])
