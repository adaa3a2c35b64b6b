from dataclasses import replace

import numpy as np
import pytest

import corrls.selection
from corrls import (
    AdditiveNoise,
    CorrectedMoments,
    MissingNoise,
    SolverOptions,
    SurrogateDataset,
    corrected_loss,
    corrected_moments,
    cross_validate,
    cs_post_fit,
    lasso_fit,
    l1_cls_fit,
    post_cls_fit,
)
from corrls.post import default_an_grid, default_lambda_grid, with_estimated_missing_rates
from corrls.simulate import SimConfig, ar1_covariance, gen_regression


def _m(G, g, n=100):
    return CorrectedMoments(gamma_mat=np.asarray(G, float),
                            gamma_vec=np.asarray(g, float), n=n, p=len(g))


OPTS = SolverOptions(radius=10.0)


class TestPostClsFit:
    def test_identity_subblock(self):
        fit = post_cls_fit(_m(np.eye(3), [1.0, 2.0, 3.0]), [0, 2], OPTS)
        assert np.allclose(fit.beta, [1.0, 0.0, 3.0])
        assert not fit.fallback_used

    def test_exact_zeros_off_support(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 6))
        fit = post_cls_fit(_m(A @ A.T + np.eye(6), rng.standard_normal(6)),
                           [1, 4], OPTS)
        off = [j for j in range(6) if j not in (1, 4)]
        assert all(fit.beta[j] == 0.0 for j in off)

    def test_stationarity_residual(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 5))
        m = _m(A @ A.T + np.eye(5), rng.standard_normal(5))
        T = [0, 2, 3]
        fit = post_cls_fit(m, T, OPTS)
        res = m.gamma_mat[np.ix_(T, T)] @ fit.beta[T] - m.gamma_vec[T]
        assert np.max(np.abs(res)) <= 1e-8 * max(1.0, np.max(np.abs(m.gamma_vec[T])))

    def test_objective_equals_corrected_loss(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        m = _m(A @ A.T + np.eye(4), rng.standard_normal(4))
        fit = post_cls_fit(m, [0, 1], OPTS)
        assert abs(fit.objective - corrected_loss(fit.beta, m)) <= 1e-10

    def test_noiseless_reduction_exact(self):
        rng = np.random.default_rng(3)
        n, p, s = 40, 8, 3
        X = rng.standard_normal((n, p))
        beta0 = np.zeros(p)
        beta0[:s] = [2.0, -1.5, 3.0]
        y = X @ beta0
        data = SurrogateDataset(Z=X, y=y, noise=AdditiveNoise(np.zeros((p, p))))
        fit = post_cls_fit(corrected_moments(data), range(s), OPTS)
        assert np.linalg.norm(fit.beta - beta0) <= 1e-10

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 6))
        m = _m(A @ A.T + 0.5 * np.eye(6), rng.standard_normal(6))
        T = [1, 3]
        fit = post_cls_fit(m, T, OPTS)
        center = fit.beta[T]
        best = np.inf
        for a in np.linspace(center[0] - 0.5, center[0] + 0.5, 101):
            for b in np.linspace(center[1] - 0.5, center[1] + 0.5, 101):
                beta = np.zeros(6)
                beta[T] = [a, b]
                best = min(best, corrected_loss(beta, m))
        assert fit.objective <= best + 1e-3

    def test_singular_psd_uses_pseudoinverse(self):
        v = np.array([1.0, 1.0])
        G = np.outer(v, v)  # rank one, PSD
        fit = post_cls_fit(_m(G, v), [0, 1], OPTS)
        assert fit.fallback_used
        assert np.all(np.isfinite(fit.beta))

    def test_indefinite_subblock_falls_back_to_projected_gradient(self):
        G = np.diag([1.0, -1.0])
        fit = post_cls_fit(_m(G, [0.5, 0.2]), [0, 1], SolverOptions(radius=2.0))
        assert fit.fallback_used
        assert np.abs(fit.beta).sum() <= 2.0 + 1e-10

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="empty support"):
            post_cls_fit(_m(np.eye(2), [1.0, 1.0]), [], OPTS)

    def test_oversized_support_warns(self):
        m = _m(np.eye(3), [1.0, 1.0, 1.0], n=2)
        with pytest.warns(UserWarning):
            post_cls_fit(m, [0, 1, 2], OPTS)


class TestLassoFit:
    def test_equals_l1cls_when_sigma_w_zero(self):
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        data = SurrogateDataset(Z=Z, y=y, noise=AdditiveNoise(np.zeros((5, 5))))
        opts = SolverOptions(radius=5.0)
        a = lasso_fit(data, 0.2, opts)
        from dataclasses import replace

        b = l1_cls_fit(corrected_moments(data), replace(opts, lam=0.2))
        assert np.allclose(a.beta, b.beta, atol=1e-10)

    def test_lambda_zero_gives_least_squares(self):
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((60, 4))
        y = rng.standard_normal(60)
        data = SurrogateDataset(Z=Z, y=y, noise=AdditiveNoise(np.zeros((4, 4))))
        target, *_ = np.linalg.lstsq(Z, y, rcond=None)
        fit = lasso_fit(data, 0.0, SolverOptions(radius=50.0, rel_tol=1e-12))
        assert np.linalg.norm(fit.beta - target) < 1e-4

    def test_huge_lambda_kills_everything(self):
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        data = SurrogateDataset(Z=Z, y=y, noise=AdditiveNoise(np.zeros((4, 4))))
        g = Z.T @ y / 30
        fit = lasso_fit(data, float(np.abs(g).max()) + 1.0, SolverOptions(radius=5.0))
        assert np.array_equal(fit.beta, np.zeros(4))


def _split_pair(seed, n=400, p=30, s=3):
    cfg = SimConfig(n=n, p=p, s=s, noise_kind="missing", seed=seed,
                    rho_range=(0.1, 0.3))
    train, beta0, T = gen_regression(cfg)
    test, _, _ = gen_regression(SimConfig(n=n, p=p, s=s, noise_kind="missing",
                                          seed=seed + 10_000, rho_range=(0.1, 0.3)),
                                beta0=beta0, rho=train.noise.rho)
    return (with_estimated_missing_rates(train),
            with_estimated_missing_rates(test), beta0, T)


class TestCrossValidate:
    def test_single_value_grid(self):
        train, test, beta0, _ = _split_pair(1)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        best, losses, _ = cross_validate(train, test, [4], "cs_post", opts)
        assert best == 4 and len(losses) == 1

    def test_an_within_grid_bounds(self):
        train, test, beta0, _ = _split_pair(2)
        grid = default_an_grid(train.n, train.p)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        best, _, _ = cross_validate(train, test, grid, "cs_post", opts)
        assert grid[0] <= best <= grid[-1]

    def test_deterministic_and_tie_to_smaller(self):
        train, test, beta0, _ = _split_pair(3)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        b1, l1, _ = cross_validate(train, test, [2, 3, 4, 5], "cs_post", opts)
        b2, l2, _ = cross_validate(train, test, [2, 3, 4, 5], "cs_post", opts)
        assert b1 == b2 and l1 == l2
        # duplicated grid value: tie must resolve to the smaller entry
        b3, _, _ = cross_validate(train, test, [b1, b1 + 0], "cs_post", opts)
        assert b3 == b1

    def test_failed_fit_records_infinite_loss(self):
        train, test, beta0, _ = _split_pair(4)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        best, losses, _ = cross_validate(train, test, [0, 4], "cs_post", opts)
        assert losses[0] == np.inf and best == 4

    def test_lambda_grid_shape(self):
        grid = default_lambda_grid()
        assert grid[0] == 0.0 and grid[-1] == 1.0 and len(grid) == 21

    def test_cv_picks_reasonable_an_often(self):
        # sanity envelope: chosen a_n should usually sit near the true sparsity
        hits = 0
        runs = 20
        for r in range(runs):
            train, test, beta0, T = _split_pair(100 + r, n=500, p=100, s=4)
            opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
            grid = default_an_grid(train.n, train.p)
            best, _, _ = cross_validate(train, test, grid, "cs_post", opts)
            if 4 <= best <= 12:
                hits += 1
        assert hits >= runs * 0.8

    def test_returns_the_fit_at_the_chosen_value(self):
        train, test, beta0, _ = _split_pair(5)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        fresh = {
            "cs_post": lambda v: cs_post_fit(corrected_moments(train), v, opts),
            "l1cls": lambda v: l1_cls_fit(corrected_moments(train), replace(opts, lam=v)),
            "lasso": lambda v: lasso_fit(train, v, opts),
        }
        for rule, refit in fresh.items():
            grid = [2, 4, 8] if rule == "cs_post" else default_lambda_grid()
            best, losses, fit = cross_validate(train, test, grid, rule, opts)
            assert np.array_equal(fit.beta, refit(best).beta), rule
            assert fit.method == refit(best).method

    @pytest.mark.parametrize("rule", ["l1cls", "lasso"])
    def test_one_lipschitz_bound_per_moments(self, monkeypatch, rule):
        original = corrls.selection.lipschitz_estimate
        calls = []

        def counting(G):
            calls.append(G)
            return original(G)

        monkeypatch.setattr(corrls.selection, "lipschitz_estimate", counting)
        train, test, beta0, _ = _split_pair(6)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        cross_validate(train, test, default_lambda_grid(), rule, opts)
        assert len(calls) == 1


class TestDefaultGrids:
    def test_an_grid_for_one_column(self):
        assert default_an_grid(100, 1) == [1]

    def test_an_grid_caps_at_p_and_n_over_log_p(self):
        assert default_an_grid(500, 100) == list(range(1, 101))
        assert default_an_grid(200, 100) == list(range(1, 44))  # 200 / log 100 = 43.4
        assert default_an_grid(10, 1000) == [1]
