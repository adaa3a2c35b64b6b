import ast
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import corrls.cli
import corrls.experiment
import corrls.post
import corrls.selection
from corrls import (
    AdditiveNoise,
    CorrectedMoments,
    SolverOptions,
    SurrogateDataset,
    corrected_loss,
    corrected_moments,
    cross_validate,
    cs_post_fit,
    l1_cls_fit,
    post_cls_fit,
    support,
    uncorrected_moments,
)
from corrls.post import (
    METHODS,
    best_grid_index,
    default_an_grid,
    default_lambda_grid,
    fit_method,
    method_moments,
    with_estimated_missing_rates,
)
from corrls.simulate import SimConfig, gen_regression


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

    def test_singular_block_is_solved_in_the_ball(self):
        # G is singular; its minimum-norm least-squares solution (0.5, 0.5) has
        # l1 norm 1.0, outside the ball of radius 0.5
        fit = post_cls_fit(_m([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]), [0, 1],
                           SolverOptions(radius=0.5))
        assert fit.fallback_used and fit.iterations > 0
        assert np.abs(fit.beta).sum() <= 0.5 + 1e-10

    @pytest.mark.parametrize("seed, nonnegative", [(0, False), (1, False), (72, True),
                                                   (82, True)])
    def test_rank_deficient_block_is_solved_in_the_ball(self, seed, nonnegative):
        # an 8 x 8 Gram of 5 rows is singular; rounding puts its computed
        # least eigenvalue on either side of 0, and both take the same branch
        rng = np.random.default_rng(seed)
        Z, y = rng.standard_normal((5, 8)), rng.standard_normal(5)
        G = Z.T @ Z / 5
        assert (np.linalg.eigvalsh(G)[0] >= 0.0) == nonnegative
        with pytest.warns(UserWarning, match="exceeds sample size"):
            fit = post_cls_fit(_m(G, Z.T @ y / 5, n=5), range(8), SolverOptions(radius=0.5))
        assert fit.fallback_used and fit.iterations > 0
        assert np.abs(fit.beta).sum() <= 0.5 + 1e-10

    def test_indefinite_subblock_falls_back_to_projected_gradient(self):
        G = np.diag([1.0, -1.0])
        fit = post_cls_fit(_m(G, [0.5, 0.2]), [0, 1], SolverOptions(radius=2.0))
        assert fit.fallback_used
        assert np.abs(fit.beta).sum() <= 2.0 + 1e-10

    def test_projected_gradient_support_lists_only_nonzeros(self):
        # the reference snapshot's missing r2 cell at a_n = 47: the refit
        # block is indefinite and its projected-gradient fit zeroes 32 of
        # the 47 screened columns
        seed = corrls.experiment._cell_seed(0, 500, 100, 4, 2)
        train, beta0, _ = gen_regression(SimConfig(n=500, p=100, s=4, noise_kind="missing",
                                                   seed=seed))
        m = corrected_moments(with_estimated_missing_rates(train))
        fit = cs_post_fit(m, 47, SolverOptions(radius=1.1 * np.abs(beta0).sum()))
        assert fit.fallback_used and fit.iterations > 0
        assert fit.support_used == tuple(support(fit.beta))
        assert len(fit.support_used) == 15

    def test_fallback_refit_reports_its_inner_fits_iterations_and_convergence(self):
        # the a_n = 47 cell above: its indefinite block is fitted by l1_cls_fit
        seed = corrls.experiment._cell_seed(0, 500, 100, 4, 2)
        train, beta0, _ = gen_regression(SimConfig(n=500, p=100, s=4, noise_kind="missing",
                                                   seed=seed))
        m = corrected_moments(with_estimated_missing_rates(train))
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        full, capped = cs_post_fit(m, 47, opts), cs_post_fit(m, 47, replace(opts, max_iters=2))
        assert full.fallback_used and capped.fallback_used
        assert full.iterations > 2 and full.converged is True
        assert capped.iterations == 2 and capped.converged is False

    @pytest.mark.parametrize("rep, k_star", [(0, 27), (1, 30), (2, 44)])
    def test_refit_falls_back_exactly_past_the_positive_definite_prefix(self, rep, k_star):
        # the missing-data cells of the reference snapshot (base seed 0)
        seed = corrls.experiment._cell_seed(0, 500, 100, 4, rep)
        train, beta0, _ = gen_regression(SimConfig(n=500, p=100, s=4, noise_kind="missing",
                                                   seed=seed))
        m = corrected_moments(with_estimated_missing_rates(train))
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        grid = default_an_grid(500, 100)
        order = corrls.selection.screen_order(m.gamma_vec, grid[-1])
        assert corrls.post.pd_prefix_length(m.block(order)) == k_star < grid[-1]
        assert [cs_post_fit(m, a, opts).fallback_used for a in grid] == \
            [a > k_star for a in grid]

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="empty support"):
            post_cls_fit(_m(np.eye(2), [1.0, 1.0]), [], OPTS)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_out_of_range_support_rejected(self, index):
        with pytest.raises(ValueError, match="support index out of range"):
            post_cls_fit(_m(np.eye(2), [1.0, 1.0]), [0, index], OPTS)

    @pytest.mark.parametrize("T", [[1.5, 2.9], [0, 2.5], np.array([1.0, 0.5])])
    def test_fractional_support_index_rejected(self, T):
        # int() would truncate [1.5, 2.9] to the columns (1, 2) and refit those
        data, _, _ = gen_regression(SimConfig(n=50, p=10, s=2, noise_kind="missing", seed=1))
        with pytest.raises(ValueError, match="support index must be a whole number"):
            post_cls_fit(corrected_moments(data), T, OPTS)

    def test_whole_float_support_indices_are_the_integer_ones(self):
        data, _, _ = gen_regression(SimConfig(n=50, p=10, s=2, noise_kind="missing", seed=1))
        m = corrected_moments(data)
        fit = post_cls_fit(m, [1.0, np.float64(2.0)], OPTS)
        assert fit.support_used == (1, 2)
        assert fit.beta.tobytes() == post_cls_fit(m, [1, 2], OPTS).beta.tobytes()

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
        a = fit_method("lasso", uncorrected_moments(data), 0.2, opts)
        b = l1_cls_fit(corrected_moments(data), 0.2, opts)
        assert np.allclose(a.beta, b.beta, atol=1e-10)

    def test_lambda_zero_gives_least_squares(self):
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((60, 4))
        y = rng.standard_normal(60)
        data = SurrogateDataset(Z=Z, y=y, noise=AdditiveNoise(np.zeros((4, 4))))
        target, *_ = np.linalg.lstsq(Z, y, rcond=None)
        fit = fit_method("lasso", uncorrected_moments(data), 0.0,
                         SolverOptions(radius=50.0, rel_tol=1e-12))
        assert np.linalg.norm(fit.beta - target) < 1e-4

    def test_huge_lambda_kills_everything(self):
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        data = SurrogateDataset(Z=Z, y=y, noise=AdditiveNoise(np.zeros((4, 4))))
        g = Z.T @ y / 30
        fit = fit_method("lasso", uncorrected_moments(data), float(np.abs(g).max()) + 1.0,
                         SolverOptions(radius=5.0))
        assert np.array_equal(fit.beta, np.zeros(4))


class TestFitMethod:
    def test_fractional_an_rejected(self):
        rng = np.random.default_rng(8)
        m = _m(np.eye(6), rng.standard_normal(6))
        with pytest.raises(ValueError, match="whole number"):
            fit_method("cs_post", m, 3.9, OPTS)
        assert fit_method("cs_post", m, 3.0, OPTS).support_used == \
            fit_method("cs_post", m, 3, OPTS).support_used


def _split_pair(seed, n=400, p=30, s=3):
    cfg = SimConfig(n=n, p=p, s=s, noise_kind="missing", seed=seed,
                    rho_range=(0.1, 0.3))
    train, beta0, T = gen_regression(cfg)
    test, _, _ = gen_regression(SimConfig(n=n, p=p, s=s, noise_kind="missing",
                                          seed=seed + 10_000, rho_range=(0.1, 0.3)),
                                beta0=beta0, rho=train.noise.rho)
    return (with_estimated_missing_rates(train),
            with_estimated_missing_rates(test), beta0, T)


def _cv(train, test, grid, rule, opts):
    """Cross-validate on the moments of the kind that ``rule`` fits on."""
    build = method_moments(rule)
    return cross_validate(build(train), build(test), grid, rule, opts)


class TestCrossValidate:
    def test_single_value_grid(self):
        train, test, beta0, _ = _split_pair(1)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        best, losses, _ = _cv(train, test, [4], "cs_post", opts)
        assert best == 4 and len(losses) == 1

    def test_an_within_grid_bounds(self):
        train, test, beta0, _ = _split_pair(2)
        grid = default_an_grid(train.n, train.p)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        best, _, _ = _cv(train, test, grid, "cs_post", opts)
        assert grid[0] <= best <= grid[-1]

    def test_deterministic_and_tie_to_smaller(self):
        train, test, beta0, _ = _split_pair(3)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        b1, l1, _ = _cv(train, test, [2, 3, 4, 5], "cs_post", opts)
        b2, l2, _ = _cv(train, test, [2, 3, 4, 5], "cs_post", opts)
        assert b1 == b2 and l1 == l2
        # duplicated grid value: tie must resolve to the smaller entry
        b3, _, _ = _cv(train, test, [b1, b1 + 0], "cs_post", opts)
        assert b3 == b1

    def test_losses_equal_but_for_rounding_tie_to_the_smaller_value(self):
        assert best_grid_index([-1.0, -1.0 - 4e-16, -0.5], [0.0, 0.05, 0.1]) == 0
        assert best_grid_index([-1.0, -1.0 - 4e-16, -0.5], [0.1, 0.05, 0.0]) == 1
        # a gap well above rounding still decides
        assert best_grid_index([-1.0, -1.0 - 1e-9, -0.5], [0.0, 0.05, 0.1]) == 1
        assert best_grid_index([np.inf, np.inf], [0.1, 0.0]) == 1

    def test_failed_fit_records_infinite_loss(self):
        train, test, beta0, _ = _split_pair(4)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        best, losses, _ = _cv(train, test, [0, 4], "cs_post", opts)
        assert losses[0] == np.inf and best == 4

    def test_negative_lambda_records_infinite_loss(self):
        train, test, beta0, _ = _split_pair(4)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        best, losses, _ = _cv(train, test, [-0.1, 0.1], "l1cls", opts)
        assert losses[0] == np.inf and np.isfinite(losses[1]) and best == 0.1

    def test_fractional_an_records_infinite_loss(self):
        train, test, beta0, _ = _split_pair(4)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        best, losses, _ = _cv(train, test, [3.9, 4], "cs_post", opts)
        assert losses[0] == np.inf and np.isfinite(losses[1]) and best == 4

    def test_no_finite_loss_returns_no_fit(self):
        # the first screened column has a zero diagonal, so no prefix of
        # the screening order is positive definite and every a_n is inf
        m = _m(np.diag([0.0, 1.0, 1.0]), [5.0, 0.1, 0.1])
        best, losses, fit = cross_validate(m, m, [1, 2, 3], "cs_post", OPTS)
        assert losses == [np.inf] * 3 and best == 1 and fit is None

    def test_empty_grid_rejected(self):
        m = _m(np.eye(3), [1.0, 0.5, 0.1])
        with pytest.raises(ValueError, match="empty tuning grid"):
            cross_validate(m, m, [], "cs_post", OPTS)

    def test_train_test_dimension_mismatch_rejected(self):
        train, test = _m(np.eye(3), [1.0, 0.5, 0.1]), _m(np.eye(2), [1.0, 0.5])
        with pytest.raises(ValueError, match="train and test dimension mismatch"):
            cross_validate(train, test, [1, 2], "cs_post", OPTS)

    @pytest.mark.parametrize("rule", ["cs_post", "l1cls"])
    def test_a_failing_refit_at_the_chosen_value_propagates(self, monkeypatch, rule):
        def diverging(*args):
            raise ArithmeticError("diverged: non-finite objective in solver")

        monkeypatch.setattr(corrls.post, "fit_method", diverging)
        train, test, beta0, _ = _split_pair(5)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        grid = [2, 4, 8] if rule == "cs_post" else default_lambda_grid()
        with pytest.raises(ArithmeticError, match="diverged"):
            _cv(train, test, grid, rule, opts)

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
            best, _, _ = _cv(train, test, grid, "cs_post", opts)
            if 4 <= best <= 12:
                hits += 1
        assert hits >= runs * 0.8

    def test_returns_the_fit_at_the_chosen_value(self):
        train, test, beta0, _ = _split_pair(5)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        fresh = {
            "cs_post": lambda v: cs_post_fit(corrected_moments(train), v, opts),
            "l1cls": lambda v: l1_cls_fit(corrected_moments(train), v, opts),
            "lasso": lambda v: fit_method("lasso", uncorrected_moments(train), v, opts),
        }
        for rule, refit in fresh.items():
            grid = [2, 4, 8] if rule == "cs_post" else default_lambda_grid()
            best, losses, fit = _cv(train, test, grid, rule, opts)
            assert np.array_equal(fit.beta, refit(best).beta), rule
            assert fit.method == refit(best).method

    def test_unknown_rule_raises_before_fitting(self):
        train, test, beta0, _ = _split_pair(7)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        with pytest.raises(ValueError, match="unknown fit rule 'cs-post'"):
            cross_validate(corrected_moments(train), corrected_moments(test), [1, 2, 3],
                           "cs-post", opts)

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
        _cv(train, test, default_lambda_grid(), rule, opts)
        assert len(calls) == 1


def _recording_fit(monkeypatch, fail_at=()):
    """Patch `corrls.post.l1_cls_fit` to record each call as [lam, beta0,
    fit], fit None when it raised; a lam in ``fail_at`` raises
    ArithmeticError, as a diverged fit would."""
    original = corrls.post.l1_cls_fit
    calls = []

    def recording(m, lam, opts, beta0=None):
        calls.append([lam, beta0, None])
        if lam in fail_at:
            raise ArithmeticError("diverged")
        calls[-1][2] = original(m, lam, opts, beta0=beta0)
        return calls[-1][2]

    monkeypatch.setattr(corrls.post, "l1_cls_fit", recording)
    return calls


class TestWarmStartedPath:
    @pytest.mark.parametrize("rule", ["l1cls", "lasso"])
    def test_ascending_path_then_one_cold_refit(self, monkeypatch, rule):
        calls = _recording_fit(monkeypatch)
        train, test, beta0, _ = _split_pair(5)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        grid = default_lambda_grid()[::-1]
        best, _, fit = _cv(train, test, grid, rule, opts)
        *path, refit = calls
        assert [lam for lam, _, _ in path] == sorted(grid)
        assert path[0][1] is None
        for prev, cur in zip(path, path[1:]):
            assert np.array_equal(cur[1], prev[2].beta)
        assert refit[0] == best and refit[1] is None
        assert np.array_equal(fit.beta, refit[2].beta)

    def test_a_failed_fit_records_inf_and_seeds_nothing(self, monkeypatch):
        calls = _recording_fit(monkeypatch, fail_at=(0.05,))
        train, test, beta0, _ = _split_pair(4)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        grid = [0.1, -0.1, 0.05, 0.0]
        _, losses, _ = _cv(train, test, grid, "l1cls", opts)
        assert losses[1] == np.inf and losses[2] == np.inf
        assert np.isfinite(losses[0]) and np.isfinite(losses[3])
        (neg, _, neg_fit), (zero, zero_start, zero_fit), (_, mid_start, _), \
            (last, last_start, _) = calls[:4]
        assert (neg, zero, last) == (-0.1, 0.0, 0.1) and neg_fit is None
        # the negative penalty raised, so the fit at 0 starts cold; 0.05
        # raised, so 0.1 starts from the fit at 0
        assert zero_start is None
        assert np.array_equal(mid_start, zero_fit.beta)
        assert np.array_equal(last_start, zero_fit.beta)

    def test_shuffled_grid_gives_the_same_loss_at_each_value(self):
        train, test, beta0, _ = _split_pair(5)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        grid = default_lambda_grid()
        shuffled = [grid[i] for i in np.random.default_rng(0).permutation(len(grid))]
        assert shuffled != grid
        _, losses, _ = _cv(train, test, grid, "l1cls", opts)
        _, shuffled_losses, _ = _cv(train, test, shuffled, "l1cls", opts)
        assert dict(zip(shuffled, shuffled_losses)) == dict(zip(grid, losses))

    def test_path_takes_at_most_half_the_iterations_of_cold_fits(self, monkeypatch):
        train, test, beta0, _ = _split_pair(9, n=200, p=300, s=4)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        train_m, test_m = corrected_moments(train), corrected_moments(test)
        grid = default_lambda_grid()
        cold = sum(l1_cls_fit(train_m, lam, opts).iterations for lam in grid)
        calls = _recording_fit(monkeypatch)
        cross_validate(train_m, test_m, grid, "l1cls", opts)
        *path, _ = calls  # the last call is the winner's refit
        assert len(path) == len(grid)
        assert 2 * sum(fit.iterations for _, _, fit in path) <= cold


class TestWideCsPost:
    def test_cross_validation_and_fit_form_no_p_by_p_matrix(self):
        # p > n: every block comes from the columns of Z, so neither split
        # forms its Gram or gamma_mat, and nothing near p x p is allocated
        n, p = 100, 2000
        train, test, beta0, _ = _split_pair(3, n=n, p=p, s=4)
        train_m, test_m = corrected_moments(train), corrected_moments(test)
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        tracemalloc.start()
        try:
            best, losses, fit = cross_validate(train_m, test_m, default_an_grid(n, p),
                                               "cs_post", opts)
            fit_method("cs_post", train_m, best, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit is not None and np.isfinite(min(losses))
        for m, data in [(train_m, train), (test_m, test)]:
            assert m.wide and "gamma_mat" not in vars(m) and "gram" not in vars(data)
        assert peak < train.Z.nbytes  # a p x p matrix is 20 times that

    @pytest.mark.parametrize("seed", [4, 5])
    def test_wide_losses_and_fit_match_the_dense_gamma(self, seed):
        # the same CV on moments that slice a dense gamma_mat
        train, test, beta0, _ = _split_pair(seed, n=100, p=300, s=4)
        train_m, test_m = corrected_moments(train), corrected_moments(test)
        dense = [_m(m.gamma_mat, m.gamma_vec, n=m.n) for m in (train_m, test_m)]
        opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
        grid = default_an_grid(100, 300)
        best, losses, fit = cross_validate(train_m, test_m, grid, "cs_post", opts)
        ref_best, ref_losses, ref_fit = cross_validate(*dense, grid, "cs_post", opts)
        assert best == ref_best and np.array_equal(np.isinf(losses), np.isinf(ref_losses))
        finite = np.isfinite(ref_losses)
        assert np.allclose(np.array(losses)[finite], np.array(ref_losses)[finite],
                           rtol=1e-12, atol=0)
        assert np.max(np.abs(fit.beta - ref_fit.beta)) <= 1e-12 * np.max(np.abs(ref_fit.beta))


def _paper_cell(seed):
    """Corrected train/test moments of a missing-data paper cell (n=500,
    p=100, s=4) and the radius the grid would use."""
    cfg = SimConfig(n=500, p=100, s=4, noise_kind="missing", seed=seed)
    train, beta0, _ = gen_regression(cfg)
    test, _, _ = gen_regression(SimConfig(n=500, p=100, s=4, noise_kind="missing",
                                          seed=seed + 10_000), beta0=beta0, rho=train.noise.rho)
    return (corrected_moments(with_estimated_missing_rates(train)),
            corrected_moments(with_estimated_missing_rates(test)),
            1.1 * float(np.abs(beta0).sum()))


def _ordered_block(m):
    """The Gram of m in screening order: decreasing |gamma|, ties to the smaller index."""
    order = np.argsort(-np.abs(m.gamma_vec), kind="stable")
    return m.gamma_mat[np.ix_(order, order)]


def _linear_scan(B, eps=1e-8):
    """k* by eigvalsh of every leading block, stopping at the first that fails."""
    k = 0
    while k < len(B) and np.linalg.eigvalsh(B[:k + 1, :k + 1])[0] > eps:
        k += 1
    return k


class TestPositiveDefinitePrefix:
    """CS+post cross-validates only on the leading blocks of the screening
    order whose least eigenvalue exceeds the refit's 1e-8 bound."""

    def test_prefix_ends_below_the_solve_bound(self):
        # the 2x2 leading block has least eigenvalue ~5e-9: plain Cholesky
        # accepts it, but post_cls_fit would not solve on it directly
        B = np.eye(4)
        B[:2, :2] = [[1.0, 1.0], [1.0, 1.0 + 1e-8]]
        least = np.linalg.eigvalsh(B[:2, :2])[0]
        assert 0.0 < least < 1e-8
        np.linalg.cholesky(B[:2, :2])
        m = _m(B, [4.0, 3.0, 2.0, 1.0])
        best, losses, fit = cross_validate(m, m, [1, 2, 3, 4], "cs_post", OPTS)
        assert np.isfinite(losses[0]) and losses[1:] == [np.inf] * 3
        assert best == 1 and fit.support_used == (0,)
        assert corrls.post.pd_prefix_length(B) == 1

    def test_a_positive_definite_block_takes_one_cholesky(self, monkeypatch):
        # as on an additive paper cell, whose whole screened block passes
        A = np.random.default_rng(3).standard_normal((100, 500))
        factored = []

        def counting(a, original=np.linalg.cholesky):
            factored.append(len(a))
            return original(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        assert corrls.post.pd_prefix_length(A @ A.T / 500) == 100
        assert factored == [100]

    def test_bisection_matches_linear_scan(self):
        rng = np.random.default_rng(11)
        blocks = [np.eye(5), -np.eye(5), np.zeros((0, 0))]
        for _ in range(40):
            p = int(rng.integers(1, 30))
            A = rng.standard_normal((p, p + int(rng.integers(-p + 1, 5))))
            blocks.append(A @ A.T / A.shape[1] - rng.uniform(0, 0.5) * np.diag(rng.random(p)))
        blocks += [_ordered_block(_paper_cell(seed)[0]) for seed in range(3)]
        found = {corrls.post.pd_prefix_length(B) for B in blocks}
        for B in blocks:
            assert corrls.post.pd_prefix_length(B) == _linear_scan(B)
        assert 0 in found and len(found) > 5

    def test_prefix_losses_match_refit_reference(self):
        train_m, test_m, radius = _paper_cell(0)
        opts = SolverOptions(radius=radius)
        k_star = _linear_scan(_ordered_block(train_m))
        grid = list(range(1, k_star + 1))
        _, losses, _ = cross_validate(train_m, test_m, grid, "cs_post", opts)
        for k, loss in zip(grid, losses):
            fit = post_cls_fit(train_m, corrls.selection.cs_screen(train_m.gamma_vec, k), opts)
            assert not fit.fallback_used
            ref = float(corrected_loss(fit.beta, test_m))
            assert abs(loss - ref) <= 1e-9 * abs(ref), k

    def test_tail_is_infinite_and_the_pick_inside_the_prefix(self):
        train_m, test_m, radius = _paper_cell(0)
        opts = SolverOptions(radius=radius)
        k_star = _linear_scan(_ordered_block(train_m))
        grid = default_an_grid(500, 100)
        assert 0 < k_star < grid[-1]
        best, losses, fit = cross_validate(train_m, test_m, grid, "cs_post", opts)
        assert all(np.isfinite(losses[:k_star]))
        assert losses[k_star:] == [np.inf] * (len(grid) - k_star)
        assert best <= k_star
        assert np.array_equal(fit.beta, cs_post_fit(train_m, best, opts).beta)

    def test_missing_data_cv_makes_no_projected_gradient_fit(self, monkeypatch):
        calls = []
        original = corrls.post.l1_cls_fit

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(corrls.post, "l1_cls_fit", counting)
        train_m, test_m, radius = _paper_cell(0)
        assert _linear_scan(_ordered_block(train_m)) < 100
        cross_validate(train_m, test_m, default_an_grid(500, 100), "cs_post",
                       SolverOptions(radius=radius))
        assert calls == []


def _spectral_block(eigenvalues, seed):
    """A symmetric block with the given eigenvalues in a random basis."""
    k = len(eigenvalues)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((k, k)))
    B = (Q * eigenvalues) @ Q.T
    return 0.5 * (B + B.T)


SPECTRA = {"pd": [3.0, 1.0, 0.5, 0.1], "singular_psd": [2.0, 1.0, 0.0, 0.0],
           "indefinite": [2.0, 1.0, 0.5, -0.5]}


class TestIsPdOnStacks:
    """`_is_pd` on a stack of blocks answers block by block as on each block
    alone, from one factorization of the stack when every block passes."""

    @pytest.mark.parametrize("kinds, factorizations", [
        (["pd"] * 5, 1),
        (["singular_psd", "indefinite", "singular_psd"], 1 + 3),
        (["pd", "singular_psd", "pd", "indefinite", "pd"], 1 + 5),
    ], ids=["all_pass", "none_pass", "mixed"])
    def test_stack_equals_each_block_alone(self, monkeypatch, kinds, factorizations):
        stack = np.stack([_spectral_block(SPECTRA[kind], seed) for seed, kind in enumerate(kinds)])
        alone = [corrls.post._is_pd(b) for b in stack]
        assert alone == [kind == "pd" for kind in kinds]
        factored = []

        def counting(a, original=np.linalg.cholesky):
            factored.append(a.shape)
            return original(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        is_pd = corrls.post._is_pd(stack)
        assert is_pd.dtype == bool and is_pd.tolist() == alone
        assert len(factored) == factorizations and factored[0] == stack.shape

    def test_one_block_is_a_truth_value(self):
        pd, indefinite = (_spectral_block(SPECTRA[kind], 0) for kind in ("pd", "indefinite"))
        assert corrls.post._is_pd(pd) is True and corrls.post._is_pd(indefinite) is False


class TestDefaultGrids:
    def test_an_grid_for_one_column(self):
        assert default_an_grid(100, 1) == [1]

    def test_an_grid_caps_at_p_and_n_over_log_p(self):
        assert default_an_grid(500, 100) == list(range(1, 101))
        assert default_an_grid(200, 100) == list(range(1, 44))  # 200 / log 100 = 43.4
        assert default_an_grid(10, 1000) == [1]


@pytest.mark.parametrize("module", [corrls.cli, corrls.experiment])
def test_only_post_names_the_methods(module):
    """The CLI and the grid read method names and labels from post.METHODS;
    neither module spells one out."""
    names = set(METHODS) | set(METHODS.values())
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read())
    spelled = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and node.value in names}
    assert not spelled, f"{module.__name__} names methods {sorted(spelled)}"
