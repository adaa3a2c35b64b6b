import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from corrls import (
    CorrectedMoments,
    SolverOptions,
    cs_screen,
    l1_cls_fit,
    project_l1_ball,
    support,
)
from corrls.moments import corrected_loss, corrected_moments
from corrls.selection import lipschitz_estimate, soft_threshold
from corrls.simulate import SimConfig, ar1_covariance, gen_regression

finite_vecs = hnp.arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=12),
    elements=st.floats(-50, 50, allow_nan=False),
)


class TestCsScreen:
    def test_two_largest_magnitudes(self):
        sel = cs_screen(np.array([0.1, -3.0, 2.0, 0.5]), 2)
        assert sel.support == (1, 2)

    def test_full_selection(self):
        sel = cs_screen(np.array([0.3, -1.0, 0.0]), 3)
        assert sel.support == (0, 1, 2)
        assert cs_screen(np.array([0.3, -1.0, 0.0]), 10).support == (0, 1, 2)

    def test_tie_broken_by_smaller_index(self):
        assert cs_screen(np.array([1.0, 1.0, 0.0]), 1).support == (0,)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="empty selection"):
            cs_screen(np.array([1.0, 2.0]), 0)

    @given(finite_vecs, st.integers(min_value=1, max_value=20),
           st.floats(0.01, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_size_and_scale_invariance(self, g, a_n, scale):
        sel = cs_screen(g, a_n)
        assert len(sel.support) == min(a_n, g.size)
        assert cs_screen(scale * g, a_n).support == sel.support


def _grid_search_ball(v, R, steps=400):
    # dense search over the l1 ball at p=2
    best, best_d = None, np.inf
    for a in np.linspace(-R, R, steps):
        rem = R - abs(a)
        for b in np.linspace(-rem, rem, max(2, int(steps * rem / R) + 1)):
            d = (a - v[0]) ** 2 + (b - v[1]) ** 2
            if d < best_d:
                best, best_d = np.array([a, b]), d
    return best


class TestProjectL1Ball:
    def test_inside_ball_unchanged(self):
        v = np.array([0.3, -0.2])
        assert np.array_equal(project_l1_ball(v, 1.0), v)

    def test_axis_point(self):
        assert np.allclose(project_l1_ball(np.array([3.0, 0.0]), 1.0), [1.0, 0.0])

    def test_kkt_soft_threshold_case(self):
        # tau solves (2 - tau) + (1 - tau) = 1, so tau = 1
        assert np.allclose(project_l1_ball(np.array([2.0, 1.0]), 1.0), [1.0, 0.0])

    def test_matches_grid_search_p2(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            v = rng.uniform(-3, 3, size=2)
            out = project_l1_ball(v, 1.0)
            ref = _grid_search_ball(v, 1.0)
            assert np.linalg.norm(out - ref) < 1e-2

    @given(finite_vecs, st.floats(0.1, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_idempotent_and_feasible(self, v, R):
        out = project_l1_ball(v, R)
        assert np.abs(out).sum() <= R + 1e-12
        assert np.linalg.norm(project_l1_ball(out, R) - out) <= 1e-12
        if np.abs(v).sum() > R:
            assert abs(np.abs(out).sum() - R) <= 1e-10


def _m(G, g):
    return CorrectedMoments(gamma_mat=G, gamma_vec=np.asarray(g, float),
                            n=1, p=len(g))


class TestL1ClsFit:
    def test_unconstrained_minimum_inside_ball(self):
        fit = l1_cls_fit(_m(np.eye(3), [0.9, 0.0, 0.0]),
                         SolverOptions(radius=10.0, lam=0.0))
        assert np.allclose(fit.beta, [0.9, 0, 0], atol=1e-6)

    def test_identity_gamma_soft_threshold_solution(self):
        fit = l1_cls_fit(_m(np.eye(3), [0.9, 0.2, 0.0]),
                         SolverOptions(radius=10.0, lam=0.3))
        assert np.allclose(fit.beta, [0.6, 0, 0], atol=1e-6)

    def test_matches_multistart_oracle_small(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((5, 5))
        G = A @ A.T + 0.5 * np.eye(5)
        g = rng.standard_normal(5)
        opts = SolverOptions(radius=2.0, lam=0.1)
        fit = l1_cls_fit(_m(G, g), opts)
        best = np.inf
        for _ in range(100):
            start = project_l1_ball(rng.uniform(-2, 2, 5), 2.0)
            f = l1_cls_fit(_m(G, g), opts, beta0=start)
            best = min(best, f.objective)
        assert fit.objective <= best + 1e-3

    def test_lambda_zero_pd_converges_to_linear_solution(self):
        sigma = ar1_covariance(6, 0.4)
        g = np.arange(1.0, 7.0) / 10
        target = np.linalg.solve(sigma, g)
        radius = 10 * np.abs(g).sum() / np.linalg.eigvalsh(sigma)[0]
        fit = l1_cls_fit(_m(sigma, g), SolverOptions(radius=radius, lam=0.0,
                                                     rel_tol=1e-12))
        assert np.linalg.norm(fit.beta - target) < 1e-4

    def test_monotone_objective_on_psd_fixed_step(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 8))
        G = A @ A.T
        g = rng.standard_normal(8)
        m = _m(G, g)
        opts = SolverOptions(radius=3.0, lam=0.2, max_iters=1, rel_tol=1e-16)
        beta = np.zeros(8)
        prev = corrected_loss(beta, m) + 0.2 * np.abs(beta).sum()
        for _ in range(60):
            fit = l1_cls_fit(m, opts, beta0=beta)
            cur = corrected_loss(fit.beta, m) + 0.2 * np.abs(fit.beta).sum()
            assert cur <= prev + 1e-12
            beta, prev = fit.beta, cur

    def test_indefinite_gamma_returns_bounded_best_iterate(self):
        G = np.diag([1.0, -0.5])
        fit = l1_cls_fit(_m(G, [0.5, 0.3]), SolverOptions(radius=1.5, lam=0.05))
        assert np.abs(fit.beta).sum() <= 1.5 + 1e-10
        assert np.isfinite(fit.objective)


def _two_matvec_fit(m, opts):
    """The solver loop as it was with two G products per step: one for the
    gradient, one inside the objective of every candidate."""
    G, g, lam, R = m.gamma_mat, m.gamma_vec, opts.lam, opts.radius

    def objective(b):
        return 0.5 * b @ G @ b - g @ b + lam * np.abs(b).sum()

    L = lipschitz_estimate(G)
    eta0 = 1.0 / L if L > 0 else 1.0
    beta = np.zeros(m.p)
    f = objective(beta)
    best_beta, best_f = beta.copy(), f
    for _ in range(opts.max_iters):
        grad = G @ beta - g
        eta = eta0
        while True:
            cand = project_l1_ball(soft_threshold(beta - eta * grad, eta * lam), R)
            f_cand = objective(cand)
            if opts.step_rule == "fixed" or f_cand <= f or eta < 1e-12:
                break
            eta *= 0.5
        df = f - f_cand
        beta, f = cand, f_cand
        if f < best_f:
            best_f, best_beta = f, beta.copy()
        if abs(df) < opts.rel_tol * max(1.0, abs(f)):
            break
    return best_beta, best_f


def _sim_moments(noise_kind, n, p, seed):
    train, beta0, _ = gen_regression(SimConfig(n=n, p=p, s=4, noise_kind=noise_kind,
                                               seed=seed))
    return corrected_moments(train), 1.1 * np.abs(beta0).sum()


class TestOneMatvecSolver:
    @pytest.mark.parametrize("step_rule", ["fixed", "backtracking"])
    @pytest.mark.parametrize("noise_kind, n, p", [("additive", 30, 50),
                                                  ("missing", 200, 40)])
    def test_matches_two_matvec_loop(self, noise_kind, n, p, step_rule):
        m, radius = _sim_moments(noise_kind, n, p, seed=17)
        if noise_kind == "additive":
            assert np.linalg.eigvalsh(m.gamma_mat)[0] < 0  # indefinite on purpose
        opts = SolverOptions(radius=radius, lam=0.05, step_rule=step_rule,
                             max_iters=2000)
        ref_beta, ref_f = _two_matvec_fit(m, opts)
        fit = l1_cls_fit(m, opts)
        assert np.max(np.abs(fit.beta - ref_beta)) <= 1e-12
        assert abs(fit.objective - ref_f) <= 1e-12 * max(1.0, abs(ref_f))


class TestLipschitzEstimate:
    def test_direction_orthogonal_to_ones(self):
        # power iteration started from the all-ones vector never sees u
        p = 50
        u = np.zeros(p)
        u[0], u[1] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        G = np.eye(p) + 10 * np.outer(u, u)
        assert lipschitz_estimate(G) == pytest.approx(11.0, rel=1e-12)

    def test_negative_eigenvalue_dominates(self):
        assert lipschitz_estimate(np.diag([1.0, -3.0])) == pytest.approx(3.0)

    def test_cached_once_per_moments(self):
        m = _m(np.diag([2.0, 1.0]), [1.0, 1.0])
        assert m.lipschitz == pytest.approx(2.0)
        assert "lipschitz" in vars(m)


class TestSupport:
    def test_threshold(self):
        assert support([0.0, 1e-12, 0.5], tol=1e-8) == [2]

    def test_zero_vector(self):
        assert support(np.zeros(4)) == []

    def test_tol_zero(self):
        assert support([-2.0, 3.0], tol=0.0) == [0, 1]
