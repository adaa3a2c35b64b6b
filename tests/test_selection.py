import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import corrls.selection
from corrls import (
    AdditiveNoise,
    CorrectedMoments,
    SolverOptions,
    cs_screen,
    l1_cls_fit,
    project_l1_ball,
    support,
)
from corrls.moments import (
    _lanczos_top,
    active_rows_matvec,
    corrected_loss,
    corrected_moments,
    lipschitz_estimate,
)
from corrls.post import default_lambda_grid
from corrls.selection import _project_l1_ball, l1_cls_path, screen_order, screen_size
from corrls.simulate import SimConfig, ar1_covariance, gen_regression

finite_vecs = hnp.arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=12),
    elements=st.floats(-50, 50, allow_nan=False),
)


class TestCsScreen:
    def test_two_largest_magnitudes(self):
        assert cs_screen(np.array([0.1, -3.0, 2.0, 0.5]), 2) == (1, 2)

    def test_full_selection(self):
        assert cs_screen(np.array([0.3, -1.0, 0.0]), 3) == (0, 1, 2)
        assert cs_screen(np.array([0.3, -1.0, 0.0]), 10) == (0, 1, 2)

    def test_tie_broken_by_smaller_index(self):
        assert cs_screen(np.array([1.0, 1.0, 0.0]), 1) == (0,)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="a_n must be at least 1, got 0"):
            cs_screen(np.array([1.0, 2.0]), 0)

    @given(finite_vecs, st.integers(min_value=1, max_value=20),
           st.integers(0, 7).map(lambda k: 2.0 ** k))
    @settings(max_examples=50, deadline=None)
    def test_size_and_scale_invariance(self, g, a_n, scale):
        # scaling up by a power of two is exact, subnormal magnitudes included
        sel = cs_screen(g, a_n)
        assert len(sel) == min(a_n, g.size)
        assert cs_screen(scale * g, a_n) == sel

    # Scaling down keeps the order of |g| only on magnitudes that stay normal;
    # a subnormal can round onto its neighbour (0.5 * 5e-324 is 0.0), a tie.
    normal_vecs = hnp.arrays(
        dtype=float,
        shape=st.integers(min_value=1, max_value=12),
        elements=st.one_of(st.just(0.0), st.floats(1e-300, 50),
                           st.floats(-50, -1e-300)),
    )

    @given(normal_vecs, st.integers(min_value=1, max_value=20),
           st.integers(-7, -1).map(lambda k: 2.0 ** k))
    @settings(max_examples=50, deadline=None)
    def test_downward_scale_invariance(self, g, a_n, scale):
        assert cs_screen(scale * g, a_n) == cs_screen(g, a_n)


class TestScreenWithoutSigmaW:
    """Screening selects without the bias-correction matrix: under additive
    noise the screened set at a fixed a_n is the same whatever Sigma_w the
    moments are built with, so a mis-stated Sigma_w cannot move it."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scaled_sigma_w_gives_the_same_screen(self, seed):
        data, _, _ = gen_regression(SimConfig(n=500, p=100, s=4, noise_kind="additive",
                                              seed=seed))
        sigma_w = data.noise.sigma_w
        gammas = {c: corrected_moments(replace(data, noise=AdditiveNoise(c * sigma_w))).gamma_vec
                  for c in (0.5, 1.0, 2.0)}
        for c in (0.5, 2.0):
            assert screen_order(gammas[c], 100).tolist() == screen_order(gammas[1.0], 100).tolist()
            for a_n in (1, 4, 10, 40, 80):
                assert cs_screen(gammas[c], a_n) == cs_screen(gammas[1.0], a_n), (c, a_n)


class TestScreenOrder2D:
    # few distinct values, so rows hold ties, both zeros and opposite signs
    tied_rows = hnp.arrays(
        dtype=float,
        shape=st.tuples(st.integers(1, 6), st.integers(1, 10)),
        elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300]),
    )

    @given(tied_rows)
    @settings(max_examples=100, deadline=None)
    def test_rows_ordered_as_row_wise_calls(self, G):
        order = screen_order(G, G.shape[1])
        assert order.shape == G.shape
        for row, got in zip(G, order):
            assert np.array_equal(got, screen_order(row, row.size))

    def test_ties_and_negative_zero_go_to_the_smaller_index(self):
        G = np.array([[-0.0, 0.0, 1.0, -1.0], [2.0, -0.0, -2.0, 0.0]])
        assert screen_order(G, 4).tolist() == [[2, 3, 0, 1], [0, 2, 1, 3]]

    def test_non_finite_row_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            screen_order(np.array([[1.0, 2.0], [np.inf, 0.0]]), 2)


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


def soft_threshold(v, t):
    """The shrink the solver applied before its ball projection."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _reference_project(v, R):
    """The l1-ball projection as it was before it took the shrink."""
    v = np.asarray(v, dtype=float).ravel()
    if R <= 0:
        raise ValueError("radius must be positive")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a non-finite vector")
    a = np.abs(v)
    if a.sum() <= R:
        return v.copy()
    u = np.sort(a)[::-1]
    cum = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    rho = np.max(np.nonzero(u - (cum - R) / ks > 0)[0])
    tau = (cum[rho] - R) / (rho + 1)
    return soft_threshold(v, tau)


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


class TestShrinkAndProject:
    """The solver's kernel `_project_l1_ball(v, R, shrink)` is the soft-threshold
    followed by the projection, to the bit: negative zeros are where the two can part."""

    @pytest.mark.parametrize("v, R, shrink", [
        ([0.3, -0.2, 0.05], 1.0, 0.1),                # inside the ball
        ([0.75, -0.5, 0.25, -0.125], 0.75, 0.25),     # exactly on the boundary
        ([2.0, -1.5, 0.3, 0.0], 1.0, 0.0),            # no shrink, projected
        ([0.3, -0.2, 0.0], 1.0, 0.0),                 # no shrink, inside
        ([0.09, -0.1, 0.0, -0.05], 1.0, 0.1),         # every entry below the shrink
        ([1.5, -1.5, 1.5, -0.5], 1.0, 0.25),          # tied magnitudes, projected
        ([0.75, -0.75], 1.0, 0.25),                   # tied magnitudes, on the boundary
        ([-3.0], 1.0, 0.5),                           # p = 1, projected
        ([0.2], 1.0, 0.5),                            # p = 1, shrunk to zero
        ([-0.0, 0.0, -0.3, 0.2], 1.0, 0.1),           # negative zeros, inside
        ([-0.0, 3.0, -0.05, -0.0], 1.0, 0.1),         # negative zeros, projected
    ])
    def test_matches_shrink_then_project(self, v, R, shrink):
        v = np.array(v)
        out = _project_l1_ball(v, R, shrink)[0]
        assert out.tobytes() == _reference_project(soft_threshold(v, shrink), R).tobytes()

    def test_without_shrink_negative_zeros_are_kept(self):
        # how the solver projects its start: a warm start's -0.0 survives
        v = np.array([-0.0, 0.25, -0.0, -0.5])
        out = project_l1_ball(v, 1.0)
        assert out.tobytes() == _reference_project(v, 1.0).tobytes() == v.tobytes()
        assert out is not v

    @given(hnp.arrays(dtype=float, shape=st.integers(1, 12),
                      elements=st.sampled_from([-2.0, -0.5, -0.25, -0.0, 0.0, 0.25, 1.0, 3.0])
                      | st.floats(-5, 5, allow_nan=False)),
           st.sampled_from([0.25, 1.0, 2.5]), st.sampled_from([0.0, 0.25, 0.5, 1e-3]))
    @settings(max_examples=200, deadline=None)
    def test_matches_shrink_then_project_on_random_vectors(self, v, R, shrink):
        ref = _reference_project(soft_threshold(v, shrink) if shrink else v, R)
        assert _project_l1_ball(v, R, shrink)[0].tobytes() == ref.tobytes()

    @given(hnp.arrays(dtype=float, shape=st.integers(1, 12),
                      elements=st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 3.0])
                      | st.floats(-5, 5, allow_nan=False)),
           st.sampled_from([0.25, 1.0, 2.5]), st.sampled_from([0.0, 0.25, 1e-3]))
    @settings(max_examples=200, deadline=None)
    def test_norm_read_off_the_projection_to_the_bit(self, v, R, shrink):
        # the solver's objective takes ||x||_1 from the kernel, inside the
        # ball and outside it
        x, norm = _project_l1_ball(v, R, shrink)
        shrunk = soft_threshold(v, shrink) if shrink else v
        assert x.tobytes() == project_l1_ball(shrunk, R).tobytes()
        assert np.float64(norm).tobytes() == np.abs(x).sum().tobytes()

    @pytest.mark.parametrize("v, shrink, outside", [
        ([-0.0, 0.25, -0.5], 0.0, False),  # kept as given, negative zero and all
        ([-0.0, 0.75, -0.5], 0.2, False),  # shrunk into the ball
        ([3.0, -1.0, 0.5, -0.0], 0.0, True),  # sorted and thresholded
        ([-0.0, 0.75, -0.5], 0.1, True),  # shrunk, still outside
        ([0.0, -0.0], 0.0, False),
    ])
    def test_norm_is_a_python_float_equal_to_the_abs_sum(self, v, shrink, outside):
        v = np.array(v)
        assert (np.abs(soft_threshold(v, shrink)).sum() > 1.0) == outside
        x, norm = _project_l1_ball(v, 1.0, shrink)
        assert type(norm) is float
        assert np.float64(norm).tobytes() == np.abs(x).sum().tobytes()
        assert x.tobytes() == _reference_project(soft_threshold(v, shrink) if shrink else v,
                                                 1.0).tobytes()

    @pytest.mark.parametrize("v, message", [([1.0, np.nan], "non-finite"),
                                            ([np.inf, 0.0], "non-finite")])
    def test_rejects_non_finite_input(self, v, message):
        for shrink in (0.0, 0.1):
            with pytest.raises(ValueError, match=message):
                _project_l1_ball(np.array(v), 1.0, shrink)

    def test_rejects_non_positive_radius(self):
        for R in (0.0, float("nan")):  # nan fails R > 0 too, before any sort
            with pytest.raises(ValueError, match="radius must be positive"):
                project_l1_ball(np.array([0.1]), R)


def _m(G, g):
    return CorrectedMoments(gamma_mat=G, gamma_vec=np.asarray(g, float),
                            n=1, p=len(g))


class TestL1ClsFit:
    def test_unconstrained_minimum_inside_ball(self):
        fit = l1_cls_fit(_m(np.eye(3), [0.9, 0.0, 0.0]), 0.0,
                         SolverOptions(radius=10.0))
        assert np.allclose(fit.beta, [0.9, 0, 0], atol=1e-6)

    def test_identity_gamma_soft_threshold_solution(self):
        fit = l1_cls_fit(_m(np.eye(3), [0.9, 0.2, 0.0]), 0.3,
                         SolverOptions(radius=10.0))
        assert np.allclose(fit.beta, [0.6, 0, 0], atol=1e-6)

    def test_matches_multistart_oracle_small(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((5, 5))
        G = A @ A.T + 0.5 * np.eye(5)
        g = rng.standard_normal(5)
        opts = SolverOptions(radius=2.0)
        fit = l1_cls_fit(_m(G, g), 0.1, opts)
        best = np.inf
        for _ in range(100):
            start = project_l1_ball(rng.uniform(-2, 2, 5), 2.0)
            f = l1_cls_fit(_m(G, g), 0.1, opts, beta0=start)
            best = min(best, f.objective)
        assert fit.objective <= best + 1e-3

    def test_lambda_zero_pd_converges_to_linear_solution(self):
        sigma = ar1_covariance(6, 0.4)
        g = np.arange(1.0, 7.0) / 10
        target = np.linalg.solve(sigma, g)
        radius = 10 * np.abs(g).sum() / np.linalg.eigvalsh(sigma)[0]
        fit = l1_cls_fit(_m(sigma, g), 0.0, SolverOptions(radius=radius, rel_tol=1e-12))
        assert np.linalg.norm(fit.beta - target) < 1e-4

    def test_monotone_objective_on_psd_fixed_step(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 8))
        G = A @ A.T
        g = rng.standard_normal(8)
        m = _m(G, g)
        opts = SolverOptions(radius=3.0, max_iters=1, rel_tol=1e-16)
        beta = np.zeros(8)
        prev = corrected_loss(beta, m) + 0.2 * np.abs(beta).sum()
        for _ in range(60):
            fit = l1_cls_fit(m, 0.2, opts, beta0=beta)
            cur = corrected_loss(fit.beta, m) + 0.2 * np.abs(fit.beta).sum()
            assert cur <= prev + 1e-12
            beta, prev = fit.beta, cur

    def test_only_a_fit_stopped_by_the_iteration_cap_reports_not_converged(self):
        m, radius = _sim_moments("missing", 200, 40, seed=17)
        full = l1_cls_fit(m, 0.1, SolverOptions(radius=radius))
        capped = l1_cls_fit(m, 0.1, SolverOptions(radius=radius, max_iters=2))
        assert full.iterations > 2 and full.converged is True
        assert capped.iterations == 2 and capped.converged is False

    def test_indefinite_gamma_returns_bounded_best_iterate(self):
        G = np.diag([1.0, -0.5])
        fit = l1_cls_fit(_m(G, [0.5, 0.3]), 0.05, SolverOptions(radius=1.5))
        assert np.abs(fit.beta).sum() <= 1.5 + 1e-10
        assert np.isfinite(fit.objective)


def _restart_or_momentum(t, mu, y, cand, step):
    """(t, mu) after a step: t back to 1 and no momentum when it points
    uphill, (y - cand) . step > 0; otherwise the accelerated t and mu."""
    if mu and (y - cand) @ step > 0:
        return 1.0, 0.0
    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
    return t_next, (t - 1.0) / t_next


def _two_matvec_fit(m, lam, opts):
    """The accelerated solver loop with two G products per step: one for the
    gradient at the extrapolated point y, one inside the objective of every
    candidate."""
    G, g, R = m.gamma_mat, m.gamma_vec, opts.radius

    def objective(b):
        return 0.5 * b @ G @ b - g @ b + lam * np.abs(b).sum()

    eta = 1.0 / m.lipschitz
    beta = y = np.zeros(m.p)
    t, mu = 1.0, 0.0
    f = objective(beta)
    best_beta, best_f = beta.copy(), f
    for iters in range(1, opts.max_iters + 1):
        grad = G @ y - g
        cand = _reference_project(soft_threshold(y - eta * grad, eta * lam), R)
        f_cand = objective(cand)
        t, mu = _restart_or_momentum(t, mu, y, cand, cand - beta)
        y = cand + mu * (cand - beta)
        df = f - f_cand
        beta, f = cand, f_cand
        if f < best_f:
            best_f, best_beta = f, beta.copy()
        if abs(df) < opts.rel_tol * max(1.0, abs(f)):
            break
    return best_beta, best_f, iters


def _dense_loop_fit(m, lam, opts, beta0=None, accelerated=True):
    """The one-matvec solver loop with a separate shrink and projection per
    step: the product G @ b from `m.product`, the one the solver uses, and
    G @ y extrapolated by linearity.  With ``accelerated`` False the
    momentum stays 0: the fixed-step projected gradient loop."""
    g, R, p, matvec = m.gamma_vec, opts.radius, m.p, m.product()
    eta = 1.0 / m.lipschitz
    beta = np.zeros(p) if beta0 is None else _reference_project(np.asarray(beta0, float), R)
    Gb = matvec(beta)
    y, Gy, t, mu = beta, Gb, 1.0, 0.0
    f = 0.5 * beta @ Gb - g @ beta + lam * np.abs(beta).sum()
    best_beta, best_f = beta.copy(), f
    for iters in range(1, opts.max_iters + 1):
        cand = _reference_project(soft_threshold(y - eta * (Gy - g), eta * lam), R)
        Gc = matvec(cand)
        f_cand = 0.5 * cand @ Gc - g @ cand + lam * np.abs(cand).sum()
        step = cand - beta
        if accelerated:
            t, mu = _restart_or_momentum(t, mu, y, cand, step)
        y, Gy = (cand + mu * step, Gc + mu * (Gc - Gb)) if mu else (cand, Gc)
        df = f - f_cand
        beta, Gb, f = cand, Gc, f_cand
        if f < best_f:
            best_f, best_beta = f, beta.copy()
        if abs(df) < opts.rel_tol * max(1.0, abs(f)):
            break
    return best_beta, best_f, iters


def _sim_moments(noise_kind, n, p, seed):
    train, beta0, _ = gen_regression(SimConfig(n=n, p=p, s=4, noise_kind=noise_kind,
                                               seed=seed))
    return corrected_moments(train), 1.1 * np.abs(beta0).sum()


class TestOneMatvecSolver:
    @pytest.mark.parametrize("noise_kind, n, p", [("additive", 30, 50),
                                                  ("missing", 200, 40),
                                                  ("missing", 200, 300)])
    def test_matches_two_matvec_loop(self, noise_kind, n, p):
        # p = 300 runs the active-row product, the others the dense one
        m, radius = _sim_moments(noise_kind, n, p, seed=17)
        if noise_kind == "additive":
            assert np.linalg.eigvalsh(m.gamma_mat)[0] < 0  # indefinite on purpose
        opts = SolverOptions(radius=radius, max_iters=2000)
        ref_beta, ref_f, ref_iters = _two_matvec_fit(m, 0.05, opts)
        fit = l1_cls_fit(m, 0.05, opts)
        assert np.max(np.abs(fit.beta - ref_beta)) <= 1e-12
        assert abs(fit.objective - ref_f) <= 1e-12 * max(1.0, abs(ref_f))
        assert fit.iterations == ref_iters

    def test_small_gamma_runs_the_dense_loop_exactly(self):
        m, radius = _sim_moments("missing", 200, 100, seed=17)
        opts = SolverOptions(radius=radius, max_iters=2000)
        ref_beta, ref_f, ref_iters = _dense_loop_fit(m, 0.05, opts)
        fit = l1_cls_fit(m, 0.05, opts)
        assert np.array_equal(fit.beta, ref_beta)
        assert fit.objective == ref_f and fit.iterations == ref_iters

    @pytest.mark.parametrize("noise_kind, n, p", [("additive", 30, 50),
                                                  ("missing", 200, 100),
                                                  ("missing", 200, 300)])
    def test_warm_started_path_matches_the_separate_shrink_loop_to_the_bit(
            self, noise_kind, n, p):
        m, radius = _sim_moments(noise_kind, n, p, seed=17)
        opts = SolverOptions(radius=radius, max_iters=2000)
        beta0 = None
        for lam in default_lambda_grid():
            ref_beta, ref_f, ref_iters = _dense_loop_fit(m, lam, opts, beta0)
            fit = l1_cls_fit(m, lam, opts, beta0=beta0)
            assert fit.beta.tobytes() == ref_beta.tobytes(), lam
            assert np.float64(fit.objective).tobytes() == np.float64(ref_f).tobytes(), lam
            assert fit.iterations == ref_iters, lam
            beta0 = fit.beta

    @pytest.mark.parametrize("noise_kind, n, p", [("missing", 200, 300),  # p > n
                                                  ("additive", 30, 50)])
    def test_acceleration_halves_the_fixed_step_iterations(self, noise_kind, n, p):
        m, radius = _sim_moments(noise_kind, n, p, seed=17)
        assert np.linalg.eigvalsh(m.gamma_mat)[0] < 0  # indefinite either way
        opts = SolverOptions(radius=radius, max_iters=2000)
        plain_beta, _, plain_iters = _dense_loop_fit(m, 0.0, opts, accelerated=False)
        tight, _, _ = _dense_loop_fit(m, 0.0, SolverOptions(radius=radius, rel_tol=1e-15,
                                                            max_iters=100_000),
                                      accelerated=False)
        fit = l1_cls_fit(m, 0.0, opts)
        assert fit.iterations <= plain_iters / 2
        assert np.linalg.norm(fit.beta - tight) <= np.linalg.norm(plain_beta - tight)
        assert np.abs(fit.beta).sum() <= radius * (1 + 1e-12)

    @pytest.mark.parametrize("p", [3, 300])  # the dense and the active-row product
    def test_start_of_the_wrong_length_rejected(self, p):
        with pytest.raises(ValueError, match=f"beta0 has length {p - 1}, expected {p}"):
            l1_cls_fit(_m(np.eye(p), np.ones(p)), 0.1, SolverOptions(), beta0=np.zeros(p - 1))


def _recording_starts(monkeypatch):
    """Patch `corrls.selection._fista`, the loop of `l1_cls_fit` and `l1_cls_path`,
    to append each fit's start to a list; returns the list and the loop."""
    starts, original = [], corrls.selection._fista

    def recording(m, matvec, lam, beta, opts):
        starts.append(beta)
        return original(m, matvec, lam, beta, opts)

    monkeypatch.setattr(corrls.selection, "_fista", recording)
    return starts, original


class TestSecantPath:
    def test_from_the_third_fit_the_secant_starts_nearer_than_the_last_fit(self, monkeypatch):
        # a dense positive-definite Gamma and a grid along which the active set stays
        # {0, 1, 2}: the solution is linear in lambda there, so the secant through
        # the last two fits is nearer the next solution than a plain warm start
        A = np.random.default_rng(3).standard_normal((40, 8))
        G = A.T @ A / 40 + 0.5 * np.eye(8)
        m = _m(G, G @ np.array([3.0, -2.0, 1.5, 0, 0, 0, 0, 0]))
        opts = SolverOptions(rel_tol=1e-14, radius=100.0)
        lams = [0.3, 0.25, 0.2, 0.15, 0.1, 0.05]
        tight = [l1_cls_fit(m, lam, opts) for lam in lams]
        assert {fit.support_used for fit in tight} == {(0, 1, 2)}
        starts, _ = _recording_starts(monkeypatch)
        fits = l1_cls_path(m, lams, opts)
        assert len(starts) == len(fits) == len(lams)
        for k in range(2, len(lams)):
            solution = tight[k].beta
            assert (np.linalg.norm(starts[k] - solution)
                    < np.linalg.norm(fits[k - 1].beta - solution)), lams[k]

    @pytest.mark.parametrize("noise_kind, n, p", [("additive", 30, 50),
                                                  ("missing", 200, 100),
                                                  ("missing", 400, 300)])
    def test_each_path_fit_is_the_fit_from_its_start(self, monkeypatch, noise_kind, n, p):
        # one product for the whole path: each fit is the bytes of the loop from the
        # start the path took with a product of its own (dense and active-row products,
        # which keep no rows), and the first is `l1_cls_fit`'s from zero
        m, radius = _sim_moments(noise_kind, n, p, seed=17)
        opts = SolverOptions(radius=radius, max_iters=2000)
        products = []
        monkeypatch.setattr(CorrectedMoments, "product", lambda self, original=(
            CorrectedMoments.product): products.append(self) or original(self))
        starts, loop = _recording_starts(monkeypatch)
        lams = default_lambda_grid()[::-1]
        fits = l1_cls_path(m, lams, opts)
        assert products == [m] and len(starts) == len(lams) and not starts[0].any()
        for lam, start, fit in zip(lams, starts, fits):
            assert loop(m, m.product(), lam, start, opts).beta.tobytes() == fit.beta.tobytes()
        assert l1_cls_fit(m, lams[0], opts).beta.tobytes() == fits[0].beta.tobytes()


class TestActiveRowsMatvec:
    P = 320  # p / 16 = 20

    def _case(self, nnz, seed=3):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((self.P, self.P))
        b = np.zeros(self.P)
        b[rng.choice(self.P, nnz, replace=False)] = rng.standard_normal(nnz)
        return A, b

    @pytest.mark.parametrize("nnz", [0, 1, P // 16, P])
    def test_matches_dense_product(self, nnz):
        A, b = self._case(nnz)
        G = 0.5 * (A + A.T)
        err = np.max(np.abs(active_rows_matvec(G, b) - G @ b), initial=0.0)
        assert err <= 1e-15 * np.linalg.norm(G) * np.linalg.norm(b)

    def test_gathers_up_to_one_nonzero_in_sixteen(self):
        # on a non-symmetric matrix the row gather forms A' b, not A b
        for nnz, transposed in [(self.P // 16, True), (self.P // 16 + 1, False)]:
            A, b = self._case(nnz)
            assert np.allclose(active_rows_matvec(A, b), (A.T if transposed else A) @ b)


@pytest.mark.parametrize("build, match", [
    (lambda: SolverOptions(max_iters=0), "max_iters must be at least 1, got 0"),
    (lambda: SolverOptions(rel_tol=0), "rel_tol must be positive"),
    (lambda: SolverOptions(radius=0), "radius must be positive"),
    (lambda: SolverOptions(radius=float("nan")), "radius must be positive"),
    (lambda: l1_cls_fit(_m(np.eye(2), [1.0, 0.0]), -0.1, SolverOptions()),
     "lambda must be a finite number >= 0, got -0.1"),
    (lambda: l1_cls_fit(_m(np.eye(2), [1.0, 0.0]), np.inf, SolverOptions()),
     "lambda must be a finite number >= 0, got inf"),
    (lambda: l1_cls_fit(_m(np.eye(2), [1.0, 0.0]), np.float64("nan"), SolverOptions()),
     "lambda must be a finite number >= 0, got nan"),
    (lambda: screen_size(float("nan"), 5), "a_n must be a whole number, got nan"),
    (lambda: screen_size(-np.inf, 5), "a_n must be a whole number, got -inf"),
], ids=["max_iters", "rel_tol", "radius", "nan_radius", "negative_lambda", "inf_lambda",
        "nan_lambda", "nan_an", "inf_an"])
def test_invalid_solver_input_raises(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("build, message", [
    # rel_tol=inf stopped every fit after one step as converged; nan ran to max_iters
    (lambda: SolverOptions(rel_tol=np.inf), "rel_tol must be positive and finite, got inf"),
    (lambda: SolverOptions(rel_tol=np.nan), "rel_tol must be positive and finite, got nan"),
    (lambda: SolverOptions(max_iters=2.5), "max_iters must be a whole number, got 2.5"),
    (lambda: SolverOptions(max_iters=True), "max_iters must be a whole number, got True"),
    (lambda: SolverOptions(radius=np.inf), "radius must be positive and finite, got inf"),
    (lambda: project_l1_ball(np.ones(2), np.inf), "radius must be positive and finite, got inf"),
    (lambda: screen_size(True, 5), "a_n must be a whole number, got True"),
    (lambda: cs_screen(np.ones(3), -2), "a_n must be at least 1, got -2"),
], ids=["inf_rel_tol", "nan_rel_tol", "fractional_max_iters", "bool_max_iters", "inf_radius",
        "inf_projection_radius", "bool_an", "negative_an"])
def test_solver_counts_and_scales_follow_the_shared_rules(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("scores", [np.arange(5.0), np.arange(10.0).reshape(2, 5)],
                         ids=["1-D", "2-D"])
@pytest.mark.parametrize("k, message", [
    # 0 returned no index, -1 dropped the last one, 2.5 and nan raised numpy's TypeError
    (0, "a_n must be at least 1, got 0"),
    (-1, "a_n must be at least 1, got -1"),
    (2.5, "a_n must be a whole number, got 2.5"),
    (True, "a_n must be a whole number, got True"),
    (np.nan, "a_n must be a whole number, got nan"),
], ids=["zero", "negative", "fraction", "bool", "nan"])
def test_screen_order_takes_its_count_by_screen_size(scores, k, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        screen_order(scores, k)


@pytest.mark.parametrize("shape", [(2, 2, 2), (1, 3, 1, 2), (0,), (3, 0)])
def test_screen_order_rejects_scores_that_are_not_rows(shape):
    # a 3-D array was flattened: (2, 2, 2) at k = 3 gave [7 6 5], indices into no row
    message = f"screening scores must be non-empty 1-D or 2-D rows, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        screen_order(np.arange(math.prod(shape), dtype=float).reshape(shape), 3)


def test_a_whole_float_iteration_cap_is_stored_as_an_int():
    opts = SolverOptions(max_iters=25.0)
    assert opts.max_iters == 25 and type(opts.max_iters) is int
    assert screen_size(np.float64(3.0), 5) == 3 and type(screen_size(3.0, 5)) is int


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


class TestLanczosTop:
    @staticmethod
    def _agrees(G):
        exact = float(np.max(np.abs(np.linalg.eigvalsh(G)), initial=0.0))
        assert abs(_lanczos_top(G) - exact) <= 1e-12 * exact
        return exact

    def test_zero_matrix_gives_zero(self):
        # L = 0 keeps the solver's step rule at 1
        assert _lanczos_top(np.zeros((40, 40))) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 45])  # n=1: a 1 x 1 matrix
    def test_multiples_of_the_identity(self, n):
        assert self._agrees(2.5 * np.eye(n)) == 2.5

    def test_rank_one(self):
        u = np.random.default_rng(1).standard_normal(80)
        self._agrees(np.outer(u, u))

    def test_two_blocks_with_equal_top_eigenvalues(self):
        rng = np.random.default_rng(2)
        blocks = []
        for k in (30, 50):
            Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            blocks.append((Q * np.linspace(0.0, 4.0, k)) @ Q.T)
        G = np.zeros((80, 80))
        G[:30, :30], G[30:, 30:] = blocks
        assert self._agrees(0.5 * (G + G.T)) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("n", [20, 60])
    def test_equally_spaced_spectrum_ends_within_n_steps(self, monkeypatch, n):
        # the top eigenvalue stands out no more than any other; at n=20 the first
        # check comes at step n, so only the step-n stop can end the loop
        Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))
        G = (Q * np.arange(1.0, n + 1)) @ Q.T
        sizes = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda T, **kw: sizes.append(len(T))
                            or original(T, **kw))
        assert self._agrees(0.5 * (G + G.T)) == pytest.approx(n, rel=1e-12)
        assert sizes and max(sizes) <= n


def _reference_support(beta):
    """`support` written with np.flatnonzero and np.max."""
    beta = np.asarray(beta, dtype=float).ravel()
    if not np.all(np.isfinite(beta)):
        raise ValueError("non-finite vector")
    tol = 1e-6 * max(1.0, float(np.max(np.abs(beta), initial=0.0)))
    return np.flatnonzero(np.abs(beta) > tol).tolist()


AT_DEFAULT_TOL = 1e-6 * 4.0  # the tolerance of a vector whose largest |entry| is 4


class TestSupport:
    @pytest.mark.parametrize("beta", [
        [-0.0, 0.0, -0.0],
        [0.0] * 5,
        [4.0, AT_DEFAULT_TOL, -AT_DEFAULT_TOL, -2 * AT_DEFAULT_TOL],
    ])
    def test_matches_the_flatnonzero_form(self, beta):
        got = support(beta)
        assert got == _reference_support(beta)
        assert all(type(j) is int for j in got)

    @pytest.mark.parametrize("beta", [[np.nan, 1.0, -0.5], [np.inf, 1.0], [0.0, -np.inf],
                                      [1.0, np.nan, np.inf]])
    def test_default_tol_rejects_a_non_finite_vector(self, beta):
        for check in (support, _reference_support):
            with pytest.raises(ValueError, match="non-finite vector"):
                check(beta)

    @given(hnp.arrays(dtype=float, shape=st.integers(0, 12),
                      elements=st.sampled_from([-0.0, 0.0, 1e-6, -1e-6, 4e-6, np.nan, -np.inf])
                      | st.floats(-5, 5)))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_flatnonzero_form_on_random_vectors(self, beta):
        try:
            ref = _reference_support(beta)
        except ValueError:
            with pytest.raises(ValueError, match="non-finite vector"):
                support(beta)
        else:
            assert support(beta) == ref

    def test_zero_vector(self):
        assert support(np.zeros(4)) == []
