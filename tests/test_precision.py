import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrls import (
    MissingNoise,
    SurrogateDataset,
    assemble_precision,
    column_norm_error,
    estimate_precision,
    fit_neighborhood,
    neighborhood_moments,
    symmetrize,
)
from corrls.precision import NeighborhoodFit, PrecisionEstimate, corrected_covariance
from corrls.simulate import ar1_covariance, gen_graph_data, sample_gaussian
from corrls._rng import substream


def _missing_dataset(X, rho, seed):
    n, p = X.shape
    mask = substream(seed, "mask").random((n, p)) < (1.0 - np.asarray(rho))
    return SurrogateDataset(Z=np.where(mask, X, 0.0), y=None,
                            noise=MissingNoise(rho), mask=mask)


def _exact_fits(sigma):
    p = sigma.shape[0]
    fits = []
    for j in range(p):
        keep = [k for k in range(p) if k != j]
        theta = np.linalg.solve(sigma[np.ix_(keep, keep)], sigma[keep, j])
        fits.append(NeighborhoodFit(theta=theta, support=tuple(range(p - 1)),
                                    fallback_used=False))
    return fits


class TestNeighborhoodMoments:
    def test_zero_rho_reduction(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 4))
        data = _missing_dataset(X, np.zeros(4), seed=1)
        m = neighborhood_moments(corrected_covariance(data), 1, data.n)
        raw = X.T @ X / 30
        raw = 0.5 * (raw + raw.T)
        keep = [0, 2, 3]
        assert np.allclose(m.gamma_mat, raw[np.ix_(keep, keep)])
        assert np.allclose(m.gamma_vec, raw[keep, 1])

    def test_p2_direct_instantiation(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 2))
        rho = np.array([0.2, 0.3])
        data = _missing_dataset(X, rho, seed=2)
        m = neighborhood_moments(corrected_covariance(data), 0, data.n)
        Z = data.Z
        expected_vec = (Z[:, 1] @ Z[:, 0] / 50) / ((1 - 0.3) * (1 - 0.2))
        expected_mat = (Z[:, 1] @ Z[:, 1] / 50) / (1 - 0.3)
        assert m.p == 1
        assert m.gamma_vec[0] == pytest.approx(expected_vec)
        assert m.gamma_mat[0, 0] == pytest.approx(expected_mat)

    def test_cross_moment_unbiased_monte_carlo(self):
        # theta for column 0 of a 2x2 covariance with off-diagonal 0.5 is 0.5
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        acc = 0.0
        reps = 30
        for r in range(reps):
            X = sample_gaussian(2000, sigma, seed=50 + r)
            data = _missing_dataset(X, np.full(2, 0.3), seed=500 + r)
            acc += neighborhood_moments(corrected_covariance(data), 0, data.n).gamma_vec[0]
        assert abs(acc / reps - 0.5) < 0.05


class TestFitNeighborhood:
    def test_independent_coordinates_give_near_zero(self):
        X = sample_gaussian(2000, np.eye(10), seed=7)
        data = _missing_dataset(X, np.full(10, 0.1), seed=8)
        fit = fit_neighborhood(corrected_covariance(data), 0, a_n=4, radius=3.0, n=data.n)
        assert np.max(np.abs(fit.theta)) <= 0.1

    def test_p2_recovers_half(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        X = sample_gaussian(4000, sigma, seed=9)
        data = _missing_dataset(X, np.full(2, 0.2), seed=10)
        fit = fit_neighborhood(corrected_covariance(data), 0, a_n=1, radius=3.0, n=data.n)
        assert abs(fit.theta[0] - 0.5) < 0.1

    def test_full_support_reduces_to_restricted_ls(self):
        sigma = ar1_covariance(5, 0.4)
        X = sample_gaussian(1500, sigma, seed=11)
        data = _missing_dataset(X, np.full(5, 0.1), seed=12)
        fit = fit_neighborhood(corrected_covariance(data), 2, a_n=4, radius=10.0, n=data.n)
        assert fit.support == (0, 1, 2, 3)

    def test_radius_enforced_by_fallback(self):
        sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
        X = sample_gaussian(3000, sigma, seed=13)
        data = _missing_dataset(X, np.zeros(2), seed=14)
        fit = fit_neighborhood(corrected_covariance(data), 0, a_n=1, radius=0.1, n=data.n)
        assert fit.fallback_used
        assert np.abs(fit.theta).sum() <= 0.1 + 1e-10

    def test_radius_enforced_on_singular_block(self):
        # the selected 2x2 block [[1, 1], [1, 1]] is singular, so the refit
        # takes the pseudo-inverse, whose solution (2.5, 2.5) leaves the ball
        S = np.array([[10.0, 5.0, 5.0], [5.0, 1.0, 1.0], [5.0, 1.0, 1.0]])
        fit = fit_neighborhood(S, 0, a_n=2, radius=1.0, n=4)
        assert fit.fallback_used
        assert np.abs(fit.theta).sum() <= 1.0 + 1e-10


class TestAssemblePrecision:
    def test_identity_inputs(self):
        fits = [NeighborhoodFit(theta=np.zeros(2), support=(), fallback_used=False)
                for _ in range(3)]
        est = assemble_precision(fits, np.eye(3))
        assert np.array_equal(est.theta_raw, np.eye(3))
        assert np.array_equal(est.theta, np.eye(3))

    def test_hand_computed_2x2(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        fits = [NeighborhoodFit(theta=np.array([0.5]), support=(0,), fallback_used=False)
                for _ in range(2)]
        est = assemble_precision(fits, sigma)
        expected = np.array([[4 / 3, -2 / 3], [-2 / 3, 4 / 3]])
        assert np.max(np.abs(est.theta_raw - expected)) <= 1e-10
        assert np.max(np.abs(est.theta - expected)) <= 1e-10
        assert np.max(np.abs(est.theta - np.linalg.inv(sigma))) <= 1e-10

    def test_reconstruction_identity_exact_sigma(self):
        sigma = ar1_covariance(8, 0.6)
        est = assemble_precision(_exact_fits(sigma), sigma)
        assert np.max(np.abs(est.theta - np.linalg.inv(sigma))) <= 1e-8

    def test_eigenvalue_bounds_on_exact_inputs(self):
        sigma = ar1_covariance(7, 0.5)
        vals = np.linalg.eigvalsh(sigma)
        lam_min, lam_max = vals[0], vals[-1]
        est = assemble_precision(_exact_fits(sigma), sigma)
        for j, fit in enumerate(_exact_fits(sigma)):
            assert 1 / lam_max <= abs(est.d[j]) <= 1 / lam_min + 1e-12
            assert np.linalg.norm(fit.theta) <= lam_max / lam_min + 1e-12

    def test_degenerate_denominator_rejected(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        fits = [NeighborhoodFit(theta=np.array([1.0]), support=(0,), fallback_used=False)
                for _ in range(2)]
        with pytest.raises(ValueError, match="residual variance degenerate"):
            assemble_precision(fits, sigma)

    def test_negative_denominator_flagged_not_fatal(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        fits = [NeighborhoodFit(theta=np.array([3.0]), support=(0,), fallback_used=False)
                for _ in range(2)]
        est = assemble_precision(fits, sigma)
        assert est.negative_d == [0, 1]


class TestSymmetrize:
    def test_fixed_point(self):
        A = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert np.array_equal(symmetrize(A), A)

    def test_averaging(self):
        assert np.array_equal(symmetrize([[0.0, 2.0], [0.0, 0.0]]),
                              [[0.0, 1.0], [1.0, 0.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((5, 5))
        once = symmetrize(A)
        assert np.array_equal(symmetrize(once), once)

    def test_never_increases_distance_to_symmetric_target(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 6))
        B = rng.standard_normal((6, 6))
        target = 0.5 * (B + B.T)
        assert (column_norm_error(symmetrize(A), target)
                <= (1 + 1e-12) * column_norm_error(A, target))


class TestEstimatePrecision:
    def test_identity_sigma_envelope(self):
        X = sample_gaussian(2000, np.eye(20), seed=21)
        data = _missing_dataset(X, np.full(20, 0.2), seed=22)
        est = estimate_precision(data, a_n=5, radius=5.0)
        assert column_norm_error(est.theta, np.eye(20)) <= 0.5

    def test_zero_rho_close_to_direct_inverse(self):
        sigma = ar1_covariance(10, 0.4)
        X = sample_gaussian(4000, sigma, seed=23)
        data = _missing_dataset(X, np.zeros(10), seed=24)
        est = estimate_precision(data, a_n=9, radius=20.0)
        S_hat = corrected_covariance(data)
        assert column_norm_error(est.theta, np.linalg.inv(S_hat)) <= 0.2

    def test_requires_missing_noise(self):
        from corrls import AdditiveNoise

        data = SurrogateDataset(Z=np.eye(3), y=None,
                                noise=AdditiveNoise(np.zeros((3, 3))))
        with pytest.raises(ValueError):
            estimate_precision(data, a_n=1, radius=1.0)

    def test_error_decreases_with_n(self):
        from corrls.simulate import generate_band_precision

        theta, sigma = generate_band_precision(30, 2)
        errs = {}
        for n in (100, 400):
            acc = 0.0
            for r in range(8):
                data = gen_graph_data(sigma, n, 1.0, (0.05, 0.4),
                                      seed=1000 * n + r)
                est = estimate_precision(data, a_n=6, radius=8.0)
                acc += column_norm_error(est.theta, theta)
            errs[n] = acc / 8
        assert errs[400] < errs[100]


def _parent_route(data, a_n, radius):
    """The pipeline as it was before it read S directly: full (p-1)-dimensional
    moments per column, then screen, refit and ball re-solve.  S and the
    assembly are in-test copies of the old formula and keep-list loop.  Also
    returns the branch each column took."""
    from corrls.moments import CorrectedMoments, build_mask_matrix
    from corrls.post import post_cls_fit
    from corrls.selection import SolverOptions, cs_screen, l1_cls_fit

    S = (data.Z.T @ data.Z) / data.n / build_mask_matrix(data.noise.rho)
    S = 0.5 * (S + S.T)
    ball_opts = SolverOptions(radius=radius)
    fits, branches = [], []
    for j in range(data.p):
        m = neighborhood_moments(S, j, data.n)
        T_hat = cs_screen(m.gamma_vec, a_n)
        fit = post_cls_fit(m, T_hat, ball_opts)
        theta, fallback = fit.beta, fit.fallback_used
        branch = "indefinite" if fit.iterations else "pinv" if fallback else "solve"
        if not fallback and np.abs(theta).sum() > radius * (1 + 1e-12):
            T = list(T_hat)
            sub = CorrectedMoments(gamma_mat=m.gamma_mat[np.ix_(T, T)],
                                   gamma_vec=m.gamma_vec[T], n=m.n, p=len(T))
            theta = np.zeros(m.p)
            theta[T] = l1_cls_fit(sub, 0.0, ball_opts).beta
            fallback, branch = True, "ball"
        fits.append(NeighborhoodFit(theta=theta, support=T_hat,
                                    fallback_used=fallback))
        branches.append(branch)
    p = data.p
    theta_raw, d, negative_d = np.zeros((p, p)), np.zeros(p), []
    for j, fit in enumerate(fits):
        keep = [k for k in range(p) if k != j]
        denom = S[j, j] - S[j, keep] @ fit.theta
        if denom <= 0:
            negative_d.append(j)
        d[j] = 1.0 / denom
        theta_raw[j, j] = d[j]
        theta_raw[keep, j] = -d[j] * fit.theta
    return PrecisionEstimate(
        theta=0.5 * (theta_raw + theta_raw.T), theta_raw=theta_raw, d=d,
        neighborhood_supports=[fit.support for fit in fits],
        fallback_flags=[fit.fallback_used for fit in fits], negative_d=negative_d), branches


class TestPipelineReadsSDirectly:
    def test_bit_identical_to_full_neighborhood_moments(self):
        from corrls.simulate import generate_band_precision

        _, sigma = generate_band_precision(30, 2)
        data = gen_graph_data(sigma, 150, 1.0, (0.2, 0.7), seed=1)
        ref, branches = _parent_route(data, a_n=6, radius=2.5)
        assert {"solve", "ball", "indefinite"} <= set(branches)
        est = estimate_precision(data, a_n=6, radius=2.5)
        assert np.array_equal(est.theta, ref.theta)
        assert np.array_equal(est.theta_raw, ref.theta_raw)
        assert np.array_equal(est.d, ref.d)
        assert est.neighborhood_supports == ref.neighborhood_supports
        assert est.fallback_flags == ref.fallback_flags
        assert est.negative_d == ref.negative_d and est.negative_d


def _reference_fit(S, j, a_n, radius, n):
    """Column j fitted alone, as the pipeline fitted every column before the
    batch: screen by `cs_screen`, refit by `post_cls_fit`, and re-solve a
    direct refit that leaves the ball."""
    from corrls.moments import CorrectedMoments
    from corrls.post import post_cls_fit
    from corrls.selection import SolverOptions, cs_screen, l1_cls_fit

    keep = np.delete(np.arange(S.shape[0]), j)
    g = S[keep, j]
    T = list(cs_screen(g, a_n))
    sub = CorrectedMoments(gamma_mat=S[np.ix_(keep[T], keep[T])], gamma_vec=g[T], n=n,
                           p=len(T))
    opts = SolverOptions(radius=radius)
    fit = post_cls_fit(sub, range(len(T)), opts)
    theta = np.zeros(keep.size)
    theta[T] = fit.beta
    fallback = fit.fallback_used
    if fit.iterations == 0 and np.abs(theta).sum() > radius * (1 + 1e-12):
        theta[T] = l1_cls_fit(sub, 0.0, opts).beta
        fallback = True
    return NeighborhoodFit(theta=theta, support=tuple(T), fallback_used=fallback)


def _reference_assemble(fits, S):
    """`assemble_precision` as it was before it wrote all columns at once:
    one column at a time, through a keep-list."""
    p = S.shape[0]
    theta_raw, d, negative_d = np.zeros((p, p)), np.zeros(p), []
    for j, fit in enumerate(fits):
        keep = np.delete(np.arange(p), j)
        denom = S[j, j] - S[j, keep] @ fit.theta
        if abs(denom) < 1e-10:
            raise ValueError(f"residual variance degenerate at column {j}")
        if denom <= 0:
            negative_d.append(j)
        d[j] = 1.0 / denom
        theta_raw[j, j] = d[j]
        theta_raw[keep, j] = -d[j] * fit.theta
    return PrecisionEstimate(
        theta=symmetrize(theta_raw), theta_raw=theta_raw, d=d,
        neighborhood_supports=[fit.support for fit in fits],
        fallback_flags=[fit.fallback_used for fit in fits], negative_d=negative_d)


def _assert_same_estimate(est, ref):
    assert np.array_equal(est.theta, ref.theta)
    assert np.array_equal(est.theta_raw, ref.theta_raw)
    assert np.array_equal(est.d, ref.d)
    assert est.neighborhood_supports == ref.neighborhood_supports
    assert est.fallback_flags == ref.fallback_flags
    assert est.negative_d == ref.negative_d


def _graph_data(n, rho, seed, generator="band"):
    from corrls.simulate import generate_band_precision, generate_cluster_precision

    if generator == "band":
        _, sigma = generate_band_precision(30, 2)
    else:
        _, sigma = generate_cluster_precision(30, 5)
    return gen_graph_data(sigma, n, 1.0, rho, seed=seed)


class TestBatchedNeighborhoods:
    """`estimate_precision` fits every column in one batch; each estimate must
    equal the column-by-column fits byte for byte."""

    @given(p=st.integers(2, 12), a_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["pd", "above", "below", "singular_psd", "indefinite"]),
           coarse=st.booleans(),
           radius=st.sampled_from([0.05, 0.5, 2.0, 50.0]))
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_column_by_column(self, p, a_frac, seed, kind, coarse, radius):
        from unittest import mock

        from corrls import precision

        a_n = 1 + round(a_frac * (p - 2))
        rng = np.random.default_rng(seed)
        # the least eigenvalues of "above" and "below" blocks larger than 1 x 1
        # lie just above and just below the positive-definite threshold 1e-8
        rank, shift = {"pd": (p + 2, 0.1), "above": (1, 3e-8), "below": (1, 5e-9),
                       "singular_psd": (max(1, p // 3), 0.0), "indefinite": (p, -0.5)}[kind]
        A = rng.standard_normal((p, rank))
        B = A @ A.T / rank + shift * np.eye(p)
        if coarse:  # ties in the screening scores, zeros of both signs
            B = np.round(4 * B) / 4
        S = 0.5 * (B + B.T)
        n = 50
        data = SurrogateDataset(Z=np.zeros((n, p)), y=None, noise=MissingNoise(np.zeros(p)),
                                mask=np.ones((n, p), dtype=bool))
        ref_fits = [_reference_fit(S, j, a_n, radius, n) for j in range(p)]
        fits = [fit_neighborhood(S, j, a_n, radius, n) for j in range(p)]
        for fit, ref in zip(fits, ref_fits):
            assert np.array_equal(fit.theta, ref.theta)
            assert (fit.support, fit.fallback_used) == (ref.support, ref.fallback_used)
        with mock.patch.object(precision, "corrected_covariance", return_value=S):
            try:
                ref = _reference_assemble(ref_fits, S)
            except ValueError as exc:  # a degenerate residual variance
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    estimate_precision(data, a_n, radius)
                return
            _assert_same_estimate(estimate_precision(data, a_n, radius), ref)
            _assert_same_estimate(assemble_precision(fits, S), ref)

    @pytest.mark.parametrize("generator", ["band", "cluster"])
    @pytest.mark.parametrize("n, rho, a_n, radius", [
        (150, (0.2, 0.7), 6, 2.5), (80, (0.3, 0.6), 12, 1.5), (400, (0.05, 0.4), 8, 4.0),
    ])
    def test_graphs_equal_the_column_by_column_route(self, generator, n, rho, a_n, radius):
        data = _graph_data(n, rho, seed=n, generator=generator)
        ref, _ = _parent_route(data, a_n, radius)
        _assert_same_estimate(estimate_precision(data, a_n, radius), ref)

    def test_columns_pd_inside_the_ball_are_not_refit_alone(self, monkeypatch):
        from corrls import precision
        from corrls.post import post_cls_fit

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return post_cls_fit(*args, **kwargs)

        monkeypatch.setattr(precision, "post_cls_fit", counting)
        est = estimate_precision(_graph_data(2000, (0.05, 0.3), seed=3), a_n=4, radius=50.0)
        assert not any(est.fallback_flags) and calls == []
        # a column with a PD block outside the ball is re-solved without post_cls_fit
        data = _graph_data(150, (0.2, 0.7), seed=1)
        est = estimate_precision(data, a_n=6, radius=2.5)
        _, branches = _parent_route(data, a_n=6, radius=2.5)
        assert branches.count("ball") > 0
        assert len(calls) == sum(b in ("pinv", "indefinite") for b in branches) > 0
        assert sum(est.fallback_flags) == len(calls) + branches.count("ball")

    @pytest.mark.parametrize("batch_floats", [1, 36 * 7])
    def test_batches_equal_one_batch(self, monkeypatch, batch_floats):
        # a_n 6 gives 6 x 6 blocks: batches of one column, then of seven
        from corrls import precision

        data = _graph_data(150, (0.2, 0.7), seed=1)
        one = estimate_precision(data, a_n=6, radius=2.5)
        monkeypatch.setattr(precision, "_BATCH_FLOATS", batch_floats)
        _assert_same_estimate(estimate_precision(data, a_n=6, radius=2.5), one)
        assert 0 < sum(one.fallback_flags) < data.p

    def test_fractional_an_rejected_before_any_fit(self):
        data = _graph_data(100, (0.05, 0.3), seed=4)
        with pytest.raises(ValueError, match="a_n must be a whole number, got 2.5"):
            estimate_precision(data, 2.5, 5.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_corrected_covariance_rejected(self):
        X = np.random.default_rng(5).standard_normal((40, 4))
        X[7, 2] = 1e200  # its square overflows the Gram
        data = _missing_dataset(X, np.zeros(4), seed=6)
        with pytest.raises(ValueError, match="non-finite corrected moments"):
            estimate_precision(data, 2, 5.0)
