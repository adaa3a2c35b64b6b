import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrls.selection
from corrls import (
    AdditiveNoise,
    CorrectedMoments,
    MissingNoise,
    SurrogateDataset,
    build_mask_matrix,
    corrected_loss,
    corrected_moments,
    estimate_missing_rates,
    rse_bounds,
    uncorrected_moments,
)
from corrls.selection import lipschitz_estimate
from corrls.simulate import SimConfig, ar1_covariance, gen_beta0, gen_regression, sample_gaussian
from corrls._rng import substream


class TestEstimateMissingRates:
    def test_fully_observed_column(self):
        mask = np.ones((4, 1), dtype=bool)
        assert estimate_missing_rates(mask)[0] == 0.0

    def test_half_observed_column(self):
        mask = np.array([[True], [False], [True], [False]])
        assert estimate_missing_rates(mask)[0] == 0.5

    def test_all_missing_column_rejected(self):
        mask = np.array([[True, False], [True, False]])
        with pytest.raises(ValueError, match="degenerate column"):
            estimate_missing_rates(mask)


class TestBuildMaskMatrix:
    def test_constant_half(self):
        M = build_mask_matrix([0.5, 0.5])
        assert np.allclose(M, [[0.5, 0.25], [0.25, 0.5]])

    def test_no_missingness_gives_ones(self):
        assert np.array_equal(build_mask_matrix(np.zeros(5)), np.ones((5, 5)))

    def test_mixed_rates(self):
        M = build_mask_matrix([0.0, 0.5])
        assert np.allclose(M, [[1.0, 0.5], [0.5, 0.5]])

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            build_mask_matrix([0.2, 1.0])


def _additive(Z, y, sigma_w):
    return SurrogateDataset(Z=Z, y=y, noise=AdditiveNoise(sigma_w))


class TestCorrectedMoments:
    def test_zero_noise_reduces_to_ordinary_moments(self):
        Z = np.eye(2)
        m = corrected_moments(_additive(Z, np.array([1.0, 0.0]), np.zeros((2, 2))))
        assert np.array_equal(m.gamma_mat, 0.5 * np.eye(2))
        assert np.array_equal(m.gamma_vec, [0.5, 0.0])

    def test_additive_subtracts_sigma_w(self):
        Z = np.eye(2)
        m = corrected_moments(_additive(Z, np.array([1.0, 0.0]), 0.25 * np.eye(2)))
        assert np.allclose(m.gamma_mat, 0.25 * np.eye(2))

    def test_missing_zero_rho_reduces_exactly(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((6, 3))
        y = rng.standard_normal(6)
        data = SurrogateDataset(Z=Z, y=y, noise=MissingNoise(np.zeros(3)),
                                mask=np.ones((6, 3), dtype=bool))
        m = corrected_moments(data)
        raw = Z.T @ Z / 6
        assert np.array_equal(m.gamma_mat, 0.5 * (raw + raw.T))
        assert np.array_equal(m.gamma_vec, Z.T @ y / 6)

    def test_missing_correction_unbiased_monte_carlo(self):
        # mean corrected Gram over replicates approaches the design covariance
        p, n, reps = 10, 2000, 20
        sigma_x = ar1_covariance(p, 0.5)
        rho = np.full(p, 0.5)
        acc = np.zeros((p, p))
        for r in range(reps):
            X = sample_gaussian(n, sigma_x, seed=100 + r)
            mask = substream(200 + r, "m").random((n, p)) < 0.5
            Z = np.where(mask, X, 0.0)
            y = substream(300 + r, "y").standard_normal(n)
            data = SurrogateDataset(Z=Z, y=y, noise=MissingNoise(rho), mask=mask)
            acc += corrected_moments(data).gamma_mat
        assert np.max(np.abs(acc / reps - sigma_x)) < 0.08

    def test_gamma_vec_unbiased_monte_carlo(self):
        p, n, reps = 10, 2000, 20
        sigma_x = ar1_covariance(p, 0.5)
        beta0 = gen_beta0(p, 2, seed=5)
        acc = np.zeros(p)
        for r in range(reps):
            X = sample_gaussian(n, sigma_x, seed=400 + r)
            eps = 0.25 * substream(500 + r, "e").standard_normal(n)
            y = X @ beta0 + eps
            W = sample_gaussian(n, 0.25 * sigma_x, seed=600 + r, label="w")
            data = _additive(X + W, y, 0.25 * sigma_x)
            acc += corrected_moments(data).gamma_vec
        assert np.max(np.abs(acc / reps - sigma_x @ beta0)) < 0.08


class TestCorrectedLoss:
    def _m(self, G, g):
        return CorrectedMoments(gamma_mat=G, gamma_vec=g, n=1, p=len(g))

    def test_zero_beta(self):
        m = self._m(np.eye(3), np.zeros(3))
        assert corrected_loss(np.zeros(3), m) == 0.0

    def test_unit_vector(self):
        m = self._m(np.eye(3), np.zeros(3))
        assert corrected_loss(np.array([1.0, 0, 0]), m) == 0.5

    def test_negative_value(self):
        m = self._m(np.eye(3), np.array([1.0, 0, 0]))
        assert corrected_loss(np.array([1.0, 0, 0]), m) == -0.5

    def test_dimension_mismatch(self):
        m = self._m(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            corrected_loss(np.zeros(4), m)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_matches_triple_loop(self, p, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((p, p))
        G = 0.5 * (A + A.T)
        g = rng.standard_normal(p)
        beta = rng.standard_normal(p)
        m = self._m(G, g)
        ref = 0.0
        for i in range(p):
            for j in range(p):
                ref += 0.5 * beta[i] * G[i, j] * beta[j]
            ref -= g[i] * beta[i]
        assert abs(corrected_loss(beta, m) - ref) < 1e-12


class TestRseBounds:
    def _m(self, G):
        return CorrectedMoments(gamma_mat=G, gamma_vec=np.zeros(G.shape[0]),
                                n=1, p=G.shape[0])

    def test_identity(self):
        kappa, phi = rse_bounds(self._m(np.eye(4)), [0, 2], 1)
        assert kappa == pytest.approx(1.0)
        assert phi == pytest.approx(1.0)

    def test_diagonal_enumeration(self):
        # supports {0}, {0,1}, {0,2} of diag(2, 0.5, 1)
        kappa, phi = rse_bounds(self._m(np.diag([2.0, 0.5, 1.0])), [0], 1)
        assert kappa == pytest.approx(0.5)
        assert phi == pytest.approx(2.0)

    def test_negative_kappa_allowed(self):
        kappa, _ = rse_bounds(self._m(np.diag([1.0, -0.5])), [0], 1)
        assert kappa == pytest.approx(-0.5)

    def test_budget_exceeded(self):
        m = self._m(np.eye(40))
        with pytest.raises(ValueError, match="diagnostic too large"):
            rse_bounds(m, [0], 15, support_cap=100)

    def test_psd_input_positive_and_ordered(self):
        sigma = ar1_covariance(6, 0.6)
        kappa, phi = rse_bounds(self._m(sigma), [0, 1], 2)
        assert 0 < kappa <= phi


class TestMomentsSymmetry:
    def test_output_symmetrized(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        rho = np.array([0.1, 0.2, 0.3, 0.05])
        mask = substream(9, "m").random((20, 4)) < (1 - rho)
        data = SurrogateDataset(Z=np.where(mask, Z, 0.0), y=y,
                                noise=MissingNoise(rho), mask=mask)
        m = corrected_moments(data)
        assert np.max(np.abs(m.gamma_mat - m.gamma_mat.T)) <= 1e-10


def _wide(noise_kind, seed, n=100, p=300):
    data, _, _ = gen_regression(SimConfig(n=n, p=p, s=4, noise_kind=noise_kind, seed=seed))
    return data


def _exact_lipschitz(m):
    return np.max(np.abs(np.linalg.eigvalsh(m.gamma_mat)))


def _bounded_on(monkeypatch, m):
    """The shapes of the matrices `lipschitz_estimate` sees while `m.lipschitz`
    is computed."""
    original = corrls.selection.lipschitz_estimate
    shapes = []

    def recording(G):
        shapes.append(np.shape(G))
        return original(G)

    monkeypatch.setattr(corrls.selection, "lipschitz_estimate", recording)
    m.lipschitz
    return shapes


class TestLipschitzBound:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_missing_factor_reproduces_gamma_mat(self, seed):
        m = corrected_moments(_wide("missing", seed))
        Z, q = m.factor
        A = Z / q
        AtA = A.T @ A / m.n
        G = AtA - np.diag(np.diagonal(AtA) * (1.0 - q))
        assert np.max(np.abs(G - m.gamma_mat)) <= 1e-12 * np.max(np.abs(m.gamma_mat))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_missing_bound_certified_and_within_1_5x(self, seed):
        m = corrected_moments(_wide("missing", seed))
        exact = _exact_lipschitz(m)
        assert exact <= m.lipschitz <= 1.5 * exact

    @pytest.mark.parametrize("seed", [1, 2])
    def test_raw_gram_bound_is_exact(self, seed):
        m = uncorrected_moments(_wide("missing", seed))
        exact = _exact_lipschitz(m)
        assert abs(m.lipschitz - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("build", [corrected_moments, uncorrected_moments])
    def test_one_n_by_n_estimate_when_p_exceeds_n(self, monkeypatch, build):
        assert _bounded_on(monkeypatch, build(_wide("missing", 5))) == [(100, 100)]

    @pytest.mark.parametrize("noise_kind", ["missing", "additive"])
    @pytest.mark.parametrize("build", [corrected_moments, uncorrected_moments])
    def test_p_at_most_n_keeps_the_p_by_p_estimate_exactly(self, noise_kind, build):
        for n, p in [(200, 100), (100, 100)]:
            m = build(_wide(noise_kind, 6, n=n, p=p))
            assert m.lipschitz == lipschitz_estimate(m.gamma_mat)

    def test_additive_and_plain_moments_keep_the_p_by_p_estimate(self, monkeypatch):
        additive = corrected_moments(_wide("additive", 7))
        assert additive.factor is None
        assert _bounded_on(monkeypatch, additive) == [(300, 300)]
        m = corrected_moments(_wide("missing", 7))
        plain = CorrectedMoments(gamma_mat=m.gamma_mat, gamma_vec=m.gamma_vec, n=m.n, p=m.p)
        assert _bounded_on(monkeypatch, plain) == [(300, 300)]
        assert plain.lipschitz == _exact_lipschitz(m)


#: (moments function, noise kind) of the three kinds of dataset moments
BUILT = [(corrected_moments, "missing"), (corrected_moments, "additive"),
         (uncorrected_moments, "missing")]


class TestWideRoute:
    @pytest.mark.parametrize("build, noise_kind", BUILT)
    def test_block_matches_a_slice_of_gamma_mat(self, build, noise_kind):
        m = build(_wide(noise_kind, 8))
        assert m.wide
        idx = np.random.default_rng(0).choice(m.p, 25, replace=False)
        block = m.block(idx)
        assert "gamma_mat" not in vars(m)  # formed from the columns of Z
        ref = m.gamma_mat[np.ix_(idx, idx)]
        assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("build, noise_kind", BUILT)
    def test_narrow_block_is_a_slice_of_gamma_mat(self, build, noise_kind):
        m = build(_wide(noise_kind, 8, n=200, p=100))
        assert not m.wide
        idx = [7, 3, 50]
        assert np.array_equal(m.block(idx), m.gamma_mat[np.ix_(idx, idx)])

    @pytest.mark.parametrize("build, noise_kind", BUILT)
    def test_loss_on_the_support_matches_the_dense_form(self, build, noise_kind):
        m = build(_wide(noise_kind, 8))
        rng = np.random.default_rng(1)
        betas = [np.zeros(m.p)]
        for k in (1, 4, 30):
            beta = np.zeros(m.p)
            beta[rng.choice(m.p, k, replace=False)] = rng.standard_normal(k)
            betas.append(beta)
        losses = [corrected_loss(beta, m) for beta in betas]
        assert "gamma_mat" not in vars(m)
        assert losses[0] == 0.0
        for beta, loss in zip(betas[1:], losses[1:]):
            dense = 0.5 * beta @ m.gamma_mat @ beta - m.gamma_vec @ beta
            assert abs(loss - dense) <= 1e-12 * abs(dense)

    @pytest.mark.parametrize("n, p", [(200, 100), (100, 300)])
    @pytest.mark.parametrize("build, noise_kind", BUILT)
    def test_gamma_mat_and_blocks_exactly_symmetric(self, build, noise_kind, n, p):
        # the dataset route does not symmetrize; it needs no transpose-average
        m = build(_wide(noise_kind, 2, n=n, p=p))
        G = m.gamma_mat
        B = m.block(np.arange(0, p, 3))
        assert np.array_equal(G, G.T) and np.array_equal(B, B.T)

    def test_the_gram_is_shared_by_both_kinds_of_moments(self):
        data = _wide("missing", 3, n=200, p=100)
        corrected, raw = corrected_moments(data), uncorrected_moments(data)
        assert "gram" not in vars(data)
        corrected.gamma_mat
        S = vars(data)["gram"]
        assert raw.gamma_mat is S and not S.flags.writeable
        assert np.array_equal(corrected.gamma_mat, S / build_mask_matrix(data.noise.rho))


def _spoiled(noise_kind, n, p, where):
    """A simulated dataset with one non-finite observed entry of Z or y."""
    data = _wide(noise_kind, 4, n=n, p=p)
    Z, y = data.Z.copy(), data.y.copy()
    if where == "Z":
        i, j = np.argwhere(data.mask)[0] if data.mask is not None else (0, 0)
        Z[i, j] = np.nan
    else:
        y[0] = np.inf
    return SurrogateDataset(Z=Z, y=y, noise=data.noise, mask=data.mask)


class TestNonFiniteMoments:
    @pytest.mark.parametrize("where", ["Z", "y"])
    @pytest.mark.parametrize("n, p", [(200, 100), (100, 300)])
    @pytest.mark.parametrize("build, noise_kind", BUILT)
    def test_non_finite_data_rejected_when_the_moments_are_built(
            self, build, noise_kind, n, p, where):
        data = _spoiled(noise_kind, n, p, where)
        with pytest.raises(ValueError, match="non-finite corrected moments"):
            build(data)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("n, p", [(4, 3), (3, 6)])
    @pytest.mark.parametrize("build", [corrected_moments, uncorrected_moments])
    def test_overflowing_gram_rejected_when_formed(self, build, n, p):
        # finite data whose Z'Z overflows; y = 0 keeps gamma_vec finite
        Z = 1e160 * np.random.default_rng(5).standard_normal((n, p))
        data = SurrogateDataset(Z=Z, y=np.zeros(n), noise=MissingNoise(np.zeros(p)),
                                mask=np.ones((n, p), dtype=bool))
        m = build(data)
        with pytest.raises(ValueError, match="non-finite corrected moments"):
            m.block([0, 1])
        with pytest.raises(ValueError, match="non-finite corrected moments"):
            m.gamma_mat
