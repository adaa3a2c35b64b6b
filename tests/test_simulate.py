import numpy as np
import pytest

from corrls import (
    SimConfig,
    ar1_covariance,
    gen_beta0,
    gen_graph_data,
    gen_regression,
    generate_band_precision,
    generate_cluster_precision,
    sample_gaussian,
    simulate,
)
from corrls._rng import substream


class TestGenBeta0:
    def test_zero_sparsity(self):
        assert np.array_equal(gen_beta0(5, 0, seed=1), np.zeros(5))

    def test_magnitudes_in_range(self):
        for seed in range(20):
            beta = gen_beta0(50, 10, seed=seed)
            nz = beta[:10]
            assert np.all((np.abs(nz) > 1.0) & (np.abs(nz) < 4.0))
            assert np.array_equal(beta[10:], np.zeros(40))

    def test_deterministic(self):
        assert np.array_equal(gen_beta0(20, 5, seed=42), gen_beta0(20, 5, seed=42))

    def test_sign_mix(self):
        beta = gen_beta0(200, 200, seed=3)
        assert (beta > 0).any() and (beta < 0).any()


class TestAr1Covariance:
    def test_paper_values(self):
        assert np.allclose(ar1_covariance(2, 0.5, 0.25),
                           [[0.25, 0.125], [0.125, 0.25]])

    def test_phi_zero_is_scaled_identity(self):
        assert np.array_equal(ar1_covariance(4, 0.0, 2.0), 2.0 * np.eye(4))

    def test_positive_definite(self):
        for phi in (0.1, 0.5, 0.9, -0.7):
            np.linalg.cholesky(ar1_covariance(12, phi))


class TestSampleGaussian:
    def test_mean_envelope(self):
        hits = 0
        for seed in range(50):
            X = sample_gaussian(400, np.eye(3), seed=seed)
            if np.all(np.abs(X.mean(axis=0)) <= 4 / np.sqrt(400)):
                hits += 1
        assert hits >= 49

    def test_sample_covariance(self):
        sigma = ar1_covariance(5, 0.5)
        X = sample_gaussian(10_000, sigma, seed=1)
        emp = X.T @ X / 10_000
        assert np.max(np.abs(emp - sigma)) < 0.1

    def test_deterministic(self):
        a = sample_gaussian(10, np.eye(2), seed=9)
        b = sample_gaussian(10, np.eye(2), seed=9)
        assert np.array_equal(a, b)

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError, match="not PD"):
            sample_gaussian(5, np.array([[1.0, 2.0], [2.0, 1.0]]), seed=0)


class TestGenRegression:
    def test_near_noiseless_consistency(self):
        # rho = 0 and a vanishing error scale: Z is the clean design and
        # OLS on the true support recovers the coefficients
        cfg = SimConfig(n=100, p=10, s=3, noise_kind="missing", seed=1,
                        sigma_eps=1e-12, rho_range=(0.0, 0.0))
        data, beta0, T = gen_regression(cfg)
        coef, *_ = np.linalg.lstsq(data.Z[:, :3], data.y, rcond=None)
        assert np.linalg.norm(coef - beta0[:3]) <= 1e-9

    def test_missing_fraction_concentrates(self):
        cfg = SimConfig(n=2000, p=8, s=2, noise_kind="missing", seed=5)
        data, _, _ = gen_regression(cfg)
        frac = 1.0 - data.mask.mean(axis=0)
        assert np.all(np.abs(frac - data.noise.rho) <= 3 / np.sqrt(2000))

    def test_additive_noise_covariance_monte_carlo(self):
        cfg = SimConfig(n=10_000, p=5, s=2, noise_kind="additive", seed=6)
        data, beta0, _ = gen_regression(cfg)
        # W = Z - X; regenerate X from the same stream labels
        from corrls._rng import substream

        X = substream(cfg.seed, "x", cfg.n, cfg.p).standard_normal((cfg.n, cfg.p))
        W = data.Z - X
        emp = W.T @ W / cfg.n
        assert np.max(np.abs(emp - ar1_covariance(5, 0.5, 0.25))) < 0.1

    def test_streams_are_independent(self):
        a = gen_regression(SimConfig(n=50, p=6, s=2, noise_kind="missing",
                                     seed=7, sigma_eps=0.25))
        b = gen_regression(SimConfig(n=50, p=6, s=2, noise_kind="missing",
                                     seed=7, sigma_eps=2.5))
        # changing the error scale must not perturb the design or the mask
        assert np.array_equal(a[0].Z, b[0].Z)
        assert np.array_equal(a[0].mask, b[0].mask)
        assert not np.array_equal(a[0].y, b[0].y)

    def test_deterministic(self):
        cfg = SimConfig(n=30, p=5, s=2, noise_kind="missing", seed=11)
        a, _, _ = gen_regression(cfg)
        b, _, _ = gen_regression(cfg)
        assert np.array_equal(a.Z, b.Z) and np.array_equal(a.y, b.y)

    def test_overrides_fix_the_model(self):
        cfg = SimConfig(n=30, p=5, s=2, noise_kind="missing", seed=12)
        _, beta0, _ = gen_regression(cfg)
        data2, beta2, _ = gen_regression(
            SimConfig(n=30, p=5, s=2, noise_kind="missing", seed=99),
            beta0=beta0, rho=np.full(5, 0.2))
        assert np.array_equal(beta2, beta0)
        assert np.array_equal(data2.noise.rho, np.full(5, 0.2))


def _additive_reference(cfg):
    """gen_regression's additive draw with Sigma_w built and factored in the call."""
    n, p = cfg.n, cfg.p
    beta0 = gen_beta0(p, cfg.s, cfg.seed)
    X = substream(cfg.seed, "x", n, p).standard_normal((n, p))
    y = X @ beta0 + cfg.sigma_eps * substream(cfg.seed, "eps", n).standard_normal(n)
    sigma_w = ar1_covariance(p, cfg.ar_phi, cfg.c_w)
    W = substream(cfg.seed, "w", n, p).standard_normal((n, p)) @ np.linalg.cholesky(sigma_w).T
    return X + W, y, sigma_w


class TestSharedNoiseModel:
    """Every additive dataset of a (p, phi, c_w) reads one cached, read-only
    Sigma_w and Cholesky factor."""

    def test_bytes_equal_a_factor_per_call(self):
        simulate._ar1_noise.cache_clear()
        configs = [(12, 0.5, 0.25), (7, 0.3, 1.0), (12, 0.5, 0.25), (5, 0.0, 0.5),
                   (9, 0.9, 0.25), (6, 0.5, 2.0), (7, 0.3, 1.0), (12, 0.5, 0.25),
                   (12, 0.6, 0.25), (12, 0.5, 0.3)]
        for seed, (p, phi, c_w) in enumerate(configs * 2):
            cfg = SimConfig(n=40, p=p, s=2, noise_kind="additive", seed=seed,
                            ar_phi=phi, c_w=c_w)
            data, _, _ = gen_regression(cfg)
            Z, y, sigma_w = _additive_reference(cfg)
            assert data.Z.tobytes() == Z.tobytes() and data.y.tobytes() == y.tobytes()
            assert data.noise.sigma_w.tobytes() == sigma_w.tobytes()
        info = simulate._ar1_noise.cache_info()
        assert info.currsize == info.maxsize < len(set(configs)) < info.misses

    def test_cached_arrays_reject_writes(self):
        cfg = SimConfig(n=20, p=5, s=2, noise_kind="additive", seed=1)
        data, _, _ = gen_regression(cfg)
        noise, chol = simulate._ar1_noise(cfg.p, cfg.ar_phi, cfg.c_w)
        assert data.noise is noise
        for arr in (noise.sigma_w, chol):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0


class TestPrecisionGenerators:
    @pytest.mark.parametrize("gen,arg", [(generate_band_precision, 2),
                                         (generate_cluster_precision, 4)])
    def test_unit_sigma_diagonal(self, gen, arg):
        theta, sigma = gen(40, arg)
        assert np.max(np.abs(np.diag(sigma) - 1.0)) <= 1e-10

    @pytest.mark.parametrize("gen,arg", [(generate_band_precision, 3),
                                         (generate_cluster_precision, 5)])
    def test_inverse_pair(self, gen, arg):
        theta, sigma = gen(60, arg)
        assert np.max(np.abs(theta @ sigma - np.eye(60))) <= 1e-8
        assert np.linalg.eigvalsh(sigma)[0] > 0

    def test_positive_definite_at_every_bandwidth_and_cluster_count(self):
        """The raw matrices need no repair.  The band's eigenvalues lie within
        the range of its symbol 1 + 2 sum_{k<=b} 0.5^k cos(k t): they are
        1 + cos(k pi/(p+1)) > 0 at b = 1, the symbol is at least 0.25 at b = 2
        and at least 1/3 - 2 * 0.5^b > 0 at b >= 3.  A cluster block has
        eigenvalues 0.5 and 1 + 0.5 (size - 1)."""
        p = 30
        pairs = [generate_band_precision(p, b) for b in range(1, p)]
        pairs += [generate_cluster_precision(p, c) for c in range(1, p + 1)]
        for theta, sigma in pairs:
            np.linalg.cholesky(theta)
            assert np.max(np.abs(np.diag(sigma) - 1.0)) <= 1e-10
            assert np.max(np.abs(theta @ sigma - np.eye(p))) <= 1e-8

    def test_cluster_identity_reduction(self):
        theta, sigma = generate_cluster_precision(6, 6)
        assert np.allclose(theta, np.eye(6)) and np.allclose(sigma, np.eye(6))

    def test_band_structure(self):
        theta, _ = generate_band_precision(20, 2)
        assert theta[0, 3] == pytest.approx(0.0, abs=1e-12) or abs(theta[0, 3]) < 1e-8

    def test_default_width(self):
        theta, sigma = generate_band_precision(100)
        # default p/20 band: entries beyond distance 5 are zero
        assert abs(theta[0, 20]) < 1e-8


class TestGenGraphData:
    def test_no_missingness_keeps_x(self):
        _, sigma = generate_band_precision(10, 1)
        data = gen_graph_data(sigma, 50, 1.0, (0.0, 0.0), seed=1)
        assert data.mask.all()
        assert data.y is None

    def test_sample_covariance(self):
        _, sigma = generate_band_precision(10, 1)
        data = gen_graph_data(sigma, 10_000, 3.0, (0.0, 0.0), seed=2)
        emp = data.Z.T @ data.Z / 10_000
        assert np.max(np.abs(emp - 3.0 * sigma)) < 0.15 * 3.0

    def test_deterministic(self):
        _, sigma = generate_band_precision(8, 1)
        a = gen_graph_data(sigma, 40, 1.0, (0.05, 0.75), seed=3)
        b = gen_graph_data(sigma, 40, 1.0, (0.05, 0.75), seed=3)
        assert np.array_equal(a.Z, b.Z) and np.array_equal(a.mask, b.mask)
