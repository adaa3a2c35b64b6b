import re
import tracemalloc

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
from corrls.data import _BLOCK_ENTRIES


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


def _one_shot_missingness(X, rho, seed):
    """The mask and zero-filled Z from one (n, p) draw of the "mask" substream."""
    n, p = X.shape
    mask = substream(seed, "mask", n, p).random((n, p)) < 1 - rho
    return np.where(mask, X, 0.0), mask


#: (n, p): one block of rows; two, the last one partial (262 + 239 rows at p=1000)
BLOCK_SHAPES = [(50, 100), (501, 1000)]


class TestBlockedMissingness:
    """The mask's uniforms are drawn a block of rows at a time and X is zero-filled
    in place, with the bytes of the one-shot draw and `np.where`."""

    @pytest.mark.parametrize("n, p", BLOCK_SHAPES)
    def test_gen_regression_bytes_equal_the_one_shot_formula(self, n, p):
        cfg = SimConfig(n=n, p=p, s=3, noise_kind="missing", seed=21)
        data, beta0, _ = gen_regression(cfg)
        X = substream(cfg.seed, "x", n, p).standard_normal((n, p))
        y = X @ beta0 + cfg.sigma_eps * substream(cfg.seed, "eps", n).standard_normal(n)
        Z, mask = _one_shot_missingness(X, data.noise.rho, cfg.seed)
        assert data.Z.tobytes() == Z.tobytes()
        assert data.mask.tobytes() == mask.tobytes()
        assert data.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("n, p", BLOCK_SHAPES)
    def test_gen_graph_data_bytes_equal_the_one_shot_formula(self, n, p):
        sigma = ar1_covariance(p, 0.5)
        data = gen_graph_data(sigma, n, 2.0, (0.05, 0.75), seed=22)
        X = sample_gaussian(n, 2.0 * sigma, 22, label="x_graph")
        Z, mask = _one_shot_missingness(X, data.noise.rho, 22)
        assert data.Z.tobytes() == Z.tobytes()
        assert data.mask.tobytes() == mask.tobytes()

    def test_peak_memory_is_z_the_mask_and_one_block(self):
        # Z is the drawn X, zero-filled in place, so past Z and the mask the one large
        # array is the buffer of one block of uniforms; a whole (n, p) draw of them, or
        # a Z apart from X, would add 16 MB.  The slack covers the p-vectors (beta0,
        # rho, 1 - rho), one block of ~mask and Python objects
        n, p = 500, 4000
        cfg = SimConfig(n=n, p=p, s=4, noise_kind="missing", seed=3)
        z_bytes, mask_bytes, block_bytes = n * p * 8, n * p, (_BLOCK_ENTRIES // p) * p * 8
        slack = 1 << 20
        gen_regression(SimConfig(n=5, p=40, s=4, noise_kind="missing", seed=3))  # warm up
        tracemalloc.start()
        try:
            gen_regression(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < z_bytes + mask_bytes + block_bytes + slack


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


def _config(**over):
    return SimConfig(**{"n": 20, "p": 5, "s": 2, "noise_kind": "missing", **over})


@pytest.mark.parametrize("build, message", [
    (lambda: _config(n=10.5), "n must be a whole number, got 10.5"),
    (lambda: _config(n=0), "n must be at least 1, got 0"),
    (lambda: _config(p=True), "p must be a whole number, got True"),
    (lambda: _config(s=0), "s must be at least 1, got 0"),
    (lambda: _config(seed=1.5), "seed must be a whole number, got 1.5"),
    (lambda: _config(seed=float("nan")), "seed must be a whole number, got nan"),
    (lambda: _config(sigma_eps=0.0), "sigma_eps must be positive and finite, got 0.0"),
    (lambda: _config(c_w=np.inf), "c_w must be positive and finite, got inf"),
    (lambda: _config(c_w=np.inf, noise_kind="additive"),
     "c_w must be positive and finite, got inf"),
    (lambda: ar1_covariance(5, 0.5, float("nan")), "scale must be positive and finite, got nan"),
    (lambda: ar1_covariance(5, 0.5, 0.0), "scale must be positive and finite, got 0.0"),
    (lambda: generate_band_precision(20, 2.5), "bandwidth must be a whole number, got 2.5"),
    (lambda: generate_band_precision(20, 0), "bandwidth must be at least 1, got 0"),
    (lambda: generate_cluster_precision(20, 2.5), "n_clusters must be a whole number, got 2.5"),
    (lambda: generate_cluster_precision(20, 0), "n_clusters must be at least 1, got 0"),
    (lambda: gen_beta0(10, 1.5, 0), "s must be a whole number, got 1.5"),
    (lambda: gen_beta0(10, -1, 0), "s must be at least 0, got -1"),
    # a graph dataset of non-finite c_x used to come out non-finite, without an error
    (lambda: gen_graph_data(np.eye(3), 20, np.inf, (0.1, 0.2), 1),
     "c_x must be positive and finite, got inf"),
    (lambda: gen_graph_data(np.eye(3), 20.5, 1.0, (0.1, 0.2), 1),
     "n must be a whole number, got 20.5"),
    (lambda: sample_gaussian(0, np.eye(2), 1), "n must be at least 1, got 0"),
], ids=["fractional_n", "zero_n", "bool_p", "zero_s", "fractional_seed", "nan_seed",
        "zero_sigma_eps", "inf_c_w_missing", "inf_c_w_additive", "nan_scale", "zero_scale",
        "fractional_bandwidth", "zero_bandwidth", "fractional_clusters", "zero_clusters",
        "fractional_beta0_s", "negative_beta0_s", "inf_graph_c_x", "fractional_graph_n",
        "zero_gaussian_n"])
def test_counts_and_scales_follow_the_shared_rules(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_whole_float_counts_are_stored_as_ints_and_draw_the_same_data():
    ints = _config(n=40, p=12, s=3, seed=5)
    floats = _config(n=40.0, p=12.0, s=3.0, seed=np.float64(5))
    assert floats == ints and {type(getattr(floats, f)) for f in ("n", "p", "s", "seed")} == {int}
    (a, beta_a, T_a), (b, beta_b, T_b) = gen_regression(ints), gen_regression(floats)
    assert a.Z.tobytes() == b.Z.tobytes() and a.y.tobytes() == b.y.tobytes()
    assert beta_a.tobytes() == beta_b.tobytes() and T_a == T_b
    assert gen_beta0(12, 3.0, 5).tobytes() == beta_a.tobytes()


@pytest.mark.parametrize("build, message", [
    (lambda: ar1_covariance(5, 1.0), "|phi| must be < 1"),
    (lambda: ar1_covariance(5, float("nan")), "|phi| must be < 1"),
    (lambda: _config(s=6), "s value 6 exceeds p value 5"),
    (lambda: _config(ar_phi=1.0), "ar_phi must lie in [0, 1)"),
    (lambda: _config(rho_range=(0.5, 0.2)), "rho_range must satisfy 0 <= lo <= hi < 1"),
    (lambda: _config(noise_kind="both"), "unknown noise kind 'both'"),
    (lambda: gen_beta0(3, 4, 0), "s value 4 exceeds p value 3"),
    (lambda: generate_band_precision(20, 20), "bandwidth must lie in [1, p)"),
    (lambda: generate_cluster_precision(20, 21), "n_clusters must lie in [1, p]"),
    (lambda: sample_gaussian(3, -np.eye(2), 0), "covariance not PD"),
], ids=["phi_one", "phi_nan", "s_above_p", "ar_phi", "rho_range", "noise_kind",
        "beta0_s_above_p", "bandwidth_p", "clusters_above_p", "not_pd"])
def test_invalid_simulation_input_raises(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        build()


@pytest.mark.parametrize("build, message", [
    # a fractional or bool seed ran as its integer part, a nan one raised numpy's error
    (lambda: gen_graph_data(np.eye(3), 20, 1.0, (0.1, 0.3), 1.5),
     "seed must be a whole number, got 1.5"),
    (lambda: sample_gaussian(5, np.eye(2), 2.7), "seed must be a whole number, got 2.7"),
    (lambda: gen_beta0(10, 3, 3.9), "seed must be a whole number, got 3.9"),
    (lambda: gen_beta0(10, 3, True), "seed must be a whole number, got True"),
    (lambda: gen_beta0(10, 3, float("nan")), "seed must be a whole number, got nan"),
    (lambda: substream(-np.inf, "x"), "seed must be a whole number, got -inf"),
    # a fractional p was rounded up or raised numpy's TypeError; True and 0 made 1x1 and 0x0
    (lambda: ar1_covariance(2.5, 0.5), "p must be a whole number, got 2.5"),
    (lambda: ar1_covariance(True, 0.5), "p must be a whole number, got True"),
    (lambda: ar1_covariance(0, 0.5), "p must be at least 1, got 0"),
    (lambda: generate_band_precision(40.5), "p must be a whole number, got 40.5"),
    (lambda: generate_cluster_precision(40.5), "p must be a whole number, got 40.5"),
    (lambda: gen_beta0(2.5, 1, 0), "p must be a whole number, got 2.5"),
], ids=["graph_seed", "gaussian_seed", "beta0_seed", "bool_seed", "nan_seed", "inf_seed",
        "fractional_ar1_p", "bool_ar1_p", "zero_ar1_p", "band_p", "cluster_p", "beta0_p"])
def test_seeds_and_dimensions_follow_the_whole_number_rule(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("seed, same", [(-1, 2**64 - 1), (2**64 + 5, 5), (7.0, 7),
                                        pytest.param(10**400, 10**400 % 2**64, id="10**400")])
def test_a_whole_seed_draws_the_streams_of_its_value_modulo_2_to_the_64(seed, same):
    # SimConfig(seed=10**400) raised OverflowError
    a, beta_a, _ = gen_regression(_config(seed=seed))
    b, beta_b, _ = gen_regression(_config(seed=same))
    assert a.Z.tobytes() == b.Z.tobytes() and a.mask.tobytes() == b.mask.tobytes()
    assert a.y.tobytes() == b.y.tobytes() and beta_a.tobytes() == beta_b.tobytes()


@pytest.mark.parametrize("rho_range", [(0.5, 0.2), (-0.5, -0.1), (0.1, 1.0), (0.2,)])
def test_rho_range_is_checked_before_any_draw(monkeypatch, rho_range):
    # gen_graph_data failed inside numpy's uniform draw, or in MissingNoise after X was drawn
    def no_draw(*args):
        raise AssertionError("drew before checking rho_range")

    monkeypatch.setattr(simulate, "substream", no_draw)
    message = f"rho_range must satisfy 0 <= lo <= hi < 1 as (lo, hi), got {rho_range}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _config(rho_range=rho_range)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gen_graph_data(np.eye(3), 20, 1.0, rho_range, 1)
