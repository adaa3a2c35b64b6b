import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrls.moments
import corrls.post
from corrls import (
    AdditiveNoise,
    CorrectedMoments,
    MissingNoise,
    SurrogateDataset,
    build_mask_matrix,
    corrected_loss,
    corrected_moments,
    estimate_missing_rates,
    uncorrected_moments,
)
from corrls.data import _BLOCK_ENTRIES, GramRows
from corrls.experiment import GridSpec, run_grid
from corrls.moments import _lanczos_top, lipschitz_estimate
from corrls.post import METHODS, cross_validate, default_lambda_grid
from corrls.selection import SolverOptions, l1_cls_fit
from corrls.simulate import SimConfig, ar1_covariance, gen_beta0, gen_regression, sample_gaussian
from corrls._rng import substream


def _recording_stores(monkeypatch, cls=GramRows):
    """Patch `corrls.moments.GramRows`, the store `CorrectedMoments.product` makes,
    to a subclass of ``cls`` that appends each store it makes to the returned list."""
    stores = []

    class Recording(cls):
        def __init__(self, Z):
            super().__init__(Z)
            stores.append(self)

    monkeypatch.setattr(corrls.moments, "GramRows", Recording)
    return stores


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

    def test_rates_equal_one_less_the_mean_of_the_mask(self):
        mask = np.random.default_rng(3).random((333, 50)) < 0.7
        assert estimate_missing_rates(mask).tobytes() == (1.0 - mask.mean(axis=0)).tobytes()


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


def _bounded_on(monkeypatch, m, name="lipschitz_estimate"):
    """The shapes of the matrices the bound ``corrls.moments.<name>`` sees
    while `m.lipschitz` is computed."""
    original = getattr(corrls.moments, name)
    shapes = []

    def recording(G):
        shapes.append(np.shape(G))
        return original(G)

    monkeypatch.setattr(corrls.moments, name, recording)
    m.lipschitz
    return shapes


def _wide_bound_matrix(monkeypatch, m):
    """The n x n matrix `_lanczos_top` bounds for the wide moments m, and the
    bound `m.lipschitz` it gives."""
    seen = []
    original = corrls.moments._lanczos_top
    monkeypatch.setattr(corrls.moments, "_lanczos_top",
                        lambda G: seen.append(G.copy()) or original(G))
    L = m.lipschitz
    (G,) = seen
    return G, L


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
        # one n x n matrix, bounded by Lanczos; the full eigendecomposition sees none
        assert _bounded_on(monkeypatch, build(_wide("missing", 5))) == []
        assert _bounded_on(monkeypatch, build(_wide("missing", 5)), "_lanczos_top") == [(100, 100)]

    def test_corrected_wide_bound_copies_z_a_block_of_columns_at_a_time(self):
        # A = Z / q whole would be as large as Z (16 MB at p=20000); the bound holds
        # one block of `_BLOCK_ENTRIES` entries (2 MiB) at a time
        m = corrected_moments(_wide("missing", 8, n=100, p=20000))
        tracemalloc.start()
        try:
            m.lipschitz
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * _BLOCK_ENTRIES < m.source[0].Z.nbytes / 4

    @pytest.mark.parametrize("build", [corrected_moments, uncorrected_moments])
    def test_wide_bound_sees_the_bytes_of_the_block_sum_over_n(self, monkeypatch, build):
        # three blocks of columns, the last one partial, summed as sum() adds them;
        # the raw Gram's Z Z' is one block
        m = build(_wide("missing", 9, n=100, p=6000))
        original = corrls.moments._lanczos_top
        monkeypatch.setattr(corrls.moments, "lipschitz_estimate",
                            lambda G: pytest.fail("a full eigendecomposition at p > n"))
        Z, q = m.factor
        step = _BLOCK_ENTRIES // m.n
        blocks = [Z[:, j:j + step] / np.broadcast_to(q, m.p)[j:j + step]
                  for j in range(0, m.p, step)]
        assert len(blocks) == 3
        raw = build is uncorrected_moments
        expected = (Z @ Z.T if raw else sum(A @ A.T for A in blocks)) / m.n
        seen, L = _wide_bound_matrix(monkeypatch, m)
        assert seen.tobytes() == expected.tobytes()
        assert L == original(expected)
        exact = lipschitz_estimate(expected)
        assert abs(L - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("n, p", [(100, 300), (100, 6000), (500, 1000)])
    @pytest.mark.parametrize("build", [corrected_moments, uncorrected_moments])
    def test_wide_bound_agrees_with_eigvalsh_to_1e_12(self, monkeypatch, build, n, p):
        G, L = _wide_bound_matrix(monkeypatch, build(_wide("missing", 4, n=n, p=p)))
        exact = np.max(np.abs(np.linalg.eigvalsh(G)))
        assert abs(L - exact) <= 1e-12 * exact

    def test_wide_bound_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the Gram product's bytes may depend on the thread count, so one fixed
        # matrix is bounded in each process
        A = np.random.default_rng(5).standard_normal((500, 1000))
        np.save(tmp_path / "G.npy", A @ A.T / 1000)
        script = ("import sys, numpy as np; from corrls.moments import _lanczos_top; "
                  "print(_lanczos_top(np.load(sys.argv[1])).hex())")
        src = str(Path(corrls.moments.__file__).resolve().parents[1])
        bounds = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "G.npy")],
                                 env=env, check=True, capture_output=True, text=True,
                                 timeout=120)
            bounds.append(out.stdout.strip())
        assert bounds[0] == bounds[1]

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


#: (n, p) of the wide missing-data cells whose n x n bound matrices the stopping
#: rule of `_lanczos_top` is checked on, corrected and raw
LANCZOS_SHAPES = [(100, 300), (200, 600), (500, 1000)]


class _CountedProducts:
    """An n x n matrix as `_lanczos_top` reads it, ``shape`` and ``dot``,
    counting its matrix-vector products."""

    def __init__(self, G):
        self.G, self.shape, self.products = G, G.shape, 0

    def dot(self, q):
        self.products += 1
        return self.G.dot(q)


def _residual_rule_products(G):
    """The products Lanczos takes on G, from `_lanczos_top`'s start and on its
    cadence, when it stops only once the top Ritz value's residual bound is at
    most 1e-10 of it (or at step n, or on an invariant subspace)."""
    n = G.shape[0]
    Q = np.empty((n, n))
    q = np.random.default_rng(0).standard_normal(n)
    q /= np.linalg.norm(q)
    alpha, beta = [], []
    for j in range(n):
        Q[j] = q
        w = G.dot(q)
        alpha.append(float(q.dot(w)))
        for _ in range(2):
            w -= Q[:j + 1].dot(w).dot(Q[:j + 1])
        b = float(np.linalg.norm(w))
        stop = j + 1 == n or b <= 1e-10 * max(alpha)
        if stop or (j >= 29 and j % 10 == 9):
            theta, S = np.linalg.eigh(np.diag(alpha) + np.diag(beta, -1), UPLO="L")
            if stop or b * abs(S[-1, -1]) <= 1e-10 * theta[-1]:
                return j + 1
        beta.append(b)
        q = w / b


@pytest.fixture(scope="module")
def lanczos_matrices():
    """{(moments function name, n, p): the n x n matrix `_lanczos_top` bounds}."""
    with pytest.MonkeyPatch.context() as mp:
        return {(build.__name__, n, p):
                _wide_bound_matrix(mp, build(_wide("missing", 11, n, p)))[0]
                for n, p in LANCZOS_SHAPES
                for build in (corrected_moments, uncorrected_moments)}


class TestLanczosStoppingRule:
    def test_top_eigenvalue_within_1e_13_of_eigvalsh(self, lanczos_matrices):
        for key, G in lanczos_matrices.items():
            exact = np.linalg.eigvalsh(G)[-1]
            assert abs(_lanczos_top(G) - exact) <= 1e-13 * exact, key

    def test_no_more_products_than_the_residual_rule(self, lanczos_matrices):
        for key, G in lanczos_matrices.items():
            counted = _CountedProducts(G)
            assert _lanczos_top(counted) == _lanczos_top(G)
            assert counted.products <= _residual_rule_products(G), key

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, lanczos_matrices, tmp_path):
        path = tmp_path / "G.npz"
        np.savez(path, *lanczos_matrices.values())
        script = ("import sys, numpy as np; from corrls.moments import _lanczos_top; "
                  "f = np.load(sys.argv[1]); "
                  "print(' '.join(_lanczos_top(f[k]).hex() for k in f.files))")
        src = str(Path(corrls.moments.__file__).resolve().parents[1])
        bounds = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                                 check=True, capture_output=True, text=True, timeout=120)
            bounds.append(out.stdout.split())
        assert len(bounds[0]) == len(lanczos_matrices) and bounds[0] == bounds[1]


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

    @pytest.mark.parametrize("nnz", [0, 1, 20, 320])  # 0, 1, p/16 and p non-zeros
    @pytest.mark.parametrize("build", [corrected_moments, uncorrected_moments])
    def test_product_matches_gamma_mat(self, build, nnz):
        m = build(_wide("missing", 9, n=100, p=320))
        b = np.zeros(m.p)
        rng = np.random.default_rng(nnz)
        b[rng.choice(m.p, nnz, replace=False)] = rng.standard_normal(nnz)
        product = m.product()(b)
        assert "gamma_mat" not in vars(m)  # taken from the shared rows of the Gram
        G = m.gamma_mat
        assert np.max(np.abs(product - G @ b)) <= (
            1e-14 * np.linalg.norm(G) * np.linalg.norm(b))

    @pytest.mark.parametrize("nnz", [0, 1, 20, 320])
    def test_raw_product_is_the_gram_product_to_the_bit(self, nnz):
        data = _wide("missing", 10, n=100, p=320)
        m = uncorrected_moments(data)
        b = np.zeros(m.p)
        b[:nnz] = np.random.default_rng(nnz).standard_normal(nnz)
        assert m.product()(b).tobytes() == _matmul_product(m, b, {}).tobytes()

    @staticmethod
    def _cell(n, p, seed=11):
        """Train and test datasets of one missing-data cell, and its radius."""
        cfg = SimConfig(n=n, p=p, s=4, noise_kind="missing", seed=seed)
        train, beta0, _ = gen_regression(cfg)
        test, _, _ = gen_regression(replace(cfg, seed=seed + 1), beta0=beta0, rho=train.noise.rho)
        return train, test, 1.1 * np.abs(beta0).sum()

    @pytest.mark.parametrize("build", [corrected_moments, uncorrected_moments])
    def test_penalized_cross_validation_never_forms_gamma_mat(self, build):
        train, test, radius = self._cell(100, 300)
        train_m, test_m = build(train), build(test)
        _, losses, fit = cross_validate(train_m, test_m, default_lambda_grid(),
                                        METHODS["l1cls"], SolverOptions(radius=radius))
        assert fit is not None and np.all(np.isfinite(losses))
        assert "gamma_mat" not in vars(train_m) and "gamma_mat" not in vars(test_m)
        assert "gram" not in vars(test)  # held-out losses work from the columns of Z
        assert "gram" not in vars(train)  # products read the store of its rows

    @pytest.mark.parametrize("rule, build", [("l1cls", corrected_moments),
                                             ("lasso", uncorrected_moments)])
    def test_penalized_cross_validation_decomposes_no_n_by_n_matrix(
            self, monkeypatch, rule, build):
        train, test, radius = self._cell(100, 300)
        shapes = []
        for name in ("eigvalsh", "eigh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *args, _f=original, **kw:
                                shapes.append(np.shape(a)) or _f(a, *args, **kw))
        _, losses, fit = cross_validate(build(train), build(test), default_lambda_grid(),
                                        METHODS[rule], SolverOptions(radius=radius))
        assert fit is not None and np.all(np.isfinite(losses))
        assert shapes and (100, 100) not in shapes  # Lanczos decomposes its small T only

    def test_one_gram_footprint(self):
        # forming gamma_mat would hold the Gram, the mask matrix and gamma_mat: 3 p^2
        # doubles; the Gram alone is p^2, the store of its rows at most n p
        n, p = 100, 1200
        train, test, radius = self._cell(n, p)
        train_m, test_m = corrected_moments(train), corrected_moments(test)
        tracemalloc.start()
        try:
            cross_validate(train_m, test_m, default_lambda_grid(), METHODS["l1cls"],
                           SolverOptions(radius=radius))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * train.Z.nbytes < p * p * 8

    @pytest.mark.parametrize("n, p", [(200, 100), (300, 260), (100, 300)])
    @pytest.mark.parametrize("build, noise_kind", BUILT)
    def test_a_fit_leaves_no_cycle_through_the_moments(self, monkeypatch, build, noise_kind,
                                                       n, p):
        # dense, active-row and Gram-row products: the solver holds its product in
        # a local, so reference counting alone frees the moments and the Gram or
        # the fit's own store of its rows, which the dataset does not keep
        stores = _recording_stores(monkeypatch)
        m = build(_wide(noise_kind, 5, n=n, p=p))
        l1_cls_fit(m, 0.1, SolverOptions(radius=5.0))
        data = m.source[0]
        assert len(stores) == (m.wide and m.factor is not None)
        refs = [weakref.ref(m), weakref.ref(stores.pop() if stores else data.gram)]
        del data
        gc.disable()
        try:
            del m
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_the_gram_is_checked_once_in_row_blocks(self, monkeypatch):
        # both kinds of wide moments read a store of Gram rows, one per product, and
        # never the Gram: its diagonal is scanned once, when the store is made, and
        # each block of rows when it is formed, with no boolean array of more than a block
        data = _wide("missing", 6, n=100, p=600)
        scanned, stores = [], _recording_stores(monkeypatch)

        def recording(a, *args, original=np.isfinite, **kwargs):
            scanned.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", recording)
        rng = np.random.default_rng(6)
        for build in (corrected_moments, uncorrected_moments, corrected_moments):
            start = len(scanned)
            product = build(data).product()
            for _ in range(2):  # a second support: its new rows only
                b = np.zeros(600)
                b[rng.choice(600, 30, replace=False)] = 1.0
                product(b)
            store = stores[-1]
            blocks = [a for a in scanned[start:] if a.base is store.rows]
            assert len(blocks) == 2 and sum(map(len, blocks)) == store.count
            assert max(a.size for a in blocks) <= _BLOCK_ENTRIES
            assert sum(a is store.diag or a.base is store.diag for a in scanned[start:]) == 1
        assert len(stores) == 3 and "gram" not in vars(data)

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
            m.lipschitz
        with pytest.raises(ValueError, match="non-finite corrected moments"):
            m.product()(np.zeros(p))  # the first product, before any Lipschitz bound
        with pytest.raises(ValueError, match="non-finite corrected moments"):
            l1_cls_fit(m, 0.1, SolverOptions())
        with pytest.raises(ValueError, match="non-finite corrected moments"):
            m.gamma_mat


def _matmul_rows(G, b):
    """`active_rows_matvec` written with @ and np.flatnonzero."""
    nz = np.flatnonzero(b)
    if 16 * nz.size > b.size:
        return G @ b
    return b[nz] @ G.take(nz, axis=0)


def _matmul_gram_rows(Z, v, kept):
    """`GramRows.matvec` written with @; ``kept`` maps j to the row of S = Z'Z/n
    formed for it, as the store does, and is updated the same way."""
    n = len(Z)
    nz = np.flatnonzero(v)
    new = [j for j in nz if j not in kept]
    if 16 * nz.size > v.size or len(kept) + len(new) > n:
        return Z.T @ (Z @ v) / n
    kept.update(zip(new, Z[:, new].T @ Z / n))
    return v[nz] @ np.array([kept[j] for j in nz]).reshape(nz.size, v.size)


def _matmul_product(m, b, kept):
    """gamma_mat @ b by the route `CorrectedMoments.product` takes, written with @;
    ``kept`` stands for the wide route's store of Gram rows."""
    if m.wide and m.factor is not None:
        data, noise = m.source
        Z = data.Z
        if noise is None:
            return _matmul_gram_rows(Z, b, kept)
        q = 1.0 - noise.rho
        d = np.einsum("ij,ij->j", Z, Z) / m.n * noise.rho / q**2
        return _matmul_gram_rows(Z, b / q, kept) / q - d * b
    return m.gamma_mat @ b if m.p < 256 else _matmul_rows(m.gamma_mat, b)


PRODUCT_ROUTES = {  # route -> (moments, whether they are wide)
    "dense": (lambda: corrected_moments(_wide("missing", 12, n=300, p=100)), False),
    "active rows": (lambda: corrected_moments(_wide("missing", 13, n=400, p=300)), False),
    "wide corrected": (lambda: corrected_moments(_wide("missing", 14, n=100, p=320)), True),
    "wide raw": (lambda: uncorrected_moments(_wide("missing", 14, n=100, p=320)), True),
    # n = 2 + p/16: after the two single rows, the first support of p/16 fills
    # the store, the next one does not fit and takes the factor form
    "wide, store full": (lambda: corrected_moments(_wide("missing", 15, n=22, p=320)), True),
}


class TestProductBytes:
    """The products and the dense loss call BLAS through ndarray.dot; they must
    be the bytes of the same expressions written with @."""

    @staticmethod
    def _vectors(p, seed):
        """For nnz 0, 1, p/16, p/16 + 1 and p: a support, the same support
        again, another one, none, and the first one again."""
        rng = np.random.default_rng(seed)
        for nnz in (0, 1, p // 16, p // 16 + 1, p):
            first, other = (rng.choice(p, nnz, replace=False) for _ in range(2))
            for idx in (first, first, other, first[:0], first):
                b = np.zeros(p)
                b[idx] = rng.standard_normal(idx.size)
                yield b

    @pytest.mark.parametrize("route", PRODUCT_ROUTES)
    def test_each_route_is_the_matmul_product_to_the_byte(self, monkeypatch, route):
        build, wide = PRODUCT_ROUTES[route]
        m, stores = build(), _recording_stores(monkeypatch)
        assert m.wide == wide
        product, kept = m.product(), {}
        for b in self._vectors(m.p, 21):
            assert product(b).tobytes() == _matmul_product(m, b, kept).tobytes()
        assert [s.count for s in stores] == ([len(kept)] if wide else [])
        assert len(kept) <= m.n
        if wide:  # a second product keeps no row of the first
            again, kept = m.product(), {}
            for b in self._vectors(m.p, 21):
                assert again(b).tobytes() == _matmul_product(m, b, kept).tobytes()
            assert stores[1].count == len(kept) == stores[0].count

    @pytest.mark.parametrize("route", ["dense", "active rows"])
    def test_dense_loss_is_the_matmul_loss_to_the_byte(self, route):
        m = PRODUCT_ROUTES[route][0]()
        for beta in self._vectors(m.p, 22):
            ref = 0.5 * beta @ m.gamma_mat @ beta - m.gamma_vec @ beta
            assert np.float64(corrected_loss(beta, m)).tobytes() == ref.tobytes()


class _Gathers(np.ndarray):
    """A view that counts in ``counts`` the gathers made through it: "rows" for a
    `take`, "columns" for a subscript whose last index is an index array."""

    counts = None

    def take(self, *args, **kwargs):
        _Gathers.counts["rows"] += 1
        return np.asarray(self).take(*args, **kwargs)

    def __getitem__(self, key):
        if isinstance(key, tuple) and isinstance(key[-1], np.ndarray):
            _Gathers.counts["columns"] += 1
        return np.asarray(self)[key]


class _SpiedStore(GramRows):
    """A store of Gram rows read through `_Gathers`, which records the non-zeros
    of each sparse product (at most one entry in 16 non-zero)."""

    def __init__(self, Z):
        self.supports = []
        super().__init__(Z)

    @property
    def rows(self):
        return self._rows.view(_Gathers)

    @rows.setter
    def rows(self, rows):
        self._rows = rows

    def matvec(self, v):
        if 16 * np.count_nonzero(v) <= v.size:
            self.supports.append(tuple(v.nonzero()[0]))
        return super().matvec(v)


def _runs(supports):
    """The number of runs of equal consecutive supports."""
    return sum(1 for k, T in enumerate(supports) if k == 0 or T != supports[k - 1])


class TestGatherOncePerSupport:
    def test_one_gather_per_run_of_equal_supports(self, monkeypatch):
        # the wide cell of tests/data/reference.json: every sparse product and every
        # held-out loss reads its rows or columns of Z once per run of equal supports
        monkeypatch.setattr(_Gathers, "counts", {"rows": 0, "columns": 0})
        stores, losses = _recording_stores(monkeypatch, _SpiedStore), []

        def factor(m, original=CorrectedMoments.factor.func):
            f = original(m)
            return f if f is None else (f[0].view(_Gathers), f[1])

        def loss(beta, m, original=corrls.post.corrected_loss):
            if m.wide and m.factor is not None:
                losses.append((m, tuple(np.flatnonzero(beta))))
            return original(beta, m)

        prop = cached_property(factor)
        prop.__set_name__(CorrectedMoments, "factor")
        monkeypatch.setattr(CorrectedMoments, "factor", prop)
        monkeypatch.setattr(corrls.post, "corrected_loss", loss)
        spec = GridSpec(n_values=(100,), p_values=(300,), s_values=(4,), noise_kind="missing",
                        replicates=2, base_seed=0)
        assert all(r.error is None for r in run_grid(spec))
        # per replicate, one store for each method's path and each pick not at its
        # start: L1CLS refits 0.95 in replicate 0, the Lasso 0 and 0.4 (`reference.json`)
        assert len(stores) == 7 and all(s.count < s.n for s in stores)  # no product refused
        products = sum(len(s.supports) for s in stores)
        assert _Gathers.counts["rows"] == sum(_runs(s.supports) for s in stores) < products
        per_moments = {}
        for m, T in losses:
            per_moments.setdefault(id(m), []).append(T)  # `losses` keeps every m alive
        runs = sum(map(_runs, per_moments.values()))
        assert _Gathers.counts["columns"] == runs < len(losses)

    def test_a_block_past_the_budget_is_not_kept(self):
        data = _wide("missing", 10, n=100, p=5000)
        store, m = GramRows(data.Z), corrected_moments(data)
        for nnz, kept in ((10, True), (60, False)):  # 60 * 5000 > _BLOCK_ENTRIES
            v = np.zeros(5000)
            v[:nnz] = 1.0
            store.matvec(v)
            assert (store.gathered is not None) == kept == (nnz * 5000 <= _BLOCK_ENTRIES)
        for nnz, kept in ((10, True), (3000, False)):  # 3000 * 100 > _BLOCK_ENTRIES
            beta = np.zeros(5000)
            beta[:nnz] = 1.0
            corrected_loss(beta, m)
            assert (m.columns is not None) == kept == (nnz * 100 <= _BLOCK_ENTRIES)

    def test_a_reused_block_is_the_gathers_bytes(self):
        store = GramRows(_wide("missing", 8).Z)
        rng = np.random.default_rng(8)
        idx = rng.choice(300, 12, replace=False)
        blocks = []
        for _ in range(3):
            v = np.zeros(300)
            v[idx] = rng.standard_normal(idx.size)
            nz = v.nonzero()[0]
            out = store.matvec(v)
            assert out.tobytes() == v[nz].dot(store.rows.take(store.slot[nz], axis=0)).tobytes()
            blocks.append(store.gathered[1])
        assert blocks[0] is blocks[1] is blocks[2]

    def test_the_row_buffer_is_made_once(self):
        # supports of 1, then 4 new, then 2 new and 1 kept rows: each keep writes
        # into the one n-row buffer made at the first, and copies no row
        store = GramRows(_wide("missing", 10, n=40).Z)
        buffers = []
        for idx in ([7], [3, 11, 250, 299], [7, 40, 41]):
            v = np.zeros(300)
            v[idx] = 1.0
            assert store.matvec(v).tobytes() == v[idx].dot(store.rows[store.slot[idx]]).tobytes()
            buffers.append(store.rows)
        assert buffers[0] is buffers[1] is buffers[2] and buffers[0].shape == (40, 300)
        assert store.count == 7

    @pytest.mark.parametrize("build", [corrected_moments, uncorrected_moments])
    def test_a_reused_support_is_the_losss_bytes(self, build):
        data = _wide("missing", 9)
        m = build(data)
        rng = np.random.default_rng(9)
        idx = rng.choice(300, 12, replace=False)
        kept = []
        for _ in range(3):
            beta = np.zeros(300)
            beta[idx] = rng.standard_normal(idx.size)
            fresh = corrected_loss(beta, build(data))  # moments that keep nothing yet
            assert np.float64(corrected_loss(beta, m)).tobytes() == np.float64(fresh).tobytes()
            kept.append(m.columns)
        assert kept[0] is kept[1] is kept[2]


@pytest.mark.parametrize("build, message", [
    (lambda: CorrectedMoments(gamma_mat=np.eye(2), gamma_vec=np.ones(3), n=10, p=3),
     "moment dimensions disagree with p"),
    (lambda: CorrectedMoments(gamma_mat=np.eye(2), gamma_vec=np.ones(2), n=10, p=3),
     "moment dimensions disagree with p"),
    (lambda: estimate_missing_rates(np.ones(3, dtype=bool)),
     "mask must be a non-empty n x p boolean matrix"),
    (lambda: estimate_missing_rates(np.ones((0, 3), dtype=bool)),
     "mask must be a non-empty n x p boolean matrix"),
    (lambda: corrected_moments(SurrogateDataset(Z=np.eye(2), y=None,
                                                noise=AdditiveNoise(np.zeros((2, 2))))),
     "dataset has no response; moments need y"),
], ids=["vector_length", "matrix_shape", "mask_1d", "mask_no_rows", "no_response"])
def test_invalid_moments_input_raises(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
