"""Seeded generators for the simulation study.

All generators are pure functions of (parameters, seed).  Each random
ingredient (design, covariate noise or mask, model errors, coefficients)
draws from its own labeled sub-stream, so changing one ingredient's
parameters never perturbs another's draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._rng import substream
from .data import AdditiveNoise, MissingNoise, SurrogateDataset

__all__ = [
    "SimConfig",
    "gen_beta0",
    "ar1_covariance",
    "sample_gaussian",
    "gen_regression",
    "generate_band_precision",
    "generate_cluster_precision",
    "gen_graph_data",
]


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario for the regression setting."""

    n: int
    p: int
    s: int
    noise_kind: str  # "additive" | "missing"
    seed: int = 0
    sigma_eps: float = 0.25
    ar_phi: float = 0.5
    c_w: float = 0.25
    rho_range: tuple = (0.05, 0.75)

    def __post_init__(self):
        if not 0 < self.s <= self.p:
            raise ValueError("need 0 < s <= p")
        if self.sigma_eps <= 0:
            raise ValueError("sigma_eps must be positive")
        if not 0 <= self.ar_phi < 1:
            raise ValueError("ar_phi must lie in [0, 1)")
        if self.c_w <= 0:
            raise ValueError("c_w must be positive")
        lo, hi = self.rho_range
        if not 0 <= lo <= hi < 1:
            raise ValueError("rho_range must satisfy 0 <= lo <= hi < 1")
        if self.noise_kind not in ("additive", "missing"):
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")


def gen_beta0(p, s, seed):
    """Sparse coefficient vector: s entries at the leading indices, each
    with sign Bernoulli(1/2) and magnitude Uniform(1, 4); the rest zero."""
    if s > p:
        raise ValueError("s cannot exceed p")
    beta = np.zeros(p)
    if s > 0:
        rng = substream(seed, "beta0", p, s)
        mags = rng.uniform(1.0, 4.0, size=s)
        signs = rng.choice([-1.0, 1.0], size=s)
        beta[:s] = signs * mags
    return beta


def ar1_covariance(p, phi, scale=1.0):
    """scale * phi^|i-j|; positive definite for |phi| < 1."""
    if not abs(phi) < 1:
        raise ValueError("|phi| must be < 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    idx = np.arange(p)
    return scale * phi ** np.abs(idx[:, None] - idx[None, :])


def sample_gaussian(n, Sigma, seed, label="gauss"):
    """n i.i.d. mean-zero Gaussian rows with the given covariance."""
    return _draw_gaussian(n, _cholesky(Sigma), seed, label)


def _cholesky(Sigma):
    try:
        return np.linalg.cholesky(np.asarray(Sigma, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance not PD") from exc


def _draw_gaussian(n, chol, seed, label):
    """n i.i.d. mean-zero Gaussian rows with covariance chol @ chol.T."""
    rng = substream(seed, label, n, chol.shape[0])
    return rng.standard_normal((n, chol.shape[0])) @ chol.T


@lru_cache(maxsize=4)
def _ar1_noise(p, phi, c_w):
    """The validated `AdditiveNoise` of Sigma_w = `ar1_covariance(p, phi, c_w)` and
    the Cholesky factor of Sigma_w, both read-only: built once for every train and
    test set of a grid, not once per dataset."""
    sigma_w = ar1_covariance(p, phi, c_w)
    noise, chol = AdditiveNoise(sigma_w), _cholesky(sigma_w)
    noise.sigma_w.flags.writeable = chol.flags.writeable = False
    return noise, chol


def _apply_missingness(X, rho, seed):
    n, p = X.shape
    rng = substream(seed, "mask", n, p)
    mask = rng.random((n, p)) < (1.0 - rho)[None, :]
    Z = np.where(mask, X, 0.0)
    return Z, mask


def _draw_rho(p, rho_range, seed):
    lo, hi = rho_range
    if lo == hi:
        return np.full(p, float(lo))
    rng = substream(seed, "rho", p)
    return rng.uniform(lo, hi, size=p)


def gen_regression(config: SimConfig, beta0=None, rho=None):
    """Regression data: standard-normal X, y = X b0 + eps, then either
    additive AR(1) covariate noise or per-column Bernoulli missingness.

    ``beta0`` and ``rho`` may be supplied to hold the model fixed while a
    fresh sample is drawn (independent test sets for cross-validation).
    Additive datasets of the same (p, ar_phi, c_w) share one read-only
    `AdditiveNoise`.

    Returns (dataset, beta0, true_support).
    """
    n, p, seed = config.n, config.p, config.seed
    if beta0 is None:
        beta0 = gen_beta0(p, config.s, seed)
    else:
        beta0 = np.asarray(beta0, dtype=float).ravel()
    T = tuple(np.flatnonzero(beta0).tolist())
    X = substream(seed, "x", n, p).standard_normal((n, p))
    eps = config.sigma_eps * substream(seed, "eps", n).standard_normal(n)
    y = X @ beta0 + eps
    if config.noise_kind == "additive":
        noise, chol = _ar1_noise(p, config.ar_phi, config.c_w)
        W = _draw_gaussian(n, chol, seed, "w")
        data = SurrogateDataset(Z=X + W, y=y, noise=noise)
    else:
        if rho is None:
            rho = _draw_rho(p, config.rho_range, seed)
        else:
            rho = np.asarray(rho, dtype=float).ravel()
        Z, mask = _apply_missingness(X, rho, seed)
        data = SurrogateDataset(Z=Z, y=y, noise=MissingNoise(rho), mask=mask)
    return data, beta0, T


def _normalize_pair(theta_raw):
    # rescale the positive-definite theta_raw so the covariance has a unit diagonal
    sigma = np.linalg.inv(theta_raw)
    scale = np.sqrt(np.diag(sigma))
    sigma = sigma / np.outer(scale, scale)
    sigma = 0.5 * (sigma + sigma.T)
    theta = np.linalg.inv(sigma)
    return 0.5 * (theta + theta.T), sigma


def generate_band_precision(p, bandwidth=None):
    """Banded precision matrix: unit diagonal, 0.5^|i-j| inside the band, positive
    definite at every bandwidth, normalized so the covariance diagonal is all ones.

    Returns (Theta, Sigma) with Theta = inverse of Sigma.
    """
    if bandwidth is None:
        bandwidth = max(1, round(p / 20))
    if not 1 <= bandwidth < p:
        raise ValueError("bandwidth must lie in [1, p)")
    idx = np.arange(p)
    dist = np.abs(idx[:, None] - idx[None, :])
    theta_raw = np.where(dist <= bandwidth, 0.5 ** dist, 0.0)
    return _normalize_pair(theta_raw)


def generate_cluster_precision(p, n_clusters=None):
    """Block-diagonal precision: equal-size blocks with 0.5 off-diagonals (eigenvalues
    0.5 and 1 + 0.5 (size - 1)), normalized as the band generator is."""
    if n_clusters is None:
        n_clusters = max(1, round(p / 20))
    if not 1 <= n_clusters <= p:
        raise ValueError("n_clusters must lie in [1, p]")
    sizes = [p // n_clusters + (1 if k < p % n_clusters else 0) for k in range(n_clusters)]
    cluster = np.repeat(np.arange(n_clusters), sizes)
    theta_raw = np.where(cluster[:, None] == cluster, 0.5, 0.0)
    np.fill_diagonal(theta_raw, 1.0)
    return _normalize_pair(theta_raw)


def gen_graph_data(Sigma, n, c_x, rho_range, seed) -> SurrogateDataset:
    """Graph-setting data: X ~ N(0, c_x * Sigma), per-column missingness,
    no response."""
    Sigma = np.asarray(Sigma, dtype=float)
    X = sample_gaussian(n, c_x * Sigma, seed, label="x_graph")
    rho = _draw_rho(Sigma.shape[0], rho_range, seed)
    Z, mask = _apply_missingness(X, rho, seed)
    return SurrogateDataset(Z=Z, y=None, noise=MissingNoise(rho), mask=mask)
