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
from .data import (AdditiveNoise, MissingNoise, SurrogateDataset, _positive, _row_blocks, _whole,
                   _zero_unobserved)

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
        for name, least in (("n", 1), ("p", 1), ("s", 1), ("seed", None)):  # stored as ints
            object.__setattr__(self, name, _whole(getattr(self, name), name, least))
        _check_s(self.s, self.p)
        _positive(self.sigma_eps, "sigma_eps")
        if not 0 <= self.ar_phi < 1:
            raise ValueError("ar_phi must lie in [0, 1)")
        _positive(self.c_w, "c_w")  # checked under missing data too, which does not read it
        _check_rho_range(self.rho_range)
        if self.noise_kind not in ("additive", "missing"):
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")


def _check_s(s, p):
    if s > p:  # the one s <= p check, of SimConfig and gen_beta0
        raise ValueError(f"s value {s} exceeds p value {p}")


def _check_rho_range(rho):
    """Reject a missing-rate range that is not two values with 0 <= lo <= hi < 1."""
    if len(rho) != 2 or not 0 <= rho[0] <= rho[1] < 1:
        raise ValueError(f"rho_range must satisfy 0 <= lo <= hi < 1 as (lo, hi), got {rho}")


def gen_beta0(p, s, seed):
    """Sparse coefficient vector: s entries at the leading indices, each
    with sign Bernoulli(1/2) and magnitude Uniform(1, 4); the rest zero."""
    p, s = _whole(p, "p", 1), _whole(s, "s", 0)
    _check_s(s, p)
    beta = np.zeros(p)
    rng = substream(seed, "beta0", p, s)
    mags = rng.uniform(1.0, 4.0, size=s)
    beta[:s] = rng.choice([-1.0, 1.0], size=s) * mags
    return beta


def ar1_covariance(p, phi, scale=1.0):
    """scale * phi^|i-j|; positive definite for |phi| < 1."""
    if not abs(phi) < 1:
        raise ValueError("|phi| must be < 1")
    idx = np.arange(_whole(p, "p", 1))
    return _positive(scale, "scale") * phi ** np.abs(idx[:, None] - idx[None, :])


def sample_gaussian(n, Sigma, seed, label="gauss"):
    """n i.i.d. mean-zero Gaussian rows with the given covariance."""
    return _draw_gaussian(_whole(n, "n", 1), _cholesky(Sigma), seed, label)


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
    """Cell (i, j) is observed when the "mask" substream's uniform there is below
    1 - rho_j.  Zero-fills the caller's ``X`` in place where it is not, by the
    bitwise `_zero_unobserved`, and returns (X, mask).  The uniforms are drawn one
    block of `_row_blocks` at a time into one buffer: consecutive draws of a stream
    give the bytes of one (n, p) draw.  Once a block's mask is taken, the same
    buffer, viewed as int64, holds its keep mask."""
    n, p = X.shape
    rng, q = substream(seed, "mask", n, p), 1.0 - rho
    mask = np.empty((n, p), dtype=bool)
    blocks = _row_blocks(X)
    buf = np.empty_like(X[blocks[0]])
    for rows in blocks:
        u = rng.random(out=buf[:len(X[rows])])
        np.less(u, q, out=mask[rows])
        _zero_unobserved(X[rows], mask[rows], buf.view(np.int64))
    return X, mask


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
    p = _whole(p, "p", 1)
    bandwidth = max(1, round(p / 20)) if bandwidth is None else _whole(bandwidth, "bandwidth", 1)
    if bandwidth >= p:
        raise ValueError("bandwidth must lie in [1, p)")
    idx = np.arange(p)
    dist = np.abs(idx[:, None] - idx[None, :])
    theta_raw = np.where(dist <= bandwidth, 0.5 ** dist, 0.0)
    return _normalize_pair(theta_raw)


def generate_cluster_precision(p, n_clusters=None):
    """Block-diagonal precision: equal-size blocks with 0.5 off-diagonals (eigenvalues
    0.5 and 1 + 0.5 (size - 1)), normalized as the band generator is."""
    p = _whole(p, "p", 1)
    n_clusters = (max(1, round(p / 20)) if n_clusters is None
                  else _whole(n_clusters, "n_clusters", 1))
    if n_clusters > p:
        raise ValueError("n_clusters must lie in [1, p]")
    sizes = [p // n_clusters + (1 if k < p % n_clusters else 0) for k in range(n_clusters)]
    cluster = np.repeat(np.arange(n_clusters), sizes)
    theta_raw = np.where(cluster[:, None] == cluster, 0.5, 0.0)
    np.fill_diagonal(theta_raw, 1.0)
    return _normalize_pair(theta_raw)


def gen_graph_data(Sigma, n, c_x, rho_range, seed) -> SurrogateDataset:
    """Graph-setting data: X ~ N(0, c_x * Sigma), per-column missingness,
    no response."""
    _check_rho_range(rho_range)
    Sigma = np.asarray(Sigma, dtype=float)
    X = sample_gaussian(n, _positive(c_x, "c_x") * Sigma, seed, label="x_graph")
    rho = _draw_rho(Sigma.shape[0], rho_range, seed)
    Z, mask = _apply_missingness(X, rho, seed)
    return SurrogateDataset(Z=Z, y=None, noise=MissingNoise(rho), mask=mask)
