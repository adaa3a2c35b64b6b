"""Bias-corrected second moments and the quadratic loss built from them.

Under additive covariate noise the raw Gram matrix Z'Z/n overshoots the
design covariance by sigma_w, so we subtract it.  Under missingness every
product z_ij z_ik survives only when both entries were observed, so we
divide componentwise by the observation-probability matrix.  The corrected
pair (gamma_mat, gamma_vec) then plays the role of (Sigma_x, Sigma_x b0)
inside an ordinary least-squares quadratic.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from .data import AdditiveNoise, MissingNoise, SurrogateDataset

__all__ = [
    "CorrectedMoments",
    "estimate_missing_rates",
    "build_mask_matrix",
    "corrected_gram",
    "corrected_moments",
    "uncorrected_moments",
    "corrected_loss",
    "rse_bounds",
]


def _finite(a):
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite corrected moments")
    return a


def _corrected(S, noise, idx=None):
    """Gram S of the columns idx (all if None) less sigma_w (additive noise),
    over M componentwise (missing data) or as it is (noise None)."""
    if isinstance(noise, AdditiveNoise):
        return S - (noise.sigma_w if idx is None else noise.sigma_w[np.ix_(idx, idx)])
    if isinstance(noise, MissingNoise):
        return S / build_mask_matrix(noise.rho if idx is None else noise.rho[idx])
    return S


class CorrectedMoments:
    """Corrected quadratic-loss coefficients of a dataset with n rows and p
    columns.  gamma_mat is *not* guaranteed positive semidefinite: the
    additive correction subtracts sigma_w and can leave it indefinite.

    From a dense pair, gamma_mat is symmetrized on construction.  From a
    dataset, ``source`` is (data, noise), noise None for raw moments, and
    gamma_mat is formed on first read from the shared `SurrogateDataset.gram`,
    exactly symmetric.  Such moments with p > n are `wide`: `block`,
    `corrected_loss` and `lipschitz` then work from the columns of Z.
    """

    def __init__(self, gamma_mat, gamma_vec, n, p, source=None):
        g = np.asarray(gamma_vec, dtype=float).ravel()
        G = None if source else np.asarray(gamma_mat, dtype=float)
        if g.size != p or (G is not None and G.shape != (p, p)):
            raise ValueError("moment dimensions disagree with p")
        if G is not None:
            self.gamma_mat = 0.5 * (_finite(G) + G.T)
        self.gamma_vec, self.n, self.p, self.source = _finite(g), n, p, source

    @cached_property
    def gamma_mat(self) -> np.ndarray:
        data, noise = self.source
        return _finite(_corrected(data.gram, noise))

    @property
    def wide(self) -> bool:
        return self.source is not None and self.p > self.n

    @property
    def factor(self):
        """(Z, q) when gamma_mat is A'A/n - diag(d) for A = Z / q and
        d = diag(A'A/n) * (1 - q) >= 0: missing-data moments (q = 1 - rho)
        and raw ones (q = 1); None otherwise."""
        data, noise = self.source or (None, None)
        if data is None or isinstance(noise, AdditiveNoise):
            return None
        return data.Z, (1.0 if noise is None else 1.0 - noise.rho)

    def block(self, idx) -> np.ndarray:
        """gamma_mat[np.ix_(idx, idx)], formed from Z[:, idx] when `wide`."""
        idx = np.asarray(idx, dtype=np.intp)
        if not self.wide:
            return self.gamma_mat[np.ix_(idx, idx)]
        data, noise = self.source
        Z = data.Z[:, idx]
        return _finite(_corrected((Z.T @ Z) / self.n, noise, idx))

    @cached_property
    def lipschitz(self) -> float:
        """Lipschitz constant of the loss gradient, computed once per instance.
        When `wide` with a factor, every eigenvalue of gamma_mat lies in
        [-max d, lambda_max(A'A/n)], so it is max(lambda_max(AA'/n), max d)
        from the n x n side: exact for the raw Gram, a bound for missing data."""
        from .selection import lipschitz_estimate  # selection imports this module

        if self.factor is None or not self.wide:
            return lipschitz_estimate(self.gamma_mat)
        Z, q = self.factor
        A = Z / q
        d = np.diagonal(self.gamma_mat) * (1.0 / q - 1.0)
        return max(lipschitz_estimate(A @ A.T / self.n), float(np.max(d)))


def estimate_missing_rates(mask):
    """Per-column missing rates from observed-entry frequencies.

    rho_hat[j] = 1 - (# observed in column j) / n.  A fully missing column
    is rejected because 1 - rho appears downstream as a divisor.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.shape[0] < 1:
        raise ValueError("mask must be a non-empty n x p boolean matrix")
    rho_hat = 1.0 - mask.mean(axis=0)
    dead = np.flatnonzero(rho_hat >= 1.0)
    if dead.size:
        raise ValueError(f"degenerate column: column(s) {dead.tolist()} fully missing")
    return rho_hat


def build_mask_matrix(rho):
    """Observation-probability matrix: (1-rho_i)(1-rho_j) off-diagonal,
    (1-rho_i) on the diagonal."""
    rho = np.asarray(rho, dtype=float).ravel()
    if np.any(rho < 0.0) or np.any(rho >= 1.0):
        raise ValueError("every missing rate must lie in [0, 1)")
    q = 1.0 - rho
    M = np.outer(q, q)
    np.fill_diagonal(M, q)
    return M


def corrected_gram(data: SurrogateDataset) -> np.ndarray:
    """Corrected Gram matrix: Z'Z/n - sigma_w (additive noise) or (Z'Z/n) / M
    componentwise (missing data), from the dataset's shared Gram."""
    return _corrected(data.gram, data.noise)


def _dataset_moments(data: SurrogateDataset, noise) -> CorrectedMoments:
    """Moments of ``data`` corrected for ``noise``; a non-finite Z or y is
    rejected here, without waiting for gamma_mat."""
    if data.y is None:
        raise ValueError("dataset has no response; moments need y")
    _finite(data.Z)
    _finite(data.y)
    g = (data.Z.T @ data.y) / data.n
    if isinstance(noise, MissingNoise):
        g = g / (1.0 - noise.rho)
    return CorrectedMoments(None, g, data.n, data.p, source=(data, noise))


def corrected_moments(data: SurrogateDataset) -> CorrectedMoments:
    """Build (gamma_mat, gamma_vec) for the dataset's noise mechanism.

    gamma_mat is `corrected_gram(data)`, formed on first read; gamma_vec is
    Z'y/n under additive noise and (Z'y/n) / (1 - rho) componentwise under
    missing data.
    """
    return _dataset_moments(data, data.noise)


def uncorrected_moments(data: SurrogateDataset) -> CorrectedMoments:
    """Raw moments Z'Z/n (the dataset's shared Gram), Z'y/n with no bias
    correction (Lasso baseline)."""
    return _dataset_moments(data, None)


def corrected_loss(beta, m: CorrectedMoments):
    """Quadratic loss 0.5 b'Gb - g'b; may be negative and unbounded below
    when gamma_mat is indefinite.  For `wide` moments it is taken on the
    support of beta, from `CorrectedMoments.block`."""
    beta = np.asarray(beta, dtype=float).ravel()
    if beta.size != m.p:
        raise ValueError(f"beta has length {beta.size}, expected {m.p}")
    if not m.wide:
        return 0.5 * beta @ m.gamma_mat @ beta - m.gamma_vec @ beta
    idx = np.flatnonzero(beta)
    b = beta[idx]
    return 0.5 * b @ m.block(idx) @ b - m.gamma_vec[idx] @ b


def rse_bounds(m: CorrectedMoments, T, max_extra, support_cap=10**6):
    """Exact restricted sparse eigenvalue bounds by support enumeration.

    Minimum / maximum eigenvalue of gamma_mat restricted to supports
    T union E over all extra sets E outside T with |E| <= max_extra.
    Diagnostic for small instances only; the candidate count is capped.
    """
    T = sorted(set(int(j) for j in T))
    if any(j < 0 or j >= m.p for j in T):
        raise ValueError("support index out of range")
    rest = [j for j in range(m.p) if j not in T]
    max_extra = int(max_extra)
    n_cand = sum(comb(len(rest), k) for k in range(max_extra + 1))
    if n_cand > support_cap:
        raise ValueError(f"diagnostic too large: {n_cand} candidate supports")
    kappa, phi = np.inf, -np.inf
    for k in range(max_extra + 1):
        for extra in combinations(rest, k):
            U = T + list(extra)
            if not U:
                continue
            vals = np.linalg.eigvalsh(m.gamma_mat[np.ix_(U, U)])
            kappa = min(kappa, vals[0])
            phi = max(phi, vals[-1])
    if not np.isfinite(kappa):
        raise ValueError("no non-empty support in the enumeration family")
    return float(kappa), float(phi)
