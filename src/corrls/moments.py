"""Bias-corrected second moments and the quadratic loss built from them.

Under additive covariate noise the raw Gram matrix Z'Z/n overshoots the
design covariance by sigma_w, so we subtract it.  Under missingness every
product z_ij z_ik survives only when both entries were observed, so we
divide componentwise by the observation-probability matrix.  The corrected
pair (gamma_mat, gamma_vec) then plays the role of (Sigma_x, Sigma_x b0)
inside an ordinary least-squares quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from .data import AdditiveNoise, MissingNoise, SurrogateDataset

__all__ = [
    "CorrectedMoments",
    "estimate_missing_rates",
    "build_mask_matrix",
    "corrected_moments",
    "uncorrected_moments",
    "corrected_loss",
    "rse_bounds",
]


@dataclass(frozen=True)
class CorrectedMoments:
    """Corrected quadratic-loss coefficients.

    ``gamma_mat`` is symmetrized on construction.  It is *not* guaranteed
    positive semidefinite: the additive correction subtracts sigma_w and can
    leave an indefinite matrix.
    """

    gamma_mat: np.ndarray
    gamma_vec: np.ndarray
    n: int
    p: int

    def __post_init__(self):
        G = np.asarray(self.gamma_mat, dtype=float)
        g = np.asarray(self.gamma_vec, dtype=float).ravel()
        if G.shape != (self.p, self.p) or g.size != self.p:
            raise ValueError("moment dimensions disagree with p")
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(g))):
            raise ValueError("non-finite corrected moments")
        G = 0.5 * (G + G.T)
        object.__setattr__(self, "gamma_mat", G)
        object.__setattr__(self, "gamma_vec", g)

    @cached_property
    def lipschitz(self) -> float:
        """Lipschitz constant of the loss gradient, computed once per instance."""
        from .selection import lipschitz_estimate  # selection imports this module

        return lipschitz_estimate(self.gamma_mat)


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


def corrected_moments(data: SurrogateDataset) -> CorrectedMoments:
    """Build (gamma_mat, gamma_vec) for the dataset's noise mechanism.

    Additive: gamma_mat = Z'Z/n - sigma_w, gamma_vec = Z'y/n.
    Missing:  gamma_mat = (Z'Z/n) / M componentwise,
              gamma_vec = (Z'y/n) / (1 - rho) componentwise.
    """
    Z, n, p = data.Z, data.n, data.p
    if data.y is None:
        raise ValueError("dataset has no response; corrected_moments needs y")
    raw_mat = (Z.T @ Z) / n
    raw_vec = (Z.T @ data.y) / n
    if isinstance(data.noise, AdditiveNoise):
        G = raw_mat - data.noise.sigma_w
        g = raw_vec
    else:
        rho = data.noise.rho
        G = raw_mat / build_mask_matrix(rho)
        g = raw_vec / (1.0 - rho)
    return CorrectedMoments(gamma_mat=G, gamma_vec=g, n=n, p=p)


def uncorrected_moments(data: SurrogateDataset) -> CorrectedMoments:
    """Raw moments Z'Z/n, Z'y/n with no bias correction (Lasso baseline)."""
    if data.y is None:
        raise ValueError("dataset has no response")
    Z, n = data.Z, data.n
    return CorrectedMoments(
        gamma_mat=(Z.T @ Z) / n, gamma_vec=(Z.T @ data.y) / n, n=n, p=data.p
    )


def corrected_loss(beta, m: CorrectedMoments):
    """Quadratic loss 0.5 b'Gb - g'b; may be negative and unbounded below
    when gamma_mat is indefinite."""
    beta = np.asarray(beta, dtype=float).ravel()
    if beta.size != m.p:
        raise ValueError(f"beta has length {beta.size}, expected {m.p}")
    return 0.5 * beta @ m.gamma_mat @ beta - m.gamma_vec @ beta


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
