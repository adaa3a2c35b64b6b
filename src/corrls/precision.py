"""Precision-matrix estimation from Gaussian data with missing entries.

Each column of the data is regressed on all the others through the
missingness-corrected quadratic loss (both sides of the regression carry
missing entries, so the cross-moments divide by both observation
probabilities).  The per-column slopes and residual variances then
reconstruct the inverse covariance column by column, and a final
transpose-average makes the result symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import MissingNoise, SurrogateDataset
from .moments import CorrectedMoments, build_mask_matrix
from .selection import SolverOptions, cs_screen, l1_cls_fit
from .post import post_cls_fit

__all__ = [
    "PrecisionEstimate",
    "NeighborhoodFit",
    "corrected_covariance",
    "neighborhood_moments",
    "fit_neighborhood",
    "assemble_precision",
    "symmetrize",
    "estimate_precision",
]


@dataclass(frozen=True)
class NeighborhoodFit:
    """One column's regression on the rest: slopes over the p-1 others."""

    theta: np.ndarray
    support: tuple  # indices into the reduced (p-1)-vector
    fallback_used: bool


@dataclass(frozen=True)
class PrecisionEstimate:
    theta: np.ndarray        # symmetrized estimate
    theta_raw: np.ndarray    # column-wise assembly before symmetrization
    d: np.ndarray            # per-column inverse residual variances
    neighborhood_supports: list
    fallback_flags: list
    negative_d: list         # columns whose residual-variance denominator was <= 0


def corrected_covariance(data: SurrogateDataset) -> np.ndarray:
    """Missingness-corrected covariance (Z'Z/n) / M, symmetrized."""
    if not isinstance(data.noise, MissingNoise):
        raise ValueError("corrected covariance requires a missing-data noise model")
    S = (data.Z.T @ data.Z) / data.n / build_mask_matrix(data.noise.rho)
    return 0.5 * (S + S.T)


def neighborhood_moments(data: SurrogateDataset, j, sigma_hat=None) -> CorrectedMoments:
    """Corrected moments for regressing column j on the remaining columns.

    The quadratic part is the corrected covariance with row/column j
    deleted; the linear part is column j of the same matrix, i.e. the
    cross-moments divided by (1-rho_k)(1-rho_j).
    """
    if data.p < 2:
        raise ValueError("need at least two columns")
    j = int(j)
    if j < 0 or j >= data.p:
        raise ValueError("column index out of range")
    S = corrected_covariance(data) if sigma_hat is None else sigma_hat
    keep = [k for k in range(data.p) if k != j]
    return CorrectedMoments(
        gamma_mat=S[np.ix_(keep, keep)], gamma_vec=S[keep, j], n=data.n, p=data.p - 1
    )


def fit_neighborhood(data: SurrogateDataset, j, a_n, radius,
                     opts: SolverOptions | None = None,
                     sigma_hat=None) -> NeighborhoodFit:
    """Screen then refit one neighborhood regression.

    The unconstrained linear-system refit is accepted only if it lands
    inside the l1 ball of the given radius; otherwise the restricted
    problem is re-solved as projected gradient under the constraint.
    """
    if opts is None:
        opts = SolverOptions(radius=radius)
    m = neighborhood_moments(data, j, sigma_hat=sigma_hat)
    if not 1 <= a_n <= m.p:
        raise ValueError(f"a_n must lie in [1, {m.p}]")
    sel = cs_screen(m.gamma_vec, a_n)
    ball_opts = replace(opts, radius=radius, lam=0.0)
    fit = post_cls_fit(m, sel.support, ball_opts)
    theta, fallback = fit.beta, fit.fallback_used
    if not fallback and np.abs(theta).sum() > radius * (1 + 1e-12):
        T = list(fit.support_used)
        sub = CorrectedMoments(gamma_mat=m.gamma_mat[np.ix_(T, T)],
                               gamma_vec=m.gamma_vec[T], n=m.n, p=len(T))
        cfit = l1_cls_fit(sub, ball_opts)
        theta = np.zeros(m.p)
        theta[T] = cfit.beta
        fallback = True
    return NeighborhoodFit(theta=theta, support=fit.support_used, fallback_used=fallback)


def assemble_precision(fits, sigma_hat) -> PrecisionEstimate:
    """Column-wise reconstruction from the p neighborhood fits.

    Column j gets d_j = 1/(S_jj - S_{j,-j} theta^j) on the diagonal and
    -d_j * theta^j elsewhere.  A denominator at zero is rejected; a
    negative one is legal but recorded.
    """
    S = np.asarray(sigma_hat, dtype=float)
    p = S.shape[0]
    if len(fits) != p:
        raise ValueError(f"need {p} neighborhood fits, got {len(fits)}")
    theta_raw = np.zeros((p, p))
    d = np.zeros(p)
    negative_d = []
    for j, fit in enumerate(fits):
        keep = [k for k in range(p) if k != j]
        denom = S[j, j] - S[j, keep] @ fit.theta
        if abs(denom) < 1e-10:
            raise ValueError(f"residual variance degenerate at column {j}")
        if denom <= 0:
            negative_d.append(j)
        d[j] = 1.0 / denom
        theta_raw[j, j] = d[j]
        theta_raw[keep, j] = -d[j] * fit.theta
    return PrecisionEstimate(
        theta=symmetrize(theta_raw),
        theta_raw=theta_raw,
        d=d,
        neighborhood_supports=[fit.support for fit in fits],
        fallback_flags=[fit.fallback_used for fit in fits],
        negative_d=negative_d,
    )


def symmetrize(theta_raw):
    """Transpose-average; idempotent, exact minimizer under Frobenius."""
    A = np.asarray(theta_raw, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    return 0.5 * (A + A.T)


def estimate_precision(data: SurrogateDataset, a_n, radius,
                       opts: SolverOptions | None = None) -> PrecisionEstimate:
    """Full pipeline: corrected covariance, p neighborhood fits, assembly,
    symmetrization.  A failing column aborts with its index named."""
    if not isinstance(data.noise, MissingNoise):
        raise ValueError("precision estimation requires a missing-data noise model")
    if data.p < 2:
        raise ValueError("need at least two columns")
    S = corrected_covariance(data)
    fits = []
    for j in range(data.p):
        try:
            fits.append(fit_neighborhood(data, j, a_n, radius, opts=opts, sigma_hat=S))
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            raise RuntimeError(f"neighborhood fit failed at column {j}: {exc}") from exc
    return assemble_precision(fits, S)
