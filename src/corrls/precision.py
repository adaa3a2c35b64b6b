"""Precision-matrix estimation from Gaussian data with missing entries.

Each column of the data is regressed on all the others through the
missingness-corrected quadratic loss (both sides of the regression carry
missing entries, so the cross-moments divide by both observation
probabilities).  The per-column slopes and residual variances then
reconstruct the inverse covariance column by column, and a final
transpose-average makes the result symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MissingNoise, SurrogateDataset
from .moments import CorrectedMoments, corrected_gram
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
    """Missingness-corrected covariance (Z'Z/n) / M, exactly symmetric."""
    if not isinstance(data.noise, MissingNoise):
        raise ValueError("corrected covariance requires a missing-data noise model")
    return corrected_gram(data)


def _column(S, j):
    """The dimension p of S and the column index j, both checked."""
    p = S.shape[0]
    if p < 2:
        raise ValueError("need at least two columns")
    j = int(j)
    if j < 0 or j >= p:
        raise ValueError("column index out of range")
    return p, j


def neighborhood_moments(S, j, n) -> CorrectedMoments:
    """Corrected moments for regressing column j of S on the remaining columns.

    ``S`` is the corrected covariance of a dataset with ``n`` rows.  The
    quadratic part is S with row/column j deleted; the linear part is
    column j of S, i.e. the cross-moments divided by (1-rho_k)(1-rho_j).
    `fit_neighborhood` reads the same entries of S without building this
    (p-1)-dimensional pair.
    """
    p, j = _column(S, j)
    keep = np.delete(np.arange(p), j)
    return CorrectedMoments(gamma_mat=S[np.ix_(keep, keep)], gamma_vec=S[keep, j], n=n, p=p - 1)


def fit_neighborhood(S, j, a_n, radius, n) -> NeighborhoodFit:
    """Screen column j of the corrected covariance S (of a dataset with
    ``n`` rows), then refit on the a_n x a_n block it selects.

    A linear-solve or pseudo-inverse refit is accepted only if it lands
    inside the l1 ball of the given radius; otherwise the restricted
    problem is re-solved as projected gradient under the constraint.
    """
    p, j = _column(S, j)
    if not 1 <= a_n <= p - 1:
        raise ValueError(f"a_n must lie in [1, {p - 1}]")
    keep = np.delete(np.arange(p), j)
    g = S[keep, j]
    T = list(cs_screen(g, a_n))
    cols = keep[T]
    sub = CorrectedMoments(gamma_mat=S[np.ix_(cols, cols)], gamma_vec=g[T], n=n, p=len(T))
    ball_opts = SolverOptions(radius=radius)
    fit = post_cls_fit(sub, range(len(T)), ball_opts)
    theta = np.zeros(p - 1)
    theta[T] = fit.beta
    fallback = fit.fallback_used
    if fit.iterations == 0 and np.abs(theta).sum() > radius * (1 + 1e-12):
        theta[T] = l1_cls_fit(sub, 0.0, ball_opts).beta
        fallback = True
    return NeighborhoodFit(theta=theta, support=tuple(T), fallback_used=fallback)


def assemble_precision(fits, S) -> PrecisionEstimate:
    """Column-wise reconstruction from the p neighborhood fits.

    Column j gets d_j = 1/(S_jj - S_{j,-j} theta^j) on the diagonal and
    -d_j * theta^j elsewhere.  A denominator at zero is rejected; a
    negative one is legal but recorded.
    """
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    if len(fits) != p:
        raise ValueError(f"need {p} neighborhood fits, got {len(fits)}")
    theta_raw = np.zeros((p, p))
    d = np.zeros(p)
    negative_d = []
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


def estimate_precision(data: SurrogateDataset, a_n, radius) -> PrecisionEstimate:
    """Full pipeline: corrected covariance, p neighborhood fits, assembly,
    symmetrization.  a_n and the radius are checked before any column is fitted;
    a failing column aborts with its index named."""
    if not isinstance(data.noise, MissingNoise):
        raise ValueError("precision estimation requires a missing-data noise model")
    if data.p < 2:
        raise ValueError("need at least two columns")
    if not 1 <= a_n <= data.p - 1:
        raise ValueError(f"a_n must lie in [1, {data.p - 1}]")
    if not radius > 0:
        raise ValueError("radius must be positive")
    S = corrected_covariance(data)
    fits = []
    for j in range(data.p):
        try:
            fits.append(fit_neighborhood(S, j, a_n, radius, data.n))
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            raise RuntimeError(f"neighborhood fit failed at column {j}: {exc}") from exc
    return assemble_precision(fits, S)
