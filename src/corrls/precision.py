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
from .moments import CorrectedMoments, _finite, corrected_gram
from .post import _PD_EPS, post_cls_fit
from .selection import SolverOptions, l1_cls_fit, screen_order, screen_size

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
    The neighborhood fits read only the screened entries of S and never
    build this (p-1)-dimensional pair.
    """
    p, j = _column(S, j)
    keep = np.delete(np.arange(p), j)
    return CorrectedMoments(gamma_mat=S[np.ix_(keep, keep)], gamma_vec=S[keep, j], n=n, p=p - 1)


def _off_diagonal(A):
    """The off-diagonal entries of the square C-ordered A, in row-major order, as a
    (p-1) x p view; reshaped to p x (p-1), its row j is A[j, keep_j]."""
    p = A.shape[0]
    return A.reshape(-1)[1:].reshape(p - 1, p + 1)[:, :-1]


def _outside_ball(theta, radius):
    """Whether each row of theta has l1 norm above the radius, up to rounding."""
    return np.abs(theta).sum(axis=-1) > radius * (1 + 1e-12)


_BATCH_FLOATS = 1 << 18  # block entries fitted in one batch, 2 MiB a copy


def _fit_columns(S, cols, a_n, radius, n):
    """`fit_neighborhood` for each column in ``cols``, in batches of at most
    ``_BATCH_FLOATS`` block entries, so that memory stays bounded at any a_n."""
    p = S.shape[0]
    if not 1 <= a_n <= p - 1:
        raise ValueError(f"a_n must lie in [1, {p - 1}]")
    ball_opts = SolverOptions(radius=radius)  # rejects a radius that is not positive
    off = _off_diagonal(_finite(S)).reshape(p, p - 1)
    k = screen_size(a_n, p - 1)
    cols = np.asarray(cols, dtype=np.intp)
    step = max(1, _BATCH_FLOATS // (k * k))
    return [fit for start in range(0, cols.size, step)
            for fit in _fit_batch(S, off, cols[start:start + step], k, ball_opts, n)]


def _fit_batch(S, off, cols, k, ball_opts, n):
    """One screen of the rows ``cols`` of ``off``, one ``eigh`` for `post_cls_fit`'s
    positive-definite test of their k x k blocks and one ``solve`` of those that
    pass.  A column whose solution leaves the ball is re-solved alone under the
    constraint; one whose block fails the test is refit alone by `post_cls_fit`,
    from the batch's eigendecomposition."""
    off = off[cols]
    T = np.sort(screen_order(off)[:, :k], axis=1)  # as cs_screen, into each row of off
    idx = T + (T >= cols[:, None])  # the same columns, indexed in S
    blocks = S[idx[:, :, None], idx[:, None, :]]
    g = np.take_along_axis(off, T, axis=1)
    vals, vecs = np.linalg.eigh(blocks)
    is_pd = vals[:, 0] >= _PD_EPS
    pd = np.flatnonzero(is_pd)
    thetas = np.zeros(off.shape)
    thetas[pd[:, None], T[pd]] = np.linalg.solve(blocks[pd], g[pd, :, None])[..., 0]
    alone = ~is_pd  # each of these falls back
    alone[pd] = _outside_ball(thetas[pd], ball_opts.radius)
    for i in np.flatnonzero(alone):
        try:
            sub = CorrectedMoments(gamma_mat=blocks[i], gamma_vec=g[i], n=n, p=k)
            resolve = is_pd[i]  # the batch's solve left the ball
            if not resolve:
                fit = post_cls_fit(sub, range(k), ball_opts, eig=(vals[i], vecs[i]))
                thetas[i, T[i]] = fit.beta
                resolve = fit.iterations == 0 and _outside_ball(thetas[i], ball_opts.radius)
            if resolve:
                thetas[i, T[i]] = l1_cls_fit(sub, 0.0, ball_opts).beta
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            raise RuntimeError(f"neighborhood fit failed at column {cols[i]}: {exc}") from exc
    return [NeighborhoodFit(theta=theta, support=tuple(t), fallback_used=bool(r))
            for theta, t, r in zip(thetas, T.tolist(), alone)]


def fit_neighborhood(S, j, a_n, radius, n) -> NeighborhoodFit:
    """Screen column j of the symmetric corrected covariance S (of a dataset
    with ``n`` rows), then refit on the a_n x a_n block it selects: the
    one-column case of the batch `estimate_precision` fits.

    A linear-solve or pseudo-inverse refit is accepted only if it lands
    inside the l1 ball of the given radius; otherwise the restricted
    problem is re-solved as projected gradient under the constraint.
    """
    return _fit_columns(S, [_column(S, j)[1]], a_n, radius, n)[0]


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
    thetas = np.array([fit.theta for fit in fits])
    denom = np.diagonal(S) - [s @ t for s, t in zip(_off_diagonal(S).reshape(p, p - 1), thetas)]
    degenerate = np.flatnonzero(np.abs(denom) < 1e-10)
    if degenerate.size:
        raise ValueError(f"residual variance degenerate at column {degenerate[0]}")
    d = 1.0 / denom
    columns = np.zeros((p, p))  # row j is column j of theta_raw
    _off_diagonal(columns)[:] = (-d[:, None] * thetas).reshape(p - 1, p)
    np.fill_diagonal(columns, d)
    theta_raw = columns.T
    negative_d = np.flatnonzero(denom <= 0).tolist()
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
    """Full pipeline: corrected covariance, the p neighborhood fits as one batch
    (`fit_neighborhood` is its one-column case), assembly, symmetrization.  A
    ValueError rejects an a_n that is not a whole number in [1, p-1], a radius
    that is not positive and a non-finite corrected covariance before any
    column is fitted; a failing column aborts with its index named."""
    if not isinstance(data.noise, MissingNoise):
        raise ValueError("precision estimation requires a missing-data noise model")
    if data.p < 2:
        raise ValueError("need at least two columns")
    S = corrected_covariance(data)
    return assemble_precision(_fit_columns(S, range(data.p), a_n, radius, data.n), S)
