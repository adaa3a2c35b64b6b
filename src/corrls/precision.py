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

from .data import _BLOCK_ENTRIES, MissingNoise, SurrogateDataset, _finite, _whole
from .moments import CorrectedMoments, _corrected
from .post import _refit
from .selection import FIT_ERRORS, SolverOptions, screen_order, screen_size

__all__ = [
    "PrecisionEstimate",
    "corrected_covariance",
    "neighborhood_moments",
    "assemble_precision",
    "symmetrize",
    "estimate_precision",
]


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
    return _corrected(data.gram, data.noise)


def neighborhood_moments(S, j, n) -> CorrectedMoments:
    """Corrected moments for regressing column j of S on the remaining columns.

    ``S`` is the corrected covariance of a dataset with ``n`` rows.  The
    quadratic part is S with row/column j deleted; the linear part is
    column j of S, i.e. the cross-moments divided by (1-rho_k)(1-rho_j).
    The neighborhood fits read only the screened entries of S and never
    build this (p-1)-dimensional pair.
    """
    p = S.shape[0]
    if p < 2:
        raise ValueError("need at least two columns")
    j = _whole(j, "column index", 0)
    if j >= p:
        raise ValueError("column index out of range")
    keep = np.delete(np.arange(p), j)
    return CorrectedMoments(gamma_mat=S[np.ix_(keep, keep)], gamma_vec=S[keep, j], n=n, p=p - 1)


def _off_diagonal(A):
    """The off-diagonal entries of the square C-ordered A, in row-major order, as a
    (p-1) x p view; reshaped to p x (p-1), its row j is A[j, keep_j]."""
    p = A.shape[0]
    return A.reshape(-1)[1:].reshape(p - 1, p + 1)[:, :-1]


def _fit_columns(S, cols, a_n, radius, n):
    """Screen each column j in ``cols`` of the symmetric corrected covariance S
    (of a dataset with ``n`` rows), then refit on the a_n x a_n block it
    selects, in batches of at most ``_BLOCK_ENTRIES // max(k * k, p)`` columns
    (k = `screen_size`): a batch's k x k blocks and its rows of p-1 screening
    scores then each hold at most ``_BLOCK_ENTRIES`` entries, so that memory
    stays bounded at any a_n and p.

    Each block is refit by the one rule of `post._refit`, that of
    `post_cls_fit`, over the l1 ball of the given radius.  Returns three
    arrays, one row per column: the slopes over the p-1 other columns, the
    sorted screened supports (indices into those p-1) and whether the refit
    fell back."""
    p = S.shape[0]
    if not 1 <= a_n <= p - 1:
        raise ValueError(f"a_n must lie in [1, {p - 1}]")
    ball_opts = SolverOptions(radius=radius)  # rejects a radius that is not positive and finite
    off = _off_diagonal(_finite(S)).reshape(p, p - 1)
    k = screen_size(a_n, p - 1)
    cols = np.asarray(cols, dtype=np.intp)
    step = max(1, _BLOCK_ENTRIES // max(k * k, p))
    batches = [_fit_batch(S, off, cols[start:start + step], k, ball_opts, n)
               for start in range(0, cols.size, step)]
    return tuple(np.concatenate(parts) for parts in zip(*batches))


def _fit_batch(S, off, cols, k, ball_opts, n):
    """One screen of the rows ``cols`` of ``off``, then the refit rule
    (`post._refit`, as `post_cls_fit` applies it to one block) on their
    k x k blocks at once, under ``ball_opts``."""
    off = off[cols]
    T = np.sort(screen_order(off, k), axis=1)  # as cs_screen, into each row of off
    idx = T + (T >= cols[:, None])  # the same columns, indexed in S
    blocks = S[idx[:, :, None], idx[:, None, :]]
    try:
        betas, fits = _refit(blocks, np.take_along_axis(off, T, axis=1), n, ball_opts)
    except FIT_ERRORS as exc:
        j = cols[exc.block]
        raise ArithmeticError(f"neighborhood fit failed at column {j}: {exc}") from exc
    thetas = np.zeros(off.shape)
    np.put_along_axis(thetas, T, betas, axis=1)
    return thetas, T, np.array([i in fits for i in range(cols.size)])


def assemble_precision(fits, S) -> PrecisionEstimate:
    """Column-wise reconstruction from the p neighborhood fits, the triple of
    arrays (slopes, supports, fallback flags) that `_fit_columns` returns.

    Column j gets d_j = 1/(S_jj - S_{j,-j} theta^j) on the diagonal and
    0 - d_j * theta^j elsewhere, +0 (not -0) where a slope is zero.  A
    denominator at zero is rejected; a negative one is legal but recorded.
    """
    thetas, supports, fallback = fits
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    if len(thetas) != p:
        raise ValueError(f"need {p} neighborhood fits, got {len(thetas)}")
    denom = np.diagonal(S) - [s @ t for s, t in zip(_off_diagonal(S).reshape(p, p - 1), thetas)]
    degenerate = np.flatnonzero(np.abs(denom) < 1e-10)
    if degenerate.size:
        raise ValueError(f"residual variance degenerate at column {degenerate[0]}")
    d = 1.0 / denom
    columns = np.zeros((p, p))  # row j is column j of theta_raw
    _off_diagonal(columns)[:] = (0.0 - d[:, None] * thetas).reshape(p - 1, p)
    np.fill_diagonal(columns, d)
    theta_raw = columns.T
    negative_d = np.flatnonzero(denom <= 0).tolist()
    return PrecisionEstimate(
        theta=symmetrize(theta_raw),
        theta_raw=theta_raw,
        d=d,
        neighborhood_supports=list(map(tuple, supports.tolist())),
        fallback_flags=fallback.tolist(),
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
    (`_fit_columns`), assembly, symmetrization.  A ValueError rejects a dataset
    without missing-data noise, an a_n that is not a whole number in [1, p-1],
    a radius that is not positive and finite, and a non-finite corrected
    covariance before any column is fitted; a failing column raises an
    ArithmeticError naming it."""
    if data.p < 2:
        raise ValueError("need at least two columns")
    S = corrected_covariance(data)
    return assemble_precision(_fit_columns(S, range(data.p), a_n, radius, data.n), S)
