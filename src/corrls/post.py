"""Stage two: non-penalized corrected least squares on the selected
support, plus cross-validated tuning and the ordinary-Lasso baseline.

Restricting the corrected quadratic to the selected coordinates turns the
problem into a small linear system whenever the restricted matrix passes
one positive-definite test (`_is_pd`) and the solution lies in the l1 ball
of the penalized stage; otherwise it is minimized by projected gradient
over that ball.  `_refit` states this rule once, for `post_cls_fit` and the
precision batch; CS+post's cross-validation scores only its direct solves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import MissingNoise, SurrogateDataset, _whole
from .moments import (
    CorrectedMoments,
    corrected_loss,
    corrected_moments,
    estimate_missing_rates,
    uncorrected_moments,
)
from .selection import FIT_ERRORS, FitResult, SolverOptions, cs_screen, l1_cls_fit
from .selection import screen_order, screen_size

__all__ = [
    "METHODS",
    "PAPER_METHODS",
    "Method",
    "post_cls_fit",
    "cs_post_fit",
    "best_grid_index",
    "cross_validate",
    "with_estimated_missing_rates",
    "default_an_grid",
    "default_lambda_grid",
]

_PD_EPS = 1e-8


def _is_pd(B):
    """Whether the symmetric B has its least eigenvalue above `_PD_EPS`: the
    Cholesky factorization of B - _PD_EPS*I accepts it.  A stack gets one boolean
    per block from one factorization, retried block by block only if it raises."""
    try:
        np.linalg.cholesky(B - _PD_EPS * np.eye(B.shape[-1]))
    except np.linalg.LinAlgError:
        return np.array([_is_pd(b) for b in B]) if B.ndim > 2 else False
    return np.ones(B.shape[:-2], dtype=bool) if B.ndim > 2 else True


def _outside_ball(betas, radius):
    """Whether each row of betas has l1 norm above the radius, up to rounding."""
    return np.abs(betas).sum(axis=-1) > radius * (1 + 1e-12)


def _refit(blocks, g, n, opts: SolverOptions):
    """The refit rule on a stack of k x k blocks with right-hand sides g (one row
    each, from n samples): the blocks that pass `_is_pd` are solved by one batched
    solve, and a solution is kept if it lies inside the l1 ball of radius
    opts.radius; every other block is fitted by `l1_cls_fit` at penalty 0 over it.
    Returns (betas, {index: FitResult of each block that fell back}); a failing
    fit propagates with its block's index as the exception's ``block``."""
    is_pd = _is_pd(blocks)
    betas = np.zeros(g.shape)
    betas[is_pd] = np.linalg.solve(blocks[is_pd], g[is_pd, :, None])[..., 0]
    fits = {}
    for i in np.flatnonzero(~is_pd | _outside_ball(betas, opts.radius)):
        try:
            sub = CorrectedMoments(gamma_mat=blocks[i], gamma_vec=g[i], n=n, p=g.shape[1])
            fits[i] = l1_cls_fit(sub, 0.0, opts)
        except FIT_ERRORS as exc:
            exc.block = i
            raise
        betas[i] = fits[i].beta
    return betas, fits


def post_cls_fit(m: CorrectedMoments, T_hat, opts: SolverOptions) -> FitResult:
    """Minimize the corrected loss over the coordinates in T_hat only, by the
    refit rule (`_refit`) on the restricted block: solved directly if it passes
    `_is_pd` and the solution lies in the l1 ball of radius opts.radius, else
    minimized by projected gradient over that ball and flagged as a fallback,
    whose ``support_used`` keeps only the coordinates of T_hat that `support`
    finds non-zero.  Coordinates off T_hat are exact zeros by assignment.  An
    index that is not a whole number in [0, p) is rejected.
    """
    T = sorted({_whole(j, "support index", 0) for j in T_hat})
    if not T:
        raise ValueError("empty support")
    if T[-1] >= m.p:
        raise ValueError("support index out of range")
    if len(T) > m.n:
        warnings.warn(f"support size {len(T)} exceeds sample size {m.n}", stacklevel=2)
    beta = np.zeros(m.p)
    (beta[T],), fits = _refit(m.block(T)[None], m.gamma_vec[T][None], m.n, opts)
    fit = fits.get(0)
    return FitResult(beta=beta, objective=float(corrected_loss(beta, m)),
                     support_used=tuple(T[j] for j in fit.support_used) if fit else tuple(T),
                     iterations=fit.iterations if fit else 0,
                     converged=fit.converged if fit else True, fallback_used=fit is not None)


def cs_post_fit(m: CorrectedMoments, a_n, opts: SolverOptions) -> FitResult:
    """Screen the a_n largest corrected correlations, then refit on them."""
    return post_cls_fit(m, cs_screen(m.gamma_vec, a_n), opts)


def with_estimated_missing_rates(data: SurrogateDataset) -> SurrogateDataset:
    """Replace the dataset's missing rates by the empirical per-column rates."""
    if not isinstance(data.noise, MissingNoise):
        return data
    rho_hat = estimate_missing_rates(data.mask)
    return SurrogateDataset(Z=data.Z, y=data.y, noise=MissingNoise(rho_hat), mask=data.mask)


def default_an_grid(n, p):
    """Screening-size grid 1 .. min(p, n/log p); just [1] when p is 1."""
    top = 1 if p == 1 else min(p, int(n / math.log(p)))
    return list(range(1, max(1, top) + 1))


def default_lambda_grid():
    """Penalty grid 0, 0.05, ..., 1."""
    return [round(0.05 * k, 2) for k in range(21)]


def _prefix_refits(B, g, radius):
    """The direct solve beta_k of each leading k x k block of the symmetric B
    with the same rows of g, up to the longest block, k*, that passes `_is_pd`.

    Leading blocks are nested, so by eigenvalue interlacing their least
    eigenvalues do not increase with k: the whole of B is tried first, and
    only if it fails does a bisection over k find k*.  The k* x k* block is
    factored again unshifted, L L', and beta_k = L_k'^-1 (L^-1 g)[:k].
    Returns (betas, inside): column k-1 of betas is beta_k padded with zeros,
    and inside[k-1] whether beta_k lies in the l1 ball of the radius, where
    `_refit` keeps a direct solve.
    """
    good, bad = 0, len(B) + 1  # prefix `good` passes, prefix `bad` does not
    k = len(B)
    while bad - good > 1:
        if _is_pd(B[:k, :k]):
            good = k
        else:
            bad = k
        k = (good + bad) // 2
    L = np.linalg.cholesky(B[:good, :good])
    w = np.linalg.solve(L, g[:good])
    # L' x = (w[:k], 0) is solved by x = (beta_k, 0) as L' is upper triangular
    betas = np.linalg.solve(L.T, np.triu(np.tile(w[:, None], good)))
    return betas, ~_outside_ball(betas.T, radius)


def _cs_post_losses(train_m: CorrectedMoments, test_m: CorrectedMoments, grid, opts):
    """Held-out loss of CS+post at each a_n of the grid, from one Cholesky factor,
    and {}: it makes no fit.

    The screened supports are prefixes of one |gamma| ordering, so the refit
    at a_n = k solves the leading k x k block of the ordered training Gram
    (`_prefix_refits`).  Points past its positive-definite prefix, points whose
    solve leaves the l1 ball of radius opts.radius (where `_refit` would fall
    back), and a_n that `screen_size` rejects record inf."""
    sizes = []
    for v in grid:
        try:
            sizes.append(screen_size(v, train_m.p))
        except FIT_ERRORS:
            sizes.append(0)
    if not any(sizes):  # no valid a_n: nothing to screen
        return [np.inf] * len(grid), {}
    idx = screen_order(train_m.gamma_vec, max(sizes))
    betas, inside = _prefix_refits(train_m.block(idx), train_m.gamma_vec[idx], opts.radius)
    idx = idx[:len(betas)]
    H, h = test_m.block(idx), test_m.gamma_vec[idx]
    loss = 0.5 * np.einsum("ik,ik->k", betas, H @ betas) - h @ betas
    prefix = np.append(np.inf, np.where(np.isfinite(loss) & inside, loss, np.inf))  # by a_n
    return [float(prefix[k]) if k < len(prefix) else np.inf for k in sizes], {}


def _penalized_losses(train_m: CorrectedMoments, test_m: CorrectedMoments, grid,
                      opts: SolverOptions):
    """Held-out loss of `l1_cls_fit` at each penalty, aligned to the grid (inf
    where the fit or its loss failed), fitted in ascending order as one path:
    each fit starts from the beta of the last that succeeded, the first at 0.
    Returns (losses, {index: fit} of the first fit that succeeded, which is the
    method's fit from zero there)."""
    losses, cold = [np.inf] * len(grid), {}
    beta0 = None
    for i in sorted(range(len(grid)), key=grid.__getitem__):
        try:
            fit = l1_cls_fit(train_m, float(grid[i]), opts, beta0=beta0)
            if not cold:  # the first fit that succeeded, which started at 0
                cold[i] = fit
            beta0 = fit.beta
            loss = float(corrected_loss(beta0, test_m))
        except FIT_ERRORS:
            continue
        losses[i] = loss if np.isfinite(loss) else np.inf
    return losses, cold


def _corrected(data):
    return corrected_moments(data)


def _uncorrected(data):
    return uncorrected_moments(data)


@dataclass(frozen=True)
class Method:
    """How one method is fitted and tuned, and the only place its label is
    spelled: a `FitResult` carries none.  Its functions read the moment
    builders and solvers from this module's globals at call time, so that a
    wrapper patched in here (tracer, test counter) is what runs; methods that
    fit the same moments share one builder object."""

    label: str  # `corrls fit`'s method= and the experiment's method column
    moments: Callable  # dataset -> the moments the method fits on
    grid: Callable  # (n, p) -> default tuning grid
    fit: Callable  # (moments, tuning value, opts) -> FitResult
    losses: Callable  # (train, test, grid, opts) -> (losses, {grid index: its fit from zero})


#: method key (`corrls fit`/`tune --method`) -> how it is fitted and tuned
METHODS = {
    "cs_post": Method("CS+post", _corrected, default_an_grid,
                      lambda m, a_n, opts: cs_post_fit(m, a_n, opts), _cs_post_losses),
    "l1cls": Method("L1CLS", _corrected, lambda n, p: default_lambda_grid(),
                    lambda m, lam, opts: l1_cls_fit(m, lam, opts), _penalized_losses),
    "lasso": Method("Lasso", _uncorrected, lambda n, p: default_lambda_grid(),
                    lambda m, lam, opts: l1_cls_fit(m, lam, opts), _penalized_losses),
}
PAPER_METHODS = ("cs_post", "l1cls", "lasso")  # the methods the paper compares: a grid's default


def best_grid_index(losses, grid):
    """Index of the smallest grid value among those whose loss is within
    1e-12 * max(1, |best|) of the best loss.

    Fits on the l1-ball boundary at two penalties differ only in rounding,
    so an exact comparison of their losses would let the last bits pick.
    """
    best = min(losses)
    tol = 1e-12 * max(1.0, abs(best))
    return min((i for i, loss in enumerate(losses) if loss <= best + tol), key=grid.__getitem__)


def cross_validate(train_m: CorrectedMoments, test_m: CorrectedMoments, grid,
                   method: Method, opts: SolverOptions):
    """Pick the tuning value of ``method``, a `Method` record, minimizing the
    held-out loss.

    Fits use the training moments ``train_m``; the loss is evaluated with the
    test moments ``test_m``.  Both must be of the kind ``method.moments``
    builds (the test split self-corrects with its own estimated missing
    rates).  A failed fit records an infinite loss for that grid point.
    L1CLS and the Lasso fit the grid as one warm-started path
    (`_penalized_losses`).  CS+post records an infinite loss, without a fit,
    past the positive-definite prefix of its screening order
    (`_prefix_refits`) and where its solve leaves the l1 ball, so its pick
    is a direct solve.  Ties (`best_grid_index`) break toward the smaller value.

    Returns (best_value, losses, fit): losses aligned to the grid, and the fit
    from zero at best_value, or None if no loss is finite: the one ``method.losses``
    made there, if any, else a fresh ``method.fit``, whose failure propagates.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty tuning grid")
    if train_m.p != test_m.p:
        raise ValueError("train and test dimension mismatch")
    losses, cold = method.losses(train_m, test_m, grid, opts)
    i = best_grid_index(losses, grid)
    if losses[i] == np.inf:
        return grid[i], losses, None
    return grid[i], losses, cold[i] if i in cold else method.fit(train_m, grid[i], opts)
