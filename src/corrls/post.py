"""Stage two: non-penalized corrected least squares on the selected
support, plus cross-validated tuning and the ordinary-Lasso baseline.

Restricting the corrected quadratic to the selected coordinates turns the
problem into a small linear system whenever the restricted matrix passes
one positive-definite test (`_is_pd`).  Otherwise, as under additive noise
or when the support outgrows the sample, the minimization is run as
projected gradient descent over an l1 ball, mirroring the constraint used by
the penalized stage.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np

from .data import MissingNoise, SurrogateDataset
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
    "method_moments",
    "method_grid",
    "fit_method",
    "post_cls_fit",
    "cs_post_fit",
    "best_grid_index",
    "cross_validate",
    "pd_prefix_length",
    "with_estimated_missing_rates",
    "default_an_grid",
    "default_lambda_grid",
]

_PD_EPS = 1e-8

#: method name (CLI and cross-validation) -> label in FitResult.method and experiment records
METHODS = {"cs_post": "CS+post", "l1cls": "L1CLS", "lasso": "Lasso"}


def _is_pd(B):
    """Whether the symmetric B has its least eigenvalue above `_PD_EPS`: the
    Cholesky factorization of B - _PD_EPS*I accepts it.  A stack gets one boolean
    per block from one factorization, retried block by block only if it raises."""
    try:
        np.linalg.cholesky(B - _PD_EPS * np.eye(B.shape[-1]))
    except np.linalg.LinAlgError:
        return np.array([_is_pd(b) for b in B]) if B.ndim > 2 else False
    return np.ones(B.shape[:-2], dtype=bool) if B.ndim > 2 else True


def post_cls_fit(m: CorrectedMoments, T_hat, opts: SolverOptions) -> FitResult:
    """Minimize the corrected loss over the coordinates in T_hat only.

    A restricted matrix that passes `_is_pd` is solved directly.  Any other,
    singular or indefinite, is minimized by projected gradient over the
    restricted l1 ball of radius opts.radius (`l1_cls_fit` at penalty 0),
    flagged as a fallback; its ``support_used`` keeps only the coordinates of
    T_hat that `support` finds non-zero.  Coordinates off T_hat are exact
    zeros by assignment.  An index that is not a whole number is rejected.
    """
    T_hat = list(T_hat)
    if any(int(j) != j for j in T_hat):
        raise ValueError(f"support index must be a whole number, got {T_hat}")
    T = sorted(set(int(j) for j in T_hat))
    if not T:
        raise ValueError("empty support")
    if any(j < 0 or j >= m.p for j in T):
        raise ValueError("support index out of range")
    if len(T) > m.n:
        warnings.warn(f"support size {len(T)} exceeds sample size {m.n}", stacklevel=2)
    G_TT = m.block(T)
    g_T = m.gamma_vec[T]
    beta = np.zeros(m.p)
    used, iters, converged = tuple(T), 0, True
    fallback = not _is_pd(G_TT)
    if fallback:
        sub = CorrectedMoments(gamma_mat=G_TT, gamma_vec=g_T, n=m.n, p=len(T))
        fit = l1_cls_fit(sub, 0.0, opts)
        beta[T] = fit.beta
        used = tuple(T[j] for j in fit.support_used)
        iters, converged = fit.iterations, fit.converged
    else:
        beta[T] = np.linalg.solve(G_TT, g_T)
    return FitResult(
        beta=beta,
        support_used=used,
        method="CS+post",
        iterations=iters,
        objective=float(corrected_loss(beta, m)),
        converged=converged,
        fallback_used=fallback,
    )


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


def _check_method(method):
    if method not in METHODS:
        raise ValueError(f"unknown fit rule {method!r}; expected one of {list(METHODS)}")


def method_moments(method):
    """The builder (dataset -> moments) a method fits on: `uncorrected_moments`
    for the Lasso, else `corrected_moments`, read from this module's globals
    so that a wrapper patched in here (tracer, test counter) is what runs."""
    _check_method(method)
    return uncorrected_moments if method == "lasso" else corrected_moments


def method_grid(method, n, p):
    """Default tuning grid: screening sizes a_n for cs_post, penalty levels otherwise."""
    _check_method(method)
    return default_an_grid(n, p) if method == "cs_post" else default_lambda_grid()


def fit_method(method, m: CorrectedMoments, value, opts: SolverOptions) -> FitResult:
    """Fit a method on moments ``m`` at one tuning value (a_n or lambda)."""
    _check_method(method)
    if method == "cs_post":
        return cs_post_fit(m, value, opts)
    return replace(l1_cls_fit(m, float(value), opts), method=METHODS[method])


def pd_prefix_length(B):
    """Largest k such that the leading k x k block of the symmetric B passes
    `_is_pd`, the test under which `post_cls_fit` solves directly (0 if none).

    Leading blocks are nested, so by eigenvalue interlacing their least
    eigenvalues do not increase with k: the whole of B is tried first, and
    only if it fails does a bisection over k find the end.
    """
    B = np.asarray(B, dtype=float)
    good, bad = 0, len(B) + 1  # prefix `good` passes, prefix `bad` does not
    k = len(B)
    while bad - good > 1:
        if _is_pd(B[:k, :k]):
            good = k
        else:
            bad = k
        k = (good + bad) // 2
    return good


def _cs_post_losses(train_m: CorrectedMoments, test_m: CorrectedMoments, grid):
    """Held-out loss of CS+post at each a_n of the grid, from one Cholesky factor.

    The screened supports are prefixes of one |gamma| ordering, so the refit
    at a_n = k solves the leading k x k block B_k of the ordered training
    Gram.  With B = L L' on the positive-definite prefix (`pd_prefix_length`)
    and w = L^-1 g, the refit is beta_k = L_k'^-1 w[:k].  Points past that
    prefix, and a_n that `screen_size` rejects, record inf without a fit.
    """
    sizes = []
    for v in grid:
        try:
            sizes.append(screen_size(v, train_m.p))
        except FIT_ERRORS:
            sizes.append(0)
    idx = screen_order(train_m.gamma_vec, max(sizes))
    B = train_m.block(idx)
    k_star = pd_prefix_length(B)
    prefix = np.full(k_star + 1, np.inf)  # prefix[k]: held-out loss at a_n = k
    if k_star:
        idx = idx[:k_star]
        L = np.linalg.cholesky(B[:k_star, :k_star])
        w = np.linalg.solve(L, train_m.gamma_vec[idx])
        # column k-1 holds beta_k padded with zeros: L' x = (w[:k], 0) is
        # solved by x = (beta_k, 0) as L' is upper triangular
        betas = np.linalg.solve(L.T, np.triu(np.tile(w[:, None], k_star)))
        H, h = test_m.block(idx), test_m.gamma_vec[idx]
        loss = 0.5 * np.einsum("ik,ik->k", betas, H @ betas) - h @ betas
        prefix[1:] = np.where(np.isfinite(loss), loss, np.inf)
    return [float(prefix[k]) if 0 < k <= k_star else np.inf for k in sizes]


def _penalized_losses(train_m: CorrectedMoments, test_m: CorrectedMoments, grid,
                      opts: SolverOptions):
    """Held-out loss of `l1_cls_fit` at each penalty, aligned to the grid (inf
    where the fit or its loss failed), fitted in ascending order as one path:
    each fit starts from the beta of the last that succeeded, the first at 0."""
    losses = [np.inf] * len(grid)
    beta0 = None
    for i in sorted(range(len(grid)), key=grid.__getitem__):
        try:
            beta0 = l1_cls_fit(train_m, float(grid[i]), opts, beta0=beta0).beta
            loss = float(corrected_loss(beta0, test_m))
        except FIT_ERRORS:
            continue
        losses[i] = loss if np.isfinite(loss) else np.inf
    return losses


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
                   fit_rule, opts: SolverOptions):
    """Pick the tuning value minimizing the held-out loss.

    ``fit_rule`` is a name in `METHODS` (ValueError otherwise).  Fits use
    the training moments ``train_m``; the loss is evaluated with the test
    moments ``test_m``.  Both must be of the kind `method_moments(fit_rule)`
    builds (the test split self-corrects with its own estimated missing
    rates).  A failed fit records an infinite loss for that grid point.
    L1CLS and the Lasso fit the grid as one warm-started path
    (`_penalized_losses`).  CS+post records an infinite loss past the
    positive-definite prefix of its screening order (`pd_prefix_length`)
    without fitting there.  Ties (`best_grid_index`) break toward the
    smaller value.

    Returns (best_value, losses, fit): losses aligned to the grid, and a fresh
    `fit_method` fit from zero at best_value, or None if no loss is finite.  A
    failure of that fit propagates.
    """
    _check_method(fit_rule)
    grid = list(grid)
    if not grid:
        raise ValueError("empty tuning grid")
    if train_m.p != test_m.p:
        raise ValueError("train and test dimension mismatch")
    if fit_rule == "cs_post":
        losses = _cs_post_losses(train_m, test_m, grid)
    else:
        losses = _penalized_losses(train_m, test_m, grid, opts)
    i = best_grid_index(losses, grid)
    if losses[i] == np.inf:
        return grid[i], losses, None
    return grid[i], losses, fit_method(fit_rule, train_m, grid[i], opts)
