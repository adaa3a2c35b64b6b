"""Stage two: non-penalized corrected least squares on the selected
support, plus cross-validated tuning and the ordinary-Lasso baseline.

Restricting the corrected quadratic to the selected coordinates turns the
problem into a small linear system whenever the restricted matrix is
positive definite.  Under additive noise the restriction can be indefinite,
in which case the minimization is run as projected gradient descent over an
l1 ball, mirroring the constraint used by the penalized stage.
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
from .selection import FitResult, SolverOptions, cs_screen, l1_cls_fit, support

__all__ = [
    "post_cls_fit",
    "cs_post_fit",
    "lasso_fit",
    "cross_validate",
    "with_estimated_missing_rates",
    "default_an_grid",
    "default_lambda_grid",
]

_PD_EPS = 1e-8


def post_cls_fit(m: CorrectedMoments, T_hat, opts: SolverOptions) -> FitResult:
    """Minimize the corrected loss over the coordinates in T_hat only.

    Positive-definite restricted matrix: direct linear solve.  Singular but
    PSD: eigen-pseudoinverse, flagged.  Indefinite: projected gradient over
    the restricted l1 ball of radius opts.radius, flagged.  Coordinates off
    T_hat are exact zeros by assignment.
    """
    T = sorted(set(int(j) for j in T_hat))
    if not T:
        raise ValueError("empty support")
    if any(j < 0 or j >= m.p for j in T):
        raise ValueError("support index out of range")
    if len(T) > m.n:
        warnings.warn(f"support size {len(T)} exceeds sample size {m.n}", stacklevel=2)
    G_TT = m.gamma_mat[np.ix_(T, T)]
    g_T = m.gamma_vec[T]
    vals, vecs = np.linalg.eigh(G_TT)
    fallback = False
    iters = 0
    converged = True
    if vals[0] >= _PD_EPS:
        b_T = np.linalg.solve(G_TT, g_T)
    elif vals[0] >= 0.0:
        # singular but PSD: least-squares solution through the eigenbasis
        inv = np.where(vals > _PD_EPS, 1.0 / np.where(vals > _PD_EPS, vals, 1.0), 0.0)
        b_T = vecs @ (inv * (vecs.T @ g_T))
        fallback = True
    else:
        sub = CorrectedMoments(gamma_mat=G_TT, gamma_vec=g_T, n=m.n, p=len(T))
        fit = l1_cls_fit(sub, replace(opts, lam=0.0))
        b_T = fit.beta
        iters = fit.iterations
        converged = fit.converged
        fallback = True
    beta = np.zeros(m.p)
    beta[T] = b_T
    return FitResult(
        beta=beta,
        support_used=tuple(T),
        method="CS+post",
        iterations=iters,
        objective=float(corrected_loss(beta, m)),
        converged=converged,
        fallback_used=fallback,
    )


def cs_post_fit(m: CorrectedMoments, a_n, opts: SolverOptions) -> FitResult:
    """Screen the a_n largest corrected correlations, then refit on them."""
    sel = cs_screen(m.gamma_vec, a_n)
    return post_cls_fit(m, sel.support, opts)


def lasso_fit(data: SurrogateDataset, lam, opts: SolverOptions) -> FitResult:
    """Ordinary Lasso baseline: same solver, raw uncorrected moments."""
    return _lasso_on(uncorrected_moments(data), lam, opts)


def _lasso_on(raw_m, lam, opts):
    return replace(l1_cls_fit(raw_m, replace(opts, lam=float(lam))), method="Lasso")


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


def _fit_for_value(method, value, train_m, train_raw_m, opts):
    if method == "cs_post":
        return cs_post_fit(train_m, int(value), opts)
    if method == "l1cls":
        return l1_cls_fit(train_m, replace(opts, lam=float(value)))
    if method == "lasso":
        return _lasso_on(train_raw_m, value, opts)
    raise ValueError(f"unknown fit rule {method!r}")


def cross_validate(train: SurrogateDataset, test: SurrogateDataset, grid,
                   fit_rule, opts: SolverOptions):
    """Pick the tuning value minimizing the held-out loss.

    ``fit_rule`` is "cs_post" (grid of screening sizes a_n), "l1cls" or
    "lasso" (grids of penalty levels).  Fits use the training moments; the
    loss is evaluated with the test set's own moments (the test split
    self-corrects with its own estimated missing rates).  The Lasso route
    uses uncorrected moments on both sides.  A failed fit records an
    infinite loss for that grid point.  Ties break toward the smaller value.

    Returns (best_value, losses, fit): losses aligned to the grid, and the
    training fit at best_value, or None if that fit raised.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty tuning grid")
    if train.p != test.p:
        raise ValueError("train and test dimension mismatch")
    if fit_rule == "lasso":
        eval_m = uncorrected_moments(test)
        train_m = train_raw_m = uncorrected_moments(train)
    else:
        eval_m = corrected_moments(test)
        train_m = corrected_moments(train)
        train_raw_m = None
    losses = []
    best = None  # (loss, value, fit) of the first grid point with the least key
    for v in grid:
        fit = None
        try:
            fit = _fit_for_value(fit_rule, v, train_m, train_raw_m, opts)
            loss = float(corrected_loss(fit.beta, eval_m))
            if not np.isfinite(loss):
                loss = np.inf
        except (ValueError, ArithmeticError, np.linalg.LinAlgError):
            loss = np.inf
        losses.append(loss)
        if best is None or (loss, v) < best[:2]:
            best = (loss, v, fit)
    return best[1], losses, best[2]
