"""Stage-one model selection: correlation screening and l1-penalized
corrected least squares, plus the shared projected-gradient machinery.

Correlation screening keeps the a_n coordinates whose corrected
cross-moments are largest in magnitude; it needs no correction matrix at
all.  The penalized route minimizes the corrected quadratic plus an l1
penalty over an l1 ball, by accelerated composite projected gradient.  The
corrected quadratic can be indefinite, under additive noise and under
missing data once p > n, so the solver tracks and returns its
best-objective iterate; the ball constraint keeps iterates bounded either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _positive, _whole
from .moments import CorrectedMoments, lipschitz_estimate  # perfbench/tracer.py wraps it here

__all__ = [
    "FIT_ERRORS",
    "SolverOptions",
    "FitResult",
    "screen_order",
    "screen_size",
    "cs_screen",
    "project_l1_ball",
    "lipschitz_estimate",
    "l1_cls_fit",
    "l1_cls_path",
    "support",
]

#: A fit failed: a bad input or singular matrix (numpy's linear-algebra error
#: is a ValueError) or a diverged `l1_cls_fit` (ArithmeticError).
FIT_ERRORS = (ValueError, ArithmeticError)


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 10_000
    rel_tol: float = 1e-6
    radius: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "max_iters", _whole(self.max_iters, "max_iters", 1))
        _positive(self.rel_tol, "rel_tol")
        _positive(self.radius, "radius")


@dataclass(frozen=True)
class FitResult:
    """Coefficient estimate plus solver diagnostics, with no method label: a
    solver serves several methods, each named only by its `post.METHODS` record.

    ``objective`` is the value of the criterion that was minimized: the
    plain corrected loss for unpenalized fits, corrected loss plus
    lambda * ||beta||_1 for penalized ones.
    """

    beta: np.ndarray
    support_used: tuple
    iterations: int
    objective: float
    converged: bool
    fallback_used: bool = False


def screen_order(scores, k):
    """The first k indices of each row of ``scores`` by decreasing |score|, ties to
    the smaller index, k by `screen_size`: the order in which correlation screening
    admits coordinates.  A 1-D array is one row.  The k are found by a partition,
    not a sort of the row, then ordered stably: at k equal to the row length, the
    stable argsort of -|row|."""
    g = np.asarray(scores, dtype=float)
    if g.ndim > 2 or g.shape[-1:] == (0,):
        raise ValueError(f"screening scores must be non-empty 1-D or 2-D rows, got shape {g.shape}")
    a = np.abs(g if g.ndim == 2 else g.reshape(1, -1))
    k = screen_size(k, a.shape[1])
    if not math.isfinite(np.maximum.reduce(a, axis=None, initial=0.0)):
        raise ValueError("screening scores must be finite")
    kth = np.partition(a, -k, axis=1)[:, -k, None]  # k-th largest of each row
    keep = a >= kth
    surplus = keep.sum(axis=1) - k  # ties at the k-th largest beyond the k kept
    for i in np.flatnonzero(surplus):
        keep[i, np.flatnonzero(a[i] == kth[i])[-surplus[i]:]] = False
    kept = np.nonzero(keep)[1].reshape(-1, k)  # ascending in each row
    rank = np.argsort(-np.take_along_axis(a, kept, axis=1), axis=1, kind="stable")
    order = np.take_along_axis(kept, rank, axis=1)
    return order if g.ndim == 2 else order[0]


def screen_size(a_n, p):
    """How many of p coordinates a screening size a_n keeps: min(a_n, p).
    An a_n that is not a whole number, or is below 1, is rejected."""
    return min(_whole(a_n, "a_n", 1), p)


def cs_screen(gamma_vec, a_n) -> tuple:
    """Sorted indices of the a_n largest |gamma_vec| (0-based; reports print
    1-based), the first a_n of `screen_order`."""
    return tuple(sorted(int(j) for j in screen_order(np.ravel(gamma_vec), a_n)))


def project_l1_ball(v, R):
    """Euclidean projection of v onto the l1 ball of radius R (Duchi et al.), by
    `_project_l1_ball` with no shrink: negative zeros kept, a fresh array."""
    v = np.asarray(v, dtype=float).ravel()
    x = _project_l1_ball(v, _positive(R, "radius"), 0.0)[0]
    return x.copy() if x is v else x


def _project_l1_ball(v, R, shrink):
    """Euclidean projection onto the l1 ball of radius R > 0 (unchecked) of the 1-D
    float v soft-thresholded, sign(v) * max(|v| - shrink, 0), in one pass over |v| that
    sums it once and sorts it only outside the ball; and the l1 norm of the result as a
    Python float, bit-equal to np.abs(x).sum().  v itself if kept (shrink 0, inside)."""
    a = np.abs(v)
    if shrink:
        a -= shrink
        np.maximum(a, 0.0, out=a)
        v = np.sign(v) * a
    total = float(np.add.reduce(a))
    if not math.isfinite(total) and not np.all(np.isfinite(a)):  # the sum may overflow
        raise ValueError("cannot project a non-finite vector")
    if total <= R:
        return v, total
    u = np.sort(a)[::-1]
    cum = u.cumsum()
    ks = np.arange(1, v.size + 1)
    rho = int((u - (cum - R) / ks > 0).nonzero()[0][-1])
    tau = (cum.item(rho) - R) / (rho + 1)
    a = np.maximum(a - tau, 0.0)
    return np.sign(v) * a, float(np.add.reduce(a))


def l1_cls_fit(m: CorrectedMoments, lam, opts: SolverOptions, beta0=None) -> FitResult:
    """Minimize 0.5 b'Gb - g'b + lam*||b||_1 subject to ||b||_1 <= radius by `_fista`, from
    beta0 projected onto the ball or from zero, with a `CorrectedMoments.product` of its own."""
    beta = np.zeros(m.p) if beta0 is None else project_l1_ball(beta0, opts.radius)
    if beta.size != m.p:
        raise ValueError(f"beta0 has length {beta.size}, expected {m.p}")
    return _fista(m, m.product(), lam, beta, opts)


def l1_cls_path(m: CorrectedMoments, lams, opts: SolverOptions) -> list:
    """`l1_cls_fit` at each of ``lams`` in turn, with one product.  The first fit starts
    from zero, the next from the last that succeeded, each later one from the secant
    through the last two that did, b2 + (lam - lam2)/(lam2 - lam1) (b2 - b1), projected
    onto the ball (b2 if lam1 == lam2): the solution is linear in lam between changes of
    its support (Osborne et al. 2000).  None for a fit that raised `FIT_ERRORS`."""
    matvec, fits, good = None, [], []  # good: (lam, beta) of the last two good fits
    for lam in lams:
        try:
            lam, beta = float(lam), np.zeros(m.p)
            matvec = matvec or m.product()
            if good:
                (lam1, b1), (lam2, b2) = good[0], good[-1]
                beta = b2 if lam1 == lam2 else _project_l1_ball(
                    b2 + (lam - lam2) / (lam2 - lam1) * (b2 - b1), opts.radius, 0.0)[0]
            fits.append(_fista(m, matvec, lam, beta, opts))
            good = good[-1:] + [(lam, fits[-1].beta)]
        except FIT_ERRORS:
            fits.append(None)
    return fits


def _fista(m: CorrectedMoments, matvec, lam, beta, opts: SolverOptions) -> FitResult:
    """The loop of `l1_cls_fit` and `l1_cls_path`, from beta inside the ball:
    accelerated projected gradient (FISTA, Beck & Teboulle 2009) with the
    fixed step 1/L (L cached on the moments): a gradient step from the
    extrapolated point y, then one `_project_l1_ball` pass that
    soft-thresholds by lam/L, projects onto the ball and gives the l1 norm
    of the candidate for its objective.  y runs on past the candidate along
    its step, unless the momentum points uphill, (y - cand) . step > 0, which
    restarts it (O'Donoghue & Candes 2015).  G @ b, by ``matvec``, is formed
    once per iterate, and G @ y follows by linearity.  Stops when
    f of consecutive iterates changes by less than rel_tol * max(1, |f|);
    returns the best-objective iterate, which for an indefinite G may
    precede the last one.  The loop calls BLAS through ndarray.dot and keeps
    its scalars as Python floats: bit-equal to @, at about half the dispatch
    cost at p=100.
    """
    lam = float(lam)
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be a finite number >= 0, got {lam!r}")
    g, R, L = m.gamma_vec, opts.radius, m.lipschitz
    eta = 1.0 / L if L > 0 else 1.0
    Gb = matvec(beta)
    f = 0.5 * float(beta.dot(Gb)) - float(g.dot(beta)) + lam * float(np.abs(beta).sum())
    best_beta, best_f = beta, f  # every iterate is a fresh array
    y, Gy, t, mu = beta, Gb, 1.0, 0.0  # the point the step is taken from, and G @ y
    converged = False
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        cand, norm = _project_l1_ball(y - eta * (Gy - g), R, eta * lam)
        Gc = matvec(cand)
        f_cand = 0.5 * float(cand.dot(Gc)) - float(g.dot(cand)) + lam * norm
        if not math.isfinite(f_cand):
            raise ArithmeticError("diverged: non-finite objective in solver")
        step = cand - beta
        if mu and float((y - cand).dot(step)) > 0:  # the momentum points uphill: restart
            t, mu = 1.0, 0.0
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            t, mu = t_next, (t - 1.0) / t_next
        y, Gy = (cand + mu * step, Gc + mu * (Gc - Gb)) if mu else (cand, Gc)
        df = f - f_cand
        beta, Gb, f = cand, Gc, f_cand
        if f < best_f:
            best_f, best_beta = f, beta
        if abs(df) < opts.rel_tol * max(1.0, abs(f)):
            converged = True
            break
    return FitResult(beta=best_beta, support_used=tuple(support(best_beta)), iterations=iters,
                     objective=best_f, converged=converged)


def support(beta):
    """Indices with |beta_j| > 1e-6 * max(1, max_j |beta_j|), a tolerance that
    scales with the iterate's magnitude to shed projected-gradient dust.  A
    non-finite beta is rejected."""
    a = np.abs(np.asarray(beta, dtype=float).ravel())
    top = float(np.maximum.reduce(a, initial=0.0))  # nan or inf if any entry is
    if not math.isfinite(top):
        raise ValueError("cannot take the support of a non-finite vector")
    tol = 1e-6 * max(1.0, top)
    return (a > tol).nonzero()[0].tolist()
