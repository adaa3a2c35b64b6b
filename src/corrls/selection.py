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
from .moments import CorrectedMoments

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
    admits coordinates.  A 1-D array is one row.  Below the row length the k are
    found by a partition, not a sort of the row, then ordered stably."""
    g = np.asarray(scores, dtype=float)
    a = np.abs(g if g.ndim == 2 else g.reshape(1, -1))
    k = screen_size(k, a.shape[1])
    if not math.isfinite(np.maximum.reduce(a, axis=None, initial=0.0)):
        raise ValueError("screening scores must be finite")
    if k == a.shape[1]:
        # stable sort on (-|g|, index) gives magnitude order with index tie-break
        order = np.argsort(-a, axis=1, kind="stable")
    else:
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


def project_l1_ball(v, R, shrink=0.0):
    """Euclidean projection onto the l1 ball of radius R (Duchi et al.) of
    sign(v) * max(|v| - shrink, 0), v soft-thresholded, in one pass over |v|
    that sums it once and sorts it only outside the ball.  With shrink 0, v
    is projected as given, negative zeros kept."""
    v = np.asarray(v, dtype=float).ravel()
    x = _project_l1_ball(v, _positive(R, "radius"), shrink)[0]
    return x.copy() if x is v else x


def _project_l1_ball(v, R, shrink):
    """`project_l1_ball` of a 1-D float v and a radius R > 0, unchecked, and the
    l1 norm of its result as a Python float, bit-equal to np.abs(x).sum(); v
    itself if it is kept."""
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


def lipschitz_estimate(G):
    """Largest |eigenvalue| of symmetric G, the gradient's Lipschitz constant."""
    vals = np.linalg.eigvalsh(np.asarray(G, dtype=float))
    return float(np.max(np.abs(vals), initial=0.0))


def _lanczos_top(G):
    """Largest eigenvalue of a symmetric positive semidefinite n x n G by Lanczos
    with full reorthogonalization from a fixed start: the top Ritz value theta once
    its residual bound r = beta_j |s_j| is at most 1e-10 theta, or once the value's
    error bound r^2 / gap (Parlett 1998; gap ~ theta - the next Ritz value) is at
    most 1e-14 theta, or at step n, where it is exact.  Its products are
    matrix-vector ones, whose bytes do not depend on the BLAS thread count."""
    n = G.shape[0]
    Q = np.empty((n, n))  # row j is the j-th Lanczos vector
    q = np.random.default_rng(0).standard_normal(n)
    q /= np.linalg.norm(q)
    alpha, beta = [], []
    for j in range(n):
        Q[j] = q
        w = G.dot(q)
        alpha.append(float(q.dot(w)))
        for _ in range(2):  # Gram-Schmidt twice against every earlier vector
            w -= Q[:j + 1].dot(w).dot(Q[:j + 1])
        b = float(np.linalg.norm(w))
        stop = j + 1 == n or b <= 1e-10 * max(alpha)  # <= 1e-10 theta; w / b is rounding noise
        if stop or (j >= 29 and j % 10 == 9):  # else checked every 10 steps from step 30
            theta, S = np.linalg.eigh(np.diag(alpha) + np.diag(beta, -1), UPLO="L")
            top, r = theta[-1], b * abs(S[-1, -1])
            if stop or r <= 1e-10 * top or r * r <= 1e-14 * top * (top - theta[-2]):
                return float(top)
        beta.append(b)
        q = w / b


def l1_cls_fit(m: CorrectedMoments, lam, opts: SolverOptions, beta0=None) -> FitResult:
    """Minimize 0.5 b'Gb - g'b + lam*||b||_1 subject to ||b||_1 <= radius.

    Accelerated projected gradient (FISTA, Beck & Teboulle 2009) with the
    fixed step 1/L (L cached on the moments): a gradient step from the
    extrapolated point y, then one `project_l1_ball` pass that
    soft-thresholds by lam/L, projects onto the ball and gives the l1 norm
    of the candidate for its objective.  y runs on past the candidate along
    its step, unless the momentum points uphill, (y - cand) . step > 0, which
    restarts it (O'Donoghue & Candes 2015).  G @ b, by the product
    `CorrectedMoments.product` gives once per fit, is formed once per iterate,
    and G @ y follows by linearity.  Stops when
    f of consecutive iterates changes by less than rel_tol * max(1, |f|);
    returns the best-objective iterate, which for an indefinite G may
    precede the last one.  The loop calls BLAS through ndarray.dot and keeps
    its scalars as Python floats: bit-equal to @, at about half the dispatch
    cost at p=100.
    """
    lam = float(lam)
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be a finite number >= 0, got {lam!r}")
    g, p = m.gamma_vec, m.p
    R = opts.radius
    beta = np.zeros(p) if beta0 is None else project_l1_ball(beta0, R)
    if beta.size != p:
        raise ValueError(f"beta0 has length {beta.size}, expected {p}")
    L = m.lipschitz
    eta = 1.0 / L if L > 0 else 1.0
    matvec = m.product()
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
