"""Stage-one model selection: correlation screening and l1-penalized
corrected least squares, plus the shared projected-gradient machinery.

Correlation screening keeps the a_n coordinates whose corrected
cross-moments are largest in magnitude; it needs no correction matrix at
all.  The penalized route minimizes the corrected quadratic plus an l1
penalty over an l1 ball, by composite projected gradient descent.  The
corrected quadratic can be indefinite under additive noise, so the solver
tracks and returns its best-objective iterate; the ball constraint keeps
iterates bounded either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .moments import CorrectedMoments

__all__ = [
    "SolverOptions",
    "FitResult",
    "screen_order",
    "screen_size",
    "cs_screen",
    "project_l1_ball",
    "lipschitz_estimate",
    "active_rows_matvec",
    "l1_cls_fit",
    "support",
]


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 10_000
    rel_tol: float = 1e-6
    radius: float = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if not self.radius > 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class FitResult:
    """Coefficient estimate plus solver diagnostics.

    ``objective`` is the value of the criterion that was minimized: the
    plain corrected loss for unpenalized fits, corrected loss plus
    lambda * ||beta||_1 for penalized ones.
    """

    beta: np.ndarray
    support_used: tuple
    method: str
    iterations: int
    objective: float
    converged: bool
    fallback_used: bool = False


def screen_order(gamma_vec):
    """Indices by decreasing |gamma_vec|, ties to the smaller index: the
    order in which correlation screening admits coordinates.  A 2-D array
    is ordered row by row."""
    g = np.asarray(gamma_vec, dtype=float)
    g = g if g.ndim == 2 else g.ravel()
    if not np.all(np.isfinite(g)):
        raise ValueError("screening scores must be finite")
    # stable sort on (-|g|, index) gives magnitude order with index tie-break
    return np.argsort(-np.abs(g), axis=-1, kind="stable")


def screen_size(a_n, p):
    """How many of p coordinates a screening size a_n keeps: min(a_n, p).
    An a_n that is not a whole number, or is below 1, is rejected."""
    k = int(a_n)
    if k != a_n:
        raise ValueError(f"a_n must be a whole number, got {a_n!r}")
    if k < 1:
        raise ValueError("empty selection not allowed")
    return min(k, p)


def cs_screen(gamma_vec, a_n) -> tuple:
    """Sorted indices of the a_n largest |gamma_vec| (0-based; reports print
    1-based), the first `screen_size` of `screen_order`."""
    order = screen_order(gamma_vec)
    return tuple(sorted(int(j) for j in order[:screen_size(a_n, order.size)]))


def project_l1_ball(v, R, shrink=0.0):
    """Euclidean projection onto the l1 ball of radius R (Duchi et al.) of
    sign(v) * max(|v| - shrink, 0), v soft-thresholded, in one pass over |v|
    that sums it once and sorts it only outside the ball.  With shrink 0, v
    is projected as given, negative zeros kept."""
    return _project_l1_ball(v, R, shrink)[0]


def _project_l1_ball(v, R, shrink=0.0):
    """`project_l1_ball` and the l1 norm of its result, bit-equal to np.abs(x).sum()."""
    v = np.asarray(v, dtype=float).ravel()
    if R <= 0:
        raise ValueError("radius must be positive")
    a = np.abs(v)
    if shrink:
        a -= shrink
        np.maximum(a, 0.0, out=a)
        v = np.sign(v) * a
    total = a.sum()
    if not math.isfinite(total) and not np.all(np.isfinite(a)):  # the sum may overflow
        raise ValueError("cannot project a non-finite vector")
    if total <= R:
        return (v if shrink else v.copy()), total
    u = np.sort(a)[::-1]
    cum = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    rho = np.max(np.nonzero(u - (cum - R) / ks > 0)[0])
    tau = (cum[rho] - R) / (rho + 1)
    a = np.maximum(a - tau, 0.0)
    return np.sign(v) * a, a.sum()


def lipschitz_estimate(G):
    """Largest |eigenvalue| of symmetric G, the gradient's Lipschitz constant."""
    vals = np.linalg.eigvalsh(np.asarray(G, dtype=float))
    return float(np.max(np.abs(vals), initial=0.0))


def active_rows_matvec(G, b):
    """G @ b for a symmetric G.  When b has at most one non-zero in 16, the
    product is summed from the rows of G at those non-zeros, which reads
    O(p * nnz) entries instead of p^2; otherwise it is the dense product."""
    nz = np.flatnonzero(b)
    if 16 * nz.size > b.size:
        return G @ b
    return b[nz] @ G.take(nz, axis=0)


def l1_cls_fit(m: CorrectedMoments, lam, opts: SolverOptions, beta0=None) -> FitResult:
    """Minimize 0.5 b'Gb - g'b + lam*||b||_1 subject to ||b||_1 <= radius.

    Composite projected gradient with the fixed step 1/L (L cached on the
    moments): a gradient step, then one `project_l1_ball` pass that
    soft-thresholds by lam/L, projects onto the ball and gives the l1 norm
    of the candidate for its objective.  G @ b is formed
    once per iterate and serves both its objective and the next gradient.
    From 256 columns on it is `active_rows_matvec`, which reads only the
    rows of G at a sparse iterate's non-zeros; a smaller G takes the dense
    product every step, as a gather does not pay there.  Returns the
    best-objective iterate, which for an indefinite G may precede the last one.
    """
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    G, g, p = m.gamma_mat, m.gamma_vec, m.p
    R = opts.radius
    beta = np.zeros(p) if beta0 is None else project_l1_ball(beta0, R)
    if beta.size != p:
        raise ValueError(f"beta0 has length {beta.size}, expected {p}")
    L = m.lipschitz
    eta = 1.0 / L if L > 0 else 1.0
    matvec = partial(np.matmul, G) if p < 256 else partial(active_rows_matvec, G)
    Gb = matvec(beta)
    f = 0.5 * (beta @ Gb) - g @ beta + lam * np.abs(beta).sum()
    best_beta, best_f = beta, f  # every iterate is a fresh array
    converged = False
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        cand, norm = _project_l1_ball(beta - eta * (Gb - g), R, eta * lam)
        Gc = matvec(cand)
        f_cand = 0.5 * (cand @ Gc) - g @ cand + lam * norm
        if not math.isfinite(f_cand):
            raise ArithmeticError("diverged: non-finite objective in solver")
        df = f - f_cand
        beta, Gb, f = cand, Gc, f_cand
        if f < best_f:
            best_f, best_beta = f, beta
        if abs(df) < opts.rel_tol * max(1.0, abs(f)):
            converged = True
            break
    return FitResult(
        beta=best_beta,
        support_used=tuple(support(best_beta)),
        method="L1CLS",
        iterations=iters,
        objective=float(best_f),
        converged=converged,
    )


def support(beta, tol=None):
    """Indices with |beta_j| > tol.  Default tol scales with the iterate's
    magnitude to shed projected-gradient dust."""
    beta = np.asarray(beta, dtype=float).ravel()
    if tol is None:
        tol = 1e-6 * max(1.0, float(np.max(np.abs(beta), initial=0.0)))
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    return np.flatnonzero(np.abs(beta) > tol).tolist()
