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

import time
from dataclasses import dataclass

import numpy as np

from .moments import CorrectedMoments

__all__ = [
    "SelectionResult",
    "SolverOptions",
    "FitResult",
    "cs_screen",
    "project_l1_ball",
    "soft_threshold",
    "lipschitz_estimate",
    "l1_cls_fit",
    "support",
]


@dataclass(frozen=True)
class SelectionResult:
    """Selected support (0-based; reports print 1-based) with its tuning value."""

    support: tuple
    method: str  # "CS" | "L1CLS"
    tuning: float


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 10_000
    rel_tol: float = 1e-6
    step_rule: str = "fixed"  # "fixed" (1/L) | "backtracking"
    radius: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.step_rule not in ("fixed", "backtracking"):
            raise ValueError(f"unknown step rule {self.step_rule!r}")


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
    wall_time: float = 0.0


def cs_screen(gamma_vec, a_n) -> SelectionResult:
    """Keep the a_n indices with largest |gamma_vec|, ties to smaller index.

    Ranks are descending in magnitude (rank one is the largest).  a_n >= p
    selects everything.
    """
    g = np.asarray(gamma_vec, dtype=float).ravel()
    if not np.all(np.isfinite(g)):
        raise ValueError("screening scores must be finite")
    a_n = int(a_n)
    if a_n < 1:
        raise ValueError("empty selection not allowed")
    p = g.size
    k = min(a_n, p)
    # stable sort on (-|g|, index) gives magnitude order with index tie-break
    order = np.argsort(-np.abs(g), kind="stable")
    sel = tuple(sorted(int(j) for j in order[:k]))
    return SelectionResult(support=sel, method="CS", tuning=float(a_n))


def soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def project_l1_ball(v, R):
    """Euclidean projection onto the l1 ball of radius R (Duchi et al.)."""
    v = np.asarray(v, dtype=float).ravel()
    if R <= 0:
        raise ValueError("radius must be positive")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a non-finite vector")
    a = np.abs(v)
    if a.sum() <= R:
        return v.copy()
    u = np.sort(a)[::-1]
    cum = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    rho = np.max(np.nonzero(u - (cum - R) / ks > 0)[0])
    tau = (cum[rho] - R) / (rho + 1)
    return soft_threshold(v, tau)


def lipschitz_estimate(G):
    """Largest |eigenvalue| of symmetric G, the gradient's Lipschitz constant."""
    vals = np.linalg.eigvalsh(np.asarray(G, dtype=float))
    return float(np.max(np.abs(vals), initial=0.0))


def l1_cls_fit(m: CorrectedMoments, opts: SolverOptions, beta0=None) -> FitResult:
    """Minimize 0.5 b'Gb - g'b + lam*||b||_1 subject to ||b||_1 <= radius.

    Composite projected gradient: gradient step, soft-threshold by
    eta*lambda, project onto the ball.  Fixed step 1/L (L cached on the
    moments) or Armijo backtracking.  G @ b is formed once per candidate and
    serves both its objective and the next gradient.  Returns the
    best-objective iterate, which for an indefinite G may precede the last
    one.
    """
    t0 = time.perf_counter()
    G, g, p = m.gamma_mat, m.gamma_vec, m.p
    lam, R = opts.lam, opts.radius
    beta = np.zeros(p) if beta0 is None else project_l1_ball(np.asarray(beta0, float), R)
    L = m.lipschitz
    eta0 = 1.0 / L if L > 0 else 1.0
    Gb = G @ beta
    f = 0.5 * beta @ Gb - g @ beta + lam * np.abs(beta).sum()
    best_beta, best_f = beta.copy(), f
    converged = False
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        grad = Gb - g
        eta = eta0
        while True:
            cand = project_l1_ball(soft_threshold(beta - eta * grad, eta * lam), R)
            Gc = G @ cand
            f_cand = 0.5 * cand @ Gc - g @ cand + lam * np.abs(cand).sum()
            if not np.isfinite(f_cand):
                raise ArithmeticError("diverged: non-finite objective in solver")
            if opts.step_rule == "fixed":
                break
            # Armijo-type: accept any decrease, else halve the step
            if f_cand <= f or eta < 1e-12:
                break
            eta *= 0.5
        df = f - f_cand
        beta, Gb, f = cand, Gc, f_cand
        if f < best_f:
            best_f, best_beta = f, beta.copy()
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
        wall_time=time.perf_counter() - t0,
    )


def support(beta, tol=None):
    """Indices with |beta_j| > tol.  Default tol scales with the iterate's
    magnitude to shed projected-gradient dust."""
    beta = np.asarray(beta, dtype=float).ravel()
    if tol is None:
        tol = 1e-6 * max(1.0, float(np.max(np.abs(beta), initial=0.0)))
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    return [int(j) for j in np.flatnonzero(np.abs(beta) > tol)]
