"""Performance measures for estimated coefficients, supports and matrices."""

from __future__ import annotations

import numpy as np

__all__ = ["ree", "false_positives", "true_positive_rate", "column_norm_error"]


def ree(beta_hat, beta0):
    """Relative estimation error ||beta_hat - beta0||_2 / ||beta0||_2."""
    beta_hat = np.asarray(beta_hat, dtype=float).ravel()
    beta0 = np.asarray(beta0, dtype=float).ravel()
    denom = np.linalg.norm(beta0)
    if denom == 0:
        raise ValueError("beta0 is zero; relative error undefined")
    return float(np.linalg.norm(beta_hat - beta0) / denom)


def false_positives(T_hat, T):
    """Number of selected indices outside the true support."""
    return len(set(T_hat) - set(T))


def true_positive_rate(T_hat, T):
    T = set(T)
    if not T:
        raise ValueError("true support is empty")
    return len(set(T_hat) & T) / len(T)


def column_norm_error(A, B):
    """Max over columns of the l2 norm of A - B."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError("shape mismatch")
    return float(np.max(np.sqrt(np.sum((A - B) ** 2, axis=0))))

