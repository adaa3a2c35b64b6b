"""Bias-corrected second moments and the quadratic loss built from them.

Under additive covariate noise the raw Gram matrix Z'Z/n overshoots the
design covariance by sigma_w, so we subtract it.  Under missingness every
product z_ij z_ik survives only when both entries were observed, so we
divide componentwise by the observation-probability matrix.  The corrected
pair (gamma_mat, gamma_vec) then plays the role of (Sigma_x, Sigma_x b0)
inside an ordinary least-squares quadratic.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .data import _BLOCK_ENTRIES, AdditiveNoise, MissingNoise, SurrogateDataset, _finite, _row_blocks

__all__ = [
    "CorrectedMoments",
    "active_rows_matvec",
    "estimate_missing_rates",
    "build_mask_matrix",
    "corrected_moments",
    "uncorrected_moments",
    "corrected_loss",
]


def _corrected(S, noise, idx=None):
    """Gram S of the columns idx (all if None) less sigma_w (additive noise),
    over M componentwise (missing data) or as it is (noise None)."""
    if isinstance(noise, AdditiveNoise):
        return S - (noise.sigma_w if idx is None else noise.sigma_w[np.ix_(idx, idx)])
    if isinstance(noise, MissingNoise):
        M = build_mask_matrix(noise.rho if idx is None else noise.rho[idx])
        return np.divide(S, M, out=M)
    return S


class CorrectedMoments:
    """Corrected quadratic-loss coefficients of a dataset with n rows and p
    columns.  gamma_mat is *not* guaranteed positive semidefinite: the
    additive correction subtracts sigma_w and can leave it indefinite.

    From a dense pair, gamma_mat is symmetrized on construction.  From a
    dataset, ``source`` is (data, noise), noise None for raw moments, and
    gamma_mat is formed on first read from the shared `SurrogateDataset.gram`,
    exactly symmetric.  Such moments with p > n are `wide`: `block`, `lipschitz`,
    `corrected_loss` and, with a `factor`, `product` then form no p x p array.
    """

    def __init__(self, gamma_mat, gamma_vec, n, p, source=None):
        g = np.asarray(gamma_vec, dtype=float).ravel()
        G = None if source else np.asarray(gamma_mat, dtype=float)
        if g.size != p or (G is not None and G.shape != (p, p)):
            raise ValueError("moment dimensions disagree with p")
        if G is not None:
            self.gamma_mat = 0.5 * (_finite(G) + G.T)
        self.gamma_vec, self.n, self.p, self.source = _finite(g), n, p, source
        self.columns = None

    @cached_property
    def gamma_mat(self) -> np.ndarray:
        data, noise = self.source
        if noise is None:
            return data.gram  # checked finite when formed
        return _finite(_corrected(data.gram, noise))

    @property
    def wide(self) -> bool:
        return self.source is not None and self.p > self.n

    @cached_property
    def factor(self):
        """(Z, q) when gamma_mat is A'A/n - diag(d) for A = Z / q and
        d = diag(A'A/n) * (1 - q) >= 0: missing-data moments (q = 1 - rho)
        and raw ones (q = 1); None otherwise."""
        data, noise = self.source or (None, None)
        if data is None or isinstance(noise, AdditiveNoise):
            return None
        return data.Z, (1.0 if noise is None else 1.0 - noise.rho)

    def block(self, idx) -> np.ndarray:
        """gamma_mat[np.ix_(idx, idx)], formed from Z[:, idx] when `wide`."""
        idx = np.asarray(idx, dtype=np.intp)
        if not self.wide:
            return self.gamma_mat[np.ix_(idx, idx)]
        data, noise = self.source
        Z = data.Z[:, idx]
        return _finite(_corrected((Z.T @ Z) / self.n, noise, idx))

    def product(self):
        """The function b -> gamma_mat @ b, chosen here and nowhere else: when
        `wide` with a `factor`, S b or (S (b/q)) / q - d b, d = diag(S) rho / q^2,
        by `GramRows.matvec` of the dataset's store of S: its rows at the
        non-zeros of b, or Z'(Z b)/n for a dense b; else `active_rows_matvec`,
        dense below 256 columns (no gain there).  A solver takes it once per
        fit; it holds arrays only, never these moments."""
        if self.wide and self.factor is not None:
            data, noise = self.source
            S = data.gram_rows  # its diagonal is checked finite when it is made
            if noise is None:
                return S.matvec
            q = 1.0 - noise.rho
            d = S.diag * noise.rho / q**2
            return lambda b: S.matvec(b / q) / q - d * b
        G = self.gamma_mat
        if self.p < 256:
            return G.dot
        return lambda b: active_rows_matvec(G, b)

    @cached_property
    def lipschitz(self) -> float:
        """Lipschitz constant of the loss gradient, computed once per instance.
        When `wide` with a `factor`, the eigenvalues of gamma_mat lie in
        [-max d, lambda_max(A'A/n)], d_j = rho_j (A'A/n)_jj < lambda_max: it is
        lambda_max(AA'/n) (A = Z if raw) by `_lanczos_top`: for the raw Gram it agrees
        with `eigvalsh` to 1e-13 relative, else it is a bound.  AA' is summed over
        blocks of columns of A, so Z / q is never copied whole."""
        from .selection import _lanczos_top, lipschitz_estimate  # selection imports this module

        if self.factor is None or not self.wide:
            return lipschitz_estimate(self.gamma_mat)
        Z, q = self.factor
        if self.source[1] is None:
            AA = Z @ Z.T
        else:  # 0 + A_1 A_1' + A_2 A_2' + ... added into one n x n buffer
            AA = np.zeros((self.n, self.n))
            for cols in _row_blocks(Z.T):
                A = Z[:, cols] / q[cols]
                AA += A @ A.T
                del A  # one block alive at a time
        return _lanczos_top(_finite(np.divide(AA, self.n, out=AA)))


def active_rows_matvec(G, b):
    """G @ b for a symmetric G.  When b has at most one non-zero in 16, the
    product is summed from the rows of G at those non-zeros, which reads
    O(p * nnz) entries instead of p^2; otherwise it is the dense product."""
    nz = b.nonzero()[0]
    if 16 * nz.size > b.size:
        return G.dot(b)
    return b[nz].dot(G.take(nz, axis=0))


def estimate_missing_rates(mask):
    """Per-column missing rates from observed-entry frequencies.

    rho_hat[j] = 1 - (# observed in column j) / n.  A fully missing column
    is rejected because 1 - rho appears downstream as a divisor.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.shape[0] < 1:
        raise ValueError("mask must be a non-empty n x p boolean matrix")
    rho_hat = 1.0 - np.count_nonzero(mask, axis=0) / mask.shape[0]
    dead = np.flatnonzero(rho_hat >= 1.0)
    if dead.size:
        raise ValueError(f"degenerate column: column(s) {dead.tolist()} fully missing")
    return rho_hat


def build_mask_matrix(rho):
    """Observation-probability matrix: (1-rho_i)(1-rho_j) off-diagonal,
    (1-rho_i) on the diagonal."""
    rho = np.asarray(rho, dtype=float).ravel()
    if np.any(rho < 0.0) or np.any(rho >= 1.0):
        raise ValueError("every missing rate must lie in [0, 1)")
    q = 1.0 - rho
    M = np.outer(q, q)
    np.fill_diagonal(M, q)
    return M


def _dataset_moments(data: SurrogateDataset, noise) -> CorrectedMoments:
    """Moments of ``data`` corrected for ``noise``, from its shared Z'y/n
    (`SurrogateDataset.zy`): a non-finite Z or y is rejected here, once per
    dataset, without waiting for gamma_mat."""
    if data.y is None:
        raise ValueError("dataset has no response; moments need y")
    g = data.zy
    if isinstance(noise, MissingNoise):
        g = g / (1.0 - noise.rho)
    return CorrectedMoments(None, g, data.n, data.p, source=(data, noise))


def corrected_moments(data: SurrogateDataset) -> CorrectedMoments:
    """Build (gamma_mat, gamma_vec) for the dataset's noise mechanism.

    gamma_mat is Z'Z/n - sigma_w under additive noise and (Z'Z/n) / M
    componentwise under missing data, formed on first read from the dataset's
    shared Gram; gamma_vec is Z'y/n under additive noise and (Z'y/n) / (1 - rho)
    componentwise under missing data.
    """
    return _dataset_moments(data, data.noise)


def uncorrected_moments(data: SurrogateDataset) -> CorrectedMoments:
    """Raw moments Z'Z/n (the dataset's shared Gram), Z'y/n with no bias
    correction (Lasso baseline)."""
    return _dataset_moments(data, None)


def corrected_loss(beta, m: CorrectedMoments):
    """Quadratic loss 0.5 b'Gb - g'b; may be negative and unbounded below
    when gamma_mat is indefinite.  For `wide` moments it is taken on the
    support T of beta, from Z[:, T] and d_T (`factor`) or `CorrectedMoments.block`.
    Those depend on T alone: ``m.columns`` keeps (T, Z[:, T], q_T, n d_T) of the
    last T (at most `_BLOCK_ENTRIES` entries) for a beta on the same T."""
    beta = np.asarray(beta, dtype=float).ravel()
    if beta.size != m.p:
        raise ValueError(f"beta has length {beta.size}, expected {m.p}")
    if not m.wide:
        return (0.5 * beta).dot(m.gamma_mat).dot(beta) - m.gamma_vec.dot(beta)
    idx = np.flatnonzero(beta)
    b = beta[idx]
    if m.factor is None:
        return 0.5 * b @ m.block(idx) @ b - m.gamma_vec[idx] @ b
    cols = m.columns
    if cols is None or not np.array_equal(cols[0], idx):
        Z, q = m.factor
        Z, q = Z[:, idx], np.broadcast_to(q, m.p)[idx]
        cols = idx, Z, q, np.einsum("ij,ij->j", Z, Z) * (1.0 - q) / q**2  # n d_T
        m.columns = cols if Z.size <= _BLOCK_ENTRIES else None
    _, Z, q, nd = cols
    u = Z @ (b / q)
    return 0.5 * (u @ u - nd @ (b * b)) / m.n - m.gamma_vec[idx] @ b

