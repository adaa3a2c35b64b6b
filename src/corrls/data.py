"""Observed-surrogate datasets and their noise mechanisms.

A dataset holds the observed covariate matrix Z (a noisy or partially
observed stand-in for the true design X), the response y, and a tag saying
which corruption mechanism produced Z: additive noise with a known
covariance, or entrywise Bernoulli missingness encoded as a boolean mask
with missing cells zero-filled.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "AdditiveNoise",
    "MissingNoise",
    "SurrogateDataset",
    "read_header",
    "read_dataset_csv",
    "write_dataset_csv",
    "read_matrix_csv",
    "write_matrix_csv",
]

NA_TOKEN = "NA"
#: entries in one blockwise temporary: a `_finite` scan, a precision batch (2 MiB of floats)
_BLOCK_ENTRIES = 1 << 18


def _row_blocks(a):
    """Slices of consecutive leading-axis rows of ``a``, of about `_BLOCK_ENTRIES`
    entries each (at least one row), the last one partial."""
    step = max(1, _BLOCK_ENTRIES * len(a) // max(1, a.size))
    return [slice(i, i + step) for i in range(0, len(a), step)]


def _zero_unobserved(block, observed, scratch):
    """Zero the float ``block`` in place where the boolean ``observed`` is False: a
    bitwise AND of its int64 view with a keep mask, -1 (all bits set) where observed
    and 0 elsewhere, written into the leading rows of the int64 ``scratch``.  The
    result is the bytes of ``np.where(observed, block, 0.0)``: observed cells keep
    every bit, -0.0 included, and the others become +0.0."""
    bits, keep = block.view(np.int64), scratch[:len(block)]
    np.negative(observed.view(np.int8), out=keep)
    np.bitwise_and(bits, keep, out=bits)


def _finite(a):
    """``a``, after checking that every entry is finite, in `_row_blocks`, so
    that no boolean array of its size is made."""
    if not all(np.isfinite(a[rows]).all() for rows in _row_blocks(a)):
        raise ValueError("non-finite corrected moments")
    return a


@dataclass(frozen=True)
class AdditiveNoise:
    """Z = X + W with W mean-zero and known covariance ``sigma_w``."""

    sigma_w: np.ndarray

    def __post_init__(self):
        sw = np.asarray(self.sigma_w, dtype=float)
        if sw.ndim != 2 or sw.shape[0] != sw.shape[1]:
            raise ValueError("sigma_w must be a square matrix")
        if not np.all(np.isfinite(sw)):
            raise ValueError("sigma_w has non-finite entries")
        if np.max(np.abs(sw - sw.T)) > 1e-12:
            raise ValueError("sigma_w must be symmetric within 1e-12")
        object.__setattr__(self, "sigma_w", 0.5 * (sw + sw.T))  # exactly symmetric

    @property
    def p(self):
        return self.sigma_w.shape[0]


@dataclass(frozen=True)
class MissingNoise:
    """Entrywise Bernoulli missingness with per-column missing rates ``rho``."""

    rho: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rho, dtype=float).ravel()
        if r.size == 0:
            raise ValueError("rho must be non-empty")
        if np.any(r < 0.0) or np.any(r >= 1.0):
            raise ValueError("every missing rate must lie in [0, 1)")
        object.__setattr__(self, "rho", r)

    @property
    def p(self):
        return self.rho.size


@dataclass(frozen=True)
class SurrogateDataset:
    """Observed (Z, y) pair plus the declared noise mechanism.

    For missing data, ``mask`` is True where the entry was observed and Z is
    zero wherever the mask is False; this keeps a genuine zero observation
    distinguishable from a missing one.  ``y`` may be None in the pure
    covariance/graph setting where no response exists.
    """

    Z: np.ndarray
    y: np.ndarray | None
    noise: AdditiveNoise | MissingNoise
    mask: np.ndarray | None = field(default=None)

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        if Z.ndim != 2 or Z.shape[0] < 1 or Z.shape[1] < 1:
            raise ValueError("Z must be a non-empty n x p matrix")
        object.__setattr__(self, "Z", Z)
        if self.y is not None:
            y = np.asarray(self.y, dtype=float).ravel()
            if y.size != Z.shape[0]:
                raise ValueError("y length must equal the number of rows of Z")
            object.__setattr__(self, "y", y)
        if isinstance(self.noise, MissingNoise):
            if self.mask is None:
                raise ValueError("missing-data noise requires an observation mask")
            mask = np.asarray(self.mask, dtype=bool)
            if mask.shape != Z.shape:
                raise ValueError("mask shape must match Z")
            if any(np.logical_and(Z[rows], ~mask[rows]).any() for rows in _row_blocks(Z)):
                raise ValueError("Z must be zero-filled where the mask is False")
            if self.noise.p != Z.shape[1]:
                raise ValueError("rho length must equal the number of columns of Z")
            object.__setattr__(self, "mask", mask)
        else:
            if self.mask is not None:
                raise ValueError("additive-noise datasets carry no mask")
            if self.noise.p != Z.shape[1]:
                raise ValueError("sigma_w dimension must equal the number of columns of Z")

    @property
    def n(self):
        return self.Z.shape[0]

    @property
    def p(self):
        return self.Z.shape[1]

    @cached_property
    def gram(self):
        """Z'Z/n, formed once for every moments of this dataset that read it whole
        (not wide missing-data or raw ones: `gram_rows`); read-only and checked
        finite when formed (`_finite`), so no moments scan it again."""
        S = _finite((self.Z.T @ self.Z) / self.n)
        S.flags.writeable = False
        return S

    @cached_property
    def zy(self):
        """Z'y/n, formed once for the corrected and the raw moments of this dataset
        after one check that Z and y are finite; read-only."""
        g = (_finite(self.Z).T @ _finite(self.y)) / self.n
        g.flags.writeable = False
        return g

    @cached_property
    def gram_rows(self):
        """The `GramRows` store of Z'Z/n, made once for every moments of this dataset."""
        return GramRows(self.Z)


class GramRows:
    """Rows of S = Z'Z/n, formed when a product first needs them and kept for
    every later one, at most n of them, so never more than Z holds.  ``diag``,
    the diagonal of S from the column norms of Z, is checked finite when the
    store is made: |S_ij| <= max(S_ii, S_jj) bounds every row formed later.
    It takes no lock: moments of one dataset are not fitted from two threads at once."""

    def __init__(self, Z):
        self.Z, (self.n, p) = Z, Z.shape
        self.diag = _finite(np.einsum("ij,ij->j", Z, Z) / self.n)
        self.rows, self.count, self.gathered = np.empty((0, p)), 0, None
        self.slot = np.full(p, -1)  # slot[j]: the row of `rows` holding row j of S, or -1

    def matvec(self, v):
        """S @ v: while at most one entry of v in 16 is non-zero and the rows not
        yet kept fit, from the kept rows at the non-zeros; else Z'(Z v)/n.  The last
        block gathered (at most `_BLOCK_ENTRIES` entries) is ``gathered`` with its
        non-zeros, read again while they repeat: kept rows never change, even when
        the buffer grows, so it holds the bytes a new gather would."""
        nz = v.nonzero()[0]
        if 16 * nz.size <= v.size:
            if self.gathered is not None and np.array_equal(self.gathered[0], nz):
                return v[nz].dot(self.gathered[1])
            if self._keep(nz[self.slot[nz] < 0]):
                self.gathered = None  # freed before the next block is gathered
                rows = self.rows.take(self.slot[nz], axis=0)
                if rows.size <= _BLOCK_ENTRIES:
                    self.gathered = nz, rows
                return v[nz].dot(rows)
        return self.Z.T.dot(self.Z.dot(v)) / self.n

    def _keep(self, new):
        """Form the rows at ``new`` in one block Z[:, new]'Z/n, check it finite and
        keep it; False, keeping none, if there would be more than n rows."""
        k, m = self.count, self.count + new.size
        if m > self.n:
            return False
        if m > len(self.rows):  # double the buffer, to at most n rows
            kept, self.rows = self.rows, np.empty((min(self.n, max(2 * k, m)), self.Z.shape[1]))
            self.rows[:k] = kept[:k]
        if m > k:
            block = self.rows[k:m]
            np.matmul(self.Z[:, new].T, self.Z, out=block)
            _finite(np.divide(block, self.n, out=block))
            self.slot[new], self.count = np.arange(k, m), m
        return True


def _rows(fh, start, linenos, width=None):
    """The non-blank lines of ``fh`` (from file line ``start``), each of ``width``
    fields (None: as many as the first), their line numbers appended to ``linenos``."""
    for lineno, line in enumerate(fh, start=start):
        if not line.strip():
            continue
        fields = line.count(",") + 1
        width = fields if width is None else width
        if fields != width:
            raise ValueError(f"row {lineno} has {fields} fields, expected {width}")
        linenos.append(lineno)
        yield line


def _data_lines(fh, width, linenos):
    """`_rows` of a dataset file, NA as nan.  A literal nan or inf cell is rejected,
    since after the NA substitution it could not be told from a missing one."""
    for line in _rows(fh, 2, linenos, width):
        low = line.lower()
        if "nan" in low or "inf" in low:
            raise ValueError(f"row {linenos[-1]} has a non-finite cell")
        yield line.replace(NA_TOKEN, "nan")


def _load_rows(path, lines, linenos):
    """``np.loadtxt`` of `_rows` ``lines``; an error names ``path`` and the file
    line (loadtxt counts rows from 0 among the lines it was given)."""
    try:
        first = next(lines, None)
        if first is None:
            raise ValueError("no data rows")
        return np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2,
                          comments=None)
    except ValueError as exc:
        msg = re.sub(r"at row (\d+)", lambda r: f"at row {linenos[int(r[1])]}", str(exc))
        raise ValueError(f"{path}: {msg}") from exc


def read_header(fh):
    """The column names in the header row of the open file ``fh``, less a leading
    UTF-8 byte-order mark (which Excel writes), so that a first name "y" is found.
    The mark is U+FEFF only if ``fh`` decodes UTF-8: dataset files are opened in
    the locale's encoding, and under a non-UTF-8 locale the mark stays in the name."""
    first = fh.readline().removeprefix("\ufeff")
    return next(csv.reader(itertools.chain([first], fh)), [])


def _checked_cells(path):
    """The cells of a dataset file, NA as nan, each line checked by `_data_lines`
    before it is parsed: the reader that names the first fault in file order."""
    with open(path, newline="") as fh:
        width = len(read_header(fh))
        linenos = []
        cells = _load_rows(path, _data_lines(fh, width, linenos), linenos)
    if np.isinf(cells).any():
        raise ValueError(f"{path}: a cell overflows to infinity")
    return cells


def _clean_cells(fh, width):
    """The cells of the data lines of ``fh``, NA as nan, in one pass per line; None
    unless the parsed numbers prove that `_checked_cells` would accept the file and
    return the same cells.  Each NA -> nan adds one character, so the lengths count
    the NA cells: as many NaN cells rule out a literal nan, no infinite cell rules
    out a literal inf or an overflow, and loadtxt keeps the rows equally wide."""
    added = 0

    def lines():
        nonlocal added
        for line in fh:
            if not line.isspace():
                new = line.replace(NA_TOKEN, "nan")
                added += len(new) - len(line)
                yield new

    rows = lines()
    first = next(rows, None)  # none: loadtxt would warn, so leave it to the checked reader
    if first is None:
        return None
    try:
        cells = np.loadtxt(itertools.chain([first], rows), delimiter=",", ndmin=2,
                           comments=None)
    except ValueError:
        return None
    if (cells.shape[1] != width or np.count_nonzero(np.isnan(cells)) != added
            or np.isinf(cells).any()):
        return None
    return cells


def read_dataset_csv(path, noise):
    """Load a dataset from a delimited file.

    Expects a header row; a column named "y" (if present) becomes the
    response, all remaining columns become Z in file order.  Missing cells
    carry the token "NA" (or "-NA", "+NA") and are only legal under a missing-data
    noise model, where they clear the mask and are zero-filled (+0.0) in place
    by the bitwise `_zero_unobserved`, a block of rows at a time, so an observed
    "-0" keeps its sign.  Every other cell must be a finite number.  A file that
    the one-pass `_clean_cells` cannot prove clean is read again by
    `_checked_cells`, which names its fault.
    """
    with open(path, newline="") as fh:
        header = read_header(fh)
        cells = _clean_cells(fh, len(header))
    if cells is None:
        cells = _checked_cells(path)
    y = None
    if "y" in header:
        y = cells[:, header.index("y")]
        if np.isnan(y).any():
            raise ValueError(f"{path}: NA in the y column")
        cells = np.delete(cells, header.index("y"), axis=1)
    observed = ~np.isnan(cells)
    blocks = _row_blocks(cells)
    scratch = np.empty(cells[blocks[0]].shape, dtype=np.int64)
    for rows in blocks:
        _zero_unobserved(cells[rows], observed[rows], scratch)
    if isinstance(noise, MissingNoise):
        return SurrogateDataset(Z=cells, y=y, noise=noise, mask=observed)
    if not observed.all():
        raise ValueError(f"{path}: NA entries present but noise model is additive")
    return SurrogateDataset(Z=cells, y=y, noise=noise)


def write_dataset_csv(data: SurrogateDataset, path):
    """Write a dataset in the format `read_dataset_csv` accepts."""
    header = [f"z{j + 1}" for j in range(data.p)]
    cells = data.Z
    observed = np.ones(cells.shape, dtype=bool) if data.mask is None else data.mask
    if data.y is not None:
        header = ["y"] + header
        cells = np.column_stack([data.y, cells])
        observed = np.column_stack([np.ones(data.n, dtype=bool), observed])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for row, obs in zip(cells, observed):
            fmt = ",".join(np.where(obs, "%.17g", NA_TOKEN).tolist()) + "\r\n"
            fh.write(fmt % tuple(row[obs].tolist()))


def read_matrix_csv(path):
    """Read a plain numeric matrix (no header) from a delimited file; as in
    `read_dataset_csv`, '#' is part of a cell, not a comment, and an error
    names the file and its 1-based line."""
    with open(path, newline="") as fh:
        linenos = []
        return _load_rows(path, _rows(fh, 1, linenos), linenos)


def write_matrix_csv(mat, path):
    """Write the bytes ``np.savetxt(path, mat, delimiter=",", fmt="%.17g")`` writes,
    formatting only the non-zeros: a zero is the text 0, or -0 if its sign bit is set."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.ndim != 2:
        raise ValueError(f"Expected 1D or 2D array, got {mat.ndim}D array instead")
    with open(path, "w") as fh:
        for row in mat:
            zero = row == 0
            cells = np.where(zero, np.where(np.signbit(row), "-0", "0"), "%.17g")
            fh.write(",".join(cells.tolist()) % tuple(row[~zero].tolist()) + "\n")
