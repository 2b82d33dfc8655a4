"""
Core complex linear algebra shared by all solvers.

Conventions
-----------
Block vectors (residuals, search directions, solutions) are plain numpy
arrays of shape (n, p), complex128, Fortran order: each column is one
right-hand side. Small coefficient matrices are (p, p) complex128 arrays.
The matrices of interest are complex symmetric, A == A^T but A != A^H,
so the Gram products used throughout are the unconjugated bilinear form
V^T W, which can vanish on nonzero inputs; Cholesky and the Hermitian
machinery of standard libraries do not apply.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels

__all__ = [
    "ComplexSymmetricMatrix",
    "QrFactors",
    "BreakdownError",
    "block_matvec",
    "t_gram",
    "thin_qr",
    "solve_small",
    "fro_norm",
    "axpy_block",
]


class BreakdownError(Exception):
    """A p-by-p Gram system is singular to working precision.

    Attributes
    ----------
    pivot_index : int
        Elimination step at which the pivot fell under the floor.
    pivot_magnitude : float
        Magnitude of the offending pivot.
    """

    def __init__(self, pivot_index, pivot_magnitude):
        self.pivot_index = pivot_index
        self.pivot_magnitude = pivot_magnitude
        super().__init__(
            f"singular small system: pivot {pivot_index} has magnitude "
            f"{pivot_magnitude:.3e}"
        )


def _as_block(v, name="block vector"):
    arr = np.asfortranarray(v, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def _as_small(c, name="coefficient matrix"):
    arr = np.ascontiguousarray(c, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square 2-D, got shape {arr.shape}")
    return arr


class ComplexSymmetricMatrix:
    """Square operator A with A == A^T, stored as CSR or dense.

    Use `from_coo` or `from_dense` to construct. The finiteness and the
    symmetry of the stored entries are verified lazily and cached;
    matrices that fail either check can still be held (file parsers
    accept general input) but the solvers refuse them.

    Attributes
    ----------
    n : int
        Order of the matrix.
    storage : str
        "csr" or "dense".
    nnz : int or None
        Stored entry count (CSR only).
    """

    def __init__(self, n, *, row_ptr=None, col_idx=None, values=None, dense=None):
        if n < 1:
            raise ValueError("matrix order must be >= 1")
        self.n = int(n)
        self._finite = None
        self._symmetric = None
        self._sparse = None
        if dense is not None:
            if row_ptr is not None or col_idx is not None or values is not None:
                raise ValueError("pass either CSR arrays or a dense array, not both")
            dense = np.ascontiguousarray(dense, dtype=np.complex128)
            if dense.shape != (self.n, self.n):
                raise ValueError(
                    f"dense storage must be ({n}, {n}), got {dense.shape}"
                )
            self.storage = "dense"
            self.dense = dense
            self.row_ptr = None
            self.col_idx = None
            self.values = None
            self.nnz = None
            return
        if row_ptr is None or col_idx is None or values is None:
            raise ValueError("CSR storage needs row_ptr, col_idx and values")
        row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.complex128)
        if row_ptr.shape != (self.n + 1,) or row_ptr[0] != 0:
            raise ValueError("row_ptr must have length n + 1 and start at 0")
        if np.any(np.diff(row_ptr) < 0):
            raise ValueError("row_ptr must be nondecreasing")
        if row_ptr[-1] != col_idx.shape[0] or col_idx.shape[0] != values.shape[0]:
            raise ValueError("row_ptr, col_idx and values are inconsistent")
        if col_idx.size and (col_idx.min() < 0 or col_idx.max() >= self.n):
            raise ValueError("column index out of range")
        for i in range(self.n):
            cols = col_idx[row_ptr[i] : row_ptr[i + 1]]
            if cols.size > 1 and np.any(np.diff(cols) <= 0):
                raise ValueError(
                    f"column indices must increase strictly within row {i}"
                )
        self.storage = "csr"
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.values = values
        self.nnz = int(values.shape[0])
        self.dense = None

    @classmethod
    def from_coo(cls, n, rows, cols, values):
        """Build CSR storage from coordinate triples.

        Entries are sorted by (row, col); duplicate coordinates are an
        error rather than summed.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.complex128)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("rows, cols and values must be equal-length 1-D")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n:
                raise ValueError("coordinate index out of range")
        order = np.lexsort((cols, rows))
        rows = rows[order]
        cols = cols[order]
        values = values[order]
        if rows.size > 1:
            same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if np.any(same):
                k = int(np.argmax(same))
                raise ValueError(
                    f"duplicate entry at ({rows[k]}, {cols[k]})"
                )
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(row_ptr, rows + 1, 1)
        np.cumsum(row_ptr, out=row_ptr)
        return cls(n, row_ptr=row_ptr, col_idx=cols, values=values)

    @classmethod
    def from_dense(cls, values):
        """Wrap a square dense array."""
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"dense matrix must be square, got {values.shape}")
        return cls(values.shape[0], dense=values)

    def _csr_rows(self):
        """Row index of every stored CSR entry, in storage order."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.row_ptr))

    def _csr_transpose_parts(self):
        """CSR arrays of A^T, with explicit zeros dropped from both sides."""
        keep = self.values != 0
        rows = self._csr_rows()[keep]
        cols = self.col_idx[keep]
        vals = self.values[keep]
        order = np.lexsort((rows, cols))
        return rows, cols, vals, order

    @property
    def is_finite(self):
        """True iff no stored entry is NaN or infinite."""
        if self._finite is None:
            stored = self.dense if self.storage == "dense" else self.values
            self._finite = bool(np.isfinite(stored).all())
        return self._finite

    @property
    def is_symmetric(self):
        """True iff every stored (i, j, v) has value v at (j, i), exactly."""
        if self._symmetric is None:
            if self.storage == "dense":
                self._symmetric = bool(np.array_equal(self.dense, self.dense.T))
            else:
                rows, cols, vals, order = self._csr_transpose_parts()
                self._symmetric = bool(
                    np.array_equal(rows, cols[order])
                    and np.array_equal(cols, rows[order])
                    and np.array_equal(vals, vals[order])
                )
        return self._symmetric

    def _scipy_csr(self):
        """scipy.sparse view of the CSR arrays, built on first use.

        scipy is imported here, not at module level, so that loading,
        generating and checking matrices and dense solves never load it.
        Threads that race on the first call each build an identical
        handle, so the race is harmless.
        """
        if self._sparse is None:
            import scipy.sparse

            self._sparse = scipy.sparse.csr_array(
                (self.values, self.col_idx, self.row_ptr), shape=(self.n, self.n)
            )
        return self._sparse

    def matvec(self, v):
        """Return A @ v for an (n, p) block vector v."""
        v = _as_block(v)
        if v.shape[0] != self.n:
            raise ValueError(
                f"dimension mismatch: matrix is {self.n}x{self.n}, "
                f"block vector has {v.shape[0]} rows"
            )
        out = np.empty(v.shape, dtype=np.complex128, order="F")
        if self.storage == "csr":
            kernels.csr_block_matvec(self._scipy_csr(), v, out)
        else:
            kernels.dense_block_matvec(self.dense, v, out)
        return out

    def to_dense(self):
        """Densify to a (n, n) complex array."""
        if self.storage == "dense":
            return self.dense.copy()
        out = np.zeros((self.n, self.n), dtype=np.complex128)
        out[self._csr_rows(), self.col_idx] = self.values
        return out

    def __repr__(self):
        if self.storage == "csr":
            return f"ComplexSymmetricMatrix(n={self.n}, csr, nnz={self.nnz})"
        return f"ComplexSymmetricMatrix(n={self.n}, dense)"


@dataclass
class QrFactors:
    """Economy QR factors: q has conjugate-orthonormal columns (Q^H Q = I),
    xi is upper triangular with a real nonnegative diagonal, and q @ xi
    reconstructs the input."""

    q: np.ndarray
    xi: np.ndarray


def block_matvec(a, v):
    """Compute A @ V.

    Parameters
    ----------
    a : ComplexSymmetricMatrix
        The operator (or anything with a conforming ``matvec``).
    v : ndarray
        Block vector of shape (a.n, p).

    Returns
    -------
    ndarray
        A @ V, shape (a.n, p), complex128, Fortran order.
    """
    return a.matvec(v)


def t_gram(v, w):
    """Unconjugated Gram product V^T W.

    This is the bilinear form of the method, not an inner product: it
    applies no complex conjugation and can vanish on nonzero inputs.

    Parameters
    ----------
    v, w : ndarray
        Block vectors of identical shape (n, p).

    Returns
    -------
    ndarray
        V^T W, shape (p, p).
    """
    v = _as_block(v, "v")
    w = _as_block(w, "w")
    if v.shape != w.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {w.shape}")
    out = np.empty((v.shape[1], w.shape[1]), dtype=np.complex128)
    kernels.t_gram(v, w, out)
    return out


def thin_qr(w):
    """Economy Householder QR of an (n, p) block with n >= p.

    The factor diagonal sign is fixed: columns of q are phase-scaled so
    that xi has a real nonnegative diagonal, making factorizations
    reproducible. Rank deficiency is not deflated; it shows up as (near)
    zero diagonal entries of xi for consumers to act on.

    Parameters
    ----------
    w : ndarray
        Block vector of shape (n, p), n >= p.

    Returns
    -------
    QrFactors
        q of shape (n, p), xi of shape (p, p).
    """
    w = _as_block(w, "w")
    n, p = w.shape
    if n < p:
        raise ValueError(f"thin_qr needs n >= p, got shape {w.shape}")
    q = np.empty((n, p), dtype=np.complex128, order="F")
    xi = np.zeros((p, p), dtype=np.complex128)
    kernels.thin_qr(w, q, xi)
    return QrFactors(q=q, xi=xi)


def solve_small(m, rhs, pivot_floor=1e-14):
    """Solve the p-by-p system M Z = RHS by LU with partial pivoting.

    The Gram matrices this solves are complex symmetric, not Hermitian,
    so Cholesky is unsound and partial-pivoted LU is used instead.

    Parameters
    ----------
    m : ndarray
        Square (p, p) system matrix.
    rhs : ndarray
        Right-hand sides, shape (p, k).
    pivot_floor : float
        Relative breakdown threshold: a pivot of magnitude below
        pivot_floor * max|M| raises `BreakdownError`.

    Returns
    -------
    ndarray
        Z with M @ Z = RHS, shape (p, k).

    Raises
    ------
    BreakdownError
        If the system is singular to the given threshold.
    """
    a = _as_small(m, "m").copy()
    b = np.ascontiguousarray(rhs, dtype=np.complex128)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    if b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs shape {rhs.shape} does not match order {a.shape[0]}")
    b = b.copy()
    p = a.shape[0]
    scale = float(np.abs(a).max())
    if scale == 0.0:
        raise BreakdownError(0, 0.0)
    for k in range(p):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        mag = float(np.abs(a[piv, k]))
        if mag < pivot_floor * scale:
            raise BreakdownError(k, mag)
        if piv != k:
            a[[k, piv], :] = a[[piv, k], :]
            b[[k, piv], :] = b[[piv, k], :]
        if k + 1 < p:
            f = a[k + 1 :, k] / a[k, k]
            a[k + 1 :, k + 1 :] -= f[:, None] * a[k, k + 1 :]
            b[k + 1 :, :] -= f[:, None] * b[k, :]
    z = np.empty_like(b)
    for k in range(p - 1, -1, -1):
        z[k, :] = (b[k, :] - a[k, k + 1 :] @ z[k + 1 :, :]) / a[k, k]
    return z[:, 0] if squeeze else z


def fro_norm(v):
    """Frobenius norm of a block vector or small matrix.

    Parameters
    ----------
    v : ndarray
        Any 2-D complex or real array.

    Returns
    -------
    float
        sqrt of the sum of squared entry moduli.
    """
    v = _as_block(v, "v")
    return kernels.fro_norm(v)


def axpy_block(x, y, c):
    """Compute X + Y @ C for block vectors X, Y and a small matrix C.

    Parameters
    ----------
    x, y : ndarray
        Block vectors of shape (n, p).
    c : ndarray
        Coefficient matrix of shape (p, p).

    Returns
    -------
    ndarray
        X + Y @ C, shape (n, p).
    """
    x = _as_block(x, "x")
    y = _as_block(y, "y")
    c = _as_small(c, "c")
    if x.shape != y.shape or y.shape[1] != c.shape[0]:
        raise ValueError(
            f"nonconformable shapes: x {x.shape}, y {y.shape}, c {c.shape}"
        )
    out = np.empty(x.shape, dtype=np.complex128, order="F")
    kernels.axpy_block(x, y, c, out)
    return out
