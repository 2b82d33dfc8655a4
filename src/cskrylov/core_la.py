"""
Core complex linear algebra shared by all solvers.

Conventions
-----------
Block vectors (residuals, search directions, solutions) are plain numpy
arrays of shape (n, p), complex128, Fortran order: each column is one
right-hand side. Small coefficient matrices are (p, p) complex128 arrays.
The matrices of interest are complex symmetric, A == A^T but A != A^H,
so the Gram products of the recurrences are the unconjugated bilinear
form V^T W, which can vanish on nonzero inputs; Cholesky and the
Hermitian machinery of standard libraries do not apply to them. The
thin QR is the exception: its Q is orthonormal in the Hermitian sense
(Q^H Q = I), so it may factor the Hermitian Gram W^H W.
"""

import ctypes
import functools
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
        # entry k is out of order when col_idx[k + 1] <= col_idx[k] and
        # entry k + 1 does not start a new row
        unordered = np.diff(col_idx) <= 0
        starts = row_ptr[1:-1]
        unordered[starts[(starts > 0) & (starts < col_idx.size)] - 1] = False
        if unordered.any():
            k = int(np.argmax(unordered))
            row = int(np.searchsorted(row_ptr, k, side="right")) - 1
            raise ValueError(
                f"column indices must increase strictly within row {row}"
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
    """Economy QR of an (n, p) block with n >= p.

    A single column is normalized; wider blocks are factored by
    CholeskyQR2, or by Householder QR when the block is too
    ill-conditioned or too near rank deficiency for CholeskyQR2 (see
    `kernels.thin_qr`). Either way xi has a real nonnegative diagonal,
    which makes the factors unique for full-rank input and
    factorizations reproducible. Rank deficiency is not deflated; it
    shows up as (near) zero diagonal entries of xi for consumers to act
    on.

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
    so Cholesky is unsound and partial-pivoted LU is used instead. A
    1-by-1 system is one complex division. Larger systems go to LAPACK
    ``zgesv`` in the library numpy itself links (see `_zgesv`), which
    picks each pivot by the largest |re| + |im| in its column, as
    LAPACK's ``izamax`` does. Where numpy exposes no such symbol, and
    where LAPACK stops at an exact zero pivot that the floor lets
    through (a NaN in M, or a floor of zero), a Python LU that picks
    each pivot by the largest modulus runs instead. The two rules can
    choose different rows, so their results may differ in the last bits.

    Parameters
    ----------
    m : ndarray
        Square (p, p) system matrix.
    rhs : ndarray
        Right-hand sides, shape (p, k).
    pivot_floor : float
        Relative breakdown threshold: a pivot of magnitude below
        pivot_floor * max|M| raises `BreakdownError`. The pivots are the
        diagonal of U in elimination order.

    Returns
    -------
    ndarray
        Z with M @ Z = RHS, shape (p, k). Non-finite when M or RHS has a
        NaN entry; that raises no `BreakdownError`.

    Raises
    ------
    BreakdownError
        If the system is singular to the given threshold.
    """
    a = _as_small(m, "m")
    b = np.asarray(rhs, dtype=np.complex128)
    squeeze = b.ndim == 1
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs shape {b.shape} does not match order {a.shape[0]}")
    if squeeze:
        b = b[:, None]
    scale = float(np.abs(a).max())
    if scale == 0.0:
        raise BreakdownError(0, 0.0)
    floor = pivot_floor * scale
    if a.shape[0] == 1:
        if scale < floor:
            raise BreakdownError(0, scale)
        z = b / a[0, 0]
    else:
        z = _lapack_solve(a, b, floor) if _zgesv() is not None else None
        if z is None:
            z = _python_solve(a, b, floor)
    return z[:, 0] if squeeze else z


# (symbol, LAPACK integer type) in the order tried: the scipy-openblas
# wheels of numpy export 64-bit-integer LAPACK under a prefix and suffix.
# The unsuffixed name says nothing of its integer width, which is taken
# from numpy's build report instead (None: ask the report)
_ZGESV_SYMBOLS = (
    ("scipy_zgesv_64_", ctypes.c_int64),
    ("zgesv_64_", ctypes.c_int64),
    ("zgesv_", None),
)


@functools.cache
def _zgesv():
    """LAPACK zgesv and its integer type, or None where it cannot be found.

    The symbol is looked up through numpy's own linear-algebra extension,
    whose dependencies include the LAPACK numpy links, so it adds no
    library to the process and shares numpy's BLAS threads.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    return _bind_zgesv(lib, _lapack_report())


def _lapack_report():
    """numpy's build report on the LAPACK it links, {} where it has none."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):
        return {}


def _report_int_type(lapack):
    """The integer type of an OpenBLAS LAPACK as numpy's build report
    gives it, or None where the report shows no OpenBLAS configuration
    and so cannot confirm the width."""
    config = lapack.get("openblas configuration", "")
    if not config.startswith("OpenBLAS"):
        return None
    return ctypes.c_int64 if "USE64BITINT" in config.split() else ctypes.c_int32


def _bind_zgesv(lib, lapack):
    """zgesv from `lib` and its integer type, typed for ctypes, or None.

    A symbol whose integer width is unknown is skipped: calling an
    int64 LAPACK with int32 arguments would read past them and write
    pivots past the end of their array.
    """
    for name, int_t in _ZGESV_SYMBOLS:
        if int_t is None:
            int_t = _report_int_type(lapack)
            if int_t is None:
                continue
        try:
            fn = lib[name]
        except AttributeError:
            continue
        ip = ctypes.POINTER(int_t)
        vp = ctypes.c_void_p
        fn.argtypes = [ip, ip, vp, ip, ip, vp, ip, ip]
        fn.restype = None
        return fn, int_t
    return None


def _lapack_solve(a, b, floor):
    """Z for M Z = B by zgesv, or None if zgesv stopped at an exact zero
    pivot below no floor; it then leaves B unsolved."""
    fn, int_t = _zgesv()
    p, k = b.shape
    lu = np.array(a, order="F")
    z = np.array(b, order="F")
    ipiv = (int_t * p)()
    n, nrhs, info = int_t(p), int_t(k), int_t(0)
    fn(n, nrhs, lu.ctypes.data, n, ipiv, z.ctypes.data, n, info)
    for i, mag in enumerate(np.abs(lu.diagonal()).tolist()):
        if mag < floor:
            raise BreakdownError(i, mag)
    return None if info.value else z


def _python_solve(a, b, floor):
    """Z for M Z = B by an LU that pivots on the largest modulus."""
    a = a.copy()
    b = b.copy()
    p = a.shape[0]
    for k in range(p):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        mag = float(np.abs(a[piv, k]))
        if mag < floor:
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
    return z


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
