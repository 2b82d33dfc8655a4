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

Blocks stay in Fortran order through every kernel: the CSR product
runs scipy's one-vector kernel on each column of the result, and the
block update X <- X + Y C is made in place, on large blocks by one
``zgemm`` call. Every kernel but `axpy_block` returns a new array;
`axpy_block` updates and returns X.
"""

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

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


# largest order n for which the sort key row * n + col, at most
# n * n - 1, fits in int64
_MAX_ORDER = 3_037_000_499


def _check_order(n):
    if n > _MAX_ORDER:
        raise ValueError(
            f"matrix order {n} exceeds {_MAX_ORDER}, the largest whose "
            "(row, col) sort key fits in int64"
        )


def _sort_key(major, minor, n):
    """The int64 key major * n + minor, which orders entries by (major, minor)."""
    key = major * n
    key += minor
    return key


def _index_array(a, name):
    """a as int64, refusing float and boolean arrays instead of truncating."""
    arr = np.asarray(a)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


class ComplexSymmetricMatrix:
    """Square operator A with A == A^T, stored as CSR.

    Use `from_coo` or `from_dense` to construct. The finiteness and the
    symmetry of the stored entries are verified lazily and cached;
    matrices that fail either check can still be held (file parsers
    accept general input) but the solvers refuse them.

    Attributes
    ----------
    n : int
        Order of the matrix.
    row_ptr, col_idx, values : ndarray
        CSR arrays: int64 row offsets of length n + 1, and the int64
        column and complex128 value of each stored entry, in (row, col)
        order with columns strictly increasing within a row.
    nnz : int
        Stored entry count.
    """

    def __init__(self, n, *, row_ptr, col_idx, values):
        if n < 1:
            raise ValueError("matrix order must be >= 1")
        _check_order(n)
        self.n = int(n)
        self._finite = None
        self._symmetric = None
        row_ptr = np.ascontiguousarray(_index_array(row_ptr, "row_ptr"))
        col_idx = np.ascontiguousarray(_index_array(col_idx, "col_idx"))
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
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.values = values
        self.nnz = int(values.shape[0])

    @classmethod
    def from_coo(cls, n, rows, cols, values):
        """Build CSR storage from coordinate triples.

        Entries are sorted by the int64 key row * n + col, which orders
        them by (row, col); duplicate coordinates are an error rather
        than summed. For the key to fit in int64 the order may be at
        most 3_037_000_499.
        """
        _check_order(n)
        rows = _index_array(rows, "rows")
        cols = _index_array(cols, "cols")
        values = np.asarray(values, dtype=np.complex128)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("rows, cols and values must be equal-length 1-D")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n:
                raise ValueError("coordinate index out of range")
        key = _sort_key(rows, cols, n)
        order = np.argsort(key)
        # in place, not gathered through order: a gathered copy is one
        # more nnz-long block live beside the sorted columns and values,
        # which lifted peak RSS ~1.5 MB on a 3e5-entry Matrix Market read
        key.sort()
        same = key[1:] == key[:-1]
        if np.any(same):
            row, col = divmod(int(key[np.argmax(same)]), n)
            raise ValueError(f"duplicate entry at ({row}, {col})")
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])
        return cls(n, row_ptr=row_ptr, col_idx=cols[order], values=values[order])

    @classmethod
    def from_dense(cls, values):
        """Build CSR storage from the nonzero entries of a square array."""
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"dense matrix must be square, got {values.shape}")
        rows, cols = np.nonzero(values)
        return cls.from_coo(values.shape[0], rows, cols, values[rows, cols])

    def _csr_rows(self):
        """Row index of every stored CSR entry, in storage order."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.row_ptr))

    @property
    def is_finite(self):
        """True iff no stored entry is NaN or infinite."""
        if self._finite is None:
            self._finite = bool(np.isfinite(self.values).all())
        return self._finite

    @property
    def is_symmetric(self):
        """True iff every stored (i, j, v) has value v at (j, i), exactly.

        Explicit zeros are dropped from both sides. Storage is sorted by
        the key row * n + col, so sorting the entries by col * n + row
        must give back the same keys and the same values.
        """
        if self._symmetric is None:
            rows, cols, vals = self._csr_rows(), self.col_idx, self.values
            keep = vals != 0
            if not keep.all():
                rows, cols, vals = rows[keep], cols[keep], vals[keep]
            key = _sort_key(rows, cols, self.n)
            mirror = _sort_key(cols, rows, self.n)
            order = np.argsort(mirror)
            self._symmetric = bool(
                np.array_equal(key, mirror[order])
                and np.array_equal(vals, vals[order])
            )
        return self._symmetric

    def matvec(self, v):
        """Return A @ v for an (n, p) block vector v, in Fortran order.

        Each column of the result is scipy's CSR kernel applied to the
        matching column of v, written in place.
        """
        v = _as_block(v)
        if v.shape[0] != self.n:
            raise ValueError(
                f"dimension mismatch: matrix is {self.n}x{self.n}, "
                f"block vector has {v.shape[0]} rows"
            )
        # the kernel adds each row's sum to what the output holds
        out = np.zeros(v.shape, dtype=np.complex128, order="F")
        csr_matvec = _csr_matvec()
        for j in range(v.shape[1]):
            csr_matvec(
                self.n, self.n, self.row_ptr, self.col_idx, self.values,
                v[:, j], out[:, j],
            )
        return out

    def to_dense(self):
        """Densify to a (n, n) complex array."""
        out = np.zeros((self.n, self.n), dtype=np.complex128)
        out[self._csr_rows(), self.col_idx] = self.values
        return out

    def __repr__(self):
        return f"ComplexSymmetricMatrix(n={self.n}, csr, nnz={self.nnz})"


@functools.cache
def _csr_matvec():
    """scipy's one-vector CSR kernel, y += A x, sums in row order.

    scipy is imported on the first product, not at module level, so
    that loading, generating and checking matrices never load it.
    """
    from scipy.sparse import _sparsetools

    return _sparsetools.csr_matvec


@dataclass
class QrFactors:
    """Economy QR factors: q has conjugate-orthonormal columns (Q^H Q = I),
    xi is upper triangular with a real nonnegative diagonal, and q @ xi
    reconstructs the input."""

    q: np.ndarray
    xi: np.ndarray


def block_matvec(a, v):
    """Compute A @ V into a new block.

    A `ComplexSymmetricMatrix` forms it one column at a time with
    scipy's CSR kernel, so no row-major copy of V or of the result is
    made.

    Parameters
    ----------
    a : ComplexSymmetricMatrix
        The operator (or anything with a conforming ``matvec``).
    v : ndarray
        Block vector of shape (a.n, p), in any memory order.

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
    return v.T @ w


def thin_qr(w):
    """Economy QR of an (n, p) block with n >= p.

    A single column is normalized; wider blocks are factored by
    CholeskyQR2, or by Householder QR when the block is too
    ill-conditioned or too near rank deficiency for CholeskyQR2 (see
    `_cholesky_qr2`). Either way xi has a real nonnegative diagonal,
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
    if p == 1:
        # a squared norm that underflows or overflows goes to Householder,
        # whose norm is scaled
        with np.errstate(over="ignore"):
            nrm = fro_norm(w)
        done = 0.0 < nrm < np.inf
        if done:
            np.divide(w, nrm, out=q)
            xi[0, 0] = nrm
    else:
        done = _cholesky_qr2(w, q, xi)
    if not done:
        _householder_qr(w, q, xi)
    return QrFactors(q=q, xi=xi)


# CholeskyQR2 (Fukaya et al., ScalA 2014) is accurate to working precision
# when its first pass leaves Q1 nearly orthonormal (Yamamoto et al., ETNA
# 44, 2015). Below this defect ||Q1^H Q1 - I||_F, Q1's singular values lie
# within sqrt(1 -+ 0.1) of one, so the second pass factors a
# well-conditioned block.
_CHOLQR_MAX_DEFECT = 0.1
# W^H W holds the squares of the diagonal of the factor; when the smallest
# entry of that diagonal is below sqrt(eps) of the largest, the Gram
# matrix cannot resolve it, while Householder resolves it to O(eps ||W||).
_CHOLQR_MIN_DIAG_RATIO = 1e-8
# rows per chunk of the n-by-p passes, bounding their scratch buffer
_ROW_CHUNK = 4096


def _cholesky_qr2(w, q, xi):
    """CholeskyQR2 of w into q and xi. Returns False, with q and xi partly
    written, when the block fails the module's accuracy conditions."""
    n, p = w.shape
    buf = np.empty((min(n, _ROW_CHUNK), p), dtype=np.complex128, order="F")
    r1 = _cholesky_r(_gram_h(w, buf))
    if r1 is None:
        return False
    np.matmul(w, np.linalg.inv(r1), out=q)
    g2 = _gram_h(q, buf)
    if not np.linalg.norm(g2 - np.eye(p)) <= _CHOLQR_MAX_DEFECT:
        return False
    r2 = _cholesky_r(g2)
    if r2 is None:
        return False
    _right_multiply(q, np.linalg.inv(r2), buf)
    # the diagonal of xi is the product of the factors' real positive
    # diagonals, with exactly zero imaginary parts
    np.matmul(r2, r1, out=xi)
    d = np.diagonal(xi).real
    return bool(d.min() >= _CHOLQR_MIN_DIAG_RATIO * d.max())


def _gram_h(v, buf):
    """v^H @ v, accumulated over row chunks so that no n-by-p conjugate
    copy of v is made."""
    g = np.zeros((v.shape[1], v.shape[1]), dtype=np.complex128)
    for i in range(0, v.shape[0], _ROW_CHUNK):
        rows = v[i : i + _ROW_CHUNK]
        g += np.conjugate(rows, out=buf[: rows.shape[0]]).T @ rows
    return g


def _cholesky_r(g):
    """Upper triangular r with positive diagonal and r^H r == g, or None
    when the Cholesky factorization fails or is not finite."""
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None
    return np.conj(low.T) if np.isfinite(low).all() else None


def _right_multiply(v, c, buf):
    """v <- v @ c in place, one row chunk at a time through buf."""
    for i in range(0, v.shape[0], _ROW_CHUNK):
        rows = v[i : i + _ROW_CHUNK]
        rows[...] = np.matmul(rows, c, out=buf[: rows.shape[0]])


def _householder_qr(w, q, xi):
    """Householder QR, with each column of q phase-scaled so that xi has a
    real nonnegative diagonal."""
    qf, r = np.linalg.qr(w, mode="reduced")
    d = np.diagonal(r).copy()
    ad = np.abs(d)
    scale = np.where(ad > 0.0, d / np.where(ad > 0.0, ad, 1.0), 1.0 + 0.0j)
    q[:] = qf * scale[None, :]
    xi[:] = np.conj(scale)[:, None] * r
    np.fill_diagonal(xi, ad)


# relative breakdown threshold of solve_small: a pivot of magnitude below
# _PIVOT_FLOOR * max|M| is a breakdown
_PIVOT_FLOOR = 1e-14


def solve_small(m, rhs):
    """Solve the p-by-p system M Z = RHS by LU with partial pivoting.

    The Gram matrices this solves are complex symmetric, not Hermitian,
    so Cholesky is unsound and partial-pivoted LU is used instead. A
    1-by-1 system is one complex division. Larger systems go to LAPACK
    ``zgesv`` in the library numpy itself links (see `_routine`), which
    picks each pivot by the largest |re| + |im| in its column, as
    LAPACK's ``izamax`` does. Where numpy exposes no such symbol, and
    where LAPACK stops at an exact zero pivot that the floor lets
    through (a NaN in M), a Python LU that picks each pivot by the
    largest modulus runs instead. The two rules can choose different
    rows, so their results may differ in the last bits.

    Parameters
    ----------
    m : ndarray
        Square (p, p) system matrix.
    rhs : ndarray
        Right-hand sides, shape (p, k).

    Returns
    -------
    ndarray
        Z with M @ Z = RHS, shape (p, k). Non-finite when M or RHS has a
        NaN entry; that raises no `BreakdownError`.

    Raises
    ------
    BreakdownError
        If a pivot, a diagonal entry of U in elimination order, has a
        magnitude below `_PIVOT_FLOOR` * max|M|.
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
    floor = _PIVOT_FLOOR * scale
    if a.shape[0] == 1:
        z = b / a[0, 0]
    else:
        z = _lapack_solve(a, b, floor) if _routine("zgesv") is not None else None
        if z is None:
            z = _python_solve(a, b, floor)
    return z[:, 0] if squeeze else z


# (symbol pattern, integer type) in the order tried: the scipy-openblas
# wheels of numpy export 64-bit-integer BLAS and LAPACK under a prefix and
# suffix. The unsuffixed name says nothing of its integer width, which is
# taken from numpy's build report instead (None: ask the report)
_SYMBOLS = (
    ("scipy_{}_64_", ctypes.c_int64),
    ("{}_64_", ctypes.c_int64),
    ("{}_", None),
)
# ctypes argument types of each routine that is bound, one letter per
# argument: i an integer of the library's width, v a data pointer, c a
# character option
_SIGNATURES = {"zgesv": "iiviivii", "zgemm": "cciiivvivivvi"}


@functools.cache
def _routine(name):
    """BLAS or LAPACK routine `name` (a key of `_SIGNATURES`) and its
    integer type, or None where it cannot be found.

    The symbol is looked up through numpy's own linear-algebra extension,
    whose dependencies include the library numpy links, so it adds no
    library to the process and shares numpy's BLAS threads.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    return _bind(lib, name, _lapack_report())


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


def _bind(lib, name, lapack):
    """Routine `name` from `lib` and its integer type, typed for ctypes,
    or None.

    A symbol whose integer width is unknown is skipped: calling an
    int64 library with int32 arguments would read past them, and zgesv
    would write pivots past the end of their array.
    """
    for pattern, int_t in _SYMBOLS:
        if int_t is None:
            int_t = _report_int_type(lapack)
            if int_t is None:
                continue
        try:
            fn = lib[pattern.format(name)]
        except AttributeError:
            continue
        types = {"i": ctypes.POINTER(int_t), "v": ctypes.c_void_p, "c": ctypes.c_char_p}
        fn.argtypes = [types[t] for t in _SIGNATURES[name]]
        fn.restype = None
        return fn, int_t
    return None


def _lapack_solve(a, b, floor):
    """Z for M Z = B by zgesv, or None if zgesv stopped at an exact zero
    pivot below no floor; it then leaves B unsolved."""
    fn, int_t = _routine("zgesv")
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
    return float(np.linalg.norm(_as_block(v, "v")))


# alpha and beta of the zgemm in axpy_block, and their address
_ONE = np.ones(1, dtype=np.complex128)
_ONE_ADDRESS = _ONE.ctypes.data
# blocks with fewer entries take numpy's product, which is faster there:
# the ctypes call costs more than the pass zgemm saves. The two cross
# between 4k and 8k entries for p from 1 to 8 (2-core guest, OpenBLAS)
_GEMM_MIN_SIZE = 8192


def axpy_block(x, y, c):
    """Update X <- X + Y @ C in place, for block vectors X, Y and a small
    matrix C.

    A block of at least `_GEMM_MIN_SIZE` entries is updated by one
    ``zgemm`` call with beta = 1 in the library numpy links (see
    `_routine`). Smaller blocks, and every block where numpy exposes no
    such symbol, take ``x += np.matmul(y, c, order="F")``. Both give the
    bits of X + Y @ C formed in a new Fortran-order block, except that
    zgemm may round differently at p = 1.

    Parameters
    ----------
    x : ndarray
        Block vector of shape (n, p): a writeable, Fortran-order
        complex128 array, overwritten with the result.
    y : ndarray
        Block vector of shape (n, p), sharing no memory with x.
    c : ndarray
        Coefficient matrix of shape (p, p), sharing no memory with x.

    Returns
    -------
    ndarray
        x itself, holding X + Y @ C.

    Raises
    ------
    ValueError
        If the shapes do not conform, if x cannot be updated in place,
        or if y or c shares memory with x.
    """
    y = _as_block(y, "y")
    c = _as_small(c, "c")
    if np.shape(x) != y.shape or y.shape[1] != c.shape[0]:
        raise ValueError(
            f"nonconformable shapes: x {np.shape(x)}, y {y.shape}, c {c.shape}"
        )
    if not (
        isinstance(x, np.ndarray)
        and x.dtype == np.complex128
        and x.flags.f_contiguous
        and x.flags.writeable
    ):
        raise ValueError(
            "x must be a writeable Fortran-order complex128 array: "
            "it is updated in place"
        )
    if np.shares_memory(x, y) or np.shares_memory(x, c):
        raise ValueError("x shares memory with y or c: it is updated in place")
    gemm = _routine("zgemm") if x.size >= _GEMM_MIN_SIZE else None
    if gemm is None:
        x += np.matmul(y, c, order="F")
    else:
        fn, int_t = gemm
        n, p = int_t(x.shape[0]), int_t(x.shape[1])
        # c is row-major, so its buffer is C^T to a column-major routine
        fn(b"N", b"T", n, p, p, _ONE_ADDRESS, y.ctypes.data, n,
           c.ctypes.data, p, _ONE_ADDRESS, x.ctypes.data, n)
    return x
