"""
Core complex linear algebra shared by all solvers.

Conventions
-----------
Block vectors (residuals, search directions, solutions) are plain numpy
arrays of shape (n, p), complex128: each column is one right-hand side.
Small coefficient matrices are (p, p) complex128 arrays. The matrices of
interest are complex symmetric, A == A^T but A != A^H, so the Gram
products of the recurrences are the unconjugated bilinear form V^T W,
which can vanish on nonzero inputs; Cholesky and the Hermitian machinery
of standard libraries do not apply to them. The thin QR is the
exception: its Q is orthonormal in the Hermitian sense (Q^H Q = I), so
it may factor the Hermitian Gram W^H W.

The block kernels compute on row-major (C-order) blocks only; a single
column is both layouts. The CSR product and the thin QR copy a block in
any other layout to row-major once and return row-major blocks: the
product is one pass of scipy's multi-vector kernel for p >= 2, its
one-vector kernel for a single column, with the same bits. The block
update X <- X + Y C is made in place, so X must be row-major; Y is
copied to row-major where it is not. Every kernel but `axpy_block`
returns a new array, except that the product and the thin QR take an
``out=`` block to write into (the thin QR then uses its input as
scratch), which lets a solve run in blocks it allocates once.

Dense products are numpy's, but where a BLAS or LAPACK call saves a
block pass or exposes what numpy hides. Three calls are bound through
``ctypes`` (`_routine`, `_address`): ``zgemm`` for `axpy_block`'s
in-place update, ``zgemm`` for the thin QR's Hermitian Gram without a
conjugate copy, and ``zgesv`` for `solve_small`'s pivots.

A matrix's public arrays and its `matvec` stay in file order, the order
the matrix was built in. `solve_operator` decides once per matrix what
the solvers run on: where the stored entries lie on average more than
`_LOCALITY_WINDOW` rows from their row, and a breadth-first row order
brings them within it, a locality copy cached on the matrix
(`_locality_copy`, P A P^T in that order); else (a banded matrix, say,
or one of many small components) the matrix itself. Blocks are
row-major.
"""

import ctypes
import functools
import math
import numbers
import operator
from typing import NamedTuple

import numpy as np

# numpy's compiled einsum, which np.einsum calls as it is where it is not
# asked to optimize; called directly, a call on an 8 x 8 block takes 2.0
# against 3.8 us (2-core guest)
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum

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
    "solve_operator",
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
    """v as a row-major complex128 array, copied where it is not one."""
    arr = np.ascontiguousarray(v, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def _check_out(out, v):
    """Refuse an out= block that cannot take a kernel's result for v in
    place: it must be a writeable row-major complex128 array of v's
    shape, sharing no memory with v."""
    if not (
        isinstance(out, np.ndarray)
        and out.dtype == np.complex128
        and out.shape == v.shape
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ValueError(
            f"out must be a writeable row-major complex128 array of shape {v.shape}"
        )
    if np.shares_memory(out, v):
        raise ValueError("out shares memory with the input block")


def _as_small(c, name="coefficient matrix"):
    arr = np.ascontiguousarray(c, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square 2-D, got shape {arr.shape}")
    return arr


# largest order n for which the sort key row * n + col, at most
# n * n - 1, fits in int64
_MAX_ORDER = 3_037_000_499


def _count(value, name, low=1):
    """value as a Python int, refused with a ValueError naming it unless an
    integer >= low. A bool, an int but no count, is refused via None."""
    try:
        count = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < low:
        raise ValueError(f"{name} must be >= {low}")
    return count


def _real(value, name):
    """value, refused with a ValueError naming it unless a real, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _check_order(n):
    """n as a Python int, refused unless an integer from 1 to `_MAX_ORDER`."""
    order = _count(n, "matrix order")
    if order > _MAX_ORDER:
        raise ValueError(
            f"matrix order {order} exceeds {_MAX_ORDER}, the largest whose "
            "(row, col) sort key fits in int64"
        )
    return order


def _sort_key(major, minor, n):
    """The int64 key major * n + minor, which orders entries by (major, minor)."""
    key = major * n
    key += minor
    return key


# mean |row - col| above which a matrix is solved through its locality
# copy: the product gathers from ~2 x spread rows of the block, and at
# p = 8 (128 bytes a row) 2 x 8,192 rows fill a 2 MiB L2 cache
_LOCALITY_WINDOW = 8_192


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
    accept general input) but the solvers refuse them. A matrix built
    by mirroring a stored triangle (a symmetric Matrix Market file, a
    generated problem) has its symmetry verdict known from the build
    and cached then. At its first solve a matrix also caches which row
    order it is solved in, and a wide one its locality copy (see
    `solve_operator`). The CSR arrays are read-only views, so no write
    through the matrix can leave these caches stale; a caller's array
    taken without a copy stays writeable, and its writes go unseen.

    Attributes
    ----------
    n : int
        Order of the matrix.
    row_ptr, col_idx, values : ndarray
        Read-only CSR arrays: int64 row offsets of length n + 1, and the
        int64 column and complex128 value of each stored entry, in
        (row, col) order with columns strictly increasing within a row.
    nnz : int
        Stored entry count.
    """

    def __init__(self, n, *, row_ptr, col_idx, values):
        self.n = _check_order(n)
        self._finite = None
        self._symmetric = None
        self._local = None
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
            if col_idx[k] == col_idx[k + 1]:
                raise ValueError(f"duplicate entry at ({row}, {col_idx[k]})")
            raise ValueError(
                f"column indices must increase strictly within row {row}"
            )
        self.row_ptr = _read_only(row_ptr)
        self.col_idx = _read_only(col_idx)
        self.values = _read_only(values)
        self.nnz = int(values.shape[0])

    @classmethod
    def from_coo(cls, n, rows, cols, values):
        """Build CSR storage from coordinate triples.

        Entries are sorted by the int64 key row * n + col, which orders
        them by (row, col); a duplicate coordinate is an error, named by
        the constructor, rather than summed. For the key to fit in int64
        the order may be at most 3_037_000_499.
        """
        n = _check_order(n)
        rows = _index_array(rows, "rows")
        cols = _index_array(cols, "cols")
        values = np.asarray(values, dtype=np.complex128)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("rows, cols and values must be equal-length 1-D")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n:
                raise ValueError("coordinate index out of range")
        key = _sort_key(rows, cols, n)
        # key lives until the gathers: freed before them, its hole raised a
        # gen1e5-p8 solving process's peak RSS from 275 to 285 MB
        order = np.argsort(key)
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
        must give back the same keys and the same values. A matrix built
        by `_mirrored` with the identity mirror and no NaN value holds
        this verdict from its build, True, and sorts nothing here.
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

    def matvec(self, v, out=None):
        """Return A @ v for an (n, p) block vector v, as a new row-major
        block, or written into out.

        A single column takes scipy's one-vector CSR kernel, a block of
        p >= 2 columns one pass of its multi-vector kernel, which reads
        and writes row-major blocks; a v in another layout is copied to
        row-major once. The two kernels sum each entry in the same
        order, so with the same bits. At n = 1e5, p = 8 (the seed-0
        gen1e5-p8 locality copy, 2-core guest) the one pass took 7.3 ms
        against 15.1 ms column by column; on a single column the
        multi-vector kernel took 2.0 ms against the one-vector kernel's
        1.5 ms. The kernels read the public arrays, in the order the
        matrix was built in, whatever its size.

        out, where given, is a writeable row-major complex128 block of
        v's shape that shares no memory with v; it is overwritten and
        returned, with the bits of the new block.
        """
        v = np.ascontiguousarray(v, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] != self.n:
            raise ValueError(
                f"dimension mismatch: matrix is {self.n}x{self.n}, "
                f"block vector has shape {v.shape}"
            )
        # the kernels add each row's sum to what the output holds
        if out is None:
            out = np.zeros(v.shape, dtype=np.complex128)
        else:
            _check_out(out, v)
            out.fill(0.0)
        args = (self.row_ptr, self.col_idx, self.values, v.ravel(), out.ravel())
        if v.shape[1] == 1:
            _sparsetools().csr_matvec(self.n, self.n, *args)
        else:
            _sparsetools().csr_matvecs(self.n, self.n, v.shape[1], *args)
        return out

    def to_dense(self):
        """Densify to a (n, n) complex array."""
        out = np.zeros((self.n, self.n), dtype=np.complex128)
        out[self._csr_rows(), self.col_idx] = self.values
        return out

    def __repr__(self):
        return f"ComplexSymmetricMatrix(n={self.n}, csr, nnz={self.nnz})"


def _read_only(arr):
    """A read-only view of arr; arr itself keeps its flag."""
    view = arr.view()
    view.flags.writeable = False
    return view


def _mirrored(n, rows, cols, vals, mirror=None):
    """The matrix of a stored triangle's entries (row >= col, diagonal
    included) mirrored to full storage: each off-diagonal entry
    (i, j, v) gains its image (j, i, mirror(v)), or (j, i, v) where
    mirror is None. `from_coo` sorts the entries and names a duplicate,
    as for any build.

    With the identity mirror the matrix is symmetric by construction, so
    its symmetry verdict is cached as True and `is_symmetric` sorts
    nothing; a NaN value, which the check reads as unequal to itself,
    leaves the verdict to the check, as do the other mirrors.
    """
    off = rows != cols
    # formed before the concatenations: after them, it raised mm1e5-p1's
    # peak RSS 0.8 MB
    image = vals[off] if mirror is None else mirror(vals[off])
    rows, cols = (
        np.concatenate([rows, cols[off]]),
        np.concatenate([cols, rows[off]]),
    )
    a = ComplexSymmetricMatrix.from_coo(n, rows, cols, np.concatenate([vals, image]))
    if mirror is None and not np.isnan(vals).any():
        a._symmetric = True
    return a


def solve_operator(a):
    """(op, to_op, to_caller): the operator a solve of a runs on, and maps
    of an (n, p) block into op's row order and of a row-major block back,
    each to a new row-major block. The locality copy's to_caller also
    writes into a row-major ``out=`` block of v's shape.

    A matrix whose `_spread` is above `_LOCALITY_WINDOW` runs through its
    locality copy where the copy's spread is within the window (see
    `_locality_copy`); any other, and a subclass that replaces `matvec`
    (so that it sees every product), in file order. The verdict (False
    for file order) or the copy is cached on a at the first call.
    """
    own_product = _has_own_product(a)
    if own_product and a._local is None:
        a._local = _spread(a) > _LOCALITY_WINDOW and _locality_copy(a)
    if not (own_product and a._local):
        # copies: the solve updates R_0 and X in place, and the observer
        # may keep the blocks it is handed
        return a, functools.partial(np.array, order="C"), np.copy
    perm, copy = a._local

    def to_caller(v, out=None):
        if out is None:
            out = np.empty(v.shape, dtype=np.complex128)
        # each row one item of 16p bytes: a scatter of rows, not of entries
        row = np.dtype((np.void, v.itemsize * v.shape[1]))
        out.view(row)[perm] = v.view(row)
        return out

    # indexing gathers rows from v as it lies; np.take would first copy a
    # Fortran-order v to row-major, one more n x p block live
    return copy, lambda v: v[perm], to_caller


def _has_own_product(a):
    """Whether a's ``matvec`` is the matrix's own, not a replacement."""
    return type(a).matvec is ComplexSymmetricMatrix.matvec


def _spread(a):
    """Mean |row - col| over a's stored entries, in rows."""
    return _mean_gap(a._csr_rows(), a.col_idx)


def _mean_gap(rows, cols):
    """Mean |row - col| over paired entries of two index arrays."""
    gap = cols - rows
    return float(np.abs(gap, out=gap).sum()) / max(gap.size, 1)


def _locality_copy(a):
    """(perm, P A P^T): a breadth-first row order of a and the copy of a
    in that order, or False where that order leaves the copy's spread
    above `_LOCALITY_WINDOW`.

    Row i of the copy is row ``perm[i]`` of A, with its columns renamed
    the same way, so the copy is complex symmetric whenever A is and a
    solve of P A P^T (P X) = P B is a solve of A X = B. In breadth-first
    order a row's columns lie near the row (Cuthill & McKee, 1969), so
    the product gathers each column from a narrow window of the vector
    instead of all of it. Where the search leaves many rows in file
    order (a graph of many small components, say), it may not: the
    copy's spread, the mean |position[row] - position[col]| over the
    stored entries, is taken before anything is built, and a copy that
    would stay wide is not built.
    """
    perm = _bfs_order(a.n, a.row_ptr, a.col_idx)
    position = np.empty(a.n, dtype=np.int64)
    position[perm] = np.arange(a.n)
    rows, cols = position[a._csr_rows()], position[a.col_idx]
    if _mean_gap(rows, cols) > _LOCALITY_WINDOW:
        return False
    copy = ComplexSymmetricMatrix.from_coo(a.n, rows, cols, a.values)
    del rows, cols
    # copies land in the heap the build's temporaries freed; from_coo's
    # own arrays, above them, raised a gen1e5-p8 solving process's peak
    # RSS from 275 to 283 MB
    copy.row_ptr, copy.col_idx, copy.values = (
        _read_only(arr.copy()) for arr in (copy.row_ptr, copy.col_idx, copy.values)
    )
    return perm, copy


def _bfs_order(n, row_ptr, col_idx):
    """A breadth-first order of the rows of a CSR pattern, as an int64
    permutation.

    The search is level-synchronous from one root, the first row with
    the most stored entries (in a random sparse graph it lies in the
    largest component). Within a level, rows come in the order they are
    first found. Rows never reached, those of other components, follow
    in file order.
    """
    order = np.empty(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    root = int(np.argmax(np.diff(row_ptr)))
    order[0] = root
    seen[root] = True
    count = 1
    level = order[:1]
    while level.size:
        starts = row_ptr[level]
        lens = row_ptr[level + 1] - starts
        ends = np.cumsum(lens)
        # the stored columns of every row of the level, row after row
        found = np.repeat(starts - (ends - lens), lens)
        found += np.arange(found.size)
        found = col_idx[found]
        found = found[~seen[found]]
        _, first = np.unique(found, return_index=True)
        first.sort()
        level = found[first]
        seen[level] = True
        order[count : count + level.size] = level
        count += level.size
    order[count:] = np.flatnonzero(~seen)
    return order


@functools.cache
def _sparsetools():
    """scipy's compiled sparse kernels: ``csr_matvec``, y += A x, and
    ``csr_matvecs``, Y += A X for row-major X and Y, both summing each
    row in storage order.

    scipy is imported on the first product, not at module level, so
    that loading, generating and checking matrices never load it.
    """
    from scipy.sparse import _sparsetools

    return _sparsetools


class QrFactors(NamedTuple):
    """Economy QR factors: q has conjugate-orthonormal columns (Q^H Q = I),
    xi is upper triangular with a real nonnegative diagonal, and q @ xi
    reconstructs the input."""

    q: np.ndarray
    xi: np.ndarray


def block_matvec(a, v, out=None):
    """Compute A @ V into a new block, or into out.

    The product is the operator's own: for a matrix, a row-major block
    (see `ComplexSymmetricMatrix.matvec`). With out given, a matrix
    writes its product there; an operator whose ``matvec`` is not the
    matrix's own (a subclass that replaces it, say) is still called as
    ``matvec(v)``, and its result copied into out.

    Parameters
    ----------
    a : ComplexSymmetricMatrix
        The operator (a matrix, the locality copy the solvers run a
        wide matrix on, or anything with a conforming ``matvec``).
    v : ndarray
        Block vector of shape (a.n, p), in any memory order; the solvers
        hand it row-major blocks.
    out : ndarray or None
        A writeable row-major complex128 block of v's shape, sharing no
        memory with v, overwritten with the product.

    Returns
    -------
    ndarray
        A @ V, shape (a.n, p), complex128: out itself where given.
    """
    if out is None:
        return a.matvec(v)
    if _has_own_product(a):
        return a.matvec(v, out=out)
    _check_out(out, v)
    np.copyto(out, a.matvec(v))
    return out


def t_gram(v, w):
    """Unconjugated Gram product V^T W.

    This is the bilinear form of the method, not an inner product: it
    applies no complex conjugation and can vanish on nonzero inputs.

    numpy's ``v.T @ w`` on row-major blocks: ``zgemm`` for distinct
    blocks, ``zsyrk`` for one block as both, so V^T V is exactly symmetric.

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


def thin_qr(w, out=None):
    """Economy QR of an (n, p) block with n >= p.

    A single column is normalized, and a block of no columns gives an
    (n, 0) q and a 0 x 0 xi. A wider block is factored by one pass of
    CholeskyQR where its first Cholesky factor R1 shows the block, with
    its columns scaled to unit norm, well conditioned (||D R1^{-1}||_F
    <= 11, D = sqrt(diag(W^H W)) the column norms), since that pass
    loses orthogonality like u kappa^2; otherwise a second pass makes
    CholeskyQR2, and a block too ill-conditioned or too near rank
    deficiency for that, or with a column norm below `_NORM_MIN`, goes
    to Householder QR (see `_cholesky_qr`). Both gate norms, that one
    and the second pass's ||Q1^H Q1 - I||_F, are `fro_norm`'s; a single
    column's norm stays numpy's, whose bits its normalization keeps.
    Either way xi has a real nonnegative diagonal, which makes the
    factors unique for full-rank input and factorizations reproducible.
    Rank deficiency is not deflated; it shows up as (near) zero
    diagonal entries of xi for consumers to act on.

    With out given, CholeskyQR allocates no n x p block: Q, or the
    first pass Q1 of CholeskyQR2, is written into out, and the second
    pass writes Q over w, whose block it no longer needs. So w is
    scratch then, and q is whichever of out and w holds Q. The bits are
    those of the allocating form either way.

    Parameters
    ----------
    w : ndarray
        Block vector of shape (n, p), n >= p. With out given, a
        row-major complex128 w is overwritten (any other is copied
        first), so it must be writeable.
    out : ndarray or None
        A writeable row-major complex128 block of w's shape, sharing no
        memory with w.

    Returns
    -------
    QrFactors
        q of shape (n, p), row-major whatever w's layout (w is copied to
        row-major first where it is not), and xi of shape (p, p). With
        out given, q is out or w (w's row-major copy where w was copied).
    """
    w = _as_block(w, "w")
    n, p = w.shape
    if n < p:
        raise ValueError(f"thin_qr needs n >= p, got shape {w.shape}")
    if out is None:
        q = np.empty((n, p), dtype=np.complex128)
    else:
        _check_out(out, w)
        if not w.flags.writeable:
            raise ValueError("w must be writeable: with out given it is scratch")
        q = out
    xi = np.zeros((p, p), dtype=np.complex128)
    if p == 0:
        # an empty block has no Gram to factor
        return QrFactors(q, xi)
    if p == 1:
        # a norm below _NORM_MIN, whose squares have lost digits to
        # underflow, or one that overflows goes to Householder, whose norm
        # is scaled; fro_norm would rescale it, and 1 / nrm could overflow
        with np.errstate(over="ignore"):
            nrm = float(np.linalg.norm(w))
        if _NORM_MIN <= nrm < np.inf:
            # numpy's complex / real division computes (re + im * 0) *
            # (1 / nrm) per part; this is that product without the loop
            np.multiply(w.view(np.float64), 1.0 / nrm, out=q.view(np.float64))
            xi[0, 0] = nrm
            return QrFactors(q, xi)
    else:
        factored = _cholesky_qr(w, q, xi, scratch=out is not None)
        if factored is not None:
            return QrFactors(factored, xi)
    _householder_qr(w, q, xi)
    return QrFactors(q, xi)


# One pass of CholeskyQR, Q = W R1^{-1}, loses orthogonality like
# u kappa(W)^2 (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, ETNA 44, 2015),
# where kappa(W) = kappa(R1). The rounding of W^H W scales with W's
# columns, so the kappa that counts is that of W D^{-1}, D the column
# norms sqrt(diag(W^H W)), which are R1's too (R1^H R1 = W^H W). Its bound
# ||R1 D^{-1}||_F ||D R1^{-1}||_F is sqrt(p) e with e = ||D R1^{-1}||_F,
# which takes the Gram's diagonal, the inverse the pass forms anyway and
# one `fro_norm` of a p x p matrix. The first pass is
# the factorization where e is at most this gate. A scan of the one-pass
# defect ||Q^H Q - I||_F on 9,810 blocks (n up to 1e5, p from 2 to 32,
# kappa_2 up to 1e4 before column scalings of up to 1e4 either way; see
# docs/derivation.md section 5) kept every defect at e <= 16 under
# 4.91 u e^2, at every p and scaling, so at 11 the defect is at most
# 6.6e-14 (1.0e-13 on the largest ratio anywhere, 7.52 at e = 108). The
# scan's worst block under the gate read 4.8e-14, and its first defect
# above 1e-13 came at e = 16.6.
_CHOLQR_ONE_PASS_BOUND = 11.0
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
# rows per chunk of the Gram products W^H W: the chunks' products are
# summed in row order, so the chunk size fixes the summation order and
# with it the bits
_ROW_CHUNK = 4096


def _cholesky_qr(w, q, xi, scratch):
    """CholeskyQR of w into xi and the block that it returns: one pass,
    into q, where ||D R1^{-1}||_F, D = sqrt(diag(W^H W)) the column norms
    of w, is at most `_CHOLQR_ONE_PASS_BOUND`, else CholeskyQR2, whose
    first pass goes into q and whose second into w where w is scratch,
    else into a new block. Returns None, with q and xi partly written and
    w intact, when the block fails the module's accuracy conditions."""
    g1 = _gram_h(w)
    # the squared column norms: one below _NORM_MIN^2 may have lost digits
    # in the subnormal range, and the factor with it
    d2 = g1.diagonal().real
    if d2.min() < _NORM_MIN**2:
        return None
    r1 = _cholesky_r(g1)
    if r1 is None:
        return None
    r1_inv = np.linalg.inv(r1)
    if fro_norm(np.sqrt(d2)[:, None] * r1_inv) <= _CHOLQR_ONE_PASS_BOUND:
        xi[:] = r1
        src, inv, dest = w, r1_inv, q
    else:
        q1 = np.matmul(w, r1_inv, out=q)
        g2 = _gram_h(q1)
        if not fro_norm(g2 - np.eye(len(g2))) <= _CHOLQR_MAX_DEFECT:
            return None
        r2 = _cholesky_r(g2)
        if r2 is None:
            return None
        # the diagonal of xi is the product of the factors' real positive
        # diagonals, with exactly zero imaginary parts
        np.matmul(r2, r1, out=xi)
        src, inv, dest = q1, np.linalg.inv(r2), w if scratch else None
    low, top = _diagonal_span(xi)
    if low < _CHOLQR_MIN_DIAG_RATIO * top:
        return None
    return np.matmul(src, inv, out=dest)


def _diagonal_span(xi):
    """(smallest, largest) modulus on a finite xi's diagonal: Python's
    min and max of the short list, numpy's without an array call each."""
    d = np.abs(xi.diagonal()).tolist()
    return min(d), max(d)


def _gram_h(v):
    """v^H @ v for a row-major block v, summed over row chunks.

    Each chunk's product is one ``zgemm('R', 'T')`` call on v's own
    memory (see `_routine`), which a column-major routine reads as v^T,
    so no conjugate copy is made; 'R' (conjugate, not transposed) is an
    OpenBLAS extension, and ``zgemm('N', 'C')``, the other way to read a
    row-major chunk, rounds differently. Where numpy exposes no such
    symbol, or the library is not OpenBLAS, each chunk's conjugate copy
    goes to numpy's product instead.
    """
    n, p = v.shape
    g = np.zeros((p, p), dtype=np.complex128)
    gemm = _routine("zgemm") if _is_openblas() else None
    if gemm is None:
        for i in range(0, n, _ROW_CHUNK):
            rows = v[i : i + _ROW_CHUNK]
            g += np.conjugate(rows).T @ rows
        return g
    fn, int_t = gemm
    # the column-major chunk product lands in part's row-major buffer as
    # its transpose
    part = np.empty((p, p), dtype=np.complex128)
    width = int_t(p)
    start, out = _address(v), _address(part)
    for i in range(0, n, _ROW_CHUNK):
        rows = start + i * p * v.itemsize
        fn(b"R", b"T", width, width, int_t(min(_ROW_CHUNK, n - i)), _ONE_ADDRESS,
           rows, width, rows, width, _ZERO_ADDRESS, out, width)
        g += part.T
    return g


def _cholesky_r(g):
    """Upper triangular r with positive diagonal and r^H r == g, or None
    when the Cholesky factorization fails or is not finite."""
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None
    return np.conj(low.T) if np.isfinite(low).all() else None


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
# below this max|M| a pivot above the floor can be subnormal, and the
# reciprocal of a subnormal overflows, in OpenBLAS's zgetrf and in numpy's
# complex division alike; solve_small scales such an M up by a power of 2
_SCALE_MIN = np.finfo(np.float64).tiny / _PIVOT_FLOOR


def solve_small(m, rhs):
    """Solve the p-by-p system M Z = RHS by LU with partial pivoting.

    The Gram matrices this solves are complex symmetric, not Hermitian,
    so Cholesky is unsound and partial-pivoted LU is used instead. A
    1-by-1 system is one complex division, its scale the modulus of its
    one entry as a Python scalar. Larger systems go to LAPACK ``zgesv``,
    which picks each pivot by the largest |re| + |im| in its column, as
    LAPACK's ``izamax`` does. Where numpy exposes no such symbol, a
    Python LU that picks each pivot by the largest modulus runs instead.
    The two rules can choose different rows, so their results may differ
    in the last bits. An M whose largest modulus is below `_SCALE_MIN`
    is solved as M 2^-e, with e the binary exponent of max|M|, and Z
    scaled back: the scaling is exact, and it keeps every pivot that
    passes the floor out of the subnormal range.

    Parameters
    ----------
    m : ndarray
        Square (p, p) system matrix.
    rhs : ndarray
        Right-hand sides, shape (p, k).

    Returns
    -------
    ndarray
        Z with M @ Z = RHS, shape (p, k), or (p,) for a 1-D RHS; empty
        for a 0 x 0 M. All NaN when M has a NaN or
        infinite entry, and non-finite when RHS has one; neither raises
        `BreakdownError`.

    Raises
    ------
    BreakdownError
        If a pivot, a diagonal entry of U in elimination order, has a
        magnitude below `_PIVOT_FLOOR` * max|M|. An exact zero pivot is
        always one.
    """
    a = _as_small(m, "m")
    b = np.asarray(rhs, dtype=np.complex128)
    squeeze = b.ndim == 1
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs shape {b.shape} does not match order {a.shape[0]}")
    if not a.size:
        # a 0 x 0 system has the empty solution, as in np.linalg.solve
        return np.empty_like(b)
    if squeeze:
        b = b[:, None]
    # max|M|; a Python scalar's modulus spares a 1-by-1 system the array
    # calls
    scale = abs(complex(a[0, 0])) if a.shape[0] == 1 else float(np.abs(a).max())
    if not math.isfinite(scale):
        z = np.full(b.shape, np.nan, dtype=np.complex128)
    elif scale == 0.0:
        raise BreakdownError(0, 0.0)
    elif scale < _SCALE_MIN:
        e = math.frexp(scale)[1]
        try:
            z = _ldexp(solve_small(_ldexp(a, -e), b), -e)
        except BreakdownError as err:
            mag = math.ldexp(err.pivot_magnitude, e)
            raise BreakdownError(err.pivot_index, mag) from None
    elif a.shape[0] == 1:
        z = b / a[0, 0]
    elif _routine("zgesv") is not None:
        z = _lapack_solve(a, b, _PIVOT_FLOOR * scale)
    else:
        z = _python_solve(a, b, _PIVOT_FLOOR * scale)
    return z[:, 0] if squeeze else z


def _ldexp(x, e):
    """x * 2^e for a complex array, exact wherever the result is normal."""
    out = np.empty_like(x)
    out.real = np.ldexp(x.real, e)
    out.imag = np.ldexp(x.imag, e)
    return out


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


@functools.cache
def _is_openblas():
    """Whether numpy's build report shows an OpenBLAS configuration."""
    return _report_int_type(_lapack_report()) is not None


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


def _address(arr):
    """The address of the first byte of arr, a C-contiguous array, for a
    ``ctypes`` call.

    A writeable array is read through ctypes' buffer protocol, ~3 times
    cheaper than ``arr.ctypes.data`` (0.8 against 2.0-2.6 us at n = 841,
    2-core guest); a read-only or empty one, which that protocol refuses,
    takes ``arr.ctypes.data``.
    """
    if arr.flags.writeable and arr.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    return arr.ctypes.data


def _lapack_solve(a, b, floor):
    """Z for M Z = B by zgesv."""
    fn, int_t = _routine("zgesv")
    p, k = b.shape
    # row-major copies of the transposes: the column-major M and B that
    # zgesv overwrites with its LU factors and Z
    lu = a.T.copy()
    z = b.T.copy()
    ipiv = (int_t * p)()
    n, nrhs, info = int_t(p), int_t(k), int_t(0)
    fn(n, nrhs, _address(lu), n, ipiv, _address(z), n, info)
    for i, mag in enumerate(np.abs(lu.diagonal()).tolist()):
        if mag < floor:
            raise BreakdownError(i, mag)
    if info.value:
        # zgesv stopped at an exact zero pivot and left B unsolved
        raise BreakdownError(info.value - 1, 0.0)
    return z.T


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


# below this norm of a nonzero block, sqrt(tiny / eps), the squares of
# its entries may have lost digits in the subnormal range
_NORM_MIN = math.sqrt(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)


def fro_norm(v):
    """Frobenius norm of a block vector or small matrix.

    The one place that decides a norm's summation order: the squares of
    the real and imaginary parts of the block, taken row-major (copied
    where it is not), are summed in memory order by one pass of numpy's
    compiled ``einsum`` loop (`_einsum`), which calls no BLAS and makes
    no temporary, so the bits depend on neither the block's layout nor
    the BLAS thread count.

    Where that plain sum overflows on finite entries, or gives a nonzero
    block a norm below `_NORM_MIN` (~1.5e-146), the norm is taken again
    on the block scaled by 2^-e, with e the binary exponent of its
    largest real or imaginary part, and scaled back: the scaling is
    exact, so only such blocks change their result.

    Parameters
    ----------
    v : ndarray
        Any 2-D complex or real array.

    Returns
    -------
    float
        sqrt of the sum of squared entry moduli.
    """
    arr = _as_block(v, "v")
    x = arr.ravel().view(np.float64)
    nrm = math.sqrt(_einsum("i,i->", x, x))
    if nrm < _NORM_MIN or nrm == math.inf:
        nrm = _scaled_norm(arr, nrm)
    return nrm


def _scaled_norm(arr, nrm):
    """fro_norm of arr, whose plain norm nrm under- or overflowed, or nrm
    itself where arr is zero or holds a NaN or infinite entry."""
    top = max(float(np.abs(arr.real).max(initial=0.0)),
              float(np.abs(arr.imag).max(initial=0.0)))
    if top == 0.0 or not np.isfinite(arr).all():
        return nrm
    e = math.frexp(top)[1]
    # the scaled block's norm is at least 1/2, so it takes the plain sum
    with np.errstate(over="ignore"):
        return float(np.ldexp(fro_norm(_ldexp(arr, -e)), e))


# the zgemm scalars one (alpha of every call, beta of axpy_block's) and
# zero (beta of the Gram's), and their addresses
_ONE = np.ones(1, dtype=np.complex128)
_ONE_ADDRESS = _ONE.ctypes.data
_ZERO = np.zeros(1, dtype=np.complex128)
_ZERO_ADDRESS = _ZERO.ctypes.data


def axpy_block(x, y, c):
    """Update X <- X + Y @ C in place, for block vectors X, Y and a small
    matrix C.

    X is row-major, and Y is copied to row-major where it is not. Every
    non-empty block is updated by one ``zgemm`` call with beta = 1: a
    block of p >= 2 columns as X^T <- X^T + C^T Y^T, which is how a
    column-major routine reads the row-major buffers, and a single
    column by the column-major call itself. An empty block, whose
    leading dimension of 0 BLAS can refuse, and every block where numpy
    exposes no such symbol take ``x += y @ c``. Both give the bits of
    X + Y @ C formed in a new row-major block, except in the last n mod
    4 rows of a single column, which OpenBLAS's ``zgemm`` and numpy's
    product round differently.

    Parameters
    ----------
    x : ndarray
        Block vector of shape (n, p): a writeable row-major complex128
        array (a single column is both layouts), overwritten with the
        result.
    y : ndarray
        Block vector of shape (n, p) in any layout, sharing no memory
        with x.
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
    if not (
        isinstance(x, np.ndarray)
        and x.dtype == np.complex128
        and x.flags.c_contiguous
        and x.flags.writeable
    ):
        raise ValueError(
            "x must be a writeable row-major complex128 array: "
            "it is updated in place"
        )
    y = np.ascontiguousarray(y, dtype=np.complex128)
    c = _as_small(c, "c")
    if x.ndim != 2 or x.shape != y.shape or y.shape[1] != c.shape[0]:
        raise ValueError(
            f"nonconformable shapes: x {x.shape}, y {y.shape}, c {c.shape}"
        )
    if np.shares_memory(x, y) or np.shares_memory(x, c):
        raise ValueError("x shares memory with y or c: it is updated in place")
    gemm = _routine("zgemm") if x.size else None
    if gemm is None:
        x += y @ c
        return x
    fn, int_t = gemm
    n, p = int_t(x.shape[0]), int_t(x.shape[1])
    if x.shape[1] == 1:
        # the column-major call, whose bits are those of x + y @ c; the
        # swapped call below gives a single column those of x + y * c
        fn(b"N", b"T", n, p, p, _ONE_ADDRESS, _address(y), n,
           _address(c), p, _ONE_ADDRESS, _address(x), n)
    else:
        # to a column-major routine the buffers of x, y and c are X^T,
        # Y^T and C^T
        fn(b"N", b"N", p, n, p, _ONE_ADDRESS, _address(c), p,
           _address(y), p, _ONE_ADDRESS, _address(x), p)
    return x
