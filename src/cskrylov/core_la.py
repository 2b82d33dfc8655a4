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

The block kernels (`block_matvec`, `t_gram`, `axpy_block`, `thin_qr`,
`solve_small`, `fro_norm`) are private to the solvers' iteration loop,
and take its blocks as given: row-major (C-order) complex128 n x p
blocks with n >= p >= 1, and p x p complex128 matrices, of conforming
shapes. They convert and check nothing, but that `axpy_block` takes C
in either layout, as `solve_small` returns it. The checks stay at the
public edges: `ComplexSymmetricMatrix.matvec`, which copies a block in
any other layout to row-major once, and the solvers' input checks. The
product is one pass of scipy's multi-vector CSR kernel for p >= 2, its
one-vector kernel for a single column, with the same bits. The block
update X <- X + Y C is made in place. Every kernel but `axpy_block`
returns a new array, except that the product and the thin QR take an
``out=`` block to write into (the thin QR then uses its input as
scratch), which lets a solve run in blocks it allocates once.

Dense products are numpy's, but where a BLAS or LAPACK call saves a
block pass or exposes what numpy hides. Four calls are bound through
``ctypes`` (`_routine`, `_address`): ``zgemm`` for `axpy_block`'s
in-place update of p >= 2 columns; ``zaxpy`` for its single column,
which spares ``zgemm``'s packing pass (per bare call, against the
single-column ``zgemm``, medians of 15 rounds, 2 threads, 2-core
guest: 2.1 against 5.0 us at n = 841, 44 against 88 us at n = 1e5);
``zgemm`` for the thin QR's Hermitian Gram without a conjugate copy;
and ``zgesv`` for `solve_small`'s pivots. They are
bound from one library only, the scipy-openblas64 that numpy 2's
OpenBLAS wheels link, by its ``scipy_<name>_64_`` names, which state
the library (OpenBLAS) and the integer width (64 bits; a wrong width
would make ``zgesv`` write its pivots past their array). Any other
numpy build binds nothing and takes the fallbacks: numpy's products, a
Python LU.

Two single-column products depend on the BLAS thread count at large n.
``zaxpy`` is threaded above OpenBLAS's level-1 threshold, and its bits
then differ between 1 and 2 threads at some odd orders (n = 100,001,
100,003 and 250,001; not at 841, 4,097, 99,999 or 100,000). `t_gram`'s
p = 1 Gram is a threaded dot of length n, which already makes the
n = 1e5, p = 1 solves differ between 1 and 2 threads. The update at
n = 841 and 1e5, and young1c's p = 1 solves, keep their bits under both.

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

# the kernels, QrFactors and BreakdownError keep their names here, where
# the solvers import them, but are not part of the package's API
__all__ = ["ComplexSymmetricMatrix"]


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
    """Refuse an out= block that cannot take `matvec`'s result for v in
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
        if out is not None:
            _check_out(out, v)
        return self._product(v, out)

    def _product(self, v, out=None):
        """`matvec` of a row-major complex128 (n, p) block v, into out (a
        row-major complex128 block of v's shape that shares no memory
        with v) or a new block; nothing is checked. The one product
        implementation, behind `matvec` and `block_matvec`."""
        # the kernels add each row's sum to what the output holds
        if out is None:
            out = np.zeros(v.shape, dtype=np.complex128)
        else:
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
    """A @ V for the solvers' row-major block v, into a new block, or into
    out (a row-major block of v's shape that shares no memory with v).

    A matrix's product is its own (`ComplexSymmetricMatrix._product`),
    taken without `matvec`'s checks. An operator whose ``matvec`` is not
    the matrix's own (a subclass that replaces it, so that it sees every
    product) is called as ``matvec(v)``, and its result copied into out
    where out is given.
    """
    if _has_own_product(a):
        return a._product(v, out)
    if out is None:
        return a.matvec(v)
    np.copyto(out, a.matvec(v))
    return out


def t_gram(v, w):
    """Unconjugated Gram product V^T W of two (n, p) blocks, (p, p).

    This is the bilinear form of the method, not an inner product: it
    applies no complex conjugation and can vanish on nonzero inputs.
    numpy's ``v.T @ w`` on the row-major blocks: ``zgemm`` for distinct
    blocks, ``zsyrk`` for one block as both, so V^T V is exactly
    symmetric.
    """
    return v.T @ w


def thin_qr(w, out=None):
    """Economy QR of a row-major (n, p) block with n >= p >= 1, as
    `QrFactors`: q of shape (n, p), row-major, and xi of shape (p, p).

    A single column is normalized. A wider block is factored by one
    pass of CholeskyQR where its first Cholesky factor R1 shows the
    block, with its columns scaled to unit norm, well conditioned
    (||D R1^{-1}||_F <= 11, D = sqrt(diag(W^H W)) the column norms),
    since that pass loses orthogonality like u kappa^2; otherwise a
    second pass makes CholeskyQR2, and a block too ill-conditioned or
    too near rank deficiency for that, or with a column norm below
    `_NORM_MIN`, goes to Householder QR (see `_cholesky_qr`). Both gate
    norms, that one and the second pass's ||Q1^H Q1 - I||_F, are
    `fro_norm`'s; a single column's norm stays numpy's, whose bits its
    normalization keeps. Either way xi has a real nonnegative diagonal,
    which makes the factors unique for full-rank input and
    factorizations reproducible. Rank deficiency is not deflated; it
    shows up as (near) zero diagonal entries of xi for consumers to act
    on.

    With out given (a row-major block of w's shape that shares no
    memory with w), CholeskyQR allocates no n x p block: Q, or the first
    pass Q1 of CholeskyQR2, is written into out, and the second pass
    writes Q over w, whose block it no longer needs. So w is scratch
    then, and q is whichever of out and w holds Q. The bits are those
    of the allocating form either way.
    """
    n, p = w.shape
    q = np.empty((n, p), dtype=np.complex128) if out is None else out
    xi = np.zeros((p, p), dtype=np.complex128)
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
    OpenBLAS extension, which the one library bound has, and
    ``zgemm('N', 'C')``, the other way to read a row-major chunk, rounds
    differently. Where `_routine` binds no ``zgemm``, each chunk's
    conjugate copy goes to numpy's product instead.
    """
    n, p = v.shape
    g = np.zeros((p, p), dtype=np.complex128)
    gemm = _routine("zgemm")
    if gemm is None:
        for i in range(0, n, _ROW_CHUNK):
            rows = v[i : i + _ROW_CHUNK]
            g += np.conjugate(rows).T @ rows
        return g
    # the column-major chunk product lands in part's row-major buffer as
    # its transpose
    part = np.empty((p, p), dtype=np.complex128)
    width = _INT(p)
    start, out = _address(v), _address(part)
    for i in range(0, n, _ROW_CHUNK):
        rows = start + i * p * v.itemsize
        gemm(b"R", b"T", width, width, _INT(min(_ROW_CHUNK, n - i)), _ONE_ADDRESS,
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
    LAPACK's ``izamax`` does. Where `_routine` binds no ``zgesv``, a
    Python LU that picks each pivot by the largest modulus runs instead,
    some 20 times slower at p = 8 and 32.
    The two rules can choose different rows, so their results may differ
    in the last bits. An M whose largest modulus is below `_SCALE_MIN`
    is solved as M 2^-e, with e the binary exponent of max|M|, and Z
    scaled back: the scaling is exact, and it keeps every pivot that
    passes the floor out of the subnormal range.

    M is a p x p complex128 matrix and RHS a (p, k) complex128 block.
    Z, of RHS's shape, is all NaN when M has a NaN or infinite entry,
    and non-finite when RHS has one; neither raises `BreakdownError`.
    A pivot, a diagonal entry of U in elimination order, with a
    magnitude below `_PIVOT_FLOOR` * max|M| raises `BreakdownError`; an
    exact zero pivot is always one.
    """
    # max|M|; a Python scalar's modulus spares a 1-by-1 system the array
    # calls
    scale = abs(complex(m[0, 0])) if len(m) == 1 else float(np.abs(m).max())
    if not math.isfinite(scale):
        return np.full(rhs.shape, np.nan, dtype=np.complex128)
    if scale == 0.0:
        raise BreakdownError(0, 0.0)
    if scale < _SCALE_MIN:
        e = math.frexp(scale)[1]
        try:
            return _ldexp(solve_small(_ldexp(m, -e), rhs), -e)
        except BreakdownError as err:
            mag = math.ldexp(err.pivot_magnitude, e)
            raise BreakdownError(err.pivot_index, mag) from None
    if len(m) == 1:
        return rhs / m[0, 0]
    if _routine("zgesv") is not None:
        return _lapack_solve(m, rhs, _PIVOT_FLOOR * scale)
    return _python_solve(m, rhs, _PIVOT_FLOOR * scale)


def _ldexp(x, e):
    """x * 2^e for a complex array, exact wherever the result is normal."""
    out = np.empty_like(x)
    out.real = np.ldexp(x.real, e)
    out.imag = np.ldexp(x.imag, e)
    return out


# numpy 2's OpenBLAS wheels link scipy-openblas64, which exports BLAS and
# LAPACK with 64-bit integers as scipy_<name>_64_; the one integer type of
# every call bound here
_INT = ctypes.c_int64
# ctypes argument types of each routine that is bound, one letter per
# argument: i an integer, v a data pointer, c a character option
_SIGNATURES = {"zgesv": "iiviivii", "zgemm": "cciiivvivivvi", "zaxpy": "ivvivi"}
# the unit stride of every zaxpy call
_UNIT = _INT(1)


@functools.cache
def _routine(name):
    """numpy's ``scipy_<name>_64_`` (name a key of `_SIGNATURES`), typed
    for ctypes, or None where numpy's library does not export it.

    The symbol is looked up through numpy's own linear-algebra extension,
    whose dependencies include the library numpy links, so it adds no
    library to the process and shares numpy's BLAS threads. No other
    name is tried (see the module docstring).
    """
    try:
        from numpy.linalg import _umath_linalg

        fn = ctypes.CDLL(_umath_linalg.__file__)[f"scipy_{name}_64_"]
    except (ImportError, OSError, AttributeError):
        return None
    types = {"i": ctypes.POINTER(_INT), "v": ctypes.c_void_p, "c": ctypes.c_char_p}
    fn.argtypes = [types[t] for t in _SIGNATURES[name]]
    fn.restype = None
    return fn


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
    zgesv = _routine("zgesv")
    p, k = b.shape
    # row-major copies of the transposes: the column-major M and B that
    # zgesv overwrites with its LU factors and Z
    lu = a.T.copy()
    z = b.T.copy()
    ipiv = (_INT * p)()
    n, nrhs, info = _INT(p), _INT(k), _INT(0)
    zgesv(n, nrhs, _address(lu), n, ipiv, _address(z), n, info)
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
    """Frobenius norm of a complex128 block vector or small matrix.

    The one place that decides a norm's summation order: the squares of
    the real and imaginary parts of the block, taken row-major (raveled
    in row order where it is not), are summed in memory order by one
    pass of numpy's compiled ``einsum`` loop (`_einsum`), which calls no
    BLAS and makes no temporary, so the bits depend on neither the
    block's layout nor the BLAS thread count.

    Where that plain sum overflows on finite entries, or gives a nonzero
    block a norm below `_NORM_MIN` (~1.5e-146), the norm is taken again
    on the block scaled by 2^-e, with e the binary exponent of its
    largest real or imaginary part, and scaled back: the scaling is
    exact, so only such blocks change their result.
    """
    x = v.ravel().view(np.float64)
    nrm = math.sqrt(_einsum("i,i->", x, x))
    if nrm < _NORM_MIN or nrm == math.inf:
        nrm = _scaled_norm(v, nrm)
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
    """Update X <- X + Y @ C in place, for the solvers' row-major (n, p)
    blocks X and Y, which share no memory, and a p x p C; returns x.

    C may come in either layout (`solve_small` returns a column-major Z
    for p >= 2) and is copied to row-major where it is not. A block of
    p >= 2 columns is updated by one ``zgemm`` call with beta = 1, as
    X^T <- X^T + C^T Y^T, which is how a column-major routine reads the
    row-major buffers: the bits of X + Y @ C formed in a new row-major
    block. A single column is updated by one ``zaxpy`` call, x <- x +
    c[0, 0] y, which spares ``zgemm``'s packing pass: its bits are
    ``zaxpy``'s own, within rounding of X + Y @ C but not equal to it
    (611 of 841 entries differ on one seeded update), and they depend on
    the BLAS thread count at some odd n above OpenBLAS's level-1
    threading threshold (see the module docstring). Where `_routine`
    binds no such routine, the block takes ``x += y @ c``.
    """
    n, p = x.shape
    if p == 1:
        axpy = _routine("zaxpy")
        if axpy is not None:
            axpy(_INT(n), _address(c), _address(y), _UNIT, _address(x), _UNIT)
            return x
    else:
        gemm = _routine("zgemm")
        if gemm is not None:
            # to a column-major routine the buffers of x, y and c are X^T,
            # Y^T and C^T
            c = np.ascontiguousarray(c)
            width = _INT(p)
            gemm(b"N", b"N", width, _INT(n), width, _ONE_ADDRESS, _address(c), width,
                 _address(y), width, _ONE_ADDRESS, _address(x), width)
            return x
    x += y @ c
    return x
