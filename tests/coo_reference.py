"""Frozen two-key-sort CSR assembly and symmetry check.

ComplexSymmetricMatrix.from_coo and ComplexSymmetricMatrix.is_symmetric
as they were when both sorted (row, col) pairs with np.lexsort, before
they sorted one int64 key. tests/test_core_la.py compares the live code
against them: on every input both must give the same CSR arrays bit for
bit and the same symmetry verdict, or raise the same exception with the
same message. They share no code with cskrylov. Keep them as they are.
"""

import numpy as np


def csr_from_coo(n, rows, cols, values):
    """(row_ptr, col_idx, values) of coordinate triples sorted by (row, col).

    Raises ValueError on a shape mismatch, an index out of range, a
    duplicate coordinate (naming the smallest duplicated (row, col)) or
    an order below 1.
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
            raise ValueError(f"duplicate entry at ({rows[k]}, {cols[k]})")
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(row_ptr, rows + 1, 1)
    np.cumsum(row_ptr, out=row_ptr)
    if n < 1:
        raise ValueError("matrix order must be >= 1")
    return row_ptr, cols, values


def is_symmetric(n, row_ptr, col_idx, values):
    """True iff every stored nonzero (i, j, v) has value v at (j, i)."""
    keep = values != 0
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(row_ptr))[keep]
    cols = col_idx[keep]
    vals = values[keep]
    order = np.lexsort((rows, cols))
    return bool(
        np.array_equal(rows, cols[order])
        and np.array_equal(cols, rows[order])
        and np.array_equal(vals, vals[order])
    )
