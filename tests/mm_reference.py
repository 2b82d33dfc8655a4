"""Frozen line-by-line Matrix Market reader.

The reader as it was before entries were parsed by numpy's C text
reader: one Python loop over the lines, each split into tokens and
converted by int() and float(). It is the reference that
tests/test_mm_io.py compares cskrylov.mm_io.read_matrix_market against:
on every input inside the grammar that cskrylov.mm_io describes, both
must return the same matrix bits, or raise the same exception with the
same message. Array files with a symmetry are the exception: this reader
adds the stored triangle to its mirror image, which changes a diagonal
that overflows when doubled, is infinite or (hermitian) is not real, and
the sign of some zeros, while cskrylov.mm_io expands them as it expands
coordinate files. Keep it as it is.
"""

from collections import namedtuple
from pathlib import Path

import numpy as np

from cskrylov.core_la import ComplexSymmetricMatrix

_Header = namedtuple("_Header", "object format field symmetry")

_FORMATS = ("coordinate", "array")
_FIELDS = ("real", "complex", "integer", "pattern")
_SYMMETRIES = ("general", "symmetric", "skew-symmetric", "hermitian")


def _source_text(source):
    """Pull the full text out of a path, byte string or file object."""
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
    if isinstance(data, bytes):
        # latin-1 never fails and MM files are ASCII anyway
        data = data.decode("latin-1")
    return data


def _fortran_float(tok):
    """Parse a float, tolerating Fortran D exponents like 1.5D+03."""
    try:
        return float(tok.replace("D", "E").replace("d", "e"))
    except ValueError:
        raise ValueError(f"bad numeric token {tok!r}") from None


def _parse_banner(line):
    tokens = line.split()
    if len(tokens) != 5 or tokens[0].lower() != "%%matrixmarket":
        raise ValueError(f"malformed banner line: {line!r}")
    obj, fmt, field, symmetry = (t.lower() for t in tokens[1:])
    if obj != "matrix":
        raise ValueError(f"unsupported object {obj!r}, only 'matrix' is handled")
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {_FORMATS}")
    if field not in _FIELDS:
        raise ValueError(f"unknown field {field!r}, expected one of {_FIELDS}")
    if symmetry not in _SYMMETRIES:
        raise ValueError(
            f"unknown symmetry {symmetry!r}, expected one of {_SYMMETRIES}"
        )
    return _Header(obj, fmt, field, symmetry)


def _entry_value(tokens, field, line):
    """Decode the value part of an entry line (everything after indices)."""
    if field == "complex":
        if len(tokens) != 2:
            raise ValueError(f"complex entry needs two values: {line!r}")
        return complex(_fortran_float(tokens[0]), _fortran_float(tokens[1]))
    if len(tokens) != 1:
        raise ValueError(f"{field} entry needs one value: {line!r}")
    return complex(_fortran_float(tokens[0]), 0.0)


def read_matrix_market(source):
    """Parse a Matrix Market file into a matrix.

    Parameters
    ----------
    source : str, Path, bytes or file object
        The file to parse. File objects may be binary or text.

    Returns
    -------
    (MatrixMarketHeader, ComplexSymmetricMatrix)
        The parsed banner and the matrix, built by from_coo for
        coordinate files and by from_dense for array files. Symmetric variants are expanded to full
        storage; real and integer fields are promoted to complex.
        General and hermitian inputs parse fine but will fail the
        matrix's symmetry check, which is how solvers reject them.

    Raises
    ------
    ValueError
        Malformed banner, pattern field, bad size line, entry count
        mismatch, out-of-bounds or duplicate indices, non-square shape.
    """
    text = _source_text(source)
    lines = text.splitlines()
    pos = 0
    while pos < len(lines) and not lines[pos].strip():
        pos += 1
    if pos == len(lines):
        raise ValueError("empty input, no banner line")
    header = _parse_banner(lines[pos])
    pos += 1
    if header.field == "pattern":
        raise ValueError("pattern matrices carry no values and cannot be solved")
    while pos < len(lines) and (
        not lines[pos].strip() or lines[pos].lstrip().startswith("%")
    ):
        pos += 1
    if pos == len(lines):
        raise ValueError("missing size line")
    if header.format == "coordinate":
        matrix = _coordinate_matrix(lines, pos, header)
    else:
        matrix = _array_matrix(lines, pos, header)
    return header, matrix


def _coordinate_matrix(lines, pos, header):
    size_tokens = lines[pos].split()
    pos += 1
    if len(size_tokens) != 3:
        raise ValueError(
            f"coordinate size line needs 'rows cols nnz': {lines[pos - 1]!r}"
        )
    nrows, ncols, nnz = (int(t) for t in size_tokens)
    if nrows != ncols:
        raise ValueError(f"only square matrices are supported, got {nrows}x{ncols}")
    n = nrows
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.complex128)
    got = 0
    for line in lines[pos:]:
        if not line.strip() or line.lstrip().startswith("%"):
            continue
        if got >= nnz:
            raise ValueError(
                f"entry count mismatch: size line declares {nnz}, file has more"
            )
        tokens = line.split()
        if len(tokens) < 2:
            raise ValueError(f"bad entry line: {line!r}")
        i, j = int(tokens[0]), int(tokens[1])
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"index ({i}, {j}) out of bounds for order {n}")
        if header.symmetry in ("symmetric", "hermitian") and i < j:
            raise ValueError(
                f"{header.symmetry} storage must keep row >= col, got ({i}, {j})"
            )
        if header.symmetry == "skew-symmetric" and i <= j:
            raise ValueError(
                f"skew-symmetric storage must keep row > col, got ({i}, {j})"
            )
        rows[got] = i - 1
        cols[got] = j - 1
        vals[got] = _entry_value(tokens[2:], header.field, line)
        got += 1
    if got != nnz:
        raise ValueError(
            f"entry count mismatch: size line declares {nnz}, file has {got}"
        )
    if nnz:
        order = np.lexsort((cols, rows))
        srows, scols = rows[order], cols[order]
        same = (srows[1:] == srows[:-1]) & (scols[1:] == scols[:-1])
        if np.any(same):
            k = int(np.argmax(same))
            raise ValueError(f"duplicate entry at ({srows[k] + 1}, {scols[k] + 1})")
    if header.symmetry != "general":
        off = rows != cols
        mvals = vals[off]
        if header.symmetry == "skew-symmetric":
            mvals = -mvals
        elif header.symmetry == "hermitian":
            mvals = np.conj(mvals)
        rows, cols = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
        )
        vals = np.concatenate([vals, mvals])
    return ComplexSymmetricMatrix.from_coo(n, rows, cols, vals)


def _array_matrix(lines, pos, header):
    size_tokens = lines[pos].split()
    pos += 1
    if len(size_tokens) != 2:
        raise ValueError(
            f"array size line needs 'rows cols': {lines[pos - 1]!r}"
        )
    nrows, ncols = (int(t) for t in size_tokens)
    if nrows != ncols:
        raise ValueError(f"only square matrices are supported, got {nrows}x{ncols}")
    n = nrows
    if header.symmetry == "general":
        expected = n * n
    elif header.symmetry == "skew-symmetric":
        expected = n * (n - 1) // 2
    else:
        expected = n * (n + 1) // 2
    values = np.empty(expected, dtype=np.complex128)
    got = 0
    for line in lines[pos:]:
        if not line.strip() or line.lstrip().startswith("%"):
            continue
        if got >= expected:
            raise ValueError(
                f"entry count mismatch: array needs {expected} values, file has more"
            )
        values[got] = _entry_value(line.split(), header.field, line)
        got += 1
    if got != expected:
        raise ValueError(
            f"entry count mismatch: array needs {expected} values, file has {got}"
        )
    dense = np.zeros((n, n), dtype=np.complex128)
    k = 0
    # array data runs down columns
    for j in range(n):
        if header.symmetry == "general":
            i0 = 0
        elif header.symmetry == "skew-symmetric":
            i0 = j + 1
        else:
            i0 = j
        for i in range(i0, n):
            dense[i, j] = values[k]
            k += 1
    if header.symmetry == "symmetric":
        dense = dense + dense.T - np.diag(np.diag(dense))
    elif header.symmetry == "skew-symmetric":
        dense = dense - dense.T
    elif header.symmetry == "hermitian":
        dense = dense + np.conj(dense.T) - np.diag(np.diag(dense))
    return ComplexSymmetricMatrix.from_dense(dense)
