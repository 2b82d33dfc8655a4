"""
Matrix Market exchange format reader and writer.

Supports the NIST interchange format: a banner line
"%%MatrixMarket matrix <format> <field> <symmetry>", %-prefixed
comments, a size line, then whitespace-delimited entries with 1-based
indices. Coordinate files load into CSR storage, array files into dense
storage. Symmetric, skew-symmetric and hermitian files are expanded to
full storage on read; the writer emits coordinate complex symmetric
(lower triangle only) with 17 significant digits so a write/read cycle
reproduces the matrix exactly.

Entries have one parse path: numpy's C text reader (np.loadtxt, "%"
comments) over the entry section, with Fortran D exponents mapped to E.
The per-entry rules then run as checks over whole arrays: the entry
count, index bounds, the stored triangle of each symmetry and, with
1-based indices, duplicates. When loadtxt fails, when it would split the
section into lines or comments differently from str.splitlines (a "%"
after the values, a lone carriage return, a form feed), or when a check
fails, a diagnosis-only line scan finds the first entry line the format
rejects and raises its message. The scan converts tokens with int() and
float() and builds no matrix, so the reader accepts exactly the files a
line-by-line reader accepts, with the same messages.

Strictness notes: duplicate coordinate entries are rejected rather than
summed (a corrupt download should fail loudly), and pattern files are
rejected outright since they carry no values to solve with.
"""

import io
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core_la import ComplexSymmetricMatrix

__all__ = [
    "MatrixMarketHeader",
    "read_matrix_market",
    "write_matrix_market",
]

_FORMATS = ("coordinate", "array")
_FIELDS = ("real", "complex", "integer", "pattern")
_SYMMETRIES = ("general", "symmetric", "skew-symmetric", "hermitian")


@dataclass
class MatrixMarketHeader:
    """Parsed banner tokens, all lowercase."""

    object: str
    format: str
    field: str
    symmetry: str


# str.splitlines() ends a line at any of these; loadtxt only at \n and \r\n
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE = re.compile(f"([^{_BREAKS}]*)(?:\r\n|[{_BREAKS}])?")
_OTHER_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x85")
_EXPONENTS = bytes.maketrans(b"Dd", b"Ee")


def _source(source):
    """The file as text and as bytes, one byte per character.

    Bytes are decoded as latin-1, which never fails; MM files are ASCII
    anyway. A text source beyond latin-1 gets "?" in the bytes for each
    such character: loadtxt skips it in a comment and rejects it in an
    entry, which sends that entry to the line scan of the text.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
    if isinstance(data, str):
        return data, data.encode("latin-1", "replace")
    return data.decode("latin-1"), data


def _lines(text, pos):
    """Yield (line, end) from pos on, split where str.splitlines splits."""
    while pos < len(text):
        m = _LINE.match(text, pos)
        pos = m.end()
        yield m.group(1), pos


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
    return MatrixMarketHeader(obj, fmt, field, symmetry)


def _entry_value(tokens, field, line):
    """Check the value part of an entry line (everything after indices)."""
    if field == "complex":
        if len(tokens) != 2:
            raise ValueError(f"complex entry needs two values: {line!r}")
    elif len(tokens) != 1:
        raise ValueError(f"{field} entry needs one value: {line!r}")
    for tok in tokens:
        _fortran_float(tok)


def read_matrix_market(source):
    """Parse a Matrix Market file into a matrix.

    Parameters
    ----------
    source : str, Path, bytes or file object
        The file to parse. File objects may be binary or text.

    Returns
    -------
    (MatrixMarketHeader, ComplexSymmetricMatrix)
        The parsed banner and the matrix, CSR for coordinate files and
        dense for array files. Symmetric variants are expanded to full
        storage; real and integer fields are promoted to complex.
        General and hermitian inputs parse fine but will fail the
        matrix's symmetry check, which is how solvers reject them.

    Raises
    ------
    ValueError
        Malformed banner, pattern field, bad size line, entry count
        mismatch, out-of-bounds or duplicate indices, non-square shape.
    """
    text, data = _source(source)
    lines = _lines(text, 0)
    for line, pos in lines:
        if line.strip():
            break
    else:
        raise ValueError("empty input, no banner line")
    header = _parse_banner(line)
    if header.field == "pattern":
        raise ValueError("pattern matrices carry no values and cannot be solved")
    for line, pos in lines:
        if line.strip() and not line.lstrip().startswith("%"):
            break
    else:
        raise ValueError("missing size line")
    if header.format == "coordinate":
        matrix = _coordinate_matrix(text, data, pos, header, line)
    else:
        matrix = _array_matrix(text, data, pos, header, line)
    return header, matrix


def _coordinate_matrix(text, data, pos, header, size_line):
    size_tokens = size_line.split()
    if len(size_tokens) != 3:
        raise ValueError(
            f"coordinate size line needs 'rows cols nnz': {size_line!r}"
        )
    nrows, ncols, nnz = (int(t) for t in size_tokens)
    if nrows != ncols:
        raise ValueError(f"only square matrices are supported, got {nrows}x{ncols}")
    n = nrows
    vals = np.empty(nnz, dtype=np.complex128)
    table = _entries(text, data, pos, header, n, vals)
    rows = table["i"] - 1
    cols = table["j"] - 1
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


def _array_matrix(text, data, pos, header, size_line):
    size_tokens = size_line.split()
    if len(size_tokens) != 2:
        raise ValueError(f"array size line needs 'rows cols': {size_line!r}")
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
    _entries(text, data, pos, header, n, values)
    dense = np.zeros((n, n), dtype=np.complex128)
    # array data runs down columns; packed storage keeps the lower
    # triangle, whose column-major order is the row-major order of the
    # upper triangle's transpose
    if header.symmetry == "general":
        dense[:] = values.reshape(n, n).T
    else:
        cols, rows = np.triu_indices(n, k=int(header.symmetry == "skew-symmetric"))
        dense[rows, cols] = values
    if header.symmetry == "symmetric":
        dense = dense + dense.T - np.diag(np.diag(dense))
    elif header.symmetry == "skew-symmetric":
        dense = dense - dense.T
    elif header.symmetry == "hermitian":
        dense = dense + np.conj(dense.T) - np.diag(np.diag(dense))
    return ComplexSymmetricMatrix.from_dense(dense)


def _entries(text, data, pos, header, n, values):
    """Parse the entry section that starts at pos into values.

    Returns the parsed table, with int64 fields i and j (the 1-based
    indices) for coordinate files. When loadtxt cannot read the section
    as the line scan would, or an entry breaks a rule, _diagnose raises
    the line scan's message.
    """
    fields = []
    if header.format == "coordinate":
        fields += [("i", np.int64), ("j", np.int64)]
    fields.append(("re", np.float64))
    if header.field == "complex":
        fields.append(("im", np.float64))
    dtype = np.dtype(fields)
    table = None
    if _loadtxt_splits_alike(data, pos):
        try:
            table = _loadtxt(data, pos, dtype)
        except ValueError:
            pass
    if table is None or not _entries_hold(table, header, n, values.size):
        _diagnose(text, pos, header, n, values.size)
        # the line scan accepted the section: it holds breaks or spellings
        # that only str.splitlines, int() and float() read
        table = _loadtxt(_ascii_spelling(text[pos:]), 0, dtype)
    values.real = table["re"]
    values.imag = table["im"] if header.field == "complex" else 0.0
    return table


def _loadtxt_splits_alike(data, pos):
    """True if loadtxt splits data[pos:] into the lines the line scan sees.

    loadtxt ends lines only at \n and \r\n, and takes a "%" anywhere as
    the start of a comment; the line scan ends lines at every
    str.splitlines break and takes only a line that starts with "%" as
    a comment.
    """
    if any(data.find(c, pos) >= 0 for c in _OTHER_BREAKS):
        return False
    lone_cr = data.find(b"\r", pos) >= 0 and (
        data.count(b"\r", pos) != data.count(b"\r\n", pos)
    )
    if lone_cr:
        return False
    start = data.find(b"%", pos)
    while start >= 0:
        if data[max(data.rfind(b"\n", pos, start) + 1, pos) : start].strip(b" \t"):
            return False
        end = data.find(b"\n", start)
        start = data.find(b"%", end) if end >= 0 else -1
    return True


def _loadtxt(data, pos, dtype):
    """Parse data[pos:] with numpy's C reader, D exponents read as E."""
    if data.find(b"D", pos) >= 0 or data.find(b"d", pos) >= 0:
        data, pos = data[pos:].translate(_EXPONENTS), 0
    stream = io.BytesIO(data)
    stream.seek(pos)
    with warnings.catch_warnings():
        # an empty section is the entry count check's to report
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(
            stream, dtype=dtype, comments="%", encoding="latin-1", ndmin=1
        )


def _entries_hold(table, header, n, count):
    """True if the parsed entries pass the line scan's rules."""
    if len(table) != count:
        return False
    if header.format != "coordinate":
        return True
    i, j = table["i"], table["j"]
    if np.any((i < 1) | (i > n) | (j < 1) | (j > n)):
        return False
    if header.symmetry in ("symmetric", "hermitian"):
        return not np.any(i < j)
    if header.symmetry == "skew-symmetric":
        return not np.any(i <= j)
    return True


def _diagnose(text, pos, header, n, count):
    """Raise the error of the first entry line the format rejects.

    Scans the entry section line by line, converting each token with
    int() and float(), and builds nothing. Returns only if every line
    passes and the entry count matches.
    """
    if header.format == "coordinate":
        declared = f"size line declares {count}"
    else:
        declared = f"array needs {count} values"
    got = 0
    for line, _ in _lines(text, pos):
        if not line.strip() or line.lstrip().startswith("%"):
            continue
        if got >= count:
            raise ValueError(f"entry count mismatch: {declared}, file has more")
        tokens = line.split()
        if header.format == "coordinate":
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
            tokens = tokens[2:]
        _entry_value(tokens, header.field, line)
        got += 1
    if got != count:
        raise ValueError(f"entry count mismatch: {declared}, file has {got}")


def _ascii_spelling(text):
    """Respell entries that the line scan accepted so that loadtxt reads them.

    Every str.splitlines break becomes a newline, other whitespace a
    blank, and each decimal digit its ASCII digit; digit-grouping
    underscores go. int() and float() read every token to the same
    value before and after.
    """
    table = {ord("_"): None}
    for c in set(text):
        if c in _BREAKS:
            table[ord(c)] = "\n"
        elif c.isspace():
            table[ord(c)] = " "
        elif c.isdecimal():
            table[ord(c)] = str(int(c))
    return text.translate(table).encode("latin-1", "replace")


def write_matrix_market(m, dest, comments=()):
    """Write a matrix as coordinate complex symmetric, lower triangle only.

    Values are printed with 17 significant digits, enough for a
    write/read cycle to reproduce every float bit-exactly.

    Parameters
    ----------
    m : ComplexSymmetricMatrix
        The matrix to write. Must pass its symmetry check.
    dest : str, Path or text file object
        Where to write.
    comments : iterable of str
        Extra %-comment lines placed after the banner.

    Raises
    ------
    ValueError
        If the matrix has NaN or infinite entries, or is not complex
        symmetric (the lower-triangle encoding would silently drop
        information otherwise). Finiteness is checked first: NaN never
        equals itself, so the symmetry check would misreport it.
    """
    if not m.is_finite:
        raise ValueError(
            "matrix has non-finite entries (NaN or Inf); refusing to write it"
        )
    if not m.is_symmetric:
        raise ValueError("refusing to write a non-symmetric matrix as symmetric")
    if m.storage == "csr":
        rows = m._csr_rows()
        cols = m.col_idx
        vals = m.values
    else:
        rows, cols = np.nonzero(m.dense)
        vals = m.dense[rows, cols]
    keep = rows >= cols
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    out = ["%%MatrixMarket matrix coordinate complex symmetric"]
    out.extend(f"% {c}" if c else "%" for c in comments)
    out.append(f"{m.n} {m.n} {len(vals)}")
    # one format over the flattened entry columns; indices pass through
    # float64 exactly, being far below 2**53
    cells = np.column_stack((rows + 1, cols + 1, vals.real, vals.imag))
    body = ("%d %d %.17g %.17g\n" * len(vals)) % tuple(cells.ravel().tolist())
    text = "\n".join(out) + "\n" + body
    if isinstance(dest, (str, Path)):
        Path(dest).write_text(text)
    else:
        dest.write(text)
