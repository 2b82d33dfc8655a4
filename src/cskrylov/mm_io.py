"""
Matrix Market exchange format reader and writer.

Supports the NIST interchange format: a banner line
"%%MatrixMarket matrix <format> <field> <symmetry>", %-prefixed
comments, a size line, then whitespace-delimited entries with 1-based
indices. Both formats load into CSR storage; an array file keeps only
its nonzero entries, so a matrix reads to the same arrays from either
format. Symmetric, skew-symmetric and hermitian files are expanded to
full storage on read, by one mirror step for both formats; the writer
emits coordinate complex symmetric (lower triangle only) with 17
significant digits so a write/read cycle reproduces the matrix exactly.

The grammar read is that of the format (Boisvert, Pozo & Remington,
"The Matrix Market exchange formats", NIST 1996):

- the file is ASCII text: tab, line feed, and bytes 0x20-0x7E; a
  carriage return only directly before a line feed (CRLF line ends)
- lines end at LF or CRLF; tokens are separated by spaces and tabs
- a "%" may only start a comment, as the first non-blank character of
  its line; a comment line may hold any of the text above
- numbers are decimal, with Fortran D exponents read as E; "_" occurs
  only in comment lines, so Python's digit-group underscores (1_0) are
  not numbers

A file outside the grammar raises a ValueError that names the 1-based
line of its first offending byte ("line N: ..."). Inside the grammar a
file gives the entries, or the error message, that a line-by-line reader
gives which splits lines and tokens as above and converts them with
int() and float().

Entries have one parse path: numpy's C text reader (np.loadtxt, "%"
comments) over the entry section. The per-entry rules then run as checks
over whole arrays: the entry count, index bounds and the stored triangle
of each symmetry; duplicates are left to ComplexSymmetricMatrix.from_coo,
which sorts the entries once. When loadtxt fails or a check fails, a
diagnosis-only line scan finds the first entry line the format rejects
and raises its message; it converts tokens with int() and float() and
builds no matrix.

Strictness notes: duplicate coordinate entries are rejected rather than
summed (a corrupt download should fail loudly), and pattern files are
rejected outright since they carry no values to solve with.
"""

import io
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
# each symmetry's storage: None (general: every entry is stored), or
# (k, mirror): the stored triangle keeps row - col >= k, and mirror maps a
# stored value to its image across the diagonal
_STORAGE = {
    "general": None,
    "symmetric": (0, lambda v: v),
    "skew-symmetric": (1, np.negative),
    "hermitian": (0, np.conj),
}
_SYMMETRIES = tuple(_STORAGE)


@dataclass
class MatrixMarketHeader:
    """Parsed banner tokens, all lowercase."""

    object: str
    format: str
    field: str
    symmetry: str


# every byte the grammar allows; a carriage return only before a line feed
_TEXT = bytes([0x09, 0x0A, 0x0D, *range(0x20, 0x7F)])
_EXPONENTS = bytes.maketrans(b"Dd", b"Ee")


def _source(source):
    """The file's bytes. Text is encoded as UTF-8, so that non-ASCII text
    fails the byte check of the grammar as non-ASCII bytes do."""
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes()
    data = source if isinstance(source, bytes) else source.read()
    return data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data


def _check_grammar(data):
    """Raise a ValueError naming the line of the first byte outside the grammar.

    One C-speed pass (bytes.translate) finds the bytes that are never
    allowed; carriage returns, "%" and "_" are looked at where they occur.
    """
    faults = [
        (data.find(b), f"byte 0x{b:02x} is not Matrix Market text")
        for b in set(data.translate(None, _TEXT))
    ]
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        at = data.find(b"\r")
        while data.startswith(b"\n", at + 1):
            at = data.find(b"\r", at + 1)
        faults.append((at, "carriage return without a line feed"))
    for mark in b"%_":
        at = data.find(mark)
        # any text may follow the "%" that starts a comment line
        while at >= 0 and _on_comment_line(data, at):
            at = data.find(mark, data.find(b"\n", at) + 1 or len(data))
        if at >= 0:
            faults.append((at, f"{chr(mark)!r} outside a comment line"))
    if faults:
        at, why = min(faults)
        line = data.count(b"\n", 0, at) + 1
        raise ValueError(f"line {line}: {why}")


def _on_comment_line(data, at):
    """True if the line holding data[at] is a comment: its first
    non-blank character is "%"."""
    start = data.rfind(b"\n", 0, at) + 1
    return data[start : at + 1].lstrip(b" \t").startswith(b"%")


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
    if field == "pattern":
        raise ValueError("pattern matrices carry no values and cannot be solved")
    return MatrixMarketHeader(obj, fmt, field, symmetry)


def _entry_value(tokens, field, line):
    """Check the value part of an entry line (everything after indices),
    reading Fortran D exponents like 1.5D+03."""
    if field == "complex":
        if len(tokens) != 2:
            raise ValueError(f"complex entry needs two values: {line!r}")
    elif len(tokens) != 1:
        raise ValueError(f"{field} entry needs one value: {line!r}")
    for tok in tokens:
        try:
            float(tok.replace("D", "E").replace("d", "e"))
        except ValueError:
            raise ValueError(f"bad numeric token {tok!r}") from None


def read_matrix_market(source):
    """Parse a Matrix Market file into a matrix.

    Parameters
    ----------
    source : str, Path, bytes or file object
        The file to parse. File objects may be binary or text.

    Returns
    -------
    (MatrixMarketHeader, ComplexSymmetricMatrix)
        The parsed banner and the matrix in CSR storage, which for an
        array file holds its nonzero entries. Symmetric variants are
        expanded to full storage; real and integer fields are promoted
        to complex.
        General and hermitian inputs parse fine but will fail the
        matrix's symmetry check, which is how solvers reject them.

    Raises
    ------
    ValueError
        Input outside the grammar (the message names the line), malformed
        banner, pattern field, bad size line, entry count mismatch,
        out-of-bounds or duplicate indices, non-square shape.
    """
    data = _source(source)
    _check_grammar(data)
    header = None
    pos = line_no = 0
    while True:
        if pos == len(data):
            raise ValueError(
                "empty input, no banner line" if header is None else "missing size line"
            )
        end = data.find(b"\n", pos) + 1 or len(data)
        line = data[pos:end].decode("ascii").rstrip("\r\n")
        pos, line_no = end, line_no + 1
        if not line.strip():
            continue
        if header is None:
            header = _parse_banner(line)
        elif not line.lstrip().startswith("%"):
            break
    n, count = _size(line, header)
    table, values = _entries(data, pos, line_no + 1, header, n, count)
    storage = _STORAGE[header.symmetry]
    if header.format == "coordinate":
        rows, cols = table["i"] - 1, table["j"] - 1
    else:
        if n < 0:
            # numpy's message for the n x n array the line reader built
            raise ValueError("negative dimensions are not allowed")
        # array data runs down columns; packed storage keeps the lower
        # triangle, whose column-major order is the row-major order of the
        # upper triangle's transpose
        if storage is None:
            cols, rows = np.divmod(np.arange(count), n)
        else:
            cols, rows = np.triu_indices(n, k=storage[0])
        keep = values != 0
        rows, cols, values = rows[keep], cols[keep], values[keep]
    return header, _expanded(n, storage, rows, cols, values)


def _size(line, header):
    """The order and the entry count that the size line gives."""
    tokens = line.split()
    if header.format == "coordinate" and len(tokens) != 3:
        raise ValueError(f"coordinate size line needs 'rows cols nnz': {line!r}")
    if header.format == "array" and len(tokens) != 2:
        raise ValueError(f"array size line needs 'rows cols': {line!r}")
    n, ncols, *nnz = (int(t) for t in tokens)
    if n != ncols:
        raise ValueError(f"only square matrices are supported, got {n}x{ncols}")
    if nnz:
        return n, nnz[0]
    storage = _STORAGE[header.symmetry]
    if storage is None:
        return n, n * n
    # the triangle row - col >= k holds m (m + 1) / 2 entries, m = n - k
    m = n - storage[0]
    return n, m * (m + 1) // 2


def _expanded(n, storage, rows, cols, vals):
    """CSR storage of the stored triangle mirrored to full storage, by
    the symmetry's storage (an entry of `_STORAGE`).

    from_coo sorts the entries and rejects duplicates. On that error the
    duplicate is named as the file gives it: 1-based, and the smallest
    (row, col) of the stored entries, not of their mirror images.
    """
    stored = rows, cols
    if storage is not None:
        off = rows != cols
        # formed after the concatenations, it raised mm1e5-p1's peak RSS 0.8 MB
        mirror = storage[1](vals[off])
        rows, cols = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
        )
        vals = np.concatenate([vals, mirror])
    try:
        return ComplexSymmetricMatrix.from_coo(n, rows, cols, vals)
    except ValueError:
        pairs, counts = np.unique(np.column_stack(stored), axis=0, return_counts=True)
        if np.any(counts > 1):
            i, j = pairs[np.argmax(counts > 1)] + 1
            raise ValueError(f"duplicate entry at ({i}, {j})") from None
        raise


def _entries(data, pos, first_line, header, n, count):
    """Parse the entry section, data[pos:], which starts at line first_line.

    Returns the parsed table, with int64 fields i and j (the 1-based
    indices) for coordinate files, and the values as complex. When
    loadtxt fails or an entry breaks a rule, _diagnose raises the line
    scan's message.
    """
    # one entry per line at most: a size line may declare any count, and
    # the line scan reports a count the section cannot hold
    values = np.empty(min(count, data.count(b"\n", pos) + 1), dtype=np.complex128)
    fields = [("i", np.int64), ("j", np.int64)] if header.format == "coordinate" else []
    fields.append(("re", np.float64))
    if header.field == "complex":
        fields.append(("im", np.float64))
    try:
        table = _loadtxt(data, pos, np.dtype(fields))
        if _entries_hold(table, header, n, count):
            values.real = table["re"]
            values.imag = table["im"] if header.field == "complex" else 0.0
            return table, values
        reason = "an entry breaks the format's rules"
    except ValueError as e:
        reason = str(e)
    _diagnose(data[pos:].decode("ascii"), header, n, count)
    # every entry line passed the line scan: numpy rejects a token that
    # int() or float() reads, which no input inside the grammar is known to do
    raise ValueError(f"line {first_line}: entries do not parse: {reason}")


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
    storage = _STORAGE[header.symmetry]
    return storage is None or not np.any(i - j < storage[0])


def _diagnose(text, header, n, count):
    """Raise the error of the first entry line the format rejects.

    Scans the entry section line by line, converting each token with
    int() and float(), and builds nothing. Inside the grammar,
    str.splitlines splits exactly at LF and CRLF. Returns only if every
    line passes and the entry count matches.
    """
    if header.format == "coordinate":
        declared = f"size line declares {count}"
    else:
        declared = f"array needs {count} values"
    storage = _STORAGE[header.symmetry]
    got = 0
    for line in text.splitlines():
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
            if storage is not None and i - j < storage[0]:
                keep = ("row >= col", "row > col")[storage[0]]
                raise ValueError(
                    f"{header.symmetry} storage must keep {keep}, got ({i}, {j})"
                )
            tokens = tokens[2:]
        _entry_value(tokens, header.field, line)
        got += 1
    if got != count:
        raise ValueError(f"entry count mismatch: {declared}, file has {got}")


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
    # CSR entries are already in (row, col) order
    rows = m._csr_rows()
    keep = rows >= m.col_idx
    rows, cols, vals = rows[keep], m.col_idx[keep], m.values[keep]
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
