"""Matrix Market parsing, symmetry expansion, and exact write/read cycles."""

import io

import numpy as np
import pytest
from mm_reference import read_matrix_market as reference_read

from cskrylov.mm_io import read_matrix_market, write_matrix_market
from cskrylov.oracle import ProblemSpec, gen_problem, gen_rhs
from cskrylov.solvers import SOLVERS

BANNER = "%%MatrixMarket matrix coordinate complex symmetric"


def _read(text):
    return read_matrix_market(text.encode())


class TestCoordinateRead:
    def test_minimal_symmetric(self):
        header, m = _read(f"{BANNER}\n2 2 2\n1 1 1.0 0.0\n2 1 0.0 1.0\n")
        assert (header.format, header.field, header.symmetry) == (
            "coordinate",
            "complex",
            "symmetric",
        )
        np.testing.assert_array_equal(
            m.to_dense(), np.array([[1.0, 1j], [1j, 0.0]])
        )
        assert m.nnz == 3  # off-diagonal mirrored

    def test_general_not_expanded(self):
        text = (
            "%%MatrixMarket matrix coordinate complex general\n"
            "2 2 2\n1 2 1.0 0.0\n2 1 2.0 0.0\n"
        )
        _, m = _read(text)
        np.testing.assert_array_equal(m.to_dense(), [[0, 1.0], [2.0, 0]])
        assert not m.is_symmetric

    def test_hermitian_mirrors_conjugate(self):
        text = (
            "%%MatrixMarket matrix coordinate complex hermitian\n"
            "2 2 2\n1 1 1.0 0.0\n2 1 1.0 2.0\n"
        )
        _, m = _read(text)
        np.testing.assert_array_equal(
            m.to_dense(), np.array([[1.0, 1 - 2j], [1 + 2j, 0.0]])
        )
        assert not m.is_symmetric  # hermitian with complex off-diagonals

    def test_skew_mirrors_negated(self):
        text = (
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 1\n2 1 3.0\n"
        )
        _, m = _read(text)
        np.testing.assert_array_equal(m.to_dense(), [[0, -3.0], [3.0, 0]])

    def test_real_and_integer_promote_to_complex(self):
        _, m = _read(
            "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 2.5\n"
        )
        assert m.to_dense()[0, 0] == 2.5 + 0j
        _, m = _read(
            "%%MatrixMarket matrix coordinate integer symmetric\n1 1 1\n1 1 7\n"
        )
        assert m.to_dense()[0, 0] == 7 + 0j

    def test_fortran_exponents(self):
        _, m = _read(f"{BANNER}\n1 1 1\n1 1 1.5D+03 -2.5d-01\n")
        assert m.to_dense()[0, 0] == 1500.0 - 0.25j

    def test_comments_and_blank_lines_anywhere(self):
        text = (
            f"\n{BANNER}\n% a comment\n\n2 2 2\n1 1 1.0 0.0\n"
            "% mid-data comment\n\n2 1 0.0 1.0\n"
        )
        _, m = _read(text)
        assert m.nnz == 3

    def test_banner_case_insensitive(self):
        header, _ = _read(
            "%%matrixmarket MATRIX Coordinate Complex SYMMETRIC\n1 1 1\n1 1 1 0\n"
        )
        assert header.symmetry == "symmetric"


class TestCoordinateErrors:
    @pytest.mark.parametrize(
        "banner",
        [
            "%%MatrixMarket matrix coordinate complex",
            "%MatrixMarket matrix coordinate complex symmetric",
            "%%MatrixMarket tensor coordinate complex symmetric",
            "%%MatrixMarket matrix triplet complex symmetric",
            "%%MatrixMarket matrix coordinate quaternion symmetric",
            "%%MatrixMarket matrix coordinate complex sideways",
        ],
    )
    def test_bad_banner(self, banner):
        with pytest.raises(ValueError):
            _read(f"{banner}\n1 1 1\n1 1 1 0\n")

    def test_pattern_rejected(self):
        with pytest.raises(ValueError, match="pattern"):
            _read(
                "%%MatrixMarket matrix coordinate pattern symmetric\n1 1 1\n1 1\n"
            )

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no banner"):
            _read("")

    def test_missing_size_line(self):
        with pytest.raises(ValueError, match="missing size line"):
            _read(f"{BANNER}\n% only comments\n")

    def test_bad_size_line(self):
        with pytest.raises(ValueError, match="size line"):
            _read(f"{BANNER}\n2 2\n")

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            _read(f"{BANNER}\n2 3 1\n1 1 1 0\n")

    def test_too_few_entries(self):
        with pytest.raises(ValueError, match="declares 2, file has 1"):
            _read(f"{BANNER}\n2 2 2\n1 1 1 0\n")

    def test_huge_declared_count_is_a_count_mismatch(self):
        # the size line's count alone sizes no allocation; the frozen
        # line reader would try 14.6 TiB
        with pytest.raises(ValueError) as err:
            _read(f"{BANNER}\n% one entry\n3 3 1000000000000\n1 1 1 0\n")
        assert str(err.value) == (
            "entry count mismatch: size line declares 1000000000000, file has 1"
        )

    def test_too_many_entries(self):
        with pytest.raises(ValueError, match="file has more"):
            _read(f"{BANNER}\n2 2 1\n1 1 1 0\n2 1 1 0\n")

    def test_out_of_bounds_index(self):
        with pytest.raises(ValueError, match="out of bounds"):
            _read(f"{BANNER}\n2 2 1\n3 1 1 0\n")

    def test_duplicate_entry_reported_one_based(self):
        with pytest.raises(ValueError, match=r"duplicate entry at \(2, 1\)"):
            _read(f"{BANNER}\n2 2 2\n2 1 1 0\n2 1 2 0\n")

    def test_upper_triangle_rejected_in_symmetric(self):
        with pytest.raises(ValueError, match="row >= col"):
            _read(f"{BANNER}\n2 2 1\n1 2 1 0\n")

    def test_diagonal_rejected_in_skew(self):
        with pytest.raises(ValueError, match="row > col"):
            _read(
                "%%MatrixMarket matrix coordinate real skew-symmetric\n"
                "2 2 1\n1 1 1.0\n"
            )

    def test_complex_entry_needs_two_values(self):
        with pytest.raises(ValueError, match="two values"):
            _read(f"{BANNER}\n1 1 1\n1 1 1.0\n")

    def test_bad_numeric_token(self):
        with pytest.raises(ValueError, match="bad numeric token"):
            _read(f"{BANNER}\n1 1 1\n1 1 abc 0\n")

    def test_order_beyond_the_sort_key_refused(self):
        # indices in range, but row * n + col would overflow int64
        big = 10**20
        with pytest.raises(ValueError, match=f"^matrix order {big} exceeds"):
            _read(f"{COORD} real general\n{big} {big} 2\n1 1 1\n2 1 2\n")

    def test_entry_numpy_cannot_read_names_its_line(self):
        # with an order beyond int64, an index beyond int64 passes the
        # line scan's int() but not numpy's reader
        big = 10**20
        with pytest.raises(ValueError, match=r"^line 3: entries do not parse"):
            _read(f"{COORD} real general\n{big} {big} 1\n{big - 1} 1 1\n")


def _outcome(read, source):
    """What a reader makes of source: the matrix bits, or the error."""
    try:
        header, m = read(source)
    except Exception as e:  # raw int() and numpy errors are outcomes too
        return type(e), str(e)
    return (
        (header.object, header.format, header.field, header.symmetry),
        [(a.dtype, a.shape, a.tobytes()) for a in (m.row_ptr, m.col_idx, m.values)],
    )


def _fault_line(data):
    """The 1-based line of the first byte outside the grammar, or None.

    Written from the grammar alone: ASCII text (tab and 0x20-0x7E) in
    lines that end at LF or CRLF, with "%" and "_" only on comment
    lines, whose first non-blank character is "%".
    """
    lines = data.split(b"\n")
    for number, line in enumerate(lines, 1):
        if number < len(lines) and line.endswith(b"\r"):
            line = line[:-1]
        comment = line.lstrip(b" \t").startswith(b"%")
        for byte in line:
            if not (byte == 0x09 or 0x20 <= byte <= 0x7E):
                return number
            if byte in b"%_" and not comment:
                return number
    return None


def _check_against_reference(source, data):
    """Inside the grammar, the reader does what the frozen line reader
    does; outside it, it raises naming the line of the first fault."""
    line = _fault_line(data)
    if line is None:
        assert _outcome(read_matrix_market, source()) == _outcome(
            reference_read, source()
        ), data
    else:
        with pytest.raises(ValueError, match=rf"^line {line}: "):
            read_matrix_market(source())


COORD = "%%MatrixMarket matrix coordinate"
ARRAY = "%%MatrixMarket matrix array"
LINE_READER_CASES = {
    "fortran-exponents": f"{BANNER}\n2 2 2\n1 1 1.5D+03 -2.5d-01\n2 1 1d0 0D0\n",
    "d-in-index": f"{BANNER}\n2 2 1\n2d0 1 1 0\n",
    "tabs": f"{BANNER}\n2 2 2\n1\t1\t1.0\t0.0\n\t2 1 0.5\t\t-1 \n",
    "crlf": f"{BANNER}\r\n% c\r\n2 2 2\r\n1 1 1 0\r\n2 1 0 1\r\n",
    "lone-cr": f"{BANNER}\r2 2 2\r1 1 1 0\r2 1 0 1\r",
    "form-feed-line-break": f"{BANNER}\n2 2 2\n1 1 1 0\x0c2 1 0 1\n",
    "comments-and-blanks-between-entries": (
        f"{BANNER}\n2 2 2\n\n% c\n1 1 1 0\n  \t\n  % c\n2 1 0 1\n% end\n"
    ),
    "percent-after-values": f"{BANNER}\n2 2 2\n1 1 1 0 % c\n2 1 0 1\n",
    "percent-in-value": f"{BANNER}\n1 1 1\n1 1 1%0 0\n",
    "plus-index": f"{BANNER}\n2 2 2\n+1 1 1 0\n2 +1 0 1\n",
    "float-index": f"{BANNER}\n2 2 2\n1.0 1 1 0\n2 1 0 1\n",
    "underscore-digits": f"{BANNER}\n2 2 2\n1 1 1_0.5 0\n2 1 0 1_0\n",
    "special-values": f"{BANNER}\n2 2 2\n1 1 nan -inf\n2 1 Infinity 1e400\n",
    "bad-numeric-token": f"{BANNER}\n1 1 1\n1 1 abc 0\n",
    "missing-value": f"{BANNER}\n2 2 2\n1 1 1.0\n2 1 0 1\n",
    "extra-value": f"{BANNER}\n2 2 2\n1 1 1 0\n2 1 0 1 2\n",
    "missing-index": f"{BANNER}\n1 1 1\n1\n",
    "out-of-range": f"{BANNER}\n2 2 2\n1 1 1 0\n3 1 0 1\n",
    "upper-triangle": f"{BANNER}\n2 2 2\n1 1 1 0\n1 2 0 1\n",
    "skew-diagonal": f"{COORD} real skew-symmetric\n2 2 1\n1 1 3\n",
    "duplicate": f"{BANNER}\n2 2 3\n2 1 1 0\n1 1 1 0\n2 1 2 0\n",
    # the smallest stored duplicate is (2, 2), though the mirror image
    # (1, 3) of the other duplicate sorts first in full storage
    "duplicates-off-and-on-the-diagonal": (
        f"{BANNER}\n3 3 4\n3 1 1 0\n2 2 1 0\n3 1 2 0\n2 2 2 0\n"
    ),
    "too-few": f"{BANNER}\n2 2 3\n1 1 1 0\n2 1 0 1\n",
    "too-many": f"{BANNER}\n2 2 1\n1 1 1 0\n2 1 bad\n",
    "negative-count": f"{BANNER}\n2 2 -1\n",
    "negative-order": f"{COORD} real general\n-2 -2 1\n1 1 1\n",
    "index-beyond-int64": f"{BANNER}\n2 2 1\n99999999999999999999 1 1 0\n",
    "order-beyond-int64": f"{COORD} real general\n{10**20} {10**20} 2\n1 1 1\n2 1 2\n",
    "no-entries": f"{BANNER}\n3 3 0\n% nothing\n",
    "integer-field": f"{COORD} integer general\n2 2 3\n1 2 7\n2 1 -3\n2 2 4.5\n",
    "hermitian": f"{COORD} complex hermitian\n2 2 2\n1 1 1 0\n2 1 1 2\n",
    "array-general": f"{ARRAY} complex general\n2 2\n1 0\n2 1\n3 0\n4 -1\n",
    "array-symmetric": f"{ARRAY} real symmetric\n3 3\n1\n2\n3\n4\n5\n6\n",
    "array-hermitian": f"{ARRAY} complex hermitian\n2 2\n1 0\n2 1\n3 0\n",
    # k = 1: three values below the diagonal of a 3 x 3 array; no part is
    # zero, whose mirror image's sign the line reader does not keep
    "array-skew-symmetric": f"{ARRAY} complex skew-symmetric\n3 3\n1 4\n2 -5\n3 6\n",
    "array-skew-symmetric-too-many": f"{ARRAY} real skew-symmetric\n3 3\n1\n2\n3\n4\n",
    "array-negative-order": f"{ARRAY} real general\n-1 -1\n1\n",
    "array-too-many": f"{ARRAY} real general\n1 1\n1\n2\n",
    "array-two-values-in-real": f"{ARRAY} real general\n1 1\n1 2\n",
}
TEXT_BEYOND_LATIN1 = f"{BANNER}\n% \u4e2d\n1 1 1\n\u0661 1 2.\u0665 0\n"
# every input above that the grammar rejects, with the line it names
OUTSIDE_GRAMMAR = {
    "lone-cr": 1,
    "form-feed-line-break": 3,
    "percent-after-values": 3,
    "percent-in-value": 3,
    "underscore-digits": 3,
    "text-beyond-latin1": 2,
}


class TestAgainstLineReader:
    """The reader against the frozen line-by-line reader in mm_reference."""

    def test_outside_grammar_table(self):
        cases = {**LINE_READER_CASES, "text-beyond-latin1": TEXT_BEYOND_LATIN1}
        lines = {name: _fault_line(text.encode()) for name, text in cases.items()}
        assert {k: v for k, v in lines.items() if v is not None} == OUTSIDE_GRAMMAR

    @pytest.mark.parametrize("text", LINE_READER_CASES.values(), ids=LINE_READER_CASES)
    def test_same_outcome(self, text):
        data = text.encode()
        _check_against_reference(lambda: data, data)

    @pytest.mark.parametrize(
        "text",
        [
            f"{BANNER}\n2 2 2\n1 1 1.5 -2\n% c\n2 1 0 1\n",
            f"{ARRAY} real symmetric\n2 2\n1\n2\n3\n",
            f"{BANNER}\r\n2 2 2\r\n1 1 1.5 -2\r\n% c\r\n2 1 0 1\r\n",
        ],
        ids=["coordinate", "array", "crlf"],
    )
    def test_every_byte_anywhere_in_the_entries(self, text):
        # loadtxt and str.splitlines/split disagree on some line breaks,
        # separators and comment marks, which the grammar leaves out: try
        # every byte everywhere, each either read as the line reader reads
        # it or rejected at its line
        data = text.encode()
        after_size_line = data.index(b"\n", data.index(b"\n") + 1) + 1
        for pos in range(after_size_line, len(data) + 1):
            for byte in range(256):
                mutated = data[:pos] + bytes([byte]) + data[pos:]
                _check_against_reference(lambda: mutated, mutated)

    def test_text_source_beyond_latin1(self):
        _check_against_reference(
            lambda: io.StringIO(TEXT_BEYOND_LATIN1),
            TEXT_BEYOND_LATIN1.encode(),
        )


class TestArrayRead:
    def test_general_column_major(self):
        text = (
            "%%MatrixMarket matrix array complex general\n"
            "2 2\n1 0\n2 0\n3 0\n4 0\n"
        )
        _, m = _read(text)
        np.testing.assert_array_equal(m.to_dense(), [[1, 3], [2, 4]])

    def test_symmetric_lower_packed(self):
        text = (
            "%%MatrixMarket matrix array complex symmetric\n"
            "2 2\n1 1\n2 0\n3 0\n"
        )
        _, m = _read(text)
        np.testing.assert_array_equal(
            m.to_dense(), np.array([[1 + 1j, 2], [2, 3]])
        )
        assert m.is_symmetric

    def test_hermitian_mirrors_conjugate(self):
        text = (
            "%%MatrixMarket matrix array complex hermitian\n"
            "2 2\n1 0\n2 1\n3 0\n"
        )
        _, m = _read(text)
        np.testing.assert_array_equal(
            m.to_dense(), np.array([[1, 2 - 1j], [2 + 1j, 3]])
        )

    def test_skew_symmetric(self):
        text = "%%MatrixMarket matrix array real skew-symmetric\n2 2\n5\n"
        _, m = _read(text)
        np.testing.assert_array_equal(m.to_dense(), [[0, -5.0], [5.0, 0]])

    @pytest.mark.parametrize(
        ("array", "coordinate"),
        [
            (
                f"{ARRAY} real symmetric\n2 2\n1e308\n2\n3\n",
                f"{COORD} real symmetric\n2 2 3\n1 1 1e308\n2 1 2\n2 2 3\n",
            ),
            (
                f"{ARRAY} real symmetric\n2 2\ninf\n2\n3\n",
                f"{COORD} real symmetric\n2 2 3\n1 1 inf\n2 1 2\n2 2 3\n",
            ),
            (
                f"{ARRAY} complex hermitian\n2 2\n1 5\n2 1\n3 0\n",
                f"{COORD} complex hermitian\n2 2 3\n1 1 1 5\n2 1 2 1\n2 2 3 0\n",
            ),
            (
                f"{ARRAY} complex symmetric\n2 2\n-0 1\n2 -0\n3 -0\n",
                f"{COORD} complex symmetric\n2 2 3\n1 1 -0 1\n2 1 2 -0\n2 2 3 -0\n",
            ),
            (
                f"{ARRAY} integer skew-symmetric\n3 3\n1\n2\n3\n",
                f"{COORD} integer skew-symmetric\n3 3 3\n2 1 1\n3 1 2\n3 2 3\n",
            ),
        ],
        ids=[
            "symmetric-1e308-diagonal",
            "symmetric-inf-diagonal",
            "hermitian-complex-diagonal",
            "symmetric-negative-zeros",
            "skew-symmetric",
        ],
    )
    def test_reads_as_the_coordinate_file(self, array, coordinate):
        # one mirror step for both formats: the diagonal is stored once
        # and never summed with its mirror, and signed zeros survive
        _, csr = _outcome(read_matrix_market, coordinate.encode())
        assert _outcome(read_matrix_market, array.encode())[1] == csr

    def test_wrong_value_count(self):
        with pytest.raises(ValueError, match="needs 4 values"):
            _read("%%MatrixMarket matrix array complex general\n2 2\n1 0\n2 0\n")

    def test_array_size_line_two_tokens(self):
        with pytest.raises(ValueError, match="rows cols"):
            _read("%%MatrixMarket matrix array complex general\n2 2 4\n")


class TestWriter:
    def test_refuses_non_symmetric(self):
        from cskrylov.core_la import ComplexSymmetricMatrix

        m = ComplexSymmetricMatrix.from_dense([[1, 2], [0, 1]])
        with pytest.raises(ValueError, match="refusing to write"):
            write_matrix_market(m, io.StringIO())

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("built_from", ["csr", "dense"])
    def test_refuses_non_finite(self, built_from, bad):
        # a NaN must not read as asymmetry, and an Inf must not be written
        from cskrylov.core_la import ComplexSymmetricMatrix

        if built_from == "csr":
            m = ComplexSymmetricMatrix.from_coo(2, [0, 1], [0, 1], [bad, 1.0])
        else:
            m = ComplexSymmetricMatrix.from_dense([[bad, 0.0], [0.0, 1.0]])
        buf = io.StringIO()
        with pytest.raises(ValueError, match=r"non-finite entries \(NaN or Inf\)"):
            write_matrix_market(m, buf)
        assert buf.getvalue() == ""

    def test_exact_output_layout(self):
        _, m = _read(f"{BANNER}\n2 2 2\n1 1 1.0 0.0\n2 1 0.0 1.0\n")
        buf = io.StringIO()
        write_matrix_market(m, buf, comments=("generated for tests", ""))
        lines = buf.getvalue().splitlines()
        assert lines[0] == BANNER
        assert lines[1] == "% generated for tests"
        assert lines[2] == "%"
        assert lines[3] == "2 2 2"
        assert lines[4] == "1 1 1 0"
        assert lines[5] == "2 1 0 1"

    @pytest.mark.parametrize(
        "comment,byte",
        [("two\nlines", "0x0a"), ("caf\u00e9", "0xc3")],
        ids=["lf", "utf8"],
    )
    def test_refuses_comments_the_reader_rejects(self, comment, byte):
        # a line end would split the comment, and a non-ASCII byte is not
        # Matrix Market text: either file would fail its own read
        _, m = _read(f"{BANNER}\n1 1 1\n1 1 0.5 -0.5\n")
        buf = io.StringIO()
        with pytest.raises(ValueError, match=f"comment holds byte {byte}, not tab"):
            write_matrix_market(m, buf, comments=("fine", comment))
        assert buf.getvalue() == ""

    def test_round_trip_generated_csr(self):
        m, _ = gen_problem(ProblemSpec(n=50, p=1, kind="diagdominant", seed=12))
        buf = io.StringIO()
        write_matrix_market(m, buf)
        _, m2 = read_matrix_market(buf.getvalue().encode())
        np.testing.assert_array_equal(m.to_dense(), m2.to_dense())

    def test_round_trip_dense_storage(self):
        text = (
            "%%MatrixMarket matrix array complex symmetric\n"
            "2 2\n1.25 -0.5\n0.125 3.0\n-7.5 0.0\n"
        )
        _, m = _read(text)
        buf = io.StringIO()
        write_matrix_market(m, buf)
        _, m2 = read_matrix_market(buf.getvalue().encode())
        np.testing.assert_array_equal(m.to_dense(), m2.to_dense())

    def test_round_trip_empty(self):
        _, m = _read(f"{BANNER}\n3 3 0\n")
        buf = io.StringIO()
        write_matrix_market(m, buf)
        _, m2 = read_matrix_market(buf.getvalue().encode())
        assert m2.n == 3 and m2.nnz == 0

    def test_path_destinations(self, tmp_path):
        _, m = _read(f"{BANNER}\n1 1 1\n1 1 0.5 -0.5\n")
        dest = tmp_path / "tiny.mtx"
        write_matrix_market(m, dest)
        _, m2 = read_matrix_market(dest)
        np.testing.assert_array_equal(m.to_dense(), m2.to_dense())

    def test_seventeen_digit_values_survive(self):
        from cskrylov.core_la import ComplexSymmetricMatrix

        v = 1.0 / 3.0 + (2.0 / 7.0) * 1j
        m = ComplexSymmetricMatrix.from_coo(1, [0], [0], [v])
        buf = io.StringIO()
        write_matrix_market(m, buf)
        _, m2 = read_matrix_market(buf.getvalue().encode())
        assert m2.to_dense()[0, 0] == v


class TestSourceKinds:
    def test_bytes_str_path_and_file_objects(self, tmp_path):
        text = f"{BANNER}\n1 1 1\n1 1 2.0 0.0\n"
        path = tmp_path / "a.mtx"
        path.write_text(text)
        for source in (
            text.encode(),
            str(path),
            path,
            io.StringIO(text),
            io.BytesIO(text.encode()),
        ):
            _, m = read_matrix_market(source)
            assert m.to_dense()[0, 0] == 2.0


class TestBundledMatrix:
    def test_acoustic_fixture_facts(self, young1c):
        assert young1c.n == 841
        assert young1c.nnz == 4089
        assert young1c.is_symmetric
        d = young1c.to_dense()
        # complex symmetric but NOT hermitian
        assert not np.array_equal(d, np.conj(d.T))
        assert np.count_nonzero(young1c.values.imag) > 0

    def test_acoustic_fixture_round_trips(self, young1c):
        buf = io.StringIO()
        write_matrix_market(young1c, buf)
        _, m2 = read_matrix_market(buf.getvalue().encode())
        np.testing.assert_array_equal(young1c.to_dense(), m2.to_dense())

    def test_array_file_reads_and_solves_as_the_coordinate_file(self, young1c):
        # array symmetric storage: the lower triangle, down each column,
        # with every structural zero written out
        d = young1c.to_dense()
        vals = np.concatenate([d[j:, j] for j in range(young1c.n)])
        cells = np.column_stack((vals.real, vals.imag)).ravel().tolist()
        body = ("%.17g %.17g\n" * len(vals)) % tuple(cells)
        text = (
            "%%MatrixMarket matrix array complex symmetric\n"
            f"{young1c.n} {young1c.n}\n{body}"
        )
        _, m = read_matrix_market(text.encode())
        for name in ("row_ptr", "col_idx", "values"):
            np.testing.assert_array_equal(getattr(m, name), getattr(young1c, name))
        b = gen_rhs(young1c.n, 4, seed=0)
        for name, solve in SOLVERS.items():
            want, got = solve(young1c, b), solve(m, b)
            assert (got.iterations, got.status) == (want.iterations, want.status), name
            assert np.array_equal(got.history, want.history), name
            assert np.array_equal(got.x, want.x), name
