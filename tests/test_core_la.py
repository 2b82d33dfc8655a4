"""Core linear algebra: matrix storage, Gram products, QR, small solves."""

import ctypes
import hashlib
import math
import re
import types

import coo_reference
import numpy as np
import pytest
import qr_reference
from conftest import every_operator_wide, require_fixture

from cskrylov import core_la, solvers
from cskrylov.core_la import (
    BreakdownError,
    ComplexSymmetricMatrix,
    axpy_block,
    block_matvec,
    fro_norm,
    solve_small,
    t_gram,
    thin_qr,
)
from cskrylov.mm_io import read_matrix_market
from cskrylov.oracle import KINDS, ProblemSpec, gen_problem


def _rand_block(n, p, seed):
    rng = np.random.default_rng(seed)
    return np.asfortranarray(
        rng.uniform(-1, 1, (n, p)) + 1j * rng.uniform(-1, 1, (n, p))
    )


class TestComplexSymmetricMatrix:
    def test_from_coo_builds_expected_dense(self):
        m = ComplexSymmetricMatrix.from_coo(
            3, [0, 1, 1, 0], [0, 1, 0, 1], [1.0, 2.0, 3j, 3j]
        )
        expected = np.array([[1, 3j, 0], [3j, 2, 0], [0, 0, 0]], dtype=complex)
        assert m.nnz == 4
        np.testing.assert_array_equal(m.to_dense(), expected)

    def test_from_coo_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate entry"):
            ComplexSymmetricMatrix.from_coo(2, [0, 0], [1, 1], [1.0, 2.0])

    def test_constructor_names_a_repeated_column_as_a_duplicate(self):
        # from_coo leaves duplicates to this check: the first pair out of
        # order names the smallest duplicate of sorted storage
        csr = dict(row_ptr=[0, 1, 4, 5], values=[1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(ValueError, match=r"^duplicate entry at \(1, 2\)$"):
            ComplexSymmetricMatrix(3, col_idx=[0, 0, 2, 2, 1], **csr)
        with pytest.raises(ValueError, match="increase strictly within row 1"):
            ComplexSymmetricMatrix(3, col_idx=[0, 2, 0, 2, 1], **csr)

    def test_from_coo_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ComplexSymmetricMatrix.from_coo(2, [0, 2], [0, 0], [1.0, 1.0])

    def test_from_coo_empty_matrix(self):
        m = ComplexSymmetricMatrix.from_coo(3, [], [], [])
        assert m.nnz == 0
        np.testing.assert_array_equal(m.to_dense(), np.zeros((3, 3)))

    def test_csr_validation(self):
        with pytest.raises(ValueError, match="length n \\+ 1"):
            ComplexSymmetricMatrix(2, row_ptr=[0, 1], col_idx=[0], values=[1.0])
        with pytest.raises(ValueError, match="increase strictly"):
            ComplexSymmetricMatrix(
                2, row_ptr=[0, 2, 2], col_idx=[1, 0], values=[1.0, 2.0]
            )
        with pytest.raises(ValueError, match="column index out of range"):
            ComplexSymmetricMatrix(2, row_ptr=[0, 1, 1], col_idx=[5], values=[1.0])
        with pytest.raises(ValueError, match="inconsistent"):
            ComplexSymmetricMatrix(2, row_ptr=[0, 1, 3], col_idx=[0, 1], values=[1, 1])
        with pytest.raises(ValueError, match="row_ptr must be nondecreasing"):
            ComplexSymmetricMatrix(3, row_ptr=[0, 2, 1, 2], col_idx=[0, 1], values=[1, 1])

    def test_from_dense_rejects_a_non_square_array(self):
        with pytest.raises(ValueError, match=r"must be square, got \(2, 3\)"):
            ComplexSymmetricMatrix.from_dense(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "row_ptr,col_idx,row",
        [
            # rows 1 (decreasing) and 3 (repeated column) are bad; row 2 is empty
            ([0, 1, 3, 3, 5], [2, 3, 1, 2, 2], 1),
            # empty row 0, ordered row 1, then a bad last row
            ([0, 0, 2, 4, 4], [0, 1, 3, 2], 2),
        ],
    )
    def test_column_order_error_names_first_bad_row(self, row_ptr, col_idx, row):
        with pytest.raises(
            ValueError, match=f"column indices must increase strictly within row {row}$"
        ):
            ComplexSymmetricMatrix(
                4, row_ptr=row_ptr, col_idx=col_idx, values=np.ones(len(col_idx))
            )

    def test_column_index_may_drop_across_rows(self):
        # 2 -> 0 across rows 0 and 2, with the empty row 1 between them
        m = ComplexSymmetricMatrix(
            3, row_ptr=[0, 2, 2, 4], col_idx=[1, 2, 0, 2], values=[1, 2, 3, 4]
        )
        expected = np.array([[0, 1, 2], [0, 0, 0], [3, 0, 4]], dtype=complex)
        np.testing.assert_array_equal(m.to_dense(), expected)

    def test_is_symmetric_exact(self):
        sym = ComplexSymmetricMatrix.from_dense([[1, 2j], [2j, 3]])
        assert sym.is_symmetric
        asym = ComplexSymmetricMatrix.from_dense([[1, 2j], [2.0000001j, 3]])
        assert not asym.is_symmetric

    def test_is_symmetric_ignores_stored_zeros(self):
        # explicit zero at (0, 1) with nothing stored at (1, 0) is still symmetric
        m = ComplexSymmetricMatrix.from_coo(2, [0, 0], [0, 1], [1.0, 0.0])
        assert m.is_symmetric

    def test_is_symmetric_csr_pattern_mismatch(self):
        m = ComplexSymmetricMatrix.from_coo(2, [0], [1], [1.0])
        assert not m.is_symmetric

    @pytest.mark.parametrize(
        "rows,cols",
        [([1.5], [0]), ([1], [0.7]), ([1.0], [0]), ([True], [0])],
        ids=["float-row", "float-col", "integral-float", "bool"],
    )
    def test_from_coo_refuses_non_integer_indices(self, rows, cols):
        with pytest.raises(ValueError, match="must hold integers"):
            ComplexSymmetricMatrix.from_coo(3, rows, cols, [1.0])

    @pytest.mark.parametrize(
        "row_ptr,col_idx",
        [([0, 1, 1], [0.9]), ([0.0, 1.0, 1.0], [0]), ([0, 1, 1], [False])],
        ids=["float-col_idx", "float-row_ptr", "bool-col_idx"],
    )
    def test_csr_refuses_non_integer_indices(self, row_ptr, col_idx):
        with pytest.raises(ValueError, match="must hold integers"):
            ComplexSymmetricMatrix(2, row_ptr=row_ptr, col_idx=col_idx, values=[2.0])

    def test_csr_with_no_entries_from_empty_lists(self):
        m = ComplexSymmetricMatrix(2, row_ptr=[0, 0, 0], col_idx=[], values=[])
        assert m.nnz == 0 and m.col_idx.dtype == np.int64

    def test_order_limit_is_the_largest_whose_key_fits_int64(self):
        n = core_la._MAX_ORDER
        assert n * n - 1 <= np.iinfo(np.int64).max < (n + 1) * (n + 1) - 1

    @pytest.mark.parametrize(
        "n",
        [2.5, 2.0, np.float64(2.0), "2", True, False],
        ids=["2.5", "2.0", "float64", "str", "True", "False"],
    )
    def test_non_integer_order_refused(self, n):
        message = f"^{re.escape(f'matrix order must be an integer, got {n!r}')}$"
        with pytest.raises(ValueError, match=message):
            ComplexSymmetricMatrix(n, row_ptr=[0, 1, 2], col_idx=[0, 1], values=[1, 2])
        with pytest.raises(ValueError, match=message):
            ComplexSymmetricMatrix.from_coo(n, [0, 1], [0, 1], [1.0, 2.0])

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one_refused(self, n):
        with pytest.raises(ValueError, match="^matrix order must be >= 1$"):
            ComplexSymmetricMatrix(n, row_ptr=[0], col_idx=[], values=[])
        with pytest.raises(ValueError, match="^matrix order must be >= 1$"):
            ComplexSymmetricMatrix.from_coo(n, [], [], [])

    @pytest.mark.parametrize("n", [np.int64(2), np.uint8(2), 2])
    def test_integer_order_of_any_type_taken(self, n):
        for m in (
            ComplexSymmetricMatrix(n, row_ptr=[0, 1, 2], col_idx=[0, 1], values=[1, 2]),
            ComplexSymmetricMatrix.from_coo(n, [0, 1], [0, 1], [1.0, 2.0]),
        ):
            assert m.n == 2 and type(m.n) is int
            np.testing.assert_array_equal(m.to_dense(), np.diag([1.0, 2.0]))

    @pytest.mark.parametrize("n", [core_la._MAX_ORDER + 1, 10**20])
    def test_order_beyond_the_key_refused(self, n):
        with pytest.raises(ValueError, match=f"^matrix order {n} exceeds"):
            ComplexSymmetricMatrix.from_coo(n, [0, 1], [0, 0], [1.0, 2.0])
        with pytest.raises(ValueError, match=f"^matrix order {n} exceeds"):
            ComplexSymmetricMatrix(n, row_ptr=[0, 1], col_idx=[0], values=[1.0])

    def test_matvec_csr_matches_dense(self):
        rng = np.random.default_rng(5)
        n = 12
        d = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        d[np.abs(d) < 0.9] = 0.0
        rows, cols = np.nonzero(d)
        m_csr = ComplexSymmetricMatrix.from_coo(n, rows, cols, d[rows, cols])
        m_dense = ComplexSymmetricMatrix.from_dense(d)
        # from_dense stores the array's nonzeros as from_coo would
        for name in ("row_ptr", "col_idx", "values"):
            np.testing.assert_array_equal(getattr(m_dense, name), getattr(m_csr, name))
        v = _rand_block(n, 3, 7)
        y_csr = m_csr.matvec(v)
        y_dense = m_dense.matvec(v)
        assert y_csr.flags.c_contiguous
        np.testing.assert_allclose(y_csr, d @ v, rtol=0, atol=1e-13)
        np.testing.assert_allclose(y_dense, d @ v, rtol=0, atol=1e-13)

    def test_matvec_handles_empty_rows(self):
        # rows 0 and 2 store nothing; reductions must not bleed across rows
        v = np.asfortranarray(np.arange(1, 9, dtype=np.complex128).reshape(4, 2))
        m = ComplexSymmetricMatrix(
            4, row_ptr=[0, 0, 2, 2, 3], col_idx=[0, 3, 1], values=[2.0, 1j, -1.0]
        )
        dense = np.zeros((4, 4), dtype=np.complex128)
        dense[1, 0], dense[1, 3], dense[3, 1] = 2.0, 1j, -1.0
        np.testing.assert_array_equal(m.matvec(v), dense @ v)
        # a matrix that stores nothing at all maps every block to zero
        empty = ComplexSymmetricMatrix(4, row_ptr=[0] * 5, col_idx=[], values=[])
        np.testing.assert_array_equal(empty.matvec(v), np.zeros((4, 2)))

    def test_matvec_dimension_mismatch(self):
        m = ComplexSymmetricMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            m.matvec(np.ones((2, 1), dtype=complex))

    @pytest.mark.parametrize("p", [1, 2, 8, 32])
    @pytest.mark.parametrize("layout", ["F", "C", "strided"])
    @pytest.mark.parametrize(
        "pattern", ["random", "empty-rows", "nothing-stored"]
    )
    def test_matvec_is_scipys_product_bit_for_bit(self, p, layout, pattern):
        import scipy.sparse

        n = 50
        rng = np.random.default_rng(p)
        d = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        d[np.abs(d) < 1.0] = 0.0
        if pattern == "empty-rows":
            d[::3] = 0.0
        elif pattern == "nothing-stored":
            d[:] = 0.0
        m = ComplexSymmetricMatrix.from_dense(d)
        v = _rand_block(n, 2 * p, p + 100)
        if layout == "C":
            v = np.ascontiguousarray(v[:, :p])
        elif layout == "strided":
            v = v[:, ::2]
        else:
            v = np.asfortranarray(v[:, :p])
        expected = scipy.sparse.csr_array(
            (m.values, m.col_idx, m.row_ptr), shape=(n, n)
        ) @ v
        out = m.matvec(v)
        # one layout contract: every block gives a row-major result
        assert out.flags.c_contiguous and out.shape == (n, p)
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_matvec_of_a_row_major_block_keeps_the_fortran_bits(self, p):
        # the multi-vector kernel sums each entry in the order of the
        # one-vector kernel, so both layouts of v give the same bytes
        m = ComplexSymmetricMatrix.from_dense(_dense_pattern(50, "random", seed=p))
        v = _rand_block(50, p, p)
        out = m.matvec(np.ascontiguousarray(v))
        assert out.flags.c_contiguous and m.matvec(v).flags.c_contiguous
        assert out.tobytes() == m.matvec(v).tobytes()
        columns = np.column_stack([m.matvec(v[:, j : j + 1]) for j in range(p)])
        assert out.tobytes() == columns.tobytes()

    def test_block_matvec_delegates(self):
        m = ComplexSymmetricMatrix.from_dense(2 * np.eye(2))
        v = np.ones((2, 2), dtype=complex, order="F")
        np.testing.assert_array_equal(block_matvec(m, v), 2 * v)

    def test_repr(self):
        m = ComplexSymmetricMatrix.from_coo(2, [0], [0], [1.0])
        assert "csr" in repr(m) and "nnz=1" in repr(m)


def _coo_cases():
    """Seeded coordinate inputs, name -> ((n, rows, cols, values), verdict).

    The verdict is the expected symmetry, or "duplicate" where from_coo
    must refuse the input.
    """
    rng = np.random.default_rng(13)

    def shuffled(n, rows, cols, vals):
        perm = rng.permutation(len(rows))
        return n, np.asarray(rows)[perm], np.asarray(cols)[perm], np.asarray(vals)[perm]

    def symmetric(n, draws):
        # the lower triangle of `draws` random positions, mirrored
        i, j = np.divmod(np.unique(rng.integers(0, n * n, draws)), n)
        i, j = i[i >= j], j[i >= j]
        v = rng.uniform(-1, 1, i.size) + 1j * rng.uniform(-1, 1, i.size)
        off = i != j
        return (
            np.concatenate([i, j[off]]),
            np.concatenate([j, i[off]]),
            np.concatenate([v, v[off]]),
        )

    def with_entries(base, extra):
        return tuple(np.concatenate([b, e]) for b, e in zip(base, extra))

    cases = {}
    small = symmetric(40, 480)
    rows, cols, vals = small
    off = np.flatnonzero(rows != cols)
    stored = set(zip(rows, cols))
    absent = [(i, j) for i in range(40) for j in range(i) if (i, j) not in stored]
    cases["symmetric"] = (shuffled(40, *small), True)
    lower_doubled = vals * (1 + (rows > cols))
    cases["nonsymmetric"] = (shuffled(40, rows, cols, lower_doubled), False)
    pick = rng.choice(len(rows), 3, replace=False)
    cases["duplicates"] = (
        shuffled(40, *with_entries(small, (rows[pick], cols[pick], 2 * vals[pick]))),
        "duplicate",
    )
    (i, j), (i2, j2) = absent[:2]
    cases["one-sided-zeros"] = (
        shuffled(40, *with_entries(small, ([i, j2], [j, i2], [0.0, 0.0]))),
        True,
    )
    cases["zero-against-nonzero"] = (
        shuffled(40, *with_entries(small, ([i, j], [j, i], [0.0, 1j]))),
        False,
    )
    perturbed = vals.copy()
    perturbed[off[0]] += np.spacing(perturbed[off[0]].real)
    cases["perturbed-mirror-value"] = (shuffled(40, rows, cols, perturbed), False)
    drop = np.ones(len(rows), dtype=bool)
    drop[off[1]] = False
    cases["asymmetric-pattern"] = (
        shuffled(40, rows[drop], cols[drop], vals[drop]),
        False,
    )
    nan = vals.copy()
    nan[np.flatnonzero(rows == cols)[0]] = np.nan
    cases["nan-diagonal"] = (shuffled(40, rows, cols, nan), False)
    large = symmetric(3000, 30_000)
    cases["large-symmetric"] = (shuffled(3000, *large), True)
    pick = rng.choice(len(large[0]), 50, replace=False)
    cases["large-duplicates"] = (
        shuffled(3000, *with_entries(large, tuple(a[pick] for a in large))),
        "duplicate",
    )
    cases["n=1"] = ((1, [0], [0], [2 - 1j]), True)
    cases["n=1-empty"] = ((1, [], [], []), True)
    cases["nnz=0"] = ((7, [], [], []), True)
    return cases


COO_CASES = _coo_cases()


def _outcome(build, check, n, rows, cols, vals):
    """CSR bits and symmetry verdict of one input, or the error message."""
    try:
        row_ptr, col_idx, values = build(n, rows, cols, vals)
    except ValueError as e:
        return str(e)
    arrays = [(a.dtype, a.tobytes()) for a in (row_ptr, col_idx, values)]
    return arrays, check(n, row_ptr, col_idx, values)


def _live_build(n, rows, cols, vals):
    m = ComplexSymmetricMatrix.from_coo(n, rows, cols, vals)
    return m.row_ptr, m.col_idx, m.values


def _live_check(n, row_ptr, col_idx, values):
    return ComplexSymmetricMatrix(
        n, row_ptr=row_ptr, col_idx=col_idx, values=values
    ).is_symmetric


class TestAgainstLexsortReference:
    """The int64-key sorts against the frozen lexsort ones in coo_reference."""

    @pytest.mark.parametrize("case", COO_CASES.values(), ids=COO_CASES)
    def test_same_csr_bits_and_verdict(self, case):
        args, verdict = case
        live = _outcome(_live_build, _live_check, *args)
        assert live == _outcome(
            coo_reference.csr_from_coo, coo_reference.is_symmetric, *args
        )
        if verdict == "duplicate":
            assert live.startswith("duplicate entry at (")
        else:
            assert live[1] is verdict

    @pytest.mark.parametrize(
        "args",
        [
            (3, [0, 3], [0, 0], [1.0, 1.0]),
            (3, [0, -1], [0, 0], [1.0, 1.0]),
            (3, [0, 1], [0], [1.0, 1.0]),
            (0, [], [], []),
        ],
        ids=["index-too-large", "negative-index", "shape-mismatch", "order-zero"],
    )
    def test_same_error(self, args):
        assert _outcome(_live_build, _live_check, *args) == _outcome(
            coo_reference.csr_from_coo, coo_reference.is_symmetric, *args
        )


# value tokens (real and imaginary part) placed first in a file's lower
# triangle: explicit zeros of both signs, infinities, and NaN on and off
# the diagonal, which the stated verdict must read as the check does
_MM_PALETTES = {
    "plain": ("1 2", "3 -4", "5 6"),
    "zeros": ("0 0", "2 1", "-0 -0", "3 0", "-0 5"),
    "inf": ("inf 0", "1 1", "2 -inf", "-inf inf"),
    "nan-diagonal": ("nan 0", "1 1"),
    "nan-off-diagonal": ("1 1", "nan 0", "2 2", "3 nan"),
}
_MM_SYMMETRIES = ("general", "symmetric", "skew-symmetric", "hermitian")


def _mm_file(fmt, field, symmetry, palette, n=3):
    """A Matrix Market file of order n holding every position its storage
    keeps. Position (i, j) and its mirror carry the same token: the
    palette's, in the row-major order of the lower triangle, then
    nonzero fillers; a real file takes the real part."""
    lower = [(i, j) for i in range(n) for j in range(i + 1)]
    tokens = list(palette) + [f"{t + 1} {t - 2}" for t in range(len(lower))]
    k = 1 if symmetry == "skew-symmetric" else 0
    # array files run down columns
    cells = [(i, j) for i in range(n) for j in range(n)]
    if fmt == "array":
        cells = [(i, j) for j, i in cells]
    cells = [(i, j) for i, j in cells if symmetry == "general" or i - j >= k]
    values = [tokens[lower.index((max(i, j), min(i, j)))] for i, j in cells]
    if field == "real":
        values = [v.split()[0] for v in values]
    lines = [f"%%MatrixMarket matrix {fmt} {field} {symmetry}"]
    if fmt == "coordinate":
        lines.append(f"{n} {n} {len(cells)}")
        lines += [f"{i + 1} {j + 1} {v}" for (i, j), v in zip(cells, values)]
    else:
        lines.append(f"{n} {n}")
        lines += values
    return ("\n".join(lines) + "\n").encode()


def _verdicts(m):
    """m's symmetry verdict, then those of a fresh matrix and of the
    lexsort reference on copies of its arrays."""
    row_ptr, col_idx, values = m.row_ptr.copy(), m.col_idx.copy(), m.values.copy()
    fresh = ComplexSymmetricMatrix(
        m.n, row_ptr=row_ptr, col_idx=col_idx, values=values
    )
    return (
        m.is_symmetric,
        fresh.is_symmetric,
        coo_reference.is_symmetric(m.n, row_ptr, col_idx, values),
    )


@pytest.fixture
def argsort_calls(monkeypatch):
    """The size of each array np.argsort is called on, while the test runs."""
    calls = []
    argsort = np.argsort

    def counted(a, *args, **kwargs):
        calls.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    return calls


class TestStatedVerdict:
    """Matrices built by mirroring a stored triangle state their symmetry
    verdict; it must be the verdict the sort gives."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("kind", KINDS)
    def test_generated_as_a_fresh_check(self, kind, seed):
        a, _ = gen_problem(ProblemSpec(n=40, p=2, kind=kind, density=0.2, seed=seed))
        assert _verdicts(a) == (True, True, True)

    @pytest.mark.parametrize("palette", _MM_PALETTES)
    @pytest.mark.parametrize("symmetry", _MM_SYMMETRIES)
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("fmt", ["coordinate", "array"])
    def test_read_as_a_fresh_check(self, fmt, field, symmetry, palette):
        text = _mm_file(fmt, field, symmetry, _MM_PALETTES[palette])
        _, m = read_matrix_market(text)
        verdict = _verdicts(m)
        assert verdict[1:] == verdict[:1] * 2
        same_image = symmetry in ("general", "symmetric") or (
            symmetry == "hermitian" and field == "real"
        )
        if same_image:
            # every value also sits at its mirror position; NaN never
            # equals itself
            assert verdict[0] is not palette.startswith("nan")

    @pytest.mark.parametrize("kind", KINDS)
    def test_generated_matrix_sorts_once(self, kind, argsort_calls):
        a, _ = gen_problem(ProblemSpec(n=40, p=2, kind=kind, density=0.2, seed=1))
        assert a.is_symmetric
        assert argsort_calls == [a.nnz]

    @pytest.mark.parametrize(
        "symmetry,palette,sorts",
        [
            ("symmetric", "plain", 1),
            ("symmetric", "zeros", 1),
            ("symmetric", "inf", 1),
            # NaN is unequal to itself: the check decides, and says False
            ("symmetric", "nan-diagonal", 2),
            ("symmetric", "nan-off-diagonal", 2),
            ("general", "plain", 2),
            ("skew-symmetric", "plain", 2),
            ("hermitian", "plain", 2),
        ],
    )
    @pytest.mark.parametrize("fmt", ["coordinate", "array"])
    def test_read_matrix_sorts(self, fmt, symmetry, palette, sorts, argsort_calls):
        text = _mm_file(fmt, "complex", symmetry, _MM_PALETTES[palette])
        _, m = read_matrix_market(text)
        m.is_symmetric
        assert len(argsort_calls) == sorts


# SHA-256 of the CSR arrays of the matrices the benchmark solves, so that
# no change to the assembly can change the problem the benchmark times
BENCHMARK_MATRIX_SHA256 = {
    "young1c": (
        "ed9ce20165e37d15b6ca55b3a246003d13c531e798eb4f805073e3d25cd291b8",
        "245376fb40d0a335f63850495b1b05abfebdc7e035c1e0e08e45edb31ef8e6aa",
        "a1a91a214739b1e70c02f82c1fb86008d907c441012ddecf8381c66361fe2420",
    ),
    "gen1e5-p8": (
        "717c26ef3c32d5788bfed85b3cfca96c174f801c86035ef62899f9095483dd3a",
        "e17cd2015cfdd1f9f53f2d832c4eed88a963243013039ab7a0f5dcdf19610270",
        "98b89026bb94879a8d6a0a834c9a32ec631ce86f8c8bf1e42778cc78877b0304",
    ),
}


@pytest.mark.parametrize("name", BENCHMARK_MATRIX_SHA256)
def test_benchmark_matrix_bits(name):
    if name == "young1c":
        _, m = read_matrix_market(require_fixture("young1c.mtx"))
    else:
        spec = ProblemSpec(n=100_000, p=8, kind="diagdominant", density=2e-5, seed=0)
        m, _ = gen_problem(spec)
    arrays = (m.row_ptr, m.col_idx, m.values)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
    assert digests == BENCHMARK_MATRIX_SHA256[name]


# SHA-256 and dtype of the arrays of the seed-0 gen1e5-p8 matrix's
# locality copy, so that no change to the breadth-first search or to the
# copy's build can change the operator the benchmark's solves run on
GEN1E5_COPY_SHA256 = {
    "perm": ("int64", "e4c0cfc81c4e658cc4d3fadf3d51093a936df487e01dfa0f9d4d78a2ec744c57"),
    "row_ptr": ("int64", "b9e4c02fee37c85f4227eaf794bcdafa3d0a731adb1cae37953355383c1a0534"),
    "col_idx": ("int64", "c5ea82a445181135858053cc911945e2667b6e1baf69195f7dc74d01d7dec935"),
    "values": ("complex128", "4efef6f8ba6a99ab52960644f3852b1fb0530dd1dfc8fb095da9964cb0ea1a6d"),
}


def test_benchmark_matrix_bits_after_a_solve():
    spec = ProblemSpec(n=100_000, p=8, kind="diagdominant", density=2e-5, seed=0)
    m, b = gen_problem(spec)
    assert core_la._spread(m) > core_la._LOCALITY_WINDOW
    assert solvers.bl_cocg(m, b[:, :1]).converged
    arrays = (m.row_ptr, m.col_idx, m.values)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
    assert digests == BENCHMARK_MATRIX_SHA256["gen1e5-p8"]
    perm, local = m._local
    arrays = {"perm": perm, "row_ptr": local.row_ptr, "col_idx": local.col_idx,
              "values": local.values}
    copy = {
        name: (str(arr.dtype), hashlib.sha256(arr.tobytes()).hexdigest())
        for name, arr in arrays.items()
    }
    assert copy == GEN1E5_COPY_SHA256


def _benchmark_matrix(name):
    if name == "young1c":
        return read_matrix_market(require_fixture("young1c.mtx"))[1]
    spec = ProblemSpec(n=100_000, p=8, kind="diagdominant", density=2e-5, seed=0)
    return gen_problem(spec)[0]


def _dense_pattern(n, pattern, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    d[np.abs(d) < 1.0] = 0.0
    if pattern == "empty-rows":
        d[::3] = 0.0
    elif pattern == "nothing-stored":
        d[:] = 0.0
    return d


def _kernel_reads(monkeypatch):
    """Record the kernel's name and the (row_ptr, col_idx, values) of
    every CSR kernel call."""
    reads = []
    kernels = core_la._sparsetools()

    def recording(name):
        def read(*args):
            reads.append((name, *args[-5:-2]))
            getattr(kernels, name)(*args)

        return read

    patched = types.SimpleNamespace(
        csr_matvec=recording("csr_matvec"), csr_matvecs=recording("csr_matvecs")
    )
    monkeypatch.setattr(core_la, "_sparsetools", lambda: patched)
    return reads


class TestKernelIndex:
    """`matvec` reads the public int64 arrays at every size, and no copy
    of them is made on the matrix; a locality copy (of a matrix whose
    spread is above `_LOCALITY_WINDOW`) is one more matrix, with int64
    arrays of its own."""

    @pytest.mark.parametrize("name", BENCHMARK_MATRIX_SHA256)
    def test_benchmark_matrices_index_arrays(self, name, monkeypatch):
        m = _benchmark_matrix(name)
        assert m.row_ptr.dtype == m.col_idx.dtype == np.int64
        arrays = {k for k, v in vars(m).items() if isinstance(v, np.ndarray)}
        assert arrays == {"row_ptr", "col_idx", "values"}
        reads = _kernel_reads(monkeypatch)
        m.matvec(_rand_block(m.n, 2, 0))
        m.matvec(_rand_block(m.n, 1, 0))
        assert [name for name, *_ in reads] == ["csr_matvecs", "csr_matvec"]
        for _, row_ptr, col_idx, values in reads:
            assert row_ptr is m.row_ptr and col_idx is m.col_idx and values is m.values
        core_la.solve_operator(m)
        if name == "young1c":
            assert m._local is False
        else:
            perm, copy = m._local
            for arr in (perm, copy.row_ptr, copy.col_idx):
                assert arr.dtype == np.int64
            assert copy.values.dtype == np.complex128


def _fresh(a):
    """A new matrix on a's arrays, with nothing cached on it."""
    return ComplexSymmetricMatrix(
        a.n, row_ptr=a.row_ptr, col_idx=a.col_idx, values=a.values
    )


def _locality_cases():
    """Complex symmetric matrices whose copies the tests below compare."""
    rng = np.random.default_rng(5)
    cases = {}
    d = _dense_pattern(60, "random", seed=3)
    cases["random"] = ComplexSymmetricMatrix.from_dense(d + d.T)
    d = _dense_pattern(60, "empty-rows", seed=4)
    d[:, ::3] = 0.0
    cases["empty-rows"] = ComplexSymmetricMatrix.from_dense(d + d.T)
    # three chains over interleaved rows (0, 3, 6, ...; 1, 4, ...; 2, 5,
    # ...) and four isolated rows after them
    n = 40
    d = np.diag(2.0 + np.arange(n) * 1j)
    for start in (0, 1, 2):
        chain = np.arange(start, n - 4, 3)
        links = rng.uniform(-1, 1, chain.size - 1) + 1j
        d[chain[:-1], chain[1:]] = d[chain[1:], chain[:-1]] = links
    cases["components"] = ComplexSymmetricMatrix.from_dense(d)
    cases["n=1"] = ComplexSymmetricMatrix.from_coo(1, [0], [0], [2 - 1j])
    # a stored zero at (0, 5) whose mirror (5, 0) is not stored: the
    # symmetry check ignores explicit zeros, so the solvers accept it
    d = _dense_pattern(30, "random", seed=6)
    d = d + d.T
    d[0, 5] = d[5, 0] = 0.0
    base = ComplexSymmetricMatrix.from_dense(d)
    r, c = np.nonzero(d)
    cases["unmirrored-zero"] = ComplexSymmetricMatrix.from_coo(
        30, np.append(r, 0), np.append(c, 5), np.append(d[r, c], 0.0)
    )
    assert cases["unmirrored-zero"].nnz == base.nnz + 1
    return cases


LOCALITY_CASES = _locality_cases()


class TestLocalityCopy:
    """P A P^T in breadth-first order, the operator the solvers run a
    wide matrix on; here every matrix is read as wide."""

    @pytest.fixture(autouse=True)
    def every_spread(self, monkeypatch):
        every_operator_wide(monkeypatch)

    @pytest.mark.parametrize("name", LOCALITY_CASES)
    def test_order_is_a_repeatable_permutation(self, name):
        a = LOCALITY_CASES[name]
        (perm, first), (again, second) = core_la._locality_copy(a), core_la._locality_copy(a)
        assert np.array_equal(np.sort(perm), np.arange(a.n))
        assert perm.tobytes() == again.tobytes()
        for attr in ("row_ptr", "col_idx", "values"):
            assert getattr(first, attr).tobytes() == getattr(second, attr).tobytes()

    @pytest.mark.parametrize("name", LOCALITY_CASES)
    def test_copy_is_the_permuted_matrix(self, name):
        a = LOCALITY_CASES[name]
        perm, copy = core_la._locality_copy(a)
        np.testing.assert_array_equal(copy.to_dense(), a.to_dense()[np.ix_(perm, perm)])
        # every stored entry, explicit zeros included, maps back to the
        # matrix's own storage bit for bit
        back = ComplexSymmetricMatrix.from_coo(
            a.n, perm[copy._csr_rows()], perm[copy.col_idx], copy.values
        )
        for attr in ("row_ptr", "col_idx", "values"):
            assert getattr(back, attr).tobytes() == getattr(a, attr).tobytes()

    @pytest.mark.parametrize("name", LOCALITY_CASES)
    def test_copy_has_the_matrix_dtypes_and_bytes(self, name):
        # the benchmark's trace subtracts the matrix's own array bytes
        # from every product a solve takes on its copy
        a = LOCALITY_CASES[name]
        _, copy = core_la._locality_copy(a)
        arrays = [(getattr(copy, k), getattr(a, k)) for k in ("row_ptr", "col_idx", "values")]
        assert all(mine.dtype == theirs.dtype for mine, theirs in arrays)
        assert sum(mine.nbytes for mine, _ in arrays) == sum(t.nbytes for _, t in arrays)

    def test_breadth_first_from_the_fullest_row(self):
        a = LOCALITY_CASES["components"]
        perm, _ = core_la._locality_copy(a)
        # the root is the first row with the most entries: row 3, inside
        # the chain 0, 3, 6, ...; the chain comes first, in breadth-first
        # levels from row 3, then every other row in file order
        chain = np.arange(0, a.n - 4, 3)
        assert perm[0] == 3
        assert set(perm[: chain.size].tolist()) == set(chain.tolist())
        depth = np.abs(perm[: chain.size] - 3) // 3
        assert np.all(np.diff(depth) >= 0)
        rest = perm[chain.size :]
        assert np.all(np.diff(rest) > 0)

    @pytest.mark.parametrize("name", LOCALITY_CASES)
    def test_row_order_round_trip(self, name):
        a = _fresh(LOCALITY_CASES[name])
        copy, to_op, to_caller = core_la.solve_operator(a)
        perm, cached = a._local
        assert copy is cached
        v = _rand_block(a.n, 3, 1)
        there = to_op(v)
        assert there.flags.c_contiguous and there.dtype == np.complex128
        np.testing.assert_array_equal(there, v[perm])
        back = to_caller(there)
        assert back.flags.c_contiguous
        np.testing.assert_array_equal(back, v)
        np.testing.assert_allclose(
            to_caller(copy.matvec(there)), a.matvec(v), rtol=1e-13, atol=1e-14,
        )

    @pytest.mark.parametrize("p", range(1, 10))
    def test_product_is_row_major_with_the_bits_of_either_layout(self, p):
        # a row-major block and its Fortran-order copy, which the product
        # copies to row-major first, give the same row-major bytes
        _, copy = core_la._locality_copy(LOCALITY_CASES["random"])
        v = _rand_block(copy.n, p, p)
        by_rows = copy.matvec(np.ascontiguousarray(v))
        by_columns = copy.matvec(v)
        assert by_rows.flags.c_contiguous and by_columns.flags.c_contiguous
        assert by_rows.tobytes() == by_columns.tobytes()

    def test_built_once_at_first_use_and_cached(self):
        a = ComplexSymmetricMatrix.from_dense(LOCALITY_CASES["random"].to_dense())
        assert a._local is None
        copy, _, _ = core_la.solve_operator(a)
        local = a._local
        perm, cached = local
        assert perm.dtype == np.int64 and type(copy) is ComplexSymmetricMatrix
        assert core_la.solve_operator(a)[0] is cached is copy
        assert a._local is local

    def test_gate_and_overriding_classes_keep_file_order(self, monkeypatch):
        d = LOCALITY_CASES["random"].to_dense()

        class Wrapped(ComplexSymmetricMatrix):
            def matvec(self, v):
                return super().matvec(v)

        wrapped = Wrapped.from_dense(d)
        assert core_la.solve_operator(wrapped)[0] is wrapped
        assert wrapped._local is None
        # a spread equal to the window is not above it
        a = ComplexSymmetricMatrix.from_dense(d)
        monkeypatch.setattr(core_la, "_LOCALITY_WINDOW", core_la._spread(a))
        op, to_op, to_caller = core_la.solve_operator(a)
        assert op is a and a._local is False
        v = _rand_block(a.n, 3, 1)
        there = to_op(v)
        back = to_caller(there)
        assert there.flags.c_contiguous and back.flags.c_contiguous
        assert not np.shares_memory(there, v) and not np.shares_memory(back, there)
        np.testing.assert_array_equal(back, v)


# past 46,340 the key row * n + col no longer fits in int32, so int32
# index arrays would wrap the keys `is_symmetric` sorts
_N_BEYOND_INT32_KEYS = 50_000


class TestReadOnlyArrays:
    """A matrix's CSR arrays are read-only views, so no write through them
    can leave its cached verdicts or locality copy stale."""

    @staticmethod
    def _built(how):
        if how == "generated":
            spec = ProblemSpec(n=40, p=1, kind="diagdominant", density=0.2, seed=0)
            return gen_problem(spec)[0]
        if how == "read":
            text = _mm_file("coordinate", "complex", "symmetric", _MM_PALETTES["plain"])
            return read_matrix_market(text)[1]
        if how == "dense":
            return ComplexSymmetricMatrix.from_dense([[2, 1j], [1j, 3]])
        return core_la._locality_copy(LOCALITY_CASES["random"])[1]

    @pytest.mark.parametrize("how", ["generated", "read", "dense", "locality copy"])
    def test_in_place_write_raises(self, how):
        a = self._built(how)
        for name in ("row_ptr", "col_idx", "values"):
            arr = getattr(a, name)
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2

    def test_callers_arrays_keep_their_flag(self):
        row_ptr, col_idx = np.array([0, 1, 2]), np.array([0, 1])
        values = np.array([1.0, 2.0], dtype=np.complex128)
        a = ComplexSymmetricMatrix(2, row_ptr=row_ptr, col_idx=col_idx, values=values)
        assert not a.values.flags.writeable
        assert row_ptr.flags.writeable and col_idx.flags.writeable
        assert values.flags.writeable


class TestBeyondInt32Keys:
    @pytest.fixture(scope="class")
    def matrix(self):
        spec = ProblemSpec(
            n=_N_BEYOND_INT32_KEYS, p=1, kind="diagdominant", density=2e-5, seed=3
        )
        return gen_problem(spec)[0]

    def test_symmetry_verdicts(self, matrix):
        n = matrix.n
        assert (n - 1) * n > np.iinfo(np.int32).max
        assert matrix.row_ptr.dtype == matrix.col_idx.dtype == np.int64
        # the generator states its verdict; a fresh matrix sorts the keys
        assert matrix.is_symmetric and _fresh(matrix).is_symmetric
        rows = np.repeat(np.arange(n), np.diff(matrix.row_ptr))
        # the last stored off-diagonal entry sits in one of the last rows
        k = np.flatnonzero(rows != matrix.col_idx)[-1]
        assert rows[k] * n > np.iinfo(np.int32).max
        values = matrix.values.copy()
        values[k] += 1.0
        changed = ComplexSymmetricMatrix(
            n, row_ptr=matrix.row_ptr, col_idx=matrix.col_idx, values=values
        )
        assert not changed.is_symmetric

    def test_matvec_is_scipys_product_bit_for_bit(self, matrix):
        import scipy.sparse

        n = matrix.n
        v = _rand_block(n, 8, 5)
        expected = scipy.sparse.csr_array(
            (matrix.values, matrix.col_idx, matrix.row_ptr), shape=(n, n)
        ) @ v
        np.testing.assert_array_equal(matrix.matvec(v), expected)

    def test_copy_that_stays_wide_is_not_built(self, matrix):
        # ~1 off-diagonal entry a row: the graph falls apart into many
        # small components, which the search leaves in file order, so the
        # copy's spread (8,292) would stay above the window like the
        # matrix's own (8,337)
        a = _fresh(matrix)
        assert core_la._spread(a) > core_la._LOCALITY_WINDOW
        assert core_la._locality_copy(a) is False
        res = solvers.bl_cocg(a, _rand_block(a.n, 2, 0))
        assert res.converged and a._local is False


class TestTGram:
    def test_no_conjugation(self):
        # v^T v = (1+i)^2 + (1-i)^2 = 0 on a nonzero vector
        v = np.array([[1 + 1j], [1 - 1j]], order="F")
        g = t_gram(v, v)
        assert g.shape == (1, 1)
        assert g[0, 0] == 0.0

    def test_matches_matmul(self):
        v = _rand_block(20, 3, 1)
        w = _rand_block(20, 3, 2)
        np.testing.assert_allclose(t_gram(v, w), v.T @ w, rtol=0, atol=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            t_gram(np.ones((3, 1), dtype=complex), np.ones((4, 1), dtype=complex))


def _qr_draws():
    """Seeded thin-QR inputs, id -> (n, p, block seed): 25 draws with
    2 <= n < 40 and p <= 8, and 50 smaller ones with 1 <= n < 30 and
    p <= 6, among them n = 1."""
    draws = {}
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        draws[str(seed)] = (n, int(rng.integers(1, min(n, 8) + 1)), seed + 1000)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        draws[f"small-{seed}"] = (n, int(rng.integers(1, min(n, 6) + 1)), seed + 500)
    return draws


QR_DRAWS = _qr_draws()


class TestThinQr:
    def test_hand_case(self):
        w = np.array([[3.0], [4.0j]], order="F")
        fac = thin_qr(w)
        np.testing.assert_allclose(fac.xi, [[5.0]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(fac.q, [[0.6], [0.8j]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("draw", QR_DRAWS.values(), ids=QR_DRAWS)
    def test_factor_properties(self, draw, householder_calls):
        n, p, seed = draw
        w = _rand_block(n, p, seed)
        fac = thin_qr(w)
        np.testing.assert_allclose(fac.q @ fac.xi, w, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            np.conj(fac.q.T) @ fac.q, np.eye(p), rtol=0, atol=1e-13
        )
        assert np.allclose(np.tril(fac.xi, -1), 0.0, atol=1e-15)
        d = np.diagonal(fac.xi)
        assert np.all(d.imag == 0.0) and np.all(d.real >= 0.0)
        assert householder_calls == []

    @pytest.mark.parametrize("block", ["cond_1e10", "dependent"])
    def test_householder_fallback(self, block, householder_calls):
        w = _rand_block(30, 2, 9)
        if block == "cond_1e10":
            w[:, 1] *= 1e-10
        else:
            w[:, 1] = w[:, 0]
        fac = thin_qr(w)
        assert householder_calls == [(30, 2)]
        np.testing.assert_allclose(fac.q @ fac.xi, w, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            np.conj(fac.q.T) @ fac.q, np.eye(2), rtol=0, atol=1e-13
        )
        assert fac.xi[1, 0] == 0.0
        d = np.diagonal(fac.xi)
        assert np.all(d.imag == 0.0) and np.all(d.real >= 0.0)

    def test_single_column_is_normalized(self, householder_calls):
        w = np.array([[1.0 - 2.0j], [2.0j], [4.0]], order="F")
        fac = thin_qr(w)
        assert householder_calls == []
        np.testing.assert_array_equal(fac.xi, [[5.0]])
        np.testing.assert_array_equal(fac.q, w / 5.0)

    @pytest.mark.parametrize("scale", [0.0, 1e-170, 1e170])
    def test_single_column_without_a_finite_norm(self, scale, householder_calls):
        # zero, underflowing and overflowing squared norms go to Householder,
        # which scales its norm; a zero column gets q = e_1 and xi = 0
        w = np.array([[3.0 * scale], [4.0j * scale]], order="F")
        fac = thin_qr(w)
        assert householder_calls == [(2, 1)]
        np.testing.assert_allclose(fac.xi, [[5.0 * scale]], rtol=1e-15, atol=0)
        q = [[0.6], [0.8j]] if scale else [[1.0], [0.0]]
        np.testing.assert_allclose(fac.q, q, rtol=0, atol=1e-15)

    def test_rank_deficient_input(self):
        w = _rand_block(10, 1, 3)
        w2 = np.asfortranarray(np.hstack([w, w]))
        fac = thin_qr(w2)
        np.testing.assert_allclose(fac.q @ fac.xi, w2, rtol=0, atol=1e-13)
        assert abs(fac.xi[1, 1]) <= 1e-13 * abs(fac.xi[0, 0])

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError, match="n >= p"):
            thin_qr(np.ones((2, 3), dtype=complex))

    @pytest.mark.parametrize("n", [0, 5, 5000])
    @pytest.mark.parametrize("with_out", [False, True], ids=["new", "out"])
    def test_block_of_no_columns(self, n, with_out):
        # t_gram, axpy_block and fro_norm take such blocks too
        w = np.empty((n, 0), dtype=complex)
        out = np.empty((n, 0), dtype=complex) if with_out else None
        fac = thin_qr(w, out=out)
        assert fac.q.shape == (n, 0) and fac.q.dtype == np.complex128
        assert fac.xi.shape == (0, 0) and fac.xi.dtype == np.complex128
        assert fac.q is out if with_out else fac.q is not w

    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_orthonormal_at_every_power_of_2_scale(self, p):
        # near 2^-530 the squared entries are subnormal, so the column
        # norms (1e-162 to 1e-156) and the Gram have lost digits: such
        # blocks go to Householder, like those whose squares under- or
        # overflow outright
        w = np.ascontiguousarray(_rand_block(841, p, 20 + p))
        for k in range(-600, 600):
            fac = thin_qr(w * 2.0**k)
            assert _defect(fac.q) <= 1e-14, k
            np.testing.assert_allclose(fac.q @ (fac.xi * 2.0**-k), w, rtol=0, atol=1e-13)


def _qr_bits(fac):
    return fac.q.tobytes(), fac.xi.tobytes()


@pytest.fixture
def two_pass(monkeypatch):
    """Shut the one-pass gate of `core_la._cholesky_qr`, so that every block
    of p >= 2 columns takes the CholeskyQR2 path that `qr_reference` froze."""
    monkeypatch.setattr(core_la, "_CHOLQR_ONE_PASS_BOUND", 0.0)


def _gram_calls(monkeypatch):
    """Row counts of the blocks handed to `core_la._gram_h` from now on."""
    calls = []
    gram_h = core_la._gram_h

    def counting(v):
        calls.append(v.shape[0])
        return gram_h(v)

    monkeypatch.setattr(core_la, "_gram_h", counting)
    return calls


def _defect(q):
    return np.linalg.norm(np.conj(q.T) @ q - np.eye(q.shape[1]))


@pytest.mark.usefixtures("two_pass")
class TestAgainstQrReference:
    """thin_qr against the frozen conjugate-copy version in qr_reference.
    Blocks of p >= 2 columns run with the one-pass gate shut (`two_pass`):
    the reference is the CholeskyQR2 path, which they pin bit for bit."""

    @pytest.mark.parametrize("n", [2, 841, 5000, 100_000])
    def test_single_column_same_bits(self, n):
        # the division turns a -0.0 part into +0.0 where the scaling
        # keeps it, so the column has no zero part
        w = _rand_block(n, 1, n)
        assert np.all(w.real != 0.0) and np.all(w.imag != 0.0)
        assert _qr_bits(thin_qr(w)) == _qr_bits(qr_reference.thin_qr(w))

    def test_single_column_signed_zeros_keep_their_sign(self):
        w = np.array([[complex(-0.0, 3.0)], [complex(4.0, -0.0)]], order="F")
        fac = thin_qr(w)
        np.testing.assert_array_equal(fac.q, qr_reference.thin_qr(w).q)
        assert np.signbit(fac.q[0, 0].real) and np.signbit(fac.q[1, 0].imag)

    @pytest.mark.parametrize("n", [841, 5000, 100_000])
    @pytest.mark.parametrize("p", [4, 8, 32])
    def test_multiples_of_four_columns_same_bits(self, n, p):
        # the reference forms its products in Fortran order, whose bits
        # are the row-major ones only where n is a multiple of 4 too; at
        # n = 841 its own Grams and factors, with row-major products, are
        # the pin
        w = _rand_block(n, p, n + p)
        ref = _two_pass(w) if n % 4 else qr_reference.thin_qr(w)
        assert _qr_bits(thin_qr(w)) == _qr_bits(ref)

    @pytest.mark.parametrize("n", [841, 5000, 100_000])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_other_widths_agree_to_rounding(self, n, p):
        # zgemm's A^H product rounds differently from the conjugate-copy
        # product in OpenBLAS's edge tiles, the rows and columns left
        # over when p is not a multiple of the micro-kernel's 4
        w = _rand_block(n, p, n + p)
        live, ref = thin_qr(w), qr_reference.thin_qr(w)
        for a, b in ((live.q, ref.q), (live.xi, ref.xi)):
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14 * np.abs(b).max())

    def test_numpy_fallback_same_bits_at_every_width(self, monkeypatch):
        routine = core_la._routine
        monkeypatch.setattr(
            core_la, "_routine", lambda name: None if name == "zgemm" else routine(name)
        )
        for n in (841, 5000):
            for p in range(1, 34):
                w = _rand_block(n, p, n + p)
                assert _qr_bits(thin_qr(w)) == _qr_bits(_two_pass(w)), (n, p)

    def test_householder_fallback_same_bits(self, householder_calls):
        w = _rand_block(5000, 8, 9)
        w[:, 3] *= 1e-10
        assert _qr_bits(thin_qr(w)) == _qr_bits(qr_reference.thin_qr(w))
        assert householder_calls == [(5000, 8)]


def _reference_gram(v):
    """v^H v as the reference forms it, from conjugate copies."""
    buf = np.empty((min(v.shape[0], qr_reference._ROW_CHUNK), v.shape[1]),
                   dtype=np.complex128, order="F")
    return qr_reference._gram_h(v, buf)


def _first_pass(w):
    """(q, xi) of one CholeskyQR pass built from the reference's own first
    pass: R1 from its conjugate-copy Gram, Q = W R1^{-1} formed row-major,
    as `thin_qr` forms it."""
    r1 = qr_reference._cholesky_r(_reference_gram(w))
    return np.matmul(w, np.linalg.inv(r1), order="C"), r1


def _two_pass(w, out=None):
    """The reference's CholeskyQR2 with row-major products, as `thin_qr`
    forms them: Grams and Cholesky factors from the reference,
    Q1 = W R1^{-1}, Q = Q1 R2^{-1} and xi = R2 R1, under the reference's
    accuracy conditions. For p = 1, and wherever that CholeskyQR2 does
    not finish, the reference's own factors, with q copied row-major.
    With out given, q is copied into out and out returned as q."""
    p = w.shape[1]
    r1 = qr_reference._cholesky_r(_reference_gram(w)) if p > 1 else None
    fac = None
    if r1 is not None:
        q1 = np.matmul(w, np.linalg.inv(r1), order="C")
        g2 = _reference_gram(q1)
        r2 = qr_reference._cholesky_r(g2)
        if r2 is not None and np.linalg.norm(g2 - np.eye(p)) <= qr_reference._MAX_DEFECT:
            xi = r2 @ r1
            d = np.diagonal(xi).real
            if d.min() >= qr_reference._MIN_DIAG_RATIO * d.max():
                fac = qr_reference.QR(np.matmul(q1, np.linalg.inv(r2), order="C"), xi)
    if fac is None:
        ref = qr_reference.thin_qr(w)
        fac = qr_reference.QR(np.ascontiguousarray(ref.q), ref.xi)
    if out is None:
        return fac
    np.copyto(out, fac.q)
    return qr_reference.QR(out, fac.xi)


class TestOnePass:
    """The one-pass branch of `core_la._cholesky_qr` and its gate."""

    @pytest.mark.parametrize("n", [841, 5000, 100_000])
    @pytest.mark.parametrize("p", [4, 8, 32])
    def test_first_pass_bits(self, n, p, monkeypatch):
        w = _rand_block(n, p, n + p)
        grams = _gram_calls(monkeypatch)
        q, xi = _first_pass(w)
        assert _qr_bits(thin_qr(w)) == (q.tobytes(), xi.tobytes())
        assert grams == [n]

    def test_numpy_fallback_first_pass_bits_at_every_width(self, monkeypatch):
        routine = core_la._routine
        monkeypatch.setattr(
            core_la, "_routine", lambda name: None if name == "zgemm" else routine(name)
        )
        grams = _gram_calls(monkeypatch)
        for n in (841, 5000):
            for p in range(2, 34):
                w = _rand_block(n, p, n + p)
                q, xi = _first_pass(w)
                grams.clear()
                assert _qr_bits(thin_qr(w)) == (q.tobytes(), xi.tobytes()), (n, p)
                assert grams == [n], (n, p)

    def test_gaussian_block_takes_one_pass(self, monkeypatch, householder_calls):
        rng = np.random.default_rng(8)
        w = np.asfortranarray(
            rng.standard_normal((5000, 8)) + 1j * rng.standard_normal((5000, 8))
        )
        grams = _gram_calls(monkeypatch)
        fac = thin_qr(w)
        assert grams == [5000] and householder_calls == []
        assert _defect(fac.q) <= 1e-13
        np.testing.assert_allclose(fac.q @ fac.xi, w, rtol=0, atol=1e-13)

    def test_scaled_columns_take_one_pass(self, monkeypatch, householder_calls):
        # the gate reads W with its columns scaled to unit norm, as the
        # Gram's rounding does: scaling a column moves neither
        w = _rand_block(5000, 8, 3)
        w[:, 5] *= 1e-3
        grams = _gram_calls(monkeypatch)
        fac = thin_qr(w)
        assert grams == [5000] and householder_calls == []
        assert _defect(fac.q) <= 1e-13
        np.testing.assert_allclose(fac.q @ fac.xi, w, rtol=0, atol=1e-13)

    def test_above_the_gate_takes_the_second_pass(self, monkeypatch, householder_calls):
        # two nearly parallel columns: e is far above the gate, and the
        # diagonal of xi spans ~1e3, well inside the 1e8 Householder rule
        w = _rand_block(5000, 8, 3)
        w[:, 5] = w[:, 4] + 1e-3 * w[:, 5]
        r1 = _first_pass(w)[1]
        e = np.linalg.norm(np.linalg.norm(r1, axis=0)[:, None] * np.linalg.inv(r1))
        assert e > core_la._CHOLQR_ONE_PASS_BOUND
        grams = _gram_calls(monkeypatch)
        fac = thin_qr(w)
        assert grams == [5000, 5000] and householder_calls == []
        d = np.diagonal(fac.xi).real
        assert 1e-8 * d.max() <= d.min() <= 1e-2 * d.max()
        assert _qr_bits(fac) == _qr_bits(qr_reference.thin_qr(w))


class TestSolveSmall:
    """Cases on the default path: LAPACK zgesv wherever numpy exposes it
    (see `test_lapack_binding_resolves_under_scipy_openblas`)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference(self, seed):
        # odd and even orders, so that a recursive LU meets uneven splits.
        # Orders up to 8 hold an absolute 1e-12. At order 32 the forward
        # error grows with |Z| * cond(M) (seed 7: 2.3e-12 on the Python LU
        # at max|Z| = 40, cond(M) = 700), so the bound there is relative
        rng = np.random.default_rng(seed)
        for p in (1, 2, 3, 5, 6, 8, 32):
            for symmetric in (False, True):
                m = rng.uniform(-1, 1, (p, p)) + 1j * rng.uniform(-1, 1, (p, p))
                if symmetric:
                    m = m + m.T
                rhs = rng.uniform(-1, 1, (p, 2)) + 1j * rng.uniform(-1, 1, (p, 2))
                ref = np.linalg.solve(m, rhs)
                z = solve_small(m, rhs)
                atol = 1e-12 if p <= 8 else 1e-12 * np.abs(ref).max()
                np.testing.assert_allclose(
                    z, ref, rtol=0, atol=atol, err_msg=f"p={p} symmetric={symmetric}"
                )

    def test_needs_pivoting(self):
        # zero leading pivot, solvable only by row exchange
        m = np.array([[0, 1], [1, 0]], dtype=complex)
        rhs = np.array([2.0, 3.0], dtype=complex)
        np.testing.assert_allclose(solve_small(m, rhs), [3.0, 2.0], atol=1e-15)

    def test_pivot_rules_disagree(self):
        # the largest modulus in column 0 is in row 0 (3 > |2 + 2i|), the
        # largest |re| + |im| in row 1 (3 < 4): the Python LU and LAPACK
        # eliminate with different pivots and must both solve the system
        m = np.array([[3, 1], [2 + 2j, 5]], dtype=complex)
        col = m[:, 0]
        assert np.argmax(np.abs(col)) != np.argmax(np.abs(col.real) + np.abs(col.imag))
        rhs = np.array([[1, 2j], [-1j, 1]], dtype=complex)
        np.testing.assert_allclose(
            solve_small(m, rhs), np.linalg.solve(m, rhs), rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("rhs_shape", [(0, 3), (0, 1), (0,), (2, 0)])
    def test_empty_system(self, rhs_shape):
        # no unknowns, or no right-hand sides to a 2 x 2 system
        m = np.eye(rhs_shape[0], dtype=complex)
        rhs = np.empty(rhs_shape, dtype=complex)
        z = solve_small(m, rhs)
        assert z.shape == np.linalg.solve(m, rhs).shape == rhs_shape
        assert z.dtype == np.complex128

    def test_one_dimensional_rhs_round_trips(self):
        z = solve_small(np.eye(2, dtype=complex), np.array([1.0, 2.0j]))
        assert z.shape == (2,)
        np.testing.assert_array_equal(z, [1.0, 2.0j])

    def test_singular_raises_breakdown(self):
        # with right-hand sides or none: the pivots are checked either way
        m = np.array([[1, 1], [1, 1]], dtype=complex)
        for rhs_shape in ((2,), (2, 0)):
            with pytest.raises(BreakdownError) as exc:
                solve_small(m, np.ones(rhs_shape, dtype=complex))
            assert exc.value.pivot_index == 1
            assert exc.value.pivot_magnitude == 0.0

    @pytest.mark.parametrize(
        "m,index",
        [
            # whichever rule picks the rows, these pivots vanish exactly:
            # the third of a rank-2 matrix, the second and third of a rank-1
            ([[2, 1, 3], [1, 1, 2], [1, 0, 1]], 2),
            ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], 1),
            # a rank-1 matrix so small that its pivots are subnormal and
            # the floor, 1e-14 * max|M|, underflows to zero
            ([[1e-312, 1e-312], [1e-312, 1e-312]], 1),
        ],
    )
    def test_breakdown_names_the_first_small_pivot(self, m, index):
        m = np.array(m, dtype=complex)
        with pytest.raises(BreakdownError) as exc:
            solve_small(m, np.ones((m.shape[0], 1), dtype=complex))
        assert exc.value.pivot_index == index
        assert exc.value.pivot_magnitude == 0.0

    def test_breakdown_names_the_first_of_two_small_pivots(self):
        # upper triangular, so either rule eliminates nothing and the
        # pivots are the diagonal: pivots 1 and 3 are under the floor
        # (1e-14 * max|M| = 2e-14), and the breakdown names the first
        m = np.diag([1.0, 3e-16 + 4e-16j, 2.0, 1e-17]).astype(complex)
        m[0, 1:] = 0.5
        m[1, 2:] = 0.25j
        m[2, 3] = 1.0
        with pytest.raises(BreakdownError) as exc:
            solve_small(m, np.ones((4, 2), dtype=complex))
        assert exc.value.pivot_index == 1
        assert exc.value.pivot_magnitude == abs(m[1, 1]) == 5e-16

    @pytest.mark.parametrize(
        "entry,expected",
        [
            # below _SCALE_MIN: solved scaled by a power of 2, with the
            # bits of the plain division
            (2.0**-1000 * (3 + 4j), "scaled"),
            (0j, BreakdownError),
            (complex(np.nan, 0.0), "nan"),
            (complex(np.nan, 1.0), "nan"),
            (complex(np.inf, 0.0), "nan"),
            (complex(1.0, -np.inf), "nan"),
        ],
    )
    def test_one_by_one_of_every_kind(self, entry, expected):
        m = np.array([[entry]])
        rhs = np.array([[1 + 2j, -0.5j, 0.0]])
        if expected is BreakdownError:
            with pytest.raises(BreakdownError) as exc:
                solve_small(m, rhs)
            assert (exc.value.pivot_index, exc.value.pivot_magnitude) == (0, 0.0)
            return
        z = solve_small(m, rhs)
        if expected == "nan":
            assert np.isnan(z).all()
            return
        assert abs(entry) < core_la._SCALE_MIN
        assert z.tobytes() == (rhs / entry).tobytes()
        assert [(v.real.hex(), v.imag.hex()) for v in z[0]] == [
            ("0x1.c28f5c28f5c29p+998", "0x1.47ae147ae147bp+996"),
            ("-0x1.47ae147ae147bp+996", "-0x1.eb851eb851eb8p+995"),
            ("0x0.0p+0", "0x0.0p+0"),
        ]

    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_tiny_system_is_the_scaled_system(self, p):
        # M and RHS times 2^-1000 have the same solution; unscaled, the
        # reciprocals of their subnormal pivots would overflow
        rng = np.random.default_rng(p)
        m = rng.uniform(-1, 1, (p, p)) + 1j * rng.uniform(-1, 1, (p, p))
        rhs = rng.uniform(-1, 1, (p, 2)) + 1j * rng.uniform(-1, 1, (p, 2))
        tiny = 2.0**-1000
        assert np.abs(m * tiny).max() < core_la._SCALE_MIN
        np.testing.assert_array_equal(
            solve_small(m * tiny, rhs * tiny), solve_small(m, rhs)
        )

    def test_zero_matrix_raises_breakdown(self):
        with pytest.raises(BreakdownError) as exc:
            solve_small(np.zeros((2, 2), dtype=complex), np.ones(2, dtype=complex))
        assert exc.value.pivot_index == 0
        assert exc.value.pivot_magnitude == 0.0

    @pytest.mark.parametrize(
        "m",
        [
            [[np.nan]],
            [[1, np.nan], [1, 1]],
            # an elimination stops at the exact zero pivot of this one and
            # leaves the right-hand side finite
            [[0, 1], [np.nan, 1]],
            # with Inf the floor is Inf: every pivot would be "small", and
            # an elimination would give zeros or a breakdown at pivot 1
            [[np.inf, 0], [0, 1]],
            [[1, np.inf], [np.inf, 1]],
            [[np.inf]],
        ],
    )
    def test_nan_matrix_gives_non_finite_solution(self, m):
        m = np.array(m, dtype=complex)
        z = solve_small(m, np.ones(m.shape[0], dtype=complex))
        assert np.isnan(z).all()

    def test_one_by_one_is_the_lu_division(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(-1, 1, (1, 1)) + 1j * rng.uniform(-1, 1, (1, 1))
        rhs = rng.uniform(-1, 1, (1, 5)) + 1j * rng.uniform(-1, 1, (1, 5))
        rhs[0, 0] = -0.0
        np.testing.assert_array_equal(
            solve_small(m, rhs), core_la._python_solve(m, rhs, 0.0)
        )

    def test_rhs_shape_mismatch(self):
        for rhs in (np.ones(3, dtype=complex), [1, 2, 3], [[1, 2, 3]]):
            with pytest.raises(ValueError, match="does not match"):
                solve_small(np.eye(2, dtype=complex), rhs)

    def test_inputs_not_mutated(self):
        # complex128 C-order M and RHS of either order pass the conversions
        # uncopied, so the solve itself must copy before LAPACK writes
        for order in ("C", "F"):
            m = np.array([[2, 1j, 0], [1j, 2, 1], [0, 1, 3]], dtype=complex, order=order)
            for rhs in (np.ones(3, dtype=complex), np.ones((3, 2), dtype=complex, order=order)):
                m0, rhs0 = m.copy(), rhs.copy()
                solve_small(m, rhs)
                np.testing.assert_array_equal(m, m0)
                np.testing.assert_array_equal(rhs, rhs0)


class TestSolveSmallPythonLU(TestSolveSmall):
    """Every `TestSolveSmall` case again, on the Python LU that runs where
    numpy exposes no LAPACK zgesv."""

    @pytest.fixture(autouse=True)
    def _without_lapack(self, monkeypatch):
        monkeypatch.setattr(core_la, "_routine", lambda name: None)


def test_lapack_binding_resolves_under_scipy_openblas():
    # a build that names scipy-openblas as its LAPACK exports zgesv and
    # zgemm; if the lookup failed there, every solve would quietly take
    # the Python LU and every block update numpy's product
    lapack = np.show_config(mode="dicts")["Build Dependencies"].get("lapack", {})
    if lapack.get("name") != "scipy-openblas":
        pytest.skip(f"numpy's LAPACK is {lapack.get('name')!r}, not scipy-openblas")
    assert core_la._routine("zgesv") is not None
    assert core_la._routine("zgemm") is not None


class _Library:
    """A stand-in for a loaded library that exports the given names."""

    def __init__(self, *names):
        self.names = names

    def __getitem__(self, name):
        if name not in self.names:
            raise AttributeError(name)
        return types.SimpleNamespace()


_OPENBLAS32 = {"openblas configuration": "OpenBLAS 0.3.27 DYNAMIC_ARCH NO_AFFINITY Haswell"}
_OPENBLAS64 = {"openblas configuration": "OpenBLAS 0.3.27  USE64BITINT DYNAMIC_ARCH Haswell"}


@pytest.mark.parametrize(
    "routine,names,lapack,int_t",
    [
        # the suffixed names are 64-bit whatever the report says
        pytest.param("zgesv", ("scipy_zgesv_64_", "zgesv_"), {}, ctypes.c_int64, id="scipy-64"),
        pytest.param("zgesv", ("zgesv_64_",), _OPENBLAS32, ctypes.c_int64, id="suffix-64"),
        # the unsuffixed name takes its width from the report
        pytest.param("zgesv", ("zgesv_",), _OPENBLAS32, ctypes.c_int32, id="openblas-32"),
        pytest.param("zgesv", ("zgesv_",), _OPENBLAS64, ctypes.c_int64, id="openblas-64"),
        # and is left alone where the report cannot confirm the width
        pytest.param("zgesv", ("zgesv_",), {"name": "mkl"}, None, id="mkl"),
        pytest.param("zgesv", ("zgesv_",), {}, None, id="no-report"),
        pytest.param("zgesv", (), _OPENBLAS32, None, id="no-symbol"),
        # zgemm follows the same table
        pytest.param("zgemm", ("scipy_zgemm_64_", "zgemm_"), {}, ctypes.c_int64,
                     id="zgemm-scipy-64"),
        pytest.param("zgemm", ("zgemm_64_",), _OPENBLAS32, ctypes.c_int64,
                     id="zgemm-suffix-64"),
        pytest.param("zgemm", ("zgemm_",), _OPENBLAS32, ctypes.c_int32,
                     id="zgemm-openblas-32"),
        pytest.param("zgemm", ("zgemm_",), _OPENBLAS64, ctypes.c_int64,
                     id="zgemm-openblas-64"),
        pytest.param("zgemm", ("zgemm_",), {"name": "mkl"}, None, id="zgemm-mkl"),
        pytest.param("zgemm", ("zgemm_",), {}, None, id="zgemm-no-report"),
        # one routine's symbol does not bind the other
        pytest.param("zgemm", ("scipy_zgesv_64_", "zgesv_"), _OPENBLAS32, None,
                     id="zgemm-no-symbol"),
    ],
)
def test_zgesv_integer_width(routine, names, lapack, int_t):
    bound = core_la._bind(_Library(*names), routine, lapack)
    if int_t is None:
        assert bound is None
    else:
        fn, got = bound
        assert got is int_t
        ip = ctypes.POINTER(int_t)
        width = [t for t in fn.argtypes if t not in (ctypes.c_void_p, ctypes.c_char_p)]
        assert width and all(t is ip for t in width)
        assert len(fn.argtypes) == {"zgesv": 8, "zgemm": 13}[routine]


class TestBlockOps:
    def test_fro_norm_matches_numpy(self):
        v = _rand_block(15, 4, 9)
        assert fro_norm(v) == pytest.approx(np.linalg.norm(v), rel=1e-14)

    def test_fro_norm_sums_every_layout_in_one_order(self):
        # a Fortran-order block and a non-contiguous view are copied to
        # row-major, so they give the row-major copy's bits
        big = _rand_block(2000, 16, 9)
        v = np.asfortranarray(big[::2, 3:11])
        assert not big[::2, 3:11].flags.forc
        norms = {fro_norm(v), fro_norm(np.ascontiguousarray(v)), fro_norm(big[::2, 3:11])}
        assert len(norms) == 1

    @pytest.mark.parametrize("scale", [1.0, 1e-140, 1e150])
    def test_fro_norm_is_the_unscaled_one_pass_sum(self, scale):
        v = _rand_block(15, 4, 9) * scale
        x = np.ascontiguousarray(v).view(np.float64).ravel()
        assert fro_norm(v) == math.sqrt(np.einsum("i,i->", x, x))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e170, 1e300])
    def test_fro_norm_rescales_what_under_or_overflows(self, scale):
        # the plain sum of squares gives 0.0 and inf on these blocks; the
        # one-pass sum raises no warning of it
        v = np.full((3, 1), scale, dtype=np.complex128)
        with np.errstate(under="ignore", over="ignore"):
            assert float(np.linalg.norm(v)) in (0.0, np.inf)
        w = _rand_block(15, 4, 9)
        assert fro_norm(v) == pytest.approx(math.sqrt(3.0) * scale, rel=1e-15)
        assert fro_norm(w * scale) == pytest.approx(np.linalg.norm(w) * scale, rel=1e-14)

    @pytest.mark.parametrize(
        "entry,expected", [(0.0, 0.0), (np.inf, np.inf), (np.nan, np.nan)]
    )
    def test_fro_norm_of_zero_and_non_finite_blocks(self, entry, expected):
        v = np.full((3, 2), 1e-170, dtype=np.complex128)
        v[1, 1] = entry
        if entry == 0.0:
            v[:] = 0.0
        np.testing.assert_equal(fro_norm(v), expected)

    def test_axpy_block(self):
        x = np.ascontiguousarray(_rand_block(10, 2, 1))
        y = _rand_block(10, 2, 2)
        c = np.array([[1, 2], [3j, 4]], dtype=complex)
        expected = x + y @ c
        np.testing.assert_allclose(axpy_block(x, y, c), expected, atol=1e-14)

    @staticmethod
    def _gram_routes(monkeypatch):
        """The routine names `t_gram` asks `_routine` for, call by call."""
        asked, routine = [], core_la._routine

        def spy(name):
            asked.append(name)
            return routine(name)

        monkeypatch.setattr(core_la, "_routine", spy)
        return asked

    @pytest.mark.parametrize(
        "n,p",
        [(20_000, p) for p in range(2, 34)]
        + [(841, 2), (841, 8), (841, 32), (20_000, 1), (20_001, 6), (4_097, 3)],
    )
    def test_t_gram_is_numpys_product(self, n, p, monkeypatch):
        # at every shape, young1c's order and a single column among them:
        # numpy's zgemm for distinct blocks and its zsyrk for v^T v, which
        # is exactly symmetric, with no routine of the package's own
        asked = self._gram_routes(monkeypatch)
        v, w = (np.ascontiguousarray(_rand_block(n, p, seed)) for seed in (p, p + 100))
        assert t_gram(v, w).tobytes() == (v.T @ w).tobytes()
        g = t_gram(v, v)
        assert g.tobytes() == (v.T @ v).tobytes()
        assert g.tobytes() == np.ascontiguousarray(g.T).tobytes()
        assert asked == []

    def test_axpy_block_shape_errors(self):
        x = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError, match="nonconformable"):
            axpy_block(x, np.ones((5, 2), dtype=complex), np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="nonconformable"):
            axpy_block(x, x, np.eye(3, dtype=complex))


def _run_all_kernels(seed, n=40, p=3):
    """Every kernel once on seeded inputs: (the inputs, the outputs by
    kernel)."""
    rng = np.random.default_rng(seed)
    dense = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    sparse = np.where(np.abs(dense) < 1.0, 0.0, dense)
    v, w = _rand_block(n, p, seed + 1), _rand_block(n, p, seed + 2)
    c = np.ascontiguousarray(_rand_block(p, p, seed + 3))
    fac = thin_qr(v)
    out = {
        "csr_matvec": ComplexSymmetricMatrix.from_dense(sparse).matvec(v),
        "dense_matvec": ComplexSymmetricMatrix.from_dense(dense).matvec(v),
        "t_gram": t_gram(v, w),
        # axpy_block updates its first argument in place; v stays the
        # input of the reference formulas
        "axpy": axpy_block(v.copy(order="C"), w, c),
        "fro": fro_norm(v),
        "qr_q": fac.q,
        "qr_xi": fac.xi,
    }
    return (sparse, dense, v, w, c), out


_KERNELS = ("block_matvec", "t_gram", "axpy_block", "thin_qr", "solve_small", "fro_norm")

# the forms in which a caller may hand a kernel the same values
_FORMS = {
    "row-major": np.ascontiguousarray,
    "fortran": np.asfortranarray,
    "read-only": lambda a: _read_only(np.ascontiguousarray(a)),
    "list": lambda a: np.asarray(a).tolist(),
}
# a real-valued block may come as a float64 array as well
_REAL_FORMS = {**_FORMS, "float64": lambda a: np.ascontiguousarray(np.asarray(a).real)}
_REFUSED = ("block_matvec", "t_gram", "axpy_block y", "axpy_block c", "thin_qr",
            "solve_small m", "solve_small rhs", "fro_norm")


class TestEveryKernel:
    def test_reference_formulas(self):
        (sparse, dense, v, w, c), out = _run_all_kernels(seed=42)
        np.testing.assert_allclose(out["csr_matvec"], sparse @ v, atol=1e-13)
        np.testing.assert_allclose(out["dense_matvec"], dense @ v, atol=1e-13)
        np.testing.assert_allclose(out["t_gram"], v.T @ w, atol=1e-13)
        np.testing.assert_allclose(out["axpy"], v + w @ c, atol=1e-13)
        assert out["fro"] == pytest.approx(np.linalg.norm(v), rel=1e-14)
        np.testing.assert_allclose(out["qr_q"] @ out["qr_xi"], v, atol=1e-13)

    def test_repeat_calls_give_the_same_bits(self):
        first, second = _run_all_kernels(seed=7)[1], _run_all_kernels(seed=7)[1]
        for key in first:
            np.testing.assert_array_equal(first[key], second[key])

    # every kernel in every form a caller may hand it: a row-major block
    # is taken as it is, and every other form converted as before. At
    # n = 5000 the Grams and the block update take zgemm, so a read-only
    # block there is read through `_address`'s fallback
    @pytest.mark.parametrize("n", [40, 5000])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("kernel", _KERNELS)
    def test_every_form_gives_the_same_bits(self, kernel, real, n):
        call, args = _kernel_cases(n, real)[kernel]
        expected = _bits(call(*args))
        forms = _REAL_FORMS if real else _FORMS
        for form, make in forms.items():
            given = [make(arg) for arg in args]
            before = [np.array(arg, copy=True) for arg in given]
            assert _bits(call(*given)) == expected, form
            for arg, old in zip(given, before):
                np.testing.assert_array_equal(np.asarray(arg), old)

    @pytest.mark.parametrize("case", _REFUSED)
    def test_every_form_raises_the_same_error(self, case):
        call, args, text = _refused_case(case)
        messages = set()
        for form, make in _FORMS.items():
            with pytest.raises(ValueError, match=text) as exc:
                call(*[make(arg) for arg in args])
            messages.add(str(exc.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("form", _FORMS)
    @pytest.mark.parametrize("case", ["y views x", "c views x", "matvec v views out",
                                      "thin_qr w views out"])
    def test_every_form_of_a_view_of_the_output(self, case, form):
        # a row-major view, writeable or not, is taken as it is, so the
        # kernel refuses it; a Fortran-order copy or a list of it is a
        # new block, so the kernel gives the bits of a call on a copy
        call, output, shared, text = _shared_case(case)
        view = {"row-major": shared, "read-only": _read_only_view(shared),
                "fortran": np.asfortranarray(shared), "list": shared.tolist()}[form]
        if form in ("row-major", "read-only"):
            before = output.copy()
            with pytest.raises(ValueError, match=text):
                call(view)
            np.testing.assert_array_equal(output, before)
        else:
            fresh = _shared_case(case)
            expected = _bits(fresh[0](fresh[2].copy()))
            assert _bits(call(view)) == expected

    @pytest.mark.parametrize("form", _FORMS)
    @pytest.mark.parametrize("kernel", ["block_matvec", "thin_qr"])
    def test_out_in_every_form(self, kernel, form):
        # only a writeable row-major complex128 block takes the result
        a = ComplexSymmetricMatrix.from_dense(_dense_pattern(60, "random", seed=3))
        v = np.ascontiguousarray(_rand_block(60, 4, 0))
        call = {"block_matvec": lambda out: block_matvec(a, v.copy(), out=out),
                "thin_qr": lambda out: thin_qr(v.copy(), out=out)}[kernel]
        out = _FORMS[form](_garbage((60, 4)))
        if form == "row-major":
            assert _bits(call(out)) == _bits(call(None))
        else:
            with pytest.raises(ValueError, match="out must be a writeable row-major"):
                call(out)


def _drawer(seed, real=False):
    """draw(*shape): seeded row-major complex128 blocks, with zero
    imaginary parts where real is set."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        re = rng.uniform(-1, 1, shape)
        return np.ascontiguousarray(re if real else re + 1j * rng.uniform(-1, 1, shape),
                                    dtype=np.complex128)

    return draw


def _kernel_cases(n, real, p=3):
    """{kernel: (call, its block arguments)}: call(*args) runs the kernel
    on seeded inputs, whatever form they are in."""
    draw = _drawer(21, real)
    a = ComplexSymmetricMatrix.from_dense(_dense_pattern(40, "random", seed=4))
    # the same product on the larger block, through a tridiagonal matrix
    if n != a.n:
        i = np.arange(n)
        a = ComplexSymmetricMatrix.from_coo(
            n, np.concatenate([i, i[1:], i[:-1]]), np.concatenate([i, i[:-1], i[1:]]),
            np.concatenate([np.full(n, 4 + 1j), np.full(2 * n - 2, -1.0)]),
        )
    x, m = draw(n, p), draw(p, p)
    m = m + m.T + 4 * np.eye(p)
    return {
        "block_matvec": (lambda v: block_matvec(a, v), (draw(n, p),)),
        "t_gram": (t_gram, (draw(n, p), draw(n, p))),
        # x, updated in place, is a copy of the same row-major block
        "axpy_block": (lambda y, c: axpy_block(x.copy(), y, c), (draw(n, p), draw(p, p))),
        "thin_qr": (thin_qr, (draw(n, p),)),
        "solve_small": (solve_small, (m, draw(p, 2))),
        "fro_norm": (fro_norm, (draw(n, p),)),
    }


def _refused_case(case, n=40, p=3):
    """(call, block arguments of shapes the kernel refuses, the error's
    text)."""
    draw = _drawer(22)
    a = ComplexSymmetricMatrix.from_dense(_dense_pattern(n, "random", seed=4))
    x = draw(n, p)
    return {
        "block_matvec": (lambda v: block_matvec(a, v), (draw(n + 1, p),), "dimension mismatch"),
        "t_gram": (t_gram, (draw(n, p), draw(n, p + 1)), "shape mismatch"),
        "axpy_block y": (lambda y, c: axpy_block(x, y, c), (draw(n + 1, p), draw(p, p)),
                         "nonconformable"),
        "axpy_block c": (lambda y, c: axpy_block(x, y, c), (draw(n, p), draw(p, p + 1)),
                         "must be square"),
        "thin_qr": (thin_qr, (draw(p - 1, p),), "n >= p"),
        "solve_small m": (solve_small, (draw(p, p + 1), draw(p, 1)), "must be square"),
        "solve_small rhs": (solve_small, (draw(p, p), draw(p + 1, 1)), "does not match"),
        "fro_norm": (fro_norm, (draw(2, 3, 4),), "must be 2-D"),
    }[case]


def _shared_case(case, n=40, p=3):
    """(call, the block a kernel writes, the row-major view of it that
    call's one argument is made from, the error's text)."""
    draw = _drawer(23)
    if case == "y views x":
        block, c = draw(n + 1, p), draw(p, p)
        x = block[:n]
        return lambda y: axpy_block(x, y, c), x, block[1:], "x shares memory with y or c"
    if case == "c views x":
        x, y = draw(n, p), draw(n, p)
        return lambda c: axpy_block(x, y, c), x, x[:p], "x shares memory with y or c"
    out = draw(n, p)
    if case == "matvec v views out":
        a = ComplexSymmetricMatrix.from_dense(_dense_pattern(n, "random", seed=4))
        return lambda v: a.matvec(v, out=out), out, out, "out shares memory"
    return lambda w: thin_qr(w, out=out), out, out, "out shares memory"


def _bits(result):
    """The bytes of a kernel's result: an array, a norm or QR factors."""
    if isinstance(result, core_la.QrFactors):
        return _qr_bits(result)
    return np.asarray(result).tobytes()


def _garbage(shape):
    """A row-major block of NaNs, for an out= buffer that must be fully
    overwritten."""
    return np.full(shape, np.nan + 1j * np.nan)


# (parallel, scale): column 5 of the block is replaced by column 4 plus
# `parallel` times itself, and column 2 is scaled by `scale`; the counts of
# Hermitian Grams and Householder calls of the path each case takes
_QR_CASES = {
    "one pass": (None, 1.0, 1, 0),
    # e far above the one-pass gate
    "two passes": (1e-3, 1.0, 2, 0),
    # CholeskyQR2 runs to its end, but the diagonal of xi spans 1e9,
    # beyond the Gram's resolution, so Householder factors w itself
    "two passes, then Householder": (1e-3, 1e-9, 2, 1),
    # Q1 is written, but too far from orthonormal for a second pass
    "defect, then Householder": (1e-8, 1.0, 2, 1),
    # the first Cholesky factorization fails outright
    "Householder": (1e-10, 1.0, 1, 1),
}


def _qr_case(case):
    """A row-major block for one path of `thin_qr` (1000 x 1 for "p=1",
    else 5000 x 8) and the counts of `_QR_CASES`."""
    if case == "p=1":
        return np.ascontiguousarray(_rand_block(1000, 1, 1)), 0, 0
    parallel, scale, grams, householders = _QR_CASES[case]
    w = np.ascontiguousarray(_rand_block(5000, 8, 3))
    if parallel is not None:
        w[:, 5] = w[:, 4] + parallel * w[:, 5]
    w[:, 2] *= scale
    return w, grams, householders


class TestOutForms:
    """`matvec(v, out)`, `block_matvec(a, v, out)` and `thin_qr(w, out)`
    write into the caller's block, with the bits of the allocating forms."""

    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_matvec_into_out(self, p):
        a = ComplexSymmetricMatrix.from_dense(_dense_pattern(60, "random", seed=3))
        v = _rand_block(60, p, p)
        out = _garbage((60, p))
        assert a.matvec(v, out=out) is out
        assert out.tobytes() == a.matvec(v).tobytes()
        out = _garbage((60, p))
        assert block_matvec(a, v, out=out) is out
        assert out.tobytes() == a.matvec(v).tobytes()

    def test_replaced_matvec_is_called_without_out(self):
        class Counting(ComplexSymmetricMatrix):
            def matvec(self, v):
                self.calls = getattr(self, "calls", 0) + 1
                return super().matvec(v)

        base = ComplexSymmetricMatrix.from_dense(_dense_pattern(60, "random", seed=3))
        a = Counting(base.n, row_ptr=base.row_ptr, col_idx=base.col_idx, values=base.values)
        v = _rand_block(60, 4, 0)
        out = _garbage((60, 4))
        assert block_matvec(a, v, out=out) is out and a.calls == 1
        assert out.tobytes() == base.matvec(v).tobytes()

    @pytest.mark.parametrize("bad", ["fortran", "shape", "dtype", "read-only", "aliased"])
    def test_out_that_cannot_take_the_result_is_refused(self, bad):
        a = ComplexSymmetricMatrix.from_dense(_dense_pattern(60, "random", seed=3))
        v = np.ascontiguousarray(_rand_block(60, 4, 0))
        out = {
            "fortran": np.asfortranarray(_garbage((60, 4))),
            "shape": _garbage((60, 3)),
            "dtype": np.zeros((60, 4)),
            "read-only": _garbage((60, 4)),
            "aliased": v,
        }[bad]
        out.flags.writeable = bad != "read-only"
        with pytest.raises(ValueError, match="out"):
            a.matvec(v, out=out)
        with pytest.raises(ValueError, match="out"):
            thin_qr(v, out=out)

    def test_thin_qr_into_out_refuses_a_read_only_w(self):
        # with out given, w is scratch
        w = _read_only(np.ascontiguousarray(_rand_block(60, 4, 0)))
        with pytest.raises(ValueError, match="w must be writeable"):
            thin_qr(w, out=_garbage((60, 4)))

    @pytest.mark.parametrize("case", ["p=1", *_QR_CASES])
    def test_thin_qr_into_out(self, case, monkeypatch, householder_calls):
        w, gram_count, householder_count = _qr_case(case)
        expected = thin_qr(w)
        householder_calls.clear()
        grams = _gram_calls(monkeypatch)
        scratch, out = w.copy(), _garbage(w.shape)
        fac = thin_qr(scratch, out=out)
        assert len(grams) == gram_count and len(householder_calls) == householder_count
        # the second pass writes Q over its own dead input
        assert fac.q is (scratch if case == "two passes" else out)
        assert _qr_bits(fac) == _qr_bits(expected)


def _parent_axpy(x, y, c):
    """The block update before it was made in place: Y @ C into a new
    row-major block, then X added."""
    out = np.empty(x.shape, dtype=np.complex128)
    np.matmul(y, c, out=out)
    out += x
    return out


class TestAxpyBlockInPlace:
    """`axpy_block` updates a row-major x in place: by one zgemm call at
    every size, by numpy's product without zgemm or on an empty block."""

    @staticmethod
    def _operands(n, p, seed):
        return tuple(np.ascontiguousarray(_rand_block(*shape, seed + i))
                     for i, shape in enumerate([(n, p), (n, p), (p, p)]))

    @pytest.mark.parametrize("p", [1, 2, 8, 32])
    def test_zgemm_updates_x_in_place(self, p):
        # p = 1 takes the column-major call: the swapped one of p >= 2
        # would give a single column the bits of x + y * c. 2,048 rows are
        # a multiple of 4, so every row keeps numpy's bits
        x, y, c = self._operands(2048, p, 1)
        expected = _parent_axpy(x, y, c)
        assert axpy_block(x, y, c) is x
        np.testing.assert_array_equal(x, expected)

    @pytest.mark.parametrize("p", [1, 2, 8, 32])
    @pytest.mark.parametrize("zgemm", ["no-symbol"])
    def test_numpy_product_keeps_the_parent_bits(self, p, zgemm, monkeypatch):
        monkeypatch.setattr(core_la, "_routine", lambda name: None)
        x, y, c = self._operands(2048, p, 4)
        expected = _parent_axpy(x, y, c)
        reference = x + y @ c
        assert axpy_block(x, y, c) is x
        np.testing.assert_array_equal(x, expected)
        np.testing.assert_allclose(x, reference, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("n,p,asked", [
        (841, 1, ["zgemm"]), (40, 3, ["zgemm"]), (0, 3, []), (841, 0, []),
    ])
    def test_every_nonempty_block_takes_zgemm(self, n, p, asked, monkeypatch):
        # an empty block has no buffer address to hand zgemm
        seen = []
        routine = core_la._routine

        def recording(name):
            seen.append(name)
            return routine(name)

        monkeypatch.setattr(core_la, "_routine", recording)
        x, y, c = self._operands(n, p, 7)
        assert axpy_block(x, y, c) is x
        assert seen == asked

    def test_any_layout_of_y_and_c(self):
        x = np.ascontiguousarray(_rand_block(40, 3, 7))
        y = _rand_block(40, 6, 8)[:, ::2]
        c = _rand_block(3, 3, 9)
        expected = x + y @ c
        axpy_block(x, np.ascontiguousarray(y), c)
        np.testing.assert_allclose(x, expected, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize(
        "make_x",
        [
            pytest.param(lambda x: x.tolist(), id="list"),
            pytest.param(lambda x: np.ascontiguousarray(x, dtype=np.complex64), id="complex64"),
            pytest.param(lambda x: np.ascontiguousarray(x.real), id="float64"),
            pytest.param(lambda x: np.hstack([x, x])[:, ::2], id="strided"),
            pytest.param(lambda x: np.asfortranarray(x), id="fortran-order"),
            pytest.param(lambda x: _read_only(x), id="read-only"),
        ],
    )
    def test_rejects_x_it_cannot_update(self, make_x):
        # each of these would be updated through a copy, and the update lost
        x = make_x(np.ascontiguousarray(_rand_block(6, 2, 10)))
        before = np.array(x, copy=True)
        with pytest.raises(ValueError, match="updated in place"):
            axpy_block(x, _rand_block(6, 2, 11), np.eye(2, dtype=complex))
        np.testing.assert_array_equal(np.asarray(x), before)

    @pytest.mark.parametrize("case", ["y-is-x", "y-overlaps-x", "c-views-x"])
    def test_rejects_y_or_c_sharing_memory_with_x(self, case):
        # zgemm's output may not alias its inputs
        block = np.ascontiguousarray(_rand_block(3, 2, 12))
        x = block[:2]
        y, c = {
            "y-is-x": (x, np.eye(2, dtype=complex)),
            "y-overlaps-x": (block[1:], np.eye(2, dtype=complex)),
            "c-views-x": (_rand_block(2, 2, 13), x[:]),
        }[case]
        before = x.copy()
        with pytest.raises(ValueError, match="shares memory"):
            axpy_block(x, y, c)
        np.testing.assert_array_equal(x, before)


def _read_only(x):
    x = x.copy()
    x.flags.writeable = False
    return x


def _read_only_view(x):
    view = x.view()
    view.flags.writeable = False
    return view
