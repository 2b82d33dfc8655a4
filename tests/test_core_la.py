"""Core linear algebra: matrix storage, Gram products, QR, small solves."""

import ctypes
import hashlib
import types

import coo_reference
import numpy as np
import pytest
from conftest import require_fixture

from cskrylov import core_la
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
from cskrylov.oracle import ProblemSpec, gen_problem


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
        assert y_csr.flags.f_contiguous
        np.testing.assert_allclose(y_csr, d @ v, rtol=0, atol=1e-13)
        np.testing.assert_allclose(y_dense, d @ v, rtol=0, atol=1e-13)

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
        assert out.flags.f_contiguous and out.shape == (n, p)
        np.testing.assert_array_equal(out, expected)

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


class TestThinQr:
    def test_hand_case(self):
        w = np.array([[3.0], [4.0j]], order="F")
        fac = thin_qr(w)
        np.testing.assert_allclose(fac.xi, [[5.0]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(fac.q, [[0.6], [0.8j]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(25))
    def test_factor_properties(self, seed, householder_calls):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        p = int(rng.integers(1, min(n, 8) + 1))
        w = _rand_block(n, p, seed + 1000)
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

    def test_one_dimensional_rhs_round_trips(self):
        z = solve_small(np.eye(2, dtype=complex), np.array([1.0, 2.0j]))
        assert z.shape == (2,)
        np.testing.assert_array_equal(z, [1.0, 2.0j])

    def test_singular_raises_breakdown(self):
        m = np.array([[1, 1], [1, 1]], dtype=complex)
        with pytest.raises(BreakdownError) as exc:
            solve_small(m, np.ones(2, dtype=complex))
        assert exc.value.pivot_index == 1
        assert exc.value.pivot_magnitude == 0.0

    @pytest.mark.parametrize(
        "m,index",
        [
            # whichever rule picks the rows, these pivots vanish exactly:
            # the third of a rank-2 matrix, the second and third of a rank-1
            ([[2, 1, 3], [1, 1, 2], [1, 0, 1]], 2),
            ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], 1),
        ],
    )
    def test_breakdown_names_the_first_small_pivot(self, m, index):
        with pytest.raises(BreakdownError) as exc:
            solve_small(np.array(m, dtype=complex), np.ones((3, 1), dtype=complex))
        assert exc.value.pivot_index == index
        assert exc.value.pivot_magnitude == 0.0

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
            # LAPACK itself stops at the exact zero pivot of this one and
            # leaves the right-hand side as it was, finite
            [[0, 1], [np.nan, 1]],
        ],
    )
    def test_nan_matrix_gives_non_finite_solution(self, m):
        m = np.array(m, dtype=complex)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = solve_small(m, np.ones(m.shape[0], dtype=complex))
        assert not np.isfinite(z).all()

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

    def test_axpy_block(self):
        x = _rand_block(10, 2, 1)
        y = _rand_block(10, 2, 2)
        c = np.array([[1, 2], [3j, 4]], dtype=complex)
        expected = x + y @ c
        np.testing.assert_allclose(axpy_block(x, y, c), expected, atol=1e-14)

    def test_axpy_block_shape_errors(self):
        x = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError, match="nonconformable"):
            axpy_block(x, np.ones((5, 2), dtype=complex), np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="nonconformable"):
            axpy_block(x, x, np.eye(3, dtype=complex))


def _parent_axpy(x, y, c):
    """The block update before it was made in place: Y @ C into a new
    Fortran-order block, then X added."""
    out = np.empty(x.shape, dtype=np.complex128, order="F")
    np.matmul(y, c, out=out)
    out += x
    return out


class TestAxpyBlockInPlace:
    """`axpy_block` updates x in place: by zgemm from `_GEMM_MIN_SIZE`
    entries on, by numpy's product below that or without zgemm."""

    @staticmethod
    def _operands(n, p, seed):
        return (_rand_block(n, p, seed), _rand_block(n, p, seed + 1),
                np.ascontiguousarray(_rand_block(p, p, seed + 2)))

    @pytest.mark.parametrize("p", [1, 2, 8, 32])
    def test_zgemm_updates_x_in_place(self, p):
        # large enough for zgemm at every p
        x, y, c = self._operands(core_la._GEMM_MIN_SIZE, p, 1)
        expected = _parent_axpy(x, y, c)
        assert axpy_block(x, y, c) is x
        if p == 1:
            # numpy's product of a single column takes another BLAS path
            np.testing.assert_allclose(x, expected, rtol=1e-15, atol=1e-15)
        else:
            np.testing.assert_array_equal(x, expected)

    @pytest.mark.parametrize("p", [1, 2, 8, 32])
    @pytest.mark.parametrize("zgemm", ["small-block", "no-symbol"])
    def test_numpy_product_keeps_the_parent_bits(self, p, zgemm, monkeypatch):
        if zgemm == "no-symbol":
            monkeypatch.setattr(core_la, "_routine", lambda name: None)
            n = core_la._GEMM_MIN_SIZE
        else:
            n = (core_la._GEMM_MIN_SIZE - 1) // p
        x, y, c = self._operands(n, p, 4)
        expected = _parent_axpy(x, y, c)
        reference = x + y @ c
        assert axpy_block(x, y, c) is x
        np.testing.assert_array_equal(x, expected)
        np.testing.assert_allclose(x, reference, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("below,asked", [(True, []), (False, ["zgemm"])])
    def test_zgemm_from_the_size_threshold_on(self, below, asked, monkeypatch):
        n = core_la._GEMM_MIN_SIZE // 2 - below
        seen = []
        routine = core_la._routine

        def recording(name):
            seen.append(name)
            return routine(name)

        monkeypatch.setattr(core_la, "_routine", recording)
        axpy_block(*self._operands(n, 2, 7))
        assert seen == asked

    def test_any_layout_of_y_and_c(self):
        x = _rand_block(40, 3, 7)
        y = _rand_block(40, 6, 8)[:, ::2]
        c = _rand_block(3, 3, 9)
        expected = x + y @ c
        axpy_block(x, np.ascontiguousarray(y), c)
        np.testing.assert_allclose(x, expected, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize(
        "make_x",
        [
            pytest.param(lambda x: x.tolist(), id="list"),
            pytest.param(np.ascontiguousarray, id="c-order"),
            pytest.param(lambda x: np.asfortranarray(x, dtype=np.complex64), id="complex64"),
            pytest.param(lambda x: np.asfortranarray(x.real), id="float64"),
            pytest.param(lambda x: np.asfortranarray(np.hstack([x, x]))[:, ::2], id="strided"),
            pytest.param(lambda x: _read_only(x), id="read-only"),
        ],
    )
    def test_rejects_x_it_cannot_update(self, make_x):
        # each of these would be updated through a copy, and the update lost
        x = make_x(_rand_block(6, 2, 10))
        before = np.array(x, copy=True)
        with pytest.raises(ValueError, match="updated in place"):
            axpy_block(x, _rand_block(6, 2, 11), np.eye(2, dtype=complex))
        np.testing.assert_array_equal(np.asarray(x), before)

    @pytest.mark.parametrize("case", ["y-is-x", "y-overlaps-x", "c-views-x"])
    def test_rejects_y_or_c_sharing_memory_with_x(self, case):
        # zgemm's output may not alias its inputs
        block = _rand_block(2, 3, 12)
        x = block[:, :2]
        y, c = {
            "y-is-x": (x, np.eye(2, dtype=complex)),
            "y-overlaps-x": (block[:, 1:], np.eye(2, dtype=complex)),
            "c-views-x": (_rand_block(2, 2, 13), x.T),
        }[case]
        before = x.copy()
        with pytest.raises(ValueError, match="shares memory"):
            axpy_block(x, y, c)
        np.testing.assert_array_equal(x, before)


def _read_only(x):
    x = x.copy(order="F")
    x.flags.writeable = False
    return x
