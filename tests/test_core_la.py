"""Core linear algebra: matrix storage, Gram products, QR, small solves."""

import numpy as np
import pytest

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
        assert m.storage == "csr"
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

    def test_dense_and_csr_disjoint(self):
        with pytest.raises(ValueError, match="not both"):
            ComplexSymmetricMatrix(
                1, row_ptr=[0, 1], col_idx=[0], values=[1.0], dense=np.eye(1)
            )

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

    def test_matvec_csr_matches_dense(self):
        rng = np.random.default_rng(5)
        n = 12
        d = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        d[np.abs(d) < 0.9] = 0.0
        rows, cols = np.nonzero(d)
        m_csr = ComplexSymmetricMatrix.from_coo(n, rows, cols, d[rows, cols])
        m_dense = ComplexSymmetricMatrix.from_dense(d)
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

    def test_block_matvec_delegates(self):
        m = ComplexSymmetricMatrix.from_dense(2 * np.eye(2))
        v = np.ones((2, 2), dtype=complex, order="F")
        np.testing.assert_array_equal(block_matvec(m, v), 2 * v)

    def test_repr(self):
        m = ComplexSymmetricMatrix.from_coo(2, [0], [0], [1.0])
        assert "csr" in repr(m) and "nnz=1" in repr(m)


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
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 7))
        m = rng.uniform(-1, 1, (p, p)) + 1j * rng.uniform(-1, 1, (p, p))
        rhs = rng.uniform(-1, 1, (p, 2)) + 1j * rng.uniform(-1, 1, (p, 2))
        z = solve_small(m, rhs)
        np.testing.assert_allclose(z, np.linalg.solve(m, rhs), rtol=0, atol=1e-12)

    def test_needs_pivoting(self):
        # zero leading pivot, solvable only by row exchange
        m = np.array([[0, 1], [1, 0]], dtype=complex)
        rhs = np.array([2.0, 3.0], dtype=complex)
        np.testing.assert_allclose(solve_small(m, rhs), [3.0, 2.0], atol=1e-15)

    def test_one_dimensional_rhs_round_trips(self):
        z = solve_small(np.eye(2, dtype=complex), np.array([1.0, 2.0j]))
        assert z.shape == (2,)
        np.testing.assert_array_equal(z, [1.0, 2.0j])

    def test_singular_raises_breakdown(self):
        m = np.array([[1, 1], [1, 1]], dtype=complex)
        with pytest.raises(BreakdownError) as exc:
            solve_small(m, np.ones(2, dtype=complex))
        assert exc.value.pivot_index == 1
        assert exc.value.pivot_magnitude < 1e-14

    def test_zero_matrix_raises_breakdown(self):
        with pytest.raises(BreakdownError) as exc:
            solve_small(np.zeros((2, 2), dtype=complex), np.ones(2, dtype=complex))
        assert exc.value.pivot_index == 0
        assert exc.value.pivot_magnitude == 0.0

    def test_rhs_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            solve_small(np.eye(2, dtype=complex), np.ones(3, dtype=complex))

    def test_inputs_not_mutated(self):
        m = np.array([[2, 1], [1, 2]], dtype=complex)
        rhs = np.ones((2, 1), dtype=complex)
        m0, rhs0 = m.copy(), rhs.copy()
        solve_small(m, rhs)
        np.testing.assert_array_equal(m, m0)
        np.testing.assert_array_equal(rhs, rhs0)


class TestBlockOps:
    def test_fro_norm_matches_numpy(self):
        v = _rand_block(15, 4, 9)
        assert fro_norm(v) == pytest.approx(np.linalg.norm(v), rel=1e-14)

    def test_axpy_block(self):
        x = _rand_block(10, 2, 1)
        y = _rand_block(10, 2, 2)
        c = np.array([[1, 2], [3j, 4]], dtype=complex)
        np.testing.assert_allclose(axpy_block(x, y, c), x + y @ c, atol=1e-14)

    def test_axpy_block_shape_errors(self):
        x = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError, match="nonconformable"):
            axpy_block(x, np.ones((5, 2), dtype=complex), np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="nonconformable"):
            axpy_block(x, x, np.eye(3, dtype=complex))
