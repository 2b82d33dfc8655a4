"""Problem generators and the direct-solve oracle."""

import dataclasses
import re

import numpy as np
import pytest

from cskrylov.oracle import (
    KINDS,
    ProblemSpec,
    _pair_decode,
    direct_solve,
    gen_problem,
    gen_rhs,
)


class TestProblemSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown kind"):
            ProblemSpec(n=10, p=1, kind="hilbert")
        with pytest.raises(ValueError, match="density"):
            ProblemSpec(n=10, p=1, kind="diagdominant", density=0.0)
        with pytest.raises(ValueError, match="n >= p >= 1"):
            ProblemSpec(n=10, p=11, kind="diagdominant")

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("density", True, "density must be a real number, got True"),
            ("density", "0.1", "density must be a real number, got '0.1'"),
            ("seed", True, "seed must be an integer, got True"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", -1, "seed must be >= 0"),
            ("n", 6.0, "n must be an integer, got 6.0"),
            ("n", "6", "n must be an integer, got '6'"),
            ("n", 0, "n must be >= 1"),
            ("p", np.float64(1.0), "p must be an integer, got {!r}"),
            ("p", 0, "p must be >= 1"),
        ],
    )
    def test_numbers_pass_the_integer_and_real_rules(self, field, value, message):
        fields = {"n": 6, "p": 1, "kind": "diagdominant", field: value}
        # numpy's repr of its scalars differs between versions
        message = message.format(value)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProblemSpec(**fields)

    @pytest.mark.parametrize("n", [np.int64(6), np.uint8(6)])
    def test_numpy_integers_taken(self, n):
        a, b = gen_problem(ProblemSpec(n=n, p=np.int32(2), kind="diagdominant"))
        ref, ref_b = gen_problem(ProblemSpec(n=6, p=2, kind="diagdominant"))
        assert a.n == 6 and b.shape == (6, 2)
        np.testing.assert_array_equal(a.values, ref.values)
        np.testing.assert_array_equal(b, ref_b)

    def test_frozen(self):
        spec = ProblemSpec(n=6, p=1, kind="diagdominant")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.density = True
        with pytest.raises(ValueError, match="^density must be a real number"):
            dataclasses.replace(spec, density=True)
        assert dataclasses.replace(spec, seed=1) == ProblemSpec(
            n=6, p=1, kind="diagdominant", seed=1
        )

    def test_kind_names(self):
        assert KINDS == ("diagdominant", "realspd", "diagonal")


def test_pair_decode_is_exact_inverse():
    n = 100
    total = n * (n - 1) // 2
    i, j = _pair_decode(np.arange(total))
    assert np.all(j < i) and np.all(j >= 0) and np.all(i < n)
    np.testing.assert_array_equal(i * (i - 1) // 2 + j, np.arange(total))


class TestGeneration:
    def test_diagonal_kind_frozen_values(self):
        # pins the generator draws; a PCG64 or draw-order change breaks this
        a, b = gen_problem(ProblemSpec(n=4, p=2, kind="diagonal", seed=123))
        np.testing.assert_allclose(
            a.values,
            [
                1.68235186 - 0.6481882j,
                1.05382102 + 0.62418901j,
                1.22035987 + 0.84669j,
                1.18437181 - 0.4468512j,
            ],
            rtol=0,
            atol=1e-8,
        )
        np.testing.assert_allclose(
            b[:, 0], [0.81975456, 0.51297046, 0.8242416, 0.74146705], atol=1e-8
        )
        assert np.all(b.imag == 0.0)

    def test_bitwise_determinism(self):
        spec = ProblemSpec(n=60, p=3, kind="diagdominant", density=0.08, seed=9)
        a1, b1 = gen_problem(spec)
        a2, b2 = gen_problem(spec)
        np.testing.assert_array_equal(a1.row_ptr, a2.row_ptr)
        np.testing.assert_array_equal(a1.col_idx, a2.col_idx)
        np.testing.assert_array_equal(a1.values, a2.values)
        np.testing.assert_array_equal(b1, b2)

    def test_diagdominant_structure(self):
        a, b = gen_problem(ProblemSpec(n=50, p=2, kind="diagdominant", seed=0))
        assert a.is_symmetric
        d = a.to_dense()
        diag = np.diagonal(d)
        # unit imaginary shift on every diagonal entry
        np.testing.assert_array_equal(diag.imag, np.ones(50))
        # strict diagonal dominance by construction
        off = np.abs(d).sum(axis=1) - np.abs(diag)
        assert np.all(np.abs(diag) > off)
        assert b.shape == (50, 2) and b.flags.f_contiguous

    def test_realspd_is_real_and_positive_definite(self):
        a, _ = gen_problem(ProblemSpec(n=40, p=1, kind="realspd", density=0.1, seed=3))
        assert a.is_symmetric
        assert np.all(a.values.imag == 0.0)
        eigs = np.linalg.eigvalsh(a.to_dense().real)
        assert eigs.min() > 1.0  # dominance pushes the spectrum above 2 - sum

    def test_stored_entry_count(self):
        spec = ProblemSpec(n=50, p=1, kind="diagdominant", density=0.1, seed=5)
        a, _ = gen_problem(spec)
        assert a.nnz == 294  # 2 * round(0.1 * 1225) off-diagonal + 50 diagonal

    def test_diagonal_kind_is_diagonal(self):
        a, _ = gen_problem(ProblemSpec(n=8, p=1, kind="diagonal", seed=1))
        d = a.to_dense()
        assert np.count_nonzero(d - np.diag(np.diagonal(d))) == 0
        assert a.nnz == 8

    def test_different_seeds_differ(self):
        a1, _ = gen_problem(ProblemSpec(n=30, p=1, kind="diagdominant", seed=0))
        a2, _ = gen_problem(ProblemSpec(n=30, p=1, kind="diagdominant", seed=1))
        assert not np.array_equal(a1.to_dense(), a2.to_dense())


class TestGenRhs:
    def test_real_uniform_default(self):
        b = gen_rhs(30, 4, seed=2)
        assert b.shape == (30, 4)
        assert b.dtype == np.complex128 and b.flags.f_contiguous
        assert np.all(b.imag == 0.0)
        assert np.all((b.real >= 0.0) & (b.real < 1.0))

    def test_complex_values_flag(self):
        b = gen_rhs(30, 4, seed=2, complex_values=True)
        assert np.any(b.imag != 0.0)
        assert np.all((np.abs(b.real) <= 1.0) & (np.abs(b.imag) <= 1.0))

    def test_seed_determinism(self):
        np.testing.assert_array_equal(gen_rhs(10, 2, seed=7), gen_rhs(10, 2, seed=7))

    @pytest.mark.parametrize(
        "args,message",
        [
            ((5, 2, True), "seed must be an integer, got True"),
            ((5, True, 0), "p must be an integer, got True"),
            ((5, 2.0, 0), "p must be an integer, got 2.0"),
            ((5.0, 2, 0), "n must be an integer, got 5.0"),
            ((5, 2, 1.5), "seed must be an integer, got 1.5"),
            ((5, 2, -1), "seed must be >= 0"),
            ((0, 2, 0), "n must be >= 1"),
            ((5, 0, 0), "p must be >= 1"),
        ],
    )
    def test_numbers_pass_the_integer_rule(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen_rhs(*args)

    def test_numpy_integers_taken(self):
        b = gen_rhs(np.int64(6), np.uint8(2), np.int32(3))
        np.testing.assert_array_equal(b, gen_rhs(6, 2, 3))


class TestDirectSolve:
    def test_identity(self):
        b = gen_rhs(5, 2, seed=0)
        np.testing.assert_array_equal(direct_solve(np.eye(5), b), b)

    def test_diagonal_hand_case(self):
        a = np.diag([1.0, 2.0j])
        b = np.array([[1.0], [2.0j]])
        np.testing.assert_allclose(direct_solve(a, b), [[1.0], [1.0]], atol=1e-15)

    def test_seeded_system_residual(self):
        a, b = gen_problem(ProblemSpec(n=30, p=3, kind="diagdominant", seed=4))
        d = a.to_dense()
        x = direct_solve(d, b)
        rel = np.linalg.norm(b - d @ x) / np.linalg.norm(b)
        assert rel <= 1e-12

    def test_singular_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            direct_solve(np.zeros((2, 2)), np.ones((2, 1)))
