"""The `core_la` kernels: reference formulas, edge cases, QR factor
properties and bitwise determinism of repeated calls.

The tests that take an ``impl`` parameter run once, on the implementation
that `kernels.get_backend` names; the parameter keeps their test IDs
(``[numpy]``) the same as when a second implementation existed, so runs
stay comparable across versions. The parameter goes with `get_backend`,
and these cases then join `test_core_la.py`.
"""

import numpy as np
import pytest

from cskrylov import kernels
from cskrylov.core_la import (
    ComplexSymmetricMatrix,
    axpy_block,
    fro_norm,
    t_gram,
    thin_qr,
)

IMPLS = [kernels.get_backend()]


def _rand_block(n, p, seed):
    rng = np.random.default_rng(seed)
    return np.asfortranarray(
        rng.uniform(-1, 1, (n, p)) + 1j * rng.uniform(-1, 1, (n, p))
    )


def _run_all_kernels(n=40, p=3, seed=42):
    """Exercise every kernel once, returning the outputs as a dict."""
    rng = np.random.default_rng(seed)
    dense = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    sparse = dense.copy()
    sparse[np.abs(sparse) < 1.0] = 0.0
    rows, cols = np.nonzero(sparse)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(row_ptr, rows + 1, 1)
    np.cumsum(row_ptr, out=row_ptr)
    values = np.ascontiguousarray(sparse[rows, cols])
    col_idx = np.ascontiguousarray(cols, dtype=np.int64)
    v = _rand_block(n, p, seed + 1)
    w = _rand_block(n, p, seed + 2)
    c = np.ascontiguousarray(_rand_block(p, p, seed + 3))

    out = {}
    csr = ComplexSymmetricMatrix(n, row_ptr=row_ptr, col_idx=col_idx, values=values)
    out["csr_matvec"] = csr.matvec(v)
    out["dense_matvec"] = ComplexSymmetricMatrix.from_dense(dense).matvec(v)
    out["t_gram"] = t_gram(v, w)
    # axpy_block updates its first argument in place; v stays the input
    # of the later kernels and of the reference formulas
    out["axpy"] = axpy_block(v.copy(order="F"), w, c)
    out["fro"] = np.array([fro_norm(v)])
    f = thin_qr(v)
    out["qr_q"] = f.q
    out["qr_xi"] = f.xi
    out["_sparse"] = sparse
    out["_dense"] = dense
    out["_v"] = v
    out["_w"] = w
    out["_c"] = c
    return out


@pytest.mark.parametrize("impl", IMPLS)
def test_kernels_match_reference_formulas(impl):
    r = _run_all_kernels()
    np.testing.assert_allclose(r["csr_matvec"], r["_sparse"] @ r["_v"], atol=1e-13)
    np.testing.assert_allclose(r["dense_matvec"], r["_dense"] @ r["_v"], atol=1e-13)
    np.testing.assert_allclose(r["t_gram"], r["_v"].T @ r["_w"], atol=1e-13)
    np.testing.assert_allclose(r["axpy"], r["_v"] + r["_w"] @ r["_c"], atol=1e-13)
    assert r["fro"][0] == pytest.approx(np.linalg.norm(r["_v"]), rel=1e-14)
    np.testing.assert_allclose(r["qr_q"] @ r["qr_xi"], r["_v"], atol=1e-13)


def _csr_matvec(row_ptr, col_idx, values, v):
    n = len(row_ptr) - 1
    csr = ComplexSymmetricMatrix(n, row_ptr=row_ptr, col_idx=col_idx, values=values)
    return csr.matvec(v)


@pytest.mark.parametrize("impl", IMPLS)
def test_csr_matvec_handles_empty_rows(impl):
    # rows 0 and 2 store nothing; reductions must not bleed across rows
    v = np.asfortranarray(np.arange(1, 9, dtype=np.complex128).reshape(4, 2))
    out = _csr_matvec([0, 0, 2, 2, 3], [0, 3, 1], [2.0, 1j, -1.0], v)
    dense = np.zeros((4, 4), dtype=np.complex128)
    dense[1, 0], dense[1, 3], dense[3, 1] = 2.0, 1j, -1.0
    np.testing.assert_array_equal(out, dense @ v)
    # a matrix that stores nothing at all maps every block to zero
    np.testing.assert_array_equal(_csr_matvec([0] * 5, [], [], v), np.zeros((4, 2)))


@pytest.mark.parametrize("impl", IMPLS)
def test_thin_qr_hand_case_per_backend(impl):
    f = thin_qr(np.array([[3.0], [4.0j]], order="F"))
    np.testing.assert_allclose(f.xi, [[5.0]], atol=1e-15)
    np.testing.assert_allclose(f.q, [[0.6], [0.8j]], atol=1e-15)


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("seed", range(50))
def test_thin_qr_properties_both_backends(impl, seed, householder_calls):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    p = int(rng.integers(1, min(n, 6) + 1))
    w = _rand_block(n, p, seed + 500)
    f = thin_qr(w)
    q, xi = f.q, f.xi
    np.testing.assert_allclose(q @ xi, w, atol=1e-13)
    np.testing.assert_allclose(np.conj(q.T) @ q, np.eye(p), atol=1e-13)
    d = np.diagonal(xi)
    assert np.all(d.imag == 0.0) and np.all(d.real >= 0.0)
    assert np.allclose(np.tril(xi, -1), 0.0, atol=1e-15)
    # well-conditioned blocks never need the Householder fallback
    assert householder_calls == []


def test_kernel_determinism_within_backend():
    a = _run_all_kernels(seed=7)
    b = _run_all_kernels(seed=7)
    for key in ("csr_matvec", "t_gram", "axpy", "fro", "qr_q", "qr_xi"):
        np.testing.assert_array_equal(a[key], b[key])
