"""Kernels: reference formulas, edge cases, QR factor properties and
bitwise determinism of the one (numpy) implementation.

The tests that take an ``impl`` parameter run once, on the implementation
that `kernels.get_backend` names; the parameter keeps their test IDs
(``[numpy]``) the same as when a second implementation existed, so runs
stay comparable across versions.
"""

import numpy as np
import pytest
import scipy.sparse

from cskrylov import kernels

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
    csr = scipy.sparse.csr_array((values, col_idx, row_ptr), shape=(n, n))
    y = np.empty((n, p), dtype=np.complex128, order="F")
    kernels.csr_block_matvec(csr, v, y)
    out["csr_matvec"] = y
    y2 = np.empty((n, p), dtype=np.complex128, order="F")
    kernels.dense_block_matvec(np.ascontiguousarray(dense), v, y2)
    out["dense_matvec"] = y2
    g = np.empty((p, p), dtype=np.complex128)
    kernels.t_gram(v, w, g)
    out["t_gram"] = g
    z = np.empty((n, p), dtype=np.complex128, order="F")
    kernels.axpy_block(v, w, c, z)
    out["axpy"] = z
    out["fro"] = np.array([kernels.fro_norm(v)])
    q = np.empty((n, p), dtype=np.complex128, order="F")
    xi = np.zeros((p, p), dtype=np.complex128)
    kernels.thin_qr(v, q, xi)
    out["qr_q"] = q
    out["qr_xi"] = xi
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
    csr = scipy.sparse.csr_array(
        (
            np.asarray(values, dtype=np.complex128),
            np.asarray(col_idx, dtype=np.int64),
            np.asarray(row_ptr, dtype=np.int64),
        ),
        shape=(n, n),
    )
    out = np.full(v.shape, np.nan, dtype=np.complex128, order="F")
    kernels.csr_block_matvec(csr, v, out)
    return out


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
    w = np.array([[3.0], [4.0j]], order="F")
    q = np.empty((2, 1), dtype=np.complex128, order="F")
    xi = np.zeros((1, 1), dtype=np.complex128)
    kernels.thin_qr(w, q, xi)
    np.testing.assert_allclose(xi, [[5.0]], atol=1e-15)
    np.testing.assert_allclose(q, [[0.6], [0.8j]], atol=1e-15)


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("seed", range(50))
def test_thin_qr_properties_both_backends(impl, seed, householder_calls):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    p = int(rng.integers(1, min(n, 6) + 1))
    w = _rand_block(n, p, seed + 500)
    q = np.empty((n, p), dtype=np.complex128, order="F")
    xi = np.zeros((p, p), dtype=np.complex128)
    kernels.thin_qr(w, q, xi)
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
