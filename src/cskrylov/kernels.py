"""
Low-level numerical kernels: vectorized numpy, and scipy.sparse for the
CSR product.

Each kernel writes its result into a caller-supplied ``out`` array (or
returns a scalar), so callers can reuse workspaces. Repeated calls on
the same inputs in one process produce bitwise-identical results.

All block vectors are expected as Fortran-ordered complex128 arrays
(one right-hand side per column); small p-by-p matrices are C-ordered
complex128. Callers in `core_la` normalize layouts before calling.
"""

import numpy as np

__all__ = [
    "get_backend",
    "csr_block_matvec",
    "dense_block_matvec",
    "t_gram",
    "axpy_block",
    "fro_norm",
    "thin_qr",
]


def get_backend():
    """Name of the kernel implementation, reported in benchmark output."""
    return "numpy"


def csr_block_matvec(csr, v, out):
    """out <- csr @ v for a scipy.sparse CSR array; rows accumulate in
    index order."""
    out[:] = csr @ v


def dense_block_matvec(a, v, out):
    """out <- a @ v for a dense square a."""
    out[:] = a @ v


def t_gram(v, w, out):
    """out <- v^T @ w, the unconjugated bilinear Gram product."""
    out[:] = v.T @ w


def axpy_block(x, y, c, out):
    """out <- x + y @ c, with no temporaries; out must not overlap x."""
    np.matmul(y, c, out=out)
    out += x


def fro_norm(v):
    """Frobenius norm: sqrt of the sum of squared entry moduli."""
    return float(np.linalg.norm(v))


def thin_qr(w, q, xi):
    """Economy QR of n-by-p w: q conjugate-orthonormal, xi upper triangular
    with real nonnegative diagonal, q @ xi == w."""
    qf, r = np.linalg.qr(w, mode="reduced")
    d = np.diagonal(r).copy()
    ad = np.abs(d)
    scale = np.where(ad > 0.0, d / np.where(ad > 0.0, ad, 1.0), 1.0 + 0.0j)
    q[:] = qf * scale[None, :]
    xi[:] = np.conj(scale)[:, None] * r
    np.fill_diagonal(xi, ad)
