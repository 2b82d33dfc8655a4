"""
Low-level numerical kernels: vectorized numpy and numpy.linalg, and
scipy.sparse for the CSR product.

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
    """Economy QR of n-by-p w into q and xi: q conjugate-orthonormal, xi
    upper triangular with real nonnegative diagonal, q @ xi == w. q must
    not overlap w.

    One column is normalized. Wider blocks use CholeskyQR2 and fall back
    to Householder QR when the block is too ill-conditioned or too near
    rank deficiency for it.
    """
    if w.shape[1] == 1:
        # a squared norm that underflows or overflows goes to Householder,
        # whose norm is scaled
        with np.errstate(over="ignore"):
            nrm = fro_norm(w)
        if 0.0 < nrm < np.inf:
            np.divide(w, nrm, out=q)
            xi[0, 0] = nrm
            return
    elif _cholesky_qr2(w, q, xi):
        return
    _householder_qr(w, q, xi)


# CholeskyQR2 (Fukaya et al., ScalA 2014) is accurate to working precision
# when its first pass leaves Q1 nearly orthonormal (Yamamoto et al., ETNA
# 44, 2015). Below this defect ||Q1^H Q1 - I||_F, Q1's singular values lie
# within sqrt(1 -+ 0.1) of one, so the second pass factors a
# well-conditioned block.
_CHOLQR_MAX_DEFECT = 0.1
# W^H W holds the squares of the diagonal of the factor; when the smallest
# entry of that diagonal is below sqrt(eps) of the largest, the Gram
# matrix cannot resolve it, while Householder resolves it to O(eps ||W||).
_CHOLQR_MIN_DIAG_RATIO = 1e-8
# rows per chunk of the n-by-p passes, bounding their scratch buffer
_ROW_CHUNK = 4096


def _cholesky_qr2(w, q, xi):
    """CholeskyQR2 of w into q and xi. Returns False, with q and xi partly
    written, when the block fails the module's accuracy conditions."""
    n, p = w.shape
    buf = np.empty((min(n, _ROW_CHUNK), p), dtype=np.complex128, order="F")
    r1 = _cholesky_r(_gram_h(w, buf))
    if r1 is None:
        return False
    np.matmul(w, np.linalg.inv(r1), out=q)
    g2 = _gram_h(q, buf)
    if not np.linalg.norm(g2 - np.eye(p)) <= _CHOLQR_MAX_DEFECT:
        return False
    r2 = _cholesky_r(g2)
    if r2 is None:
        return False
    _right_multiply(q, np.linalg.inv(r2), buf)
    # the diagonal of xi is the product of the factors' real positive
    # diagonals, with exactly zero imaginary parts
    np.matmul(r2, r1, out=xi)
    d = np.diagonal(xi).real
    return bool(d.min() >= _CHOLQR_MIN_DIAG_RATIO * d.max())


def _gram_h(v, buf):
    """v^H @ v, accumulated over row chunks so that no n-by-p conjugate
    copy of v is made."""
    g = np.zeros((v.shape[1], v.shape[1]), dtype=np.complex128)
    for i in range(0, v.shape[0], _ROW_CHUNK):
        rows = v[i : i + _ROW_CHUNK]
        g += np.conjugate(rows, out=buf[: rows.shape[0]]).T @ rows
    return g


def _cholesky_r(g):
    """Upper triangular r with positive diagonal and r^H r == g, or None
    when the Cholesky factorization fails or is not finite."""
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None
    return np.conj(low.T) if np.isfinite(low).all() else None


def _right_multiply(v, c, buf):
    """v <- v @ c in place, one row chunk at a time through buf."""
    for i in range(0, v.shape[0], _ROW_CHUNK):
        rows = v[i : i + _ROW_CHUNK]
        rows[...] = np.matmul(rows, c, out=buf[: rows.shape[0]])


def _householder_qr(w, q, xi):
    """Householder QR, with each column of q phase-scaled so that xi has a
    real nonnegative diagonal."""
    qf, r = np.linalg.qr(w, mode="reduced")
    d = np.diagonal(r).copy()
    ad = np.abs(d)
    scale = np.where(ad > 0.0, d / np.where(ad > 0.0, ad, 1.0), 1.0 + 0.0j)
    q[:] = qf * scale[None, :]
    xi[:] = np.conj(scale)[:, None] * r
    np.fill_diagonal(xi, ad)
