"""Frozen CholeskyQR2 thin QR with conjugate-copy Grams.

cskrylov.core_la.thin_qr as it was when each row chunk's Gram W^H W
was formed from a conjugate copy of the chunk, the second pass
multiplied Q1 by R2^{-1} one row chunk at a time through a scratch
buffer, and a single column was divided by its norm. The tests compare
the live code against it: on p = 1 columns with no zero part and on blocks
whose p is a multiple of 4 both must give the same bits. It shares no
code with cskrylov. Keep it as it is.
"""

from collections import namedtuple

import numpy as np

QR = namedtuple("QR", "q xi")

_MAX_DEFECT = 0.1
_MIN_DIAG_RATIO = 1e-8
_ROW_CHUNK = 4096


def thin_qr(w):
    """(q, xi) of an (n, p) block, n >= p, as the parent computed them."""
    w = np.asfortranarray(w, dtype=np.complex128)
    n, p = w.shape
    q = np.empty((n, p), dtype=np.complex128, order="F")
    xi = np.zeros((p, p), dtype=np.complex128)
    if p == 1:
        with np.errstate(over="ignore"):
            nrm = float(np.linalg.norm(w))
        done = 0.0 < nrm < np.inf
        if done:
            np.divide(w, nrm, out=q)
            xi[0, 0] = nrm
    else:
        done = _cholesky_qr2(w, q, xi)
    if not done:
        _householder_qr(w, q, xi)
    return QR(q, xi)


def _cholesky_qr2(w, q, xi):
    n, p = w.shape
    buf = np.empty((min(n, _ROW_CHUNK), p), dtype=np.complex128, order="F")
    r1 = _cholesky_r(_gram_h(w, buf))
    if r1 is None:
        return False
    np.matmul(w, np.linalg.inv(r1), out=q)
    g2 = _gram_h(q, buf)
    if not np.linalg.norm(g2 - np.eye(p)) <= _MAX_DEFECT:
        return False
    r2 = _cholesky_r(g2)
    if r2 is None:
        return False
    _right_multiply(q, np.linalg.inv(r2), buf)
    np.matmul(r2, r1, out=xi)
    d = np.diagonal(xi).real
    return bool(d.min() >= _MIN_DIAG_RATIO * d.max())


def _gram_h(v, buf):
    g = np.zeros((v.shape[1], v.shape[1]), dtype=np.complex128)
    for i in range(0, v.shape[0], _ROW_CHUNK):
        rows = v[i : i + _ROW_CHUNK]
        g += np.conjugate(rows, out=buf[: rows.shape[0]]).T @ rows
    return g


def _cholesky_r(g):
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None
    return np.conj(low.T) if np.isfinite(low).all() else None


def _right_multiply(v, c, buf):
    for i in range(0, v.shape[0], _ROW_CHUNK):
        rows = v[i : i + _ROW_CHUNK]
        rows[...] = np.matmul(rows, c, out=buf[: rows.shape[0]])


def _householder_qr(w, q, xi):
    qf, r = np.linalg.qr(w, mode="reduced")
    d = np.diagonal(r).copy()
    ad = np.abs(d)
    scale = np.where(ad > 0.0, d / np.where(ad > 0.0, ad, 1.0), 1.0 + 0.0j)
    q[:] = qf * scale[None, :]
    xi[:] = np.conj(scale)[:, None] * r
    np.fill_diagonal(xi, ad)
