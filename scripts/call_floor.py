#!/usr/bin/env python3
"""Print what each block kernel costs per call on young1c-size blocks,
next to the bare numpy/BLAS call it wraps.

For n = 841 (the order of young1c) and p in {1, 8, 32}, each line gives
the median microseconds per call of one kernel of ``cskrylov.core_la``
and of the bare expression it wraps, on the inputs a solve hands it:
row-major complex128 blocks, and for `solve_small` a p x p Gram with a
p x p right-hand side. The kernel and its bare expression alternate,
round after round, so that a drift in the machine's speed moves both.
A kernel with two branches is set beside the branch it takes at that
shape: `axpy_block` beside ``x += y @ c`` or beside the ``zgemm`` call
itself (its arguments made before the clock starts), `solve_small` of
order 1 beside the division. `fro_norm` is timed on an n x p block and
on a p x p one (the xi of a factored solve), beside both ``np.einsum``
of its one pass and ``np.linalg.norm``.

The table runs in a child process under OPENBLAS_NUM_THREADS=1 and
again under =2, one after the other, importing the package from the
``src/`` of the tree this script sits in. Run it from anywhere:

    python3 scripts/call_floor.py
"""

import argparse
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREADS = (1, 2)
WIDTHS = (1, 8, 32)
# timed rounds per line, and the wall time one round of calls aims at
ROUNDS = 21
ROUND_SECONDS = 2e-3


def _per_call(fn, number):
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - t0) / number


def _median_us(kernel, bare):
    """Median microseconds per call of kernel and of bare, timed in
    alternating rounds of the same number of calls."""
    kernel(), bare()
    number = max(5, int(ROUND_SECONDS / max(_per_call(kernel, 5), 1e-7)))
    times = ([], [])
    for _ in range(ROUNDS):
        for fn, out in zip((kernel, bare), times):
            out.append(_per_call(fn, number))
    return tuple(statistics.median(t) * 1e6 for t in times)


def _lines(core_la, young):
    """(kernel, shape, kernel call, bare label, bare call) of every line."""
    import numpy as np
    from scipy.sparse import _sparsetools

    rng = np.random.default_rng(0)

    def block(n, p):
        return rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))

    n = young.n
    for p in WIDTHS:
        shape = f"{n}x{p}"
        v, w, x, y = (block(n, p) for _ in range(4))
        c = block(p, p)
        m = c + c.T
        rhs = block(p, p)

        def matvec(v=v, w=w):
            return core_la.block_matvec(young, v, out=w)

        if p == 1:
            def bare_matvec(v=v, w=w):
                w.fill(0.0)
                _sparsetools.csr_matvec(n, n, young.row_ptr, young.col_idx,
                                        young.values, v.ravel(), w.ravel())
        else:
            def bare_matvec(v=v, w=w, p=p):
                w.fill(0.0)
                _sparsetools.csr_matvecs(n, n, p, young.row_ptr, young.col_idx,
                                         young.values, v.ravel(), w.ravel())
        label = "csr_matvec" if p == 1 else "csr_matvecs"
        yield "block_matvec", shape, matvec, f"{label} into a zeroed block", bare_matvec

        yield ("t_gram", shape, lambda v=v, w=w: core_la.t_gram(v, w),
               "v.T @ w", lambda v=v, w=w: v.T @ w)

        def axpy(x=x, y=y, c=c):
            return core_la.axpy_block(x, y, c)

        gemm = core_la._routine("zgemm")
        if gemm is not None and x.size >= core_la._GEMM_MIN_SIZE:
            fn, int_t = gemm
            rows, cols = int_t(n), int_t(p)
            one = core_la._ONE_ADDRESS
            ax, ay, ac = (arr.ctypes.data for arr in (x, y, c))
            if p == 1:
                def bare_axpy():
                    fn(b"N", b"T", rows, cols, cols, one, ay, rows, ac, cols, one, ax, rows)
            else:
                def bare_axpy():
                    fn(b"N", b"N", cols, rows, cols, one, ac, cols, ay, cols, one, ax, cols)
            yield "axpy_block", shape, axpy, "zgemm, arguments made once", bare_axpy
        else:
            def bare_axpy(x=x, y=y, c=c):
                x += y @ c
            yield "axpy_block", shape, axpy, "x += y @ c", bare_axpy

        q = np.empty_like(w)
        if p == 1:
            def bare_qr(w=w, q=q):
                nrm = float(np.linalg.norm(w))
                np.multiply(w.view(np.float64), 1.0 / nrm, out=q.view(np.float64))
            label = "w / np.linalg.norm(w)"
        else:
            def bare_qr(w=w):
                r = np.conj(np.linalg.cholesky(np.conj(w).T @ w)).T
                return w @ np.linalg.inv(r)
            label = "one CholeskyQR pass in numpy"
        # a Gaussian block is well conditioned: thin_qr takes one pass and
        # leaves w as it was
        yield "thin_qr", shape, lambda w=w, q=q: core_la.thin_qr(w, out=q), label, bare_qr

        def solve(m=m, rhs=rhs):
            return core_la.solve_small(m, rhs)

        if p == 1:
            yield ("solve_small", f"{p}x{p}", solve, "rhs / m[0, 0]",
                   lambda m=m, rhs=rhs: rhs / m[0, 0])
        else:
            yield ("solve_small", f"{p}x{p}", solve, "np.linalg.solve(m, rhs)",
                   lambda m=m, rhs=rhs: np.linalg.solve(m, rhs))

        for arr, size in ((v, shape), (c, f"{p}x{p}")):
            flat = arr.reshape(-1).view(np.float64)
            norm = lambda arr=arr: core_la.fro_norm(arr)  # noqa: E731
            yield ("fro_norm", size, norm, "sqrt(einsum('i,i->'))",
                   lambda flat=flat: math.sqrt(np.einsum("i,i->", flat, flat)))
            yield ("fro_norm", size, norm, "np.linalg.norm",
                   lambda arr=arr: np.linalg.norm(arr))


def run_table():
    sys.path.insert(0, str(ROOT / "src"))
    import cskrylov as ck
    from cskrylov import core_la

    if Path(ck.__file__).resolve().parent != ROOT / "src" / "cskrylov":
        raise SystemExit(f"imported cskrylov from {ck.__file__}, not {ROOT / 'src'}")
    threads = os.environ["OPENBLAS_NUM_THREADS"]
    _, young = ck.read_matrix_market(ROOT / "tests" / "fixtures" / "young1c.mtx")
    for kernel, shape, call, label, bare in _lines(core_la, young):
        ours, floor = _median_us(call, bare)
        print(
            f"threads={threads} {kernel:<12} {shape:>7} kernel={ours:8.2f}us "
            f"bare={floor:8.2f}us ratio={ours / floor:5.2f}  bare: {label}",
            flush=True,
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        run_table()
        return 0
    for threads in THREADS:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        subprocess.run([sys.executable, __file__, "--child"], env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
