#!/usr/bin/env python3
"""Print a digest of the benchmark's solves, to show that a change keeps
their bits.

For each case and solver one line gives the iteration count, the
status, ``repr(trr)``, and the first 16 hex digits of the SHA-256 of
the residual history (as float64) and of X. The cases:

- young1c with p in {1, 8, 32}, right-hand sides ``gen_rhs(841, p, 0)``
- the seed-0 gen1e5-p8 problem (n = 1e5, p = 8, diagdominant)
- the same seed-0 matrix with ``gen_rhs(n, 1, 0)`` (n = 1e5, p = 1)
- a tridiagonal matrix of order 1e5 (diagonal 4 + 1j, off-diagonals
  -1) with ``gen_rhs(n, 8, 0)``: a banded operator, so solved in file
  order where the two gen1e5 cases go through their locality copy
- the same tridiagonal matrix with ``gen_rhs(n, 6, 0)``: at p = 6 and
  n = 1e5 OpenBLAS's ``zsyrk`` and ``zgemm`` round a self-Gram V^T V
  differently, so this case shows a change of Gram routine that the
  others, all at shapes where the two agree, cannot

Every case runs in a child process under OPENBLAS_NUM_THREADS=1 and
again under =2, one child after the other, importing the package from
the ``src/`` of the tree this script sits in. After the two passes, one
line names each case and solver whose fields differ between 1 and 2
threads, or one line says that all agree. To compare two trees, run
each tree's copy of the script and diff the outputs:

    python3 scripts/solve_digest.py > after.txt
    python3 ../parent/scripts/solve_digest.py > before.txt
    diff before.txt after.txt
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREADS = (1, 2)


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _cases(ck):
    """(name, matrix, right-hand sides) of every case."""
    import numpy as np

    _, young = ck.read_matrix_market(ROOT / "tests" / "fixtures" / "young1c.mtx")
    for p in (1, 8, 32):
        yield f"young1c-p{p}", young, ck.gen_rhs(young.n, p, 0)
    spec = ck.ProblemSpec(n=100_000, p=8, kind="diagdominant", density=2e-5, seed=0)
    a, b = ck.gen_problem(spec)
    yield "gen1e5-p8", a, b
    yield "gen1e5-p1", a, ck.gen_rhs(a.n, 1, 0)
    n = 100_000
    i = np.arange(n)
    tridiagonal = ck.ComplexSymmetricMatrix.from_coo(
        n,
        np.concatenate([i, i[1:], i[:-1]]),
        np.concatenate([i, i[:-1], i[1:]]),
        np.concatenate([np.full(n, 4 + 1j), np.full(2 * n - 2, -1.0)]),
    )
    for p in (8, 6):
        yield f"tridiag1e5-p{p}", tridiagonal, ck.gen_rhs(n, p, 0)


def run_cases():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import cskrylov as ck

    if Path(ck.__file__).resolve().parent != ROOT / "src" / "cskrylov":
        raise SystemExit(f"imported cskrylov from {ck.__file__}, not {ROOT / 'src'}")
    threads = os.environ["OPENBLAS_NUM_THREADS"]
    for case, a, b in _cases(ck):
        for name, solver in ck.SOLVERS.items():
            res = solver(a, b)
            history = np.asarray(res.history, dtype=np.float64).tobytes()
            print(
                f"threads={threads} {case} {name} iters={res.iterations} "
                f"status={res.status!r} trr={res.trr!r} "
                f"history={_digest(history)} x={_digest(res.x.tobytes())}",
                flush=True,
            )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        run_cases()
        return 0
    passes = []
    for threads in THREADS:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        out = subprocess.run(
            [sys.executable, __file__, "--child"],
            env=env, check=True, stdout=subprocess.PIPE, text=True,
        ).stdout
        print(out, end="", flush=True)
        passes.append([_fields(line) for line in out.splitlines()])
    differ = 0
    for (solve, first), (_, second) in zip(*passes):
        keys = [k for k in first if first[k] != second[k]]
        if keys:
            differ += 1
            print(f"threads {THREADS[0]} vs {THREADS[1]}: {solve} differs in {' '.join(keys)}")
    if not differ:
        print(f"threads {THREADS[0]} vs {THREADS[1]}: every case and solver agrees")
    return 0


def _fields(line):
    """(case and solver, {field: value}) of one digest line."""
    _, case, name, rest = line.split(" ", 3)
    return f"{case} {name}", dict(re.findall(r"(\w+)=('[^']*'|\S+)", rest))


if __name__ == "__main__":
    sys.exit(main())
