#!/usr/bin/env python3
"""Print how much memory each solver's iterations allocate.

For the seed-0 gen1e5-p8 problem (n = 1e5, p = 8, diagdominant,
density 2e-5, the benchmark's matrix) and each solver in turn, one
line gives:

- ``iters``: the iteration count of the solve
- ``peak_blocks``: the peak of the memory that a second solve allocates
  and holds at once (``tracemalloc``), in units of one n x p complex128
  block. It covers the whole solve: the copy of B, X, the iteration's
  blocks and the exit check. Expected: 4 / 4 / 5 / 5 for ``bl_cocg`` /
  ``bl_cocg_rq`` / ``bl_cocr`` / ``bl_cocr_rq``.
- ``exit_faults`` and ``exit_blocks``: minor page faults (``ru_minflt``
  of this process) and the same peak over the exit of a third solve,
  from the moment the iteration loop (`solvers._iterate`) returns to
  the end of the solve (X's copy in the caller's order and the
  true-residual check). Expected: 0 blocks.

No per-iteration fault count is printed: the faults of a whole solve
depend on where glibc places the set-up blocks (the copy of B, X and
the loop's blocks), and the same code read from 109 to 141 faults per
iteration of bl_cocg between runs.

The first solve of the run also builds the matrix's locality copy
(`core_la.solve_operator`), so it is never measured. The package is
imported from the ``src/`` of the tree this script sits in, so running
each tree's copy compares two trees:

    python3 scripts/alloc_probe.py
"""

import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _mark_exit(iterate, marks):
    """iterate, recording the minor faults when it returns and then
    starting `tracemalloc` where marks["trace"] is set."""

    def run(*args):
        out = iterate(*args)
        marks["faults"] = _faults()
        if marks["trace"]:
            tracemalloc.start()
        return out

    return run


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import cskrylov as ck
    from cskrylov import solvers

    if Path(ck.__file__).resolve().parent != ROOT / "src" / "cskrylov":
        raise SystemExit(f"imported cskrylov from {ck.__file__}, not {ROOT / 'src'}")
    spec = ck.ProblemSpec(n=100_000, p=8, kind="diagdominant", density=2e-5, seed=0)
    a, b = ck.gen_problem(spec)
    block = b.size * b.itemsize
    marks = {"trace": False}
    # the public solvers look the loop up on the module at each call
    solvers._iterate = _mark_exit(solvers._iterate, marks)
    for name, solver in ck.SOLVERS.items():
        res = solver(a, b)
        tracemalloc.start()
        solver(a, b)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        marks["trace"] = True
        solver(a, b)
        exit_faults = _faults() - marks["faults"]
        _, exit_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        marks["trace"] = False
        print(
            f"{name} iters={res.iterations} "
            f"peak_blocks={peak / block:.2f} "
            f"exit_faults={exit_faults} "
            f"exit_blocks={exit_peak / block:.2f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
