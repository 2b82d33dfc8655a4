#!/usr/bin/env python3
"""Print the median wall time of each set-up phase of the benchmark's
three workloads, every sample taken in a fresh child process.

A child runs one workload's set-up as the benchmark's does, timing each
phase in turn:

- import: ``import cskrylov`` (numpy and the package's modules)
- build: young1c-sweep reads ``tests/fixtures/young1c.mtx``; gen1e5-p8
  generates the seed-0 problem (n = 1e5, p = 8, diagdominant, density
  2e-5); mm1e5-p1 reads the seed-0 n = 1e5 matrix back from the Matrix
  Market file that ``write_matrix_market`` put in a temporary directory
  before the children start
- symmetry: the matrix's first ``is_symmetric``
- gen_rhs: the right-hand sides the workload draws (``gen_rhs(841, p,
  0)`` for p in {1, 8, 32}; ``gen_rhs(n, 1, 0)``); gen1e5-p8's block
  comes with its problem, so the phase reads ~0 there

The children of the workloads take turns, run after run, so that a
drift in the machine's speed moves every workload alike. Each line gives
a workload's median milliseconds per phase and of their sum. The package
is imported from the ``src/`` of the tree this script sits in, under the
caller's environment (BLAS thread count included). Run it from anywhere:

    python3 scripts/setup_phases.py [--runs N] [--workload W ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
YOUNG1C = ROOT / "tests" / "fixtures" / "young1c.mtx"
WORKLOADS = ("young1c-sweep", "gen1e5-p8", "mm1e5-p1")
PHASES = ("import", "build", "symmetry", "gen_rhs")
GEN_SPEC = {"n": 100_000, "p": 8, "kind": "diagdominant", "density": 2e-5, "seed": 0}


def _import_cskrylov():
    sys.path.insert(0, str(ROOT / "src"))
    import cskrylov

    if Path(cskrylov.__file__).resolve().parent != ROOT / "src" / "cskrylov":
        raise SystemExit(
            f"imported cskrylov from {cskrylov.__file__}, not {ROOT / 'src'}"
        )
    return cskrylov


def run_child(workload, matrix):
    """Time one set-up of workload and print the phases' seconds as JSON."""
    marks = [time.perf_counter()]
    ck = _import_cskrylov()
    marks.append(time.perf_counter())
    if workload == "young1c-sweep":
        _, a = ck.read_matrix_market(YOUNG1C)
    elif workload == "gen1e5-p8":
        a, _ = ck.gen_problem(ck.ProblemSpec(**GEN_SPEC))
    else:
        _, a = ck.read_matrix_market(matrix)
    marks.append(time.perf_counter())
    if not a.is_symmetric:
        raise SystemExit(f"{workload}: matrix failed the symmetry check")
    marks.append(time.perf_counter())
    if workload == "young1c-sweep":
        for p in (1, 8, 32):
            ck.gen_rhs(a.n, p, 0)
    elif workload == "mm1e5-p1":
        ck.gen_rhs(a.n, 1, 0)
    marks.append(time.perf_counter())
    print(json.dumps({ph: t1 - t0 for ph, t0, t1 in zip(PHASES, marks, marks[1:])}))


def write_matrix(path):
    """Write the seed-0 n = 1e5 matrix to path, in a child process so that
    this one keeps no matrix while the timed children run."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cskrylov as ck; "
        f"a, _ = ck.gen_problem(ck.ProblemSpec(**{GEN_SPEC!r})); "
        "ck.write_matrix_market(a, sys.argv[2])"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(path)], check=True
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9, help="children per workload")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to time (repeatable; default all three)")
    parser.add_argument("--child", nargs=2, metavar=("WORKLOAD", "MATRIX"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        run_child(*args.child)
        return 0
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    workloads = args.workload or list(WORKLOADS)
    samples = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory() as tmp:
        matrix = Path(tmp) / "gen1e5-seed0.mtx"
        if "mm1e5-p1" in workloads:
            write_matrix(matrix)
        for _ in range(args.runs):
            for w in workloads:
                out = subprocess.run(
                    [sys.executable, __file__, "--child", w, str(matrix)],
                    check=True, capture_output=True, text=True,
                ).stdout
                samples[w].append(json.loads(out.splitlines()[-1]))
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"median wall ms over {args.runs} children per workload "
          f"(OPENBLAS_NUM_THREADS={threads}, nproc {os.cpu_count()})")
    header = "".join(f"{ph:>10}" for ph in (*PHASES, "total"))
    print(f"{'workload':<14}{header}")
    for w, runs in samples.items():
        cells = [statistics.median(r[ph] for r in runs) for ph in PHASES]
        cells.append(statistics.median(sum(r.values()) for r in runs))
        print(f"{w:<14}" + "".join(f"{c * 1e3:10.1f}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
