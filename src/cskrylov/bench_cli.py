"""
Benchmark harness: load or generate a problem, run selected solvers,
report iterations / TRR / time per solver, optionally dump residual
histories. The report's cpu column is each solve's wall time in seconds
(`SolveResult.elapsed`, from `time.perf_counter`), not processor time.

Report determinism contract: for fixed (matrix, p, tol, seed, solver)
the CSV report and history files are byte-identical across
invocations, except the cpu column. TRR and history values are printed
with repr(), the shortest decimal that round-trips the double, so
parsing a report back recovers the exact floats.

Exit codes: 0 when every requested solver converged, 1 when any did
not, 2 for usage or input errors and for a report or history file that
cannot be written.
"""

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .core_la import solve_operator
from .mm_io import read_matrix_market
from .oracle import KINDS, ProblemSpec, gen_problem, gen_rhs
from .solvers import SOLVERS, SolverConfig, check_complex_symmetric

__all__ = [
    "SolverRow",
    "RunReport",
    "run_benchmark",
    "format_report_csv",
    "format_report_md",
    "parse_report_csv",
    "emit_history",
    "main",
]

_CSV_HEADER = "solver,iterations,trr,cpu,status"


@dataclass
class SolverRow:
    """One report line: what a single solver did."""

    solver: str
    iterations: int
    trr: float
    cpu: float
    status: str


@dataclass
class RunReport:
    """Benchmark outcome: problem metadata plus one row per solver."""

    matrix: str
    n: int
    nnz: int
    p: int
    tol: float
    seed: int
    rows: list = field(default_factory=list)

    @property
    def all_converged(self):
        return all(row.status == "converged" for row in self.rows)


def _load_problem(args):
    """Resolve --matrix/--gen into (name, matrix, rhs)."""
    if args.matrix is not None:
        path = Path(args.matrix)
        _, m = read_matrix_market(path)
        b = gen_rhs(m.n, args.p, args.seed)
        return path.stem, m, b
    if args.n is None:
        raise ValueError("generated problems need --n")
    spec = ProblemSpec(
        n=args.n, p=args.p, kind=args.gen, density=args.density, seed=args.seed
    )
    m, b = gen_problem(spec)
    return args.gen, m, b


def _report_path(args):
    """The --out destination as a path, or None for standard output."""
    return None if args.out in ("stdout", "-") else Path(args.out)


def _check_writable(path):
    """Raise OSError if a file cannot be written at path. A file this
    creates to find out is removed again."""
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        open(path, "a").close()
    else:
        os.unlink(path)


def run_benchmark(args):
    """Execute the benchmark described by parsed CLI args.

    Solvers run one after another, so each row's cpu time (the solve's
    wall time) is its own.
    The report destination and every history file are checked before
    the first solver runs, so a run whose output cannot be written
    solves nothing.

    Returns
    -------
    RunReport
    """
    name, m, b = _load_problem(args)
    if not check_complex_symmetric(m):
        raise ValueError(
            f"matrix {name!r} failed check_complex_symmetric; the solvers "
            "require A equal to its unconjugated transpose"
        )
    solver_names = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not solver_names:
        raise ValueError("no solvers requested")
    for s in solver_names:
        if s not in SOLVERS:
            raise ValueError(
                f"unknown solver {s!r}; available: {', '.join(SOLVERS)}"
            )
    cfg = SolverConfig(tol=args.tol, max_iter=args.maxit)
    out = _report_path(args)
    if out is not None:
        _check_writable(out)
    hist_dir = None if args.history_dir is None else Path(args.history_dir)
    if hist_dir is not None:
        hist_dir.mkdir(parents=True, exist_ok=True)
        for s in solver_names:
            _check_writable(hist_dir / f"{s}.csv")
    # one untimed product imports scipy.sparse and resolves its CSR
    # kernel, and the matrix's row order is decided here (a wide matrix's
    # locality copy built), so no solver's cpu time is charged for either
    m.matvec(b[:, :1])
    solve_operator(m)
    results = [SOLVERS[s](m, b, None, cfg) for s in solver_names]
    report = RunReport(
        matrix=name,
        n=m.n,
        nnz=m.nnz,
        p=b.shape[1],
        tol=args.tol,
        seed=args.seed,
    )
    for s, res in zip(solver_names, results):
        report.rows.append(
            SolverRow(
                solver=s,
                iterations=res.iterations,
                trr=res.trr,
                cpu=res.elapsed,
                status=res.status,
            )
        )
    if hist_dir is not None:
        for s, res in zip(solver_names, results):
            with open(hist_dir / f"{s}.csv", "w") as f:
                emit_history(res, f)
    return report


def _meta_line(report):
    return (
        f"# matrix={report.matrix} n={report.n} nnz={report.nnz} "
        f"p={report.p} tol={report.tol!r} seed={report.seed}"
    )


def format_report_csv(report):
    """Render a report as CSV: a '# k=v' metadata line, header, rows."""
    lines = [_meta_line(report), _CSV_HEADER]
    lines.extend(
        f"{r.solver},{r.iterations},{r.trr!r},{r.cpu:.6f},{r.status}"
        for r in report.rows
    )
    return "\n".join(lines) + "\n"


def format_report_md(report):
    """Render a report as an aligned Markdown table."""
    header = ["solver", "iters", "trr", "cpu_s", "status"]
    body = [
        [r.solver, str(r.iterations), f"{r.trr:.2f}", f"{r.cpu:.6f}", r.status]
        for r in report.rows
    ]
    widths = [
        max(len(header[c]), *(len(row[c]) for row in body)) if body else len(header[c])
        for c in range(len(header))
    ]

    def fmt(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    lines = [
        _meta_line(report),
        "",
        fmt(header),
        "|" + "|".join("-" * (w + 2) for w in widths) + "|",
    ]
    lines.extend(fmt(row) for row in body)
    return "\n".join(lines) + "\n"


def parse_report_csv(text):
    """Parse CSV produced by `format_report_csv` back into a RunReport."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError("not a benchmark CSV: missing metadata line")
    # the five numeric fields are taken from the right, so that a matrix
    # name holding spaces stays whole
    meta = dict(tok.split("=", 1) for tok in lines[0][2:].rsplit(" ", 5))
    if lines[1] != _CSV_HEADER:
        raise ValueError(f"unexpected header line: {lines[1]!r}")
    report = RunReport(
        matrix=meta["matrix"],
        n=int(meta["n"]),
        nnz=int(meta["nnz"]),
        p=int(meta["p"]),
        tol=float(meta["tol"]),
        seed=int(meta["seed"]),
    )
    for ln in lines[2:]:
        solver, iters, trr, cpu, status = ln.split(",", 4)
        report.rows.append(
            SolverRow(
                solver=solver,
                iterations=int(iters),
                trr=float(trr),
                cpu=float(cpu),
                status=status,
            )
        )
    return report


def emit_history(result, stream):
    """Write a residual history as CSV: header 'iter,relres', one row
    per recorded iteration including m = 0, shortest round-trip floats."""
    stream.write("iter,relres\n")
    for i, h in enumerate(result.history):
        stream.write(f"{i},{h!r}\n")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cskrylov",
        description="Block Krylov solver benchmark for complex symmetric systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run solvers on one problem")
    src = solve.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="Matrix Market file to load")
    src.add_argument("--gen", choices=KINDS, help="generate a seeded problem")
    solve.add_argument("--n", type=int, default=None, help="order for --gen")
    solve.add_argument("--density", type=float, help="fill fraction for --gen")
    solve.add_argument("--p", type=int, default=1, help="number of right-hand sides")
    solve.add_argument(
        "--solvers",
        default=",".join(SOLVERS),
        help="comma list of solvers to run (default: all)",
    )
    solve.add_argument("--tol", type=float)
    solve.add_argument(
        "--maxit", type=int, default=None, help="iteration cap (default: n)"
    )
    solve.add_argument("--seed", type=int, help="RHS / generator seed")
    solve.add_argument(
        "--out", default="stdout", help="report destination path, or stdout"
    )
    solve.add_argument("--format", choices=["csv", "md"], default="csv")
    solve.add_argument(
        "--history-dir",
        default=None,
        help="write per-solver residual history CSVs into this directory",
    )
    solve.set_defaults(
        tol=SolverConfig.tol, density=ProblemSpec.density, seed=ProblemSpec.seed
    )
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = run_benchmark(args)
        text = (
            format_report_csv(report)
            if args.format == "csv"
            else format_report_md(report)
        )
        out = _report_path(args)
        if out is None:
            sys.stdout.write(text)
        else:
            out.write_text(text)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if report.all_converged else 1


if __name__ == "__main__":
    sys.exit(main())
