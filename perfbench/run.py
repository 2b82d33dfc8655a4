"""
cskrylov benchmark: time to solution, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cskrylov checkout; the package is imported from
its src/ directory. Each workload runs in fresh child processes
(perfbench/worker.py), one solve at a time, with at most nproc BLAS
threads. With --trace 0 the benchmark prints the end-to-end metrics,
with --trace 1 the per-layer metrics of a separate traced run. Human
readable report lines come first; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.

Workloads and metrics are listed in BENCHMARK.json and explained in
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from tracing import KERNELS, SOLVER_NAMES  # noqa: E402

PLAIN = ("bl_cocg", "bl_cocr")
RQ = ("bl_cocg_rq", "bl_cocr_rq")

WORKLOADS = ("young1c-sweep", "gen1e5-p8", "mm1e5-p1")
# set-up samples per run: set-up-only children before and after the
# solving child (on each side at least SETUP_MIN_RUNS of them and at
# least SETUP_MIN_S of wall time), plus the solving child itself.
# Spreading them over the run keeps one slow spell of the machine from
# setting the median.
SETUP_MIN_RUNS = 2
SETUP_MIN_S = 2.0
# every child must end inside this many seconds of the benchmark start
TIME_LIMIT_S = 170
EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0, "durations": []}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class Children:
    """Runs worker modes one after another under a shared deadline."""

    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def __call__(self, mode, **options):
        cmd = [sys.executable, str(WORKER), mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed)]
        for key, value in options.items():
            if value is not None:
                cmd += [f"--{key}", str(value)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no time left for the {mode} child")
        try:
            # run() kills the child on timeout and waits for it
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded the time limit") from None
        if proc.returncode != 0:
            raise BenchError(
                f"{mode} child exited with {proc.returncode}:\n{proc.stderr.strip()}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(samples):
    """(median, q1, q3) of one or more samples."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return med, q1, q3


def describe(name, unit, samples, what):
    """One report line: median, quartiles, the highest percentile with
    at least ten samples above it, and the sample count."""
    s = sorted(samples)
    n = len(s)
    med, q1, q3 = quartiles(s)
    if n >= 11:
        tail = f"p{100 * (n - 10) / n:.0f} {s[n - 11]:.6g}"
    else:
        tail = "p_hi n/a (n<11)"
    return (f"{name:<22} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"{tail}  n={n} {what}")


def env_lines(env, args):
    return [
        f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"backend {env['backend']}, openblas threads {env['openblas_threads']}, "
        f"nproc {nproc()}, seed {args.seed}, commit {git_commit()}",
        f"workload {args.workload}: one closed-loop caller, one solve at a time",
    ]


def check_lines(report):
    lines = [
        f"fail_share = {report['failed']}/{report['attempted']} "
        f"(solves not converged or failing a check / solves attempted)"
    ]
    for case, why in sorted(report["failures"].items()):
        lines.append(f"  failed: {case}: {why}")
    if report["wrong"]:
        lines.append(f"  WRONG: {report['wrong']} solves reported convergence "
                     "but failed a check")
    if report["mismatches"]:
        lines.append("  NONDETERMINISTIC: repeats differ for "
                     + ", ".join(report["mismatches"]))
    else:
        lines.append("determinism: every repeat of every case matched bit for bit")
    return lines


def verdict(report):
    correct = report["wrong"] == 0 and not report["mismatches"]
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"]}


def prepare_matrix(children):
    """Write the n=1e5 matrix into out/; returns (path, prep result)."""
    path = OUT / f"{children.args.workload}-seed{children.args.seed}-pid{os.getpid()}.mtx"
    return path, children("prep", matrix=path)


def setup_samples(children, matrix):
    samples = []
    start = time.monotonic()
    while len(samples) < SETUP_MIN_RUNS or time.monotonic() - start < SETUP_MIN_S:
        samples.append(children("setup", matrix=matrix))
    return samples


def run_timed(args, children, matrix):
    setups = setup_samples(children, matrix)
    solve = children("solve", matrix=matrix, seconds=args.seconds)
    setups.append(solve)
    setups += setup_samples(children, matrix)
    setup_wall = [s["setup_s"] for s in setups]
    setup_scaled = [s["setup_scaled_s"] for s in setups]
    shares = (solve["attempted"] - solve["failed"]) / solve["attempted"]
    # a pass's time is the sum over solves of each solve's median
    # speed-scaled time: its wall time over the mean of the reference
    # runs around it, times the reference's nominal time (worker.REF_S)
    case_median = {case: statistics.median(t) for case, t in solve["scaled_s"].items()}

    def pass_s(solvers):
        return sum(t for case, t in case_median.items() if case.split()[0] in solvers)

    ref_all = [r for refs in solve["ref_s"].values() for r in refs]
    nominal_all = [solve["ref_nominal_s"][case] for case, refs in solve["ref_s"].items()
                   for _ in refs]
    speed = statistics.median(n / r for n, r in zip(nominal_all, ref_all))

    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "solve_s": (pass_s(SOLVER_NAMES), "s"),
        "solve_s.plain": (pass_s(PLAIN), "s"),
        "solve_s.rq": (pass_s(RQ), "s"),
        "solved_share": (shares, "ratio"),
        "peak_rss_mb": (solve["peak_rss_mb"], "MB"),
    }
    lines = env_lines(solve["env"], args) + [
        describe("setup_s", "s", setup_scaled, "(child processes, speed-scaled)"),
        describe("set-up wall time", "s", setup_wall, "(same children)"),
        describe("pass wall time", "s", solve["pass_s"],
                 f"(passes of {len(solve['cases'])} solves, not speed-scaled)"),
        f"machine speed {speed:.4g} x nominal: median of reference nominal / "
        f"measured time over {len(ref_all)} reference runs",
        f"{'solve_s':<22} {metrics['solve_s'][0]:.6g} s = sum of the per-solve "
        f"speed-scaled medians below; solve_s.plain "
        f"{metrics['solve_s.plain'][0]:.6g} s, "
        f"solve_s.rq {metrics['solve_s.rq'][0]:.6g} s",
        f"{'solved_share':<22} {shares:.6g} ratio = "
        f"{solve['attempted'] - solve['failed']}/{solve['attempted']} solves",
        f"{'peak_rss_mb':<22} {solve['peak_rss_mb']:.6g} MB  n=1 (solving child)",
        "per solve (speed-scaled time; wall time of the solver call; "
        "mean wall time of the reference runs around it):",
    ]
    for case, times in solve["scaled_s"].items():
        c = solve["cases"][case]
        lines += [
            "  " + describe(case, "s", times, f"iters {c['iters']} "
                            f"trr {c['trr']:.2f} {c['status']}"),
            "    " + describe("wall", "s", solve["case_s"][case], ""),
            "    " + describe("reference", "s", solve["ref_s"][case],
                              f"nominal {solve['ref_nominal_s'][case]:.4g} s"),
        ]
    raw = {"setup_s": setup_wall, "setup_scaled_s": setup_scaled, "solve": solve}
    return lines + check_lines(solve), verdict(solve), metrics, raw


def run_traced(args, children, matrix, write_s):
    copy = children("copy")
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tr = children("trace", matrix=matrix, spans=spans)
    solve, setup = tr["solve"], tr["setup"]
    bw = copy["copy_GBps"]
    metrics = {}
    lines = env_lines(tr["env"], args) + [
        f"mem.copy_GBps {bw:.6g} GB/s: median of {len(copy['samples'])} copies of a "
        f"{copy['array_bytes'] / 2**20:.0f} MiB array; last-level cache "
        f"{copy['llc_bytes'] / 2**20:.0f} MiB ({copy['llc_source']}); "
        "counts one read and one write per element",
        f"solve_s untraced {tr['untraced_solve_s']:.6g} s, traced "
        f"{tr['traced_solve_s']:.6g} s (one pass each, same child)",
        "core_la kernels in the traced pass; bytes are computed from array "
        "shapes (inputs read once, outputs written once), not measured;",
        "floor_s = bytes / mem.copy_GBps:",
    ]
    kernel_s = 0.0
    for k in KERNELS:
        row = solve.get(f"core_la.{k}", EMPTY)
        gbps = row["bytes"] / row["s"] / 1e9 if row["s"] else 0.0
        kernel_s += row["s"]
        metrics[f"core_la.{k}.calls"] = (row["calls"], "count")
        metrics[f"core_la.{k}.s"] = (row["s"], "s")
        metrics[f"core_la.{k}.bytes"] = (row["bytes"], "B")
        metrics[f"core_la.{k}.GBps"] = (gbps, "GB/s")
        share = row["s"] / tr["traced_solve_s"]
        floor = row["bytes"] / (bw * 1e9)
        lines.append(
            f"  {k:<12} calls {row['calls']:>6}  {row['s']:.4g} s "
            f"({100 * share:.1f}% of solve_s)  {row['bytes'] / 1e9:.4g} GB computed  "
            f"{gbps:.3g} GB/s  floor_s {floor:.4g}"
        )
        if row["durations"]:
            lines.append("    " + describe("per call", "s", row["durations"], "calls"))
    self_s = 0.0
    other_s = 0.0
    for s in SOLVER_NAMES:
        row = solve.get(f"solvers.{s}", EMPTY)
        cases = [c for c in tr["cases"] if c["solver"] == s]
        metrics[f"solvers.{s}.iters"] = (sum(c["iters"] for c in cases), "count")
        metrics[f"solvers.{s}.s"] = (row["s"], "s")
        metrics[f"solvers.{s}.trr"] = (max(c["trr"] for c in cases), "log10")
        self_s += row["self_s"]
        other_s += row["s"] - row["self_s"]
        calls = tr["calls_by_solver"][s]
        lines.append(
            f"  {s:<12} {row['s']:.4g} s  self {row['self_s']:.4g} s  "
            + "  ".join(f"p={c['p']}: {c['iters']} it trr {c['trr']:.2f} {c['status']}"
                        for c in cases)
        )
        lines.append("    kernel calls: "
                     + ", ".join(f"{k} {calls[k]}" for k in KERNELS))
    metrics["solvers.self_s"] = (self_s, "s")
    metrics["solvers.passes_per_iter"] = (tr["passes_per_iter"], "passes/iter")
    lines.append(
        f"accounting: core_la kernels {kernel_s:.4g} s + solvers.self_s {self_s:.4g} s "
        f"+ other spans inside solves {other_s - kernel_s:.3g} s "
        f"= {other_s + self_s:.4g} s; traced solve_s {tr['traced_solve_s']:.4g} s"
    )

    def setup_total(name):
        return setup.get(name, EMPTY)["s"]

    read_s = setup_total("mm_io.read_matrix_market")
    read_mbps = tr["matrix_bytes"] / read_s / 1e6 if read_s else 0.0
    layer = {
        "mm_io.read_matrix_market.s": (read_s, "s"),
        "mm_io.read_MBps": (read_mbps, "MB/s"),
        "mm_io.write_matrix_market.s": (write_s, "s"),
        "core_la.from_coo.s": (setup_total("core_la.from_coo"), "s"),
        "core_la.is_symmetric.s": (setup_total("core_la.is_symmetric"), "s"),
        "oracle.gen_problem.s": (setup_total("oracle.gen_problem"), "s"),
        "oracle.gen_rhs.s": (setup_total("oracle.gen_rhs"), "s"),
        "import.cskrylov_s": (tr["import_s"], "s"),
        "mem.copy_GBps": (bw, "GB/s"),
        "trace.overhead_s": (tr["traced_solve_s"] - tr["untraced_solve_s"], "s"),
    }
    metrics.update(layer)
    lines.append(f"set-up (traced child) {tr['setup_s']:.4g} s:")
    for name in ("import.cskrylov_s", "mm_io.read_matrix_market.s",
                 "oracle.gen_problem.s", "oracle.gen_rhs.s", "core_la.from_coo.s",
                 "core_la.is_symmetric.s"):
        lines.append(f"  {name:<28} {layer[name][0]:.4g} s")
    lines.append(f"spans written to {spans.relative_to(ROOT)}")
    raw = {"copy": copy, "trace": {k: v for k, v in tr.items() if k not in ("setup", "solve")}}
    return lines + check_lines(tr), verdict(tr), metrics, raw


def main(argv=None):
    parser = argparse.ArgumentParser(description="cskrylov benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    matrix = None
    try:
        if not (ROOT / "src" / "cskrylov" / "__init__.py").is_file():
            raise BenchError(f"no cskrylov sources under {ROOT / 'src'}")
        if args.workload == "young1c-sweep" and not (
            ROOT / "tests" / "fixtures" / "young1c.mtx"
        ).is_file():
            raise BenchError("tests/fixtures/young1c.mtx is missing")
        OUT.mkdir(exist_ok=True)
        children = Children(args)
        write_s = 0.0
        if args.workload == "mm1e5-p1":
            matrix, prep = prepare_matrix(children)
            write_s = prep["write_s"]
        if args.trace:
            lines, result, metrics, raw = run_traced(args, children, matrix, write_s)
        else:
            lines, result, metrics, raw = run_timed(args, children, matrix)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        if matrix is not None:
            matrix.unlink(missing_ok=True)
    for line in lines:
        print(line)
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"report": lines, "result": result, "raw": raw}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
