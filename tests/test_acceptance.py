"""Acceptance suite: one test per release criterion, run at full fidelity.

Every test exercises the real stack (generators, kernels, solvers, CLI) at
the tolerances the criterion states; nothing is mocked or scaled down.
The acoustic-scattering regression tests need their bundled matrix files;
a missing file is reported as a failure, not a skip, so the gap cannot
pass silently (scripts/fetch_matrices.py downloads the files where the
network allows it).
"""

import subprocess
import sys

import numpy as np

from conftest import child_env, require_fixture
from scalar_reference import scalar_cocg, scalar_cocr

from cskrylov.core_la import ComplexSymmetricMatrix, fro_norm, t_gram
from cskrylov.mm_io import read_matrix_market
from cskrylov.oracle import ProblemSpec, direct_solve, gen_problem, gen_rhs
from cskrylov.solvers import (
    SOLVERS,
    SolverConfig,
    bl_cocg,
    bl_cocg_rq,
    bl_cocr,
    bl_cocr_rq,
)

SOLVER_ORDER = ("bl_cocg", "bl_cocg_rq", "bl_cocr", "bl_cocr_rq")


def _load(name):
    _, m = read_matrix_market(require_fixture(name))
    return m


def _run_acoustic(name, p, seed=0):
    m = _load(name)
    b = gen_rhs(m.n, p, seed=seed)
    return {s: SOLVERS[s](m, b) for s in SOLVER_ORDER}


def _within_band(iters, reference, band=0.25):
    return reference * (1 - band) <= iters <= reference * (1 + band)


def test_criterion_01_oracle_equivalence_over_twenty_seeds():
    """Every solver matches the direct solve on 20 seeded problems."""
    for seed in range(20):
        a, b = gen_problem(ProblemSpec(n=50, p=4, kind="diagdominant", seed=seed))
        x_oracle = direct_solve(a.to_dense(), b)
        ref = fro_norm(np.asfortranarray(x_oracle))
        for name in SOLVER_ORDER:
            res = SOLVERS[name](a, b)
            assert res.converged, f"seed {seed}: {name} {res.status}"
            err = fro_norm(res.x - x_oracle) / ref
            assert err <= 1e-8, f"seed {seed}: {name} error {err:.3e}"


def test_criterion_02_acoustic_small_regression():
    """young2c, p=10: all four converge inside the reference iteration bands."""
    results = _run_acoustic("young2c.mtx", p=10)
    reference = {"bl_cocg": 238, "bl_cocg_rq": 142, "bl_cocr": 201, "bl_cocr_rq": 138}
    for name, res in results.items():
        assert res.converged, f"{name}: {res.status}"
        assert res.trr <= -10, f"{name}: trr {res.trr:.2f}"
        assert _within_band(res.iterations, reference[name]), (
            f"{name}: {res.iterations} iterations outside "
            f"{reference[name]} +/- 25%"
        )


def test_criterion_03_acoustic_large_regression():
    """young3c, p=8: the residual-based variants converge; a plain-method
    failure, if any, must surface as a clean status, never a crash."""
    results = _run_acoustic("young3c.mtx", p=8)
    cocr = results["bl_cocr"]
    assert cocr.converged and cocr.iterations <= 300, cocr.status
    assert cocr.trr <= -9.5, f"bl_cocr trr {cocr.trr:.2f}"
    for name in ("bl_cocg_rq", "bl_cocr_rq"):
        res = results[name]
        assert res.converged and res.iterations <= 300, f"{name}: {res.status}"
    cocg = results["bl_cocg"]
    assert cocg.status == "converged" or cocg.status.startswith(
        ("failed", "breakdown", "diverged")
    )
    assert np.all(np.isfinite(cocg.x))


def test_criterion_04_acoustic_medium_regression():
    """young1c, p=8: both RQ variants converge inside the reference bands."""
    results = _run_acoustic("young1c.mtx", p=8)
    for name, reference in (("bl_cocg_rq", 177), ("bl_cocr_rq", 180)):
        res = results[name]
        assert res.converged, f"{name}: {res.status}"
        assert res.trr <= -10, f"{name}: trr {res.trr:.2f}"
        assert _within_band(res.iterations, reference), (
            f"{name}: {res.iterations} iterations outside {reference} +/- 25%"
        )


def _orthogonality_problem():
    return gen_problem(
        ProblemSpec(n=100, p=3, kind="diagdominant", density=0.1, seed=11)
    )


def _normalized_cross(gram, left_norms, right_norms):
    worst = 0.0
    k = len(left_norms)
    for i in range(k):
        for j in range(k):
            if i != j:
                worst = max(worst, gram[i][j] / (left_norms[i] * right_norms[j]))
    return worst


def test_criterion_05_block_conjugate_orthogonality():
    """The first ten residual and search blocks are mutually conjugate
    orthogonal in the forms each method preserves."""
    a, b = _orthogonality_problem()
    keep = 11

    blocks = {"R": [], "P": []}

    def grab(m, state):
        if m < keep:
            blocks["R"].append(state["R"])
            blocks["P"].append(state["P"])

    res = bl_cocg(a, b, cfg=SolverConfig(observer=grab))
    assert res.converged and res.iterations >= keep
    r_list, p_list = blocks["R"], blocks["P"]
    ap_list = [a.matvec(p) for p in p_list]
    rn = [fro_norm(r) for r in r_list]
    pn = [fro_norm(p) for p in p_list]
    apn = [fro_norm(ap) for ap in ap_list]
    rr = [[fro_norm(t_gram(ri, rj)) for rj in r_list] for ri in r_list]
    pap = [[fro_norm(t_gram(pi, apj)) for apj in ap_list] for pi in p_list]
    assert _normalized_cross(rr, rn, rn) <= 1e-8
    assert _normalized_cross(pap, pn, apn) <= 1e-8

    blocks = {"R": [], "P": []}
    res = bl_cocr(a, b, cfg=SolverConfig(observer=grab))
    assert res.converged and res.iterations >= keep
    r_list, p_list = blocks["R"], blocks["P"]
    ar_list = [a.matvec(r) for r in r_list]
    ap_list = [a.matvec(p) for p in p_list]
    rn = [fro_norm(r) for r in r_list]
    arn = [fro_norm(ar) for ar in ar_list]
    apn = [fro_norm(ap) for ap in ap_list]
    rar = [[fro_norm(t_gram(ri, arj)) for arj in ar_list] for ri in r_list]
    apap = [[fro_norm(t_gram(api, apj)) for apj in ap_list] for api in ap_list]
    assert _normalized_cross(rar, rn, arn) <= 1e-8
    assert _normalized_cross(apap, apn, apn) <= 1e-8


def _tridiagonal_problem():
    # complex symmetric tridiagonal, well conditioned, ~35 iterations at
    # p = 1: enough healthy steps to compare 20 of them
    n = 50
    rows = list(range(n)) + list(range(1, n)) + list(range(n - 1))
    cols = list(range(n)) + list(range(n - 1)) + list(range(1, n))
    vals = [2.2 + 0.5j] * n + [-1.0] * (2 * (n - 1))
    a = ComplexSymmetricMatrix.from_coo(n, rows, cols, vals)
    return a, gen_rhs(n, 1, seed=0)


def test_criterion_06_rq_fidelity():
    """RQ bookkeeping is faithful: the factored residual norm equals the
    monitored scale factor norm at every iteration, and the RQ variants
    track their plain counterparts while both are healthy."""
    # norm identity, checked on a block problem and the tridiagonal one
    for a, b in (_orthogonality_problem(), _tridiagonal_problem()):
        for solver in (bl_cocg_rq, bl_cocr_rq):
            devs = []

            def grab(m, state):
                nq = fro_norm(state["Q"] @ state["xi"])
                nxi = fro_norm(state["xi"])
                devs.append(abs(nq - nxi) / nxi)

            res = solver(a, b, cfg=SolverConfig(observer=grab))
            assert res.converged
            assert max(devs) <= 1e-12

    # history agreement over the first 20 iterations
    a, b = _tridiagonal_problem()
    results = {name: SOLVERS[name](a, b) for name in SOLVER_ORDER}
    for plain, rq in (("bl_cocg", "bl_cocg_rq"), ("bl_cocr", "bl_cocr_rq")):
        hp = np.asarray(results[plain].history[:21])
        hr = np.asarray(results[rq].history[:21])
        assert hp.size == 21 and hr.size == 21
        assert np.max(np.abs(hp - hr) / hr) <= 1e-6


def test_criterion_07_single_vector_reduction():
    """At p = 1 the block methods reproduce independently coded
    single-vector recurrences entry for entry."""
    a, b = gen_problem(ProblemSpec(n=50, p=1, kind="diagdominant", seed=0))
    dense = a.to_dense()
    rhs = np.ascontiguousarray(b[:, 0])
    for block_solver, reference in ((bl_cocg, scalar_cocg), (bl_cocr, scalar_cocr)):
        res = block_solver(a, b)
        _, ref_history = reference(dense, rhs)
        assert res.converged
        hb = np.asarray(res.history)
        hs = np.asarray(ref_history)
        assert hb.size == hs.size
        assert np.max(np.abs(hb - hs) / hs) <= 1e-10


class CountingMatrix(ComplexSymmetricMatrix):
    """Counts operator applications; everything else is inherited."""

    def matvec(self, v):
        self.count = getattr(self, "count", 0) + 1
        return super().matvec(v)


def test_criterion_08_one_operator_application_per_iteration():
    """Setup cost differs per method, but after it every iteration applies
    the operator exactly once."""
    base, b = gen_problem(ProblemSpec(n=60, p=3, kind="diagdominant", seed=21))
    setup_cost = {"bl_cocg": 0, "bl_cocg_rq": 0, "bl_cocr": 1, "bl_cocr_rq": 1}
    for name in SOLVER_ORDER:
        a = CountingMatrix(
            base.n, row_ptr=base.row_ptr, col_idx=base.col_idx, values=base.values
        )
        counts = []

        def grab(m, state):
            counts.append(getattr(a, "count", 0))

        res = SOLVERS[name](a, b, cfg=SolverConfig(observer=grab))
        assert res.converged
        assert counts[0] == setup_cost[name], f"{name}: setup {counts[0]}"
        deltas = np.diff(counts)
        assert np.all(deltas == 1), f"{name}: per-iteration counts {deltas}"


def test_criterion_09_cli_byte_determinism(tmp_path):
    """Two identical CLI invocations produce byte-identical reports and
    history files, cpu column aside."""
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.csv"
        hist = tmp_path / f"hist_{tag}"
        cmd = [
            sys.executable, "-m", "cskrylov.bench_cli", "solve",
            "--gen", "diagdominant", "--n", "50", "--p", "4", "--seed", "7",
            "--out", str(out), "--history-dir", str(hist),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        outputs.append((out, hist))

    def strip_cpu(text):
        return [
            ",".join(c for i, c in enumerate(ln.split(",")) if i != 3)
            for ln in text.splitlines()
        ]

    (out_a, hist_a), (out_b, hist_b) = outputs
    assert strip_cpu(out_a.read_text()) == strip_cpu(out_b.read_text())
    files_a = sorted(p.name for p in hist_a.iterdir())
    assert files_a == sorted(p.name for p in hist_b.iterdir())
    assert files_a == [f"{s}.csv" for s in sorted(SOLVER_ORDER)]
    for name in files_a:
        assert (hist_a / name).read_bytes() == (hist_b / name).read_bytes()
