"""Solver contracts: convergence, statuses, observers, determinism."""

import json
import math
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import child_env

import cskrylov.solvers as solvers_module
from cskrylov.core_la import ComplexSymmetricMatrix, fro_norm, t_gram
from cskrylov.oracle import ProblemSpec, direct_solve, gen_problem, gen_rhs
from cskrylov.solvers import (
    SOLVERS,
    RankLossWarning,
    SolverConfig,
    bl_cocg,
    bl_cocg_rq,
    bl_cocr,
    bl_cocr_rq,
    check_complex_symmetric,
    true_relative_residual,
)

ALL = list(SOLVERS.items())


def _problem(n=40, p=3, seed=0, **kw):
    return gen_problem(ProblemSpec(n=n, p=p, kind="diagdominant", seed=seed, **kw))


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tol == 1e-10
        assert cfg.max_iter is None
        assert cfg.norm_reference == "rhs"

    def test_validation(self):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError, match="norm_reference"):
            SolverConfig(norm_reference="b")


class TestInputValidation:
    @pytest.mark.parametrize("name,solver", ALL)
    def test_rejects_non_symmetric(self, name, solver):
        a = ComplexSymmetricMatrix.from_dense([[1, 2], [0, 1]])
        b = np.ones((2, 1), dtype=complex)
        with pytest.raises(ValueError, match="check_complex_symmetric"):
            solver(a, b)

    @pytest.mark.parametrize("name,solver", ALL)
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_operator(self, name, solver, storage, bad):
        # a symmetric pair of bad entries: the diagnosis must name the
        # non-finite entries, not an asymmetry (NaN != NaN)
        d = np.eye(3, dtype=complex)
        d[0, 1] = d[1, 0] = bad
        if storage == "dense":
            a = ComplexSymmetricMatrix.from_dense(d)
        else:
            rows, cols = np.nonzero(d)
            a = ComplexSymmetricMatrix.from_coo(3, rows, cols, d[rows, cols])
        b = np.ones((3, 1), dtype=complex)
        with pytest.raises(ValueError, match="non-finite entries"):
            solver(a, b)

    def test_rejects_one_dimensional_rhs(self):
        a = ComplexSymmetricMatrix.from_dense(np.eye(2))
        with pytest.raises(ValueError, match="2-D"):
            bl_cocg(a, np.ones(2, dtype=complex))

    def test_rejects_rhs_row_mismatch(self):
        a = ComplexSymmetricMatrix.from_dense(np.eye(2))
        with pytest.raises(ValueError, match="does not match"):
            bl_cocg(a, np.ones((3, 1), dtype=complex))

    def test_rejects_too_many_columns(self):
        a = ComplexSymmetricMatrix.from_dense(np.eye(2))
        with pytest.raises(ValueError, match="1 <= p <= n"):
            bl_cocg(a, np.ones((2, 3), dtype=complex))

    def test_rejects_zero_rhs(self):
        a = ComplexSymmetricMatrix.from_dense(np.eye(2))
        with pytest.raises(ValueError, match="identically zero"):
            bl_cocg(a, np.zeros((2, 1), dtype=complex))

    def test_rejects_bad_x0_shape(self):
        a = ComplexSymmetricMatrix.from_dense(np.eye(2))
        b = np.ones((2, 1), dtype=complex)
        with pytest.raises(ValueError, match="x0 shape"):
            bl_cocg(a, b, x0=np.ones((2, 2), dtype=complex))


class TestBasicConvergence:
    @pytest.mark.parametrize("name,solver", ALL)
    def test_identity_converges_in_one_iteration(self, name, solver):
        a = ComplexSymmetricMatrix.from_dense(np.eye(6))
        b = gen_rhs(6, 2, seed=1, complex_values=True)
        res = solver(a, b)
        assert res.converged
        assert res.iterations == 1
        assert res.trr <= -12
        np.testing.assert_allclose(res.x, b, atol=1e-12)

    @pytest.mark.parametrize("name,solver", ALL)
    @pytest.mark.parametrize("kind", ["diagdominant", "realspd", "diagonal"])
    def test_converges_on_every_kind(self, name, solver, kind):
        a, b = gen_problem(ProblemSpec(n=40, p=2, kind=kind, density=0.1, seed=6))
        res = solver(a, b)
        assert res.converged, res.status
        x_or = direct_solve(a.to_dense(), b)
        rel = fro_norm(res.x - x_or) / fro_norm(x_or)
        assert rel <= 1e-8
        assert res.history[0] == 1.0
        assert res.history[-1] <= 1e-10
        assert len(res.history) == res.iterations + 1

    @pytest.mark.parametrize("name,solver", ALL)
    def test_exact_x0_returns_immediately(self, name, solver):
        a = ComplexSymmetricMatrix.from_dense(np.eye(5))
        b = gen_rhs(5, 2, seed=3, complex_values=True)
        res = solver(a, b, x0=b.copy())
        assert res.converged
        assert res.iterations == 0
        assert res.history == [0.0]
        assert res.trr == float("-inf")

    @pytest.mark.parametrize("name,solver", ALL)
    def test_nonzero_x0_still_converges(self, name, solver):
        a, b = _problem(seed=8)
        x0 = np.asfortranarray(np.full(b.shape, 0.3 + 0.1j))
        res = solver(a, b, x0=x0)
        assert res.converged
        x_or = direct_solve(a.to_dense(), b)
        assert fro_norm(res.x - x_or) / fro_norm(x_or) <= 1e-8


class TestNormReference:
    @pytest.mark.parametrize("name,solver", ALL)
    def test_rhs_and_r0_coincide_for_zero_x0(self, name, solver):
        a, b = _problem(seed=4)
        res_rhs = solver(a, b, cfg=SolverConfig(norm_reference="rhs"))
        res_r0 = solver(a, b, cfg=SolverConfig(norm_reference="r0"))
        assert res_rhs.history == res_r0.history
        np.testing.assert_array_equal(res_rhs.x, res_r0.x)

    def test_r0_reference_starts_at_one(self):
        a, b = _problem(seed=4)
        x0 = np.asfortranarray(np.full(b.shape, 10.0 + 0j))  # bad guess, big r0
        res = bl_cocg(a, b, x0=x0, cfg=SolverConfig(norm_reference="r0"))
        assert res.history[0] == 1.0
        assert res.converged


class TestStatuses:
    def test_failed_max_iter(self):
        a, b = _problem(seed=0)
        res = bl_cocg(a, b, cfg=SolverConfig(max_iter=2))
        assert not res.converged
        assert res.iterations == 2
        assert res.status == "failed: max_iter"

    def test_breakdown_on_dependent_rhs_columns(self):
        a, b = _problem(n=40, p=1, seed=2)
        bdup = np.asfortranarray(np.hstack([b, b]))
        res = bl_cocg(a, bdup)
        assert not res.converged
        assert res.breakdown is not None
        assert res.breakdown.system == "P^T A P"
        assert res.breakdown.iteration == 0
        assert res.breakdown.pivot_index == 1
        assert res.status == "breakdown: P^T A P at iter 0"

    @pytest.mark.parametrize(
        "diag,rhs,name,system",
        [
            # R^T R = 1 + i^2 = 0: alpha is zero, then beta's system is singular
            ((1, 2), (1, 1j), "bl_cocg", "R^T R"),
            ((1, 2), (1, 1j), "bl_cocg_rq", "Q^T Q"),
            # P^T A P = R^T A R = 4 + 4 i^2 = 0; for COCR, R^T V is that same
            # zero, so alpha is zero and then beta's system is singular
            ((1, 4), (2, 1j), "bl_cocg", "P^T A P"),
            ((1, 4), (2, 1j), "bl_cocg_rq", "S^T A S"),
            ((1, 4), (2, 1j), "bl_cocr", "R^T V"),
            ((1, 4), (2, 1j), "bl_cocr_rq", "Q^T V"),
            # U^T U = (A R)^T (A R) = 1 + i^2 = 0
            ((1, 1), (1, 1j), "bl_cocr", "U^T U"),
            ((1, 1), (1, 1j), "bl_cocr_rq", "U^T U"),
        ],
    )
    def test_breakdown_names_the_gram_system(self, diag, rhs, name, system):
        a = ComplexSymmetricMatrix.from_dense(np.diag(diag))
        res = SOLVERS[name](a, np.array([rhs], dtype=complex).T)
        assert res.breakdown is not None
        assert res.breakdown.system == system
        assert res.breakdown.iteration == 0
        assert res.breakdown.pivot_index == 0
        assert res.breakdown.pivot_magnitude == 0.0
        assert res.status == f"breakdown: {system} at iter 0"

    def test_diverged_on_non_finite_rhs(self):
        a = ComplexSymmetricMatrix.from_dense(np.eye(3))
        b = np.ones((3, 1), dtype=complex)
        b[1, 0] = np.nan
        res = bl_cocg(a, b)
        assert not res.converged
        assert res.iterations == 0
        assert math.isnan(res.history[-1])
        assert res.status == "diverged"

    def test_statuses_are_comma_free(self):
        a, b = _problem(seed=0)
        for cfg in (SolverConfig(), SolverConfig(max_iter=1)):
            res = bl_cocg(a, b, cfg=cfg)
            assert "," not in res.status

    def test_result_repr_mentions_status(self):
        a, b = _problem(seed=0)
        res = bl_cocg(a, b)
        assert "converged" in repr(res)


class TestRqStabilization:
    @pytest.mark.parametrize("name,solver", [("bl_cocg_rq", bl_cocg_rq),
                                             ("bl_cocr_rq", bl_cocr_rq)])
    def test_survives_exactly_dependent_columns(self, name, solver):
        # the plain methods break down on this input (see TestStatuses)
        a, b = _problem(n=40, p=1, seed=2)
        bdup = np.asfortranarray(np.hstack([b, b]))
        with pytest.warns(RankLossWarning) as caught:
            res = solver(a, bdup)
        # the warning points at the caller of the public solver
        assert [w.filename for w in caught] == [__file__]
        assert res.converged
        x_or = direct_solve(a.to_dense(), bdup)
        assert fro_norm(res.x - x_or) / fro_norm(x_or) <= 1e-8
        np.testing.assert_allclose(res.x[:, 0], res.x[:, 1], atol=1e-10)

    def test_rank_loss_warns_exactly_once(self):
        a, b = _problem(n=40, p=1, seed=2)
        bdup = np.asfortranarray(np.hstack([b, b]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bl_cocg_rq(a, bdup)
        rank_warnings = [w for w in caught if w.category is RankLossWarning]
        assert len(rank_warnings) == 1

    def test_healthy_run_does_not_warn(self):
        a, b = _problem(seed=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bl_cocg_rq(a, b)
            bl_cocr_rq(a, b)
        assert not [w for w in caught if w.category is RankLossWarning]


class TestHistory:
    def test_history_monotone_on_easy_problem(self):
        # no theorem guarantees this in general; it pins down the easy case
        a, b = _problem(seed=13)
        res = bl_cocr(a, b)
        assert all(
            later <= earlier
            for earlier, later in zip(res.history, res.history[1:])
        )


class TestObserver:
    @pytest.mark.parametrize(
        "solver,keys",
        [
            (bl_cocg, {"X", "R", "P"}),
            (bl_cocr, {"X", "R", "P", "U", "V"}),
            (bl_cocg_rq, {"X", "Q", "S", "xi"}),
            (bl_cocr_rq, {"X", "Q", "S", "U", "V", "xi"}),
        ],
    )
    def test_state_keys_and_iteration_order(self, solver, keys):
        a, b = _problem(seed=3)
        seen = []

        def obs(m, state):
            seen.append((m, set(state)))

        res = solver(a, b, cfg=SolverConfig(observer=obs))
        assert [m for m, _ in seen] == list(range(res.iterations))
        assert all(k == keys for _, k in seen)

    @pytest.mark.parametrize("name,solver", ALL)
    def test_observer_is_bitwise_neutral(self, name, solver):
        a, b = _problem(seed=3)
        plain = solver(a, b)
        observed = solver(a, b, cfg=SolverConfig(observer=lambda m, s: None))
        assert plain.history == observed.history
        np.testing.assert_array_equal(plain.x, observed.x)

    def test_observed_arrays_are_iteration_snapshots(self):
        # no array handed to the observer may change after the call, for
        # any solver or state key
        a, b = _problem(seed=3)
        for name, solver in ALL:
            snaps = []

            def obs(m, state):
                snaps.extend((m, k, v, v.copy()) for k, v in state.items())

            res = solver(a, b, cfg=SolverConfig(observer=obs))
            assert res.iterations > 1
            for m, key, live, copy in snaps:
                np.testing.assert_array_equal(live, copy, f"{name} {key} m={m}")


class TestKernelCalls:
    # the benchmark's tracer (perfbench/tracing.py) times each layer by
    # replacing these names on cskrylov.solvers, so the solvers must look
    # them up there at call time
    KERNELS = ("block_matvec", "t_gram", "axpy_block", "thin_qr", "solve_small",
               "fro_norm")

    @pytest.mark.parametrize("name,solver", ALL)
    def test_kernel_calls_per_iteration(self, name, solver, monkeypatch):
        a, b = gen_problem(
            ProblemSpec(n=100, p=3, kind="diagdominant", density=0.1, seed=11)
        )
        calls = dict.fromkeys(self.KERNELS, 0)

        def counting(kernel, fn):
            def counted(*args, **kwargs):
                calls[kernel] += 1
                return fn(*args, **kwargs)

            return counted

        for kernel in self.KERNELS:
            fn = getattr(solvers_module, kernel)
            monkeypatch.setattr(solvers_module, kernel, counting(kernel, fn))

        def run(max_iter):
            calls.update(dict.fromkeys(calls, 0))
            res = solver(a, b, cfg=SolverConfig(max_iter=max_iter))
            assert res.iterations == max_iter and not res.converged
            return dict(calls)

        three, four = run(3), run(4)
        per_iteration = {k: four[k] - three[k] for k in self.KERNELS}
        assert per_iteration == {
            "block_matvec": 1,
            "t_gram": 2,
            "axpy_block": 4 if name.startswith("bl_cocr") else 3,
            "thin_qr": 1 if name.endswith("_rq") else 0,
            "solve_small": 2,
            "fro_norm": 1,
        }


class TestResidualAgreement:
    @pytest.mark.parametrize("name,solver", ALL)
    def test_recursive_residual_tracks_true_residual(self, name, solver):
        a, b = gen_problem(
            ProblemSpec(n=100, p=3, kind="diagdominant", density=0.1, seed=11)
        )
        norm_b = fro_norm(b)
        devs = []

        def obs(m, state):
            r = state["R"] if "R" in state else state["Q"] @ state["xi"]
            devs.append(fro_norm((b - a.matvec(state["X"])) - r) / norm_b)

        res = solver(a, b, cfg=SolverConfig(observer=obs))
        assert res.converged
        assert max(devs) <= 1e-8

    def test_cross_gram_forms_agree_while_healthy(self):
        # Q^T U and Q^T V coincide up to rounding on a well-conditioned run;
        # the solver deliberately consumes Q^T V (see its docstring)
        a, b = gen_problem(
            ProblemSpec(n=100, p=3, kind="diagdominant", density=0.1, seed=11)
        )
        gaps = []

        def obs(m, state):
            qu = t_gram(state["Q"], state["U"])
            qv = t_gram(state["Q"], state["V"])
            gaps.append(fro_norm(qu - qv) / fro_norm(qv))

        res = bl_cocr_rq(a, b, cfg=SolverConfig(observer=obs))
        assert res.converged
        assert max(gaps) <= 1e-8


class TestDeterminism:
    @pytest.mark.parametrize("name,solver", ALL)
    def test_bitwise_repeatability(self, name, solver):
        a, b = _problem(seed=17)
        r1 = solver(a, b)
        r2 = solver(a, b)
        assert r1.history == r2.history
        assert r1.iterations == r2.iterations
        assert r1.trr == r2.trr
        np.testing.assert_array_equal(r1.x, r2.x)


    def test_bitwise_repeatability_under_blas_threads(self):
        # each child solves twice with every solver; both runs in one
        # process must match bit for bit whatever the BLAS thread count
        child = textwrap.dedent(
            """
            import hashlib, json
            from cskrylov import SOLVERS, ProblemSpec, gen_problem
            a, b = gen_problem(ProblemSpec(
                n=2000, p=8, kind="diagdominant", density=1e-3, seed=11))
            def digest(res):
                h = hashlib.sha256(repr(res.history).encode())
                h.update(res.x.tobytes())
                return h.hexdigest()
            print(json.dumps({name: [digest(fn(a, b)) for _ in range(2)]
                              for name, fn in SOLVERS.items()}))
            """
        )
        for threads in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", child],
                env=child_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert out.returncode == 0, out.stderr
            digests = json.loads(out.stdout)
            assert list(digests) == list(SOLVERS)
            for name, (first, second) in digests.items():
                assert first == second, f"{name} under {threads} BLAS threads"


class TestTrueRelativeResidual:
    def test_zero_x_gives_zero_exactly(self):
        a, b = _problem(seed=0)
        x = np.zeros_like(b)
        assert true_relative_residual(a, b, x) == 0.0

    def test_oracle_solution_is_deep(self):
        a, b = _problem(n=20, p=2, seed=5)
        x = direct_solve(a.to_dense(), b)
        assert true_relative_residual(a, b, np.asfortranarray(x)) <= -12

    def test_exact_solution_is_minus_inf(self):
        a = ComplexSymmetricMatrix.from_dense(np.eye(3))
        b = np.ones((3, 1), dtype=complex)
        assert true_relative_residual(a, b, b.copy()) == float("-inf")

    def test_zero_rhs_rejected(self):
        a = ComplexSymmetricMatrix.from_dense(np.eye(3))
        z = np.zeros((3, 1), dtype=complex)
        with pytest.raises(ValueError, match="undefined"):
            true_relative_residual(a, z, z)


class TestSymmetryCheck:
    def test_true_on_generated(self):
        a, _ = _problem(seed=0)
        assert check_complex_symmetric(a)

    def test_false_on_perturbed(self):
        a, _ = _problem(n=10, p=1, seed=0)
        d = a.to_dense()
        d[0, 1] += 1e-12  # any exact asymmetry fails the check
        assert not check_complex_symmetric(ComplexSymmetricMatrix.from_dense(d))

    def test_true_on_real_symmetric(self):
        a, _ = gen_problem(ProblemSpec(n=20, p=1, kind="realspd", seed=1))
        assert check_complex_symmetric(a)

    def test_non_finite_raises_instead_of_a_verdict(self):
        a = ComplexSymmetricMatrix.from_dense([[np.nan, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="non-finite entries"):
            check_complex_symmetric(a)

    def test_finiteness_scanned_once_per_matrix(self, monkeypatch):
        a, b = _problem(seed=2)
        scans = []
        isfinite = np.isfinite

        def counting(x, *args, **kwargs):
            if x is a.values:
                scans.append(1)
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        bl_cocg(a, b)
        bl_cocr_rq(a, b)
        assert len(scans) == 1


class TestScipyLoading:
    def test_scipy_loaded_only_by_a_csr_product(self):
        # loading, generating, checking and dense solves stay scipy-free;
        # the first CSR product is what imports scipy.sparse
        child = textwrap.dedent(
            """
            import json, sys
            import numpy as np
            loaded = lambda: "scipy" in sys.modules
            seen = {}
            import cskrylov
            seen["import"] = loaded()
            from cskrylov import ComplexSymmetricMatrix, ProblemSpec, gen_problem
            from cskrylov.mm_io import read_matrix_market
            _, m = read_matrix_market(sys.argv[1])
            seen["read"] = loaded()
            a, b = gen_problem(ProblemSpec(n=40, p=3, kind="diagdominant", seed=3))
            cskrylov.check_complex_symmetric(a)
            seen["generate_and_check"] = loaded()
            dense = ComplexSymmetricMatrix.from_dense(a.to_dense())
            for solve in cskrylov.SOLVERS.values():
                assert solve(dense, b).converged
            seen["dense_solves"] = loaded()
            m.matvec(np.ones((m.n, 1)))
            seen["csr_matvec"] = loaded()
            print(json.dumps(seen))
            """
        )
        fixture = Path(__file__).parent / "fixtures" / "young1c.mtx"
        out = subprocess.run(
            [sys.executable, "-c", child, str(fixture)],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {
            "import": False,
            "read": False,
            "generate_and_check": False,
            "dense_solves": False,
            "csr_matvec": True,
        }

    def test_sparse_handle_built_once_per_matrix(self, monkeypatch):
        import scipy.sparse

        a, b = _problem(seed=2)
        builds = []
        csr_array = scipy.sparse.csr_array

        def counting(arg, *args, **kwargs):
            if arg[0] is a.values:
                builds.append(1)
            return csr_array(arg, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse, "csr_array", counting)
        bl_cocg(a, b)
        bl_cocr_rq(a, b)
        assert len(builds) == 1
