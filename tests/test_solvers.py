"""Solver contracts: convergence, statuses, observers, determinism."""

import dataclasses
import math
import textwrap
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import every_operator_wide, run_child
from test_core_la import _two_pass

import cskrylov.solvers as solvers_module
from cskrylov import core_la
from cskrylov.core_la import ComplexSymmetricMatrix, fro_norm, t_gram
from cskrylov.mm_io import read_matrix_market
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
        # the whole knob set: residuals are always relative to ||B||_F
        names = [f.name for f in dataclasses.fields(SolverConfig)]
        assert names == ["tol", "max_iter", "observer"]

    def test_validation(self):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=0)
        with pytest.raises(TypeError, match="unexpected keyword"):
            SolverConfig(norm_reference="r0")

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, "3", True, False])
    def test_max_iter_must_be_an_integer(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolverConfig(max_iter=max_iter)

    @pytest.mark.parametrize(
        "tol",
        ["1e-3", 1j, np.array([1e-3, 1.0]), True, None],
        ids=["str", "complex", "array", "bool", "None"],
    )
    def test_tol_must_be_a_real_number(self, tol):
        with pytest.raises(ValueError, match="^tol must be a real number, got "):
            SolverConfig(tol=tol)

    @pytest.mark.parametrize("tol", [1e-3, 1, np.float64(1e-3)])
    def test_real_tol_of_any_type_taken(self, tol):
        assert SolverConfig(tol=tol).tol == tol

    def test_observer_must_be_callable(self):
        with pytest.raises(ValueError, match="^observer must be callable or None, got 5$"):
            SolverConfig(observer=5)

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("tol", "1e-3", "tol must be a real number, got '1e-3'"),
            ("max_iter", 0, "max_iter must be >= 1"),
            ("observer", 5, "observer must be callable or None, got 5"),
        ],
    )
    def test_frozen_fields_pass_the_checks_on_replace(self, name, value, message):
        # construction is the only way in: a field cannot be assigned, and
        # dataclasses.replace builds a new config, which runs the checks
        cfg = SolverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
        assert cfg == SolverConfig()
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(cfg, **{name: value})

    def test_numpy_integer_max_iter(self):
        a, b = _problem(seed=0)
        res = bl_cocg(a, b, cfg=SolverConfig(max_iter=np.int64(2)))
        assert res.iterations == 2


class TestInputValidation:
    @pytest.mark.parametrize("name,solver", ALL)
    def test_rejects_non_symmetric(self, name, solver):
        a = ComplexSymmetricMatrix.from_dense([[1, 2], [0, 1]])
        b = np.ones((2, 1), dtype=complex)
        with pytest.raises(ValueError, match="check_complex_symmetric"):
            solver(a, b)

    @pytest.mark.parametrize("name,solver", ALL)
    @pytest.mark.parametrize("built_from", ["dense", "csr"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_operator(self, name, solver, built_from, bad):
        # a symmetric pair of bad entries: the diagnosis must name the
        # non-finite entries, not an asymmetry (NaN != NaN)
        d = np.eye(3, dtype=complex)
        d[0, 1] = d[1, 0] = bad
        if built_from == "dense":
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


def _read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


# the forms in which a public caller may hand a solver, `matvec` or
# `true_relative_residual` the same real values; the kernels take only
# row-major complex128 blocks as given, so each public edge converts
# every other form, and every form gives the bits of the row-major one
_PUBLIC_FORMS = {
    "row-major": np.ascontiguousarray,
    "fortran": np.asfortranarray,
    "read-only": _read_only,
    "list": lambda a: np.asarray(a).tolist(),
    # every other column, or entry, of a larger block
    "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
    "float64": lambda a: np.ascontiguousarray(np.asarray(a).real),
}


def _real_problem(p, n=40):
    """A seeded problem whose B, and a nonzero X0 for it, hold real values
    in complex128 blocks, so that every public form holds them exactly."""
    a, b = _problem(n=n, p=p)
    x0 = np.random.default_rng(p).uniform(-0.1, 0.1, (n, p)).astype(complex)
    return a, b.real.astype(complex), x0


def _same_result(res, ref):
    assert (res.iterations, res.status) == (ref.iterations, ref.status)
    assert res.history == ref.history and res.trr == ref.trr
    assert res.x.flags.c_contiguous
    assert res.x.tobytes() == ref.x.tobytes()


class TestPublicForms:
    """The public edges keep the checks and conversions that the kernels
    dropped: every form of a block gives the bits of its row-major
    complex128 copy, and every form of a refused block the same error."""

    @pytest.mark.parametrize("form", _PUBLIC_FORMS)
    @pytest.mark.parametrize("name,solver", ALL)
    @pytest.mark.parametrize("p", [1, 3])
    def test_every_form_of_b_gives_the_same_bits(self, p, name, solver, form):
        a, b, _ = _real_problem(p)
        given = _PUBLIC_FORMS[form](b)
        before = np.array(given, copy=True)
        _same_result(solver(a, given), solver(a, b))
        np.testing.assert_array_equal(np.asarray(given), before)

    @pytest.mark.parametrize("form", _PUBLIC_FORMS)
    @pytest.mark.parametrize("name,solver", ALL)
    def test_every_form_of_x0_gives_the_same_bits(self, name, solver, form):
        a, b, x0 = _real_problem(3)
        given = _PUBLIC_FORMS[form](x0)
        before = np.array(given, copy=True)
        _same_result(solver(a, b, x0=given), solver(a, b, x0=x0))
        np.testing.assert_array_equal(np.asarray(given), before)

    @pytest.mark.parametrize("form", _PUBLIC_FORMS)
    def test_true_relative_residual_in_every_form(self, form):
        a, b, x0 = _real_problem(3)
        make = _PUBLIC_FORMS[form]
        expected = true_relative_residual(a, b, x0)
        assert math.isfinite(expected)
        assert true_relative_residual(a, make(b), make(x0)) == expected

    @pytest.mark.parametrize("form", _PUBLIC_FORMS)
    @pytest.mark.parametrize("p", [1, 3])
    def test_matvec_in_every_form(self, p, form):
        a, b, _ = _real_problem(p)
        given = _PUBLIC_FORMS[form](b)
        product = a.matvec(given)
        assert product.flags.c_contiguous and product.dtype == np.complex128
        assert product.tobytes() == a.matvec(b).tobytes()

    @pytest.mark.parametrize("case", ["rhs rows", "one-dimensional rhs", "too many columns",
                                      "x0 shape", "residual x shape", "matvec rows"])
    def test_every_form_raises_the_same_error(self, case):
        a, b, x0 = _real_problem(3)
        args, call, text = {
            "rhs rows": ((b[:-1],), lambda b: bl_cocg(a, b), "does not match"),
            "one-dimensional rhs": ((b[:, 0],), lambda b: bl_cocg(a, b), "2-D"),
            "too many columns": ((np.ones((40, 41)),), lambda b: bl_cocg(a, b),
                                 "1 <= p <= n"),
            "x0 shape": ((b, x0[:, :2]), lambda b, x: bl_cocg(a, b, x0=x), "x0 shape"),
            "residual x shape": ((b, x0[:-1]), lambda b, x: true_relative_residual(a, b, x),
                                 "x shape"),
            "matvec rows": ((b[:-1],), a.matvec, "dimension mismatch"),
        }[case]
        messages = set()
        for make in _PUBLIC_FORMS.values():
            with pytest.raises(ValueError, match=text) as exc:
                call(*[make(arg) for arg in args])
            messages.add(str(exc.value))
        assert len(messages) == 1


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


# the diagonal operator and right-hand side whose Gram system breaks down
# at iteration 0, first in the alpha system and then in the beta system;
# see TestStatuses
_BREAKDOWNS = {
    "bl_cocg": (((1, 4), (2, 1j), "P^T A P"), ((1, 2), (1, 1j), "R^T R")),
    "bl_cocg_rq": (((1, 4), (2, 1j), "S^T A S"), ((1, 2), (1, 1j), "Q^T Q")),
    "bl_cocr": (((1, 1), (1, 1j), "U^T U"), ((1, 4), (2, 1j), "R^T V")),
    "bl_cocr_rq": (((1, 1), (1, 1j), "U^T U"), ((1, 4), (2, 1j), "Q^T V")),
}
_STATUS_CASES = [
    (case, name)
    for name in SOLVERS
    for case in ("converged-at-0", "converged", "max-iter", "diverged",
                 "alpha-breakdown", "beta-breakdown")
] + [("young1c-p32-breakdown", "bl_cocr")]


def _status_case(case, name):
    """(a, b, x0, cfg, status) of a solve that ends in the named status."""
    if case in ("converged-at-0", "diverged"):
        a = ComplexSymmetricMatrix.from_dense(np.eye(5))
        b = gen_rhs(5, 2, seed=3, complex_values=True)
        if case == "diverged":
            b[1, 0] = np.nan
            return a, b, None, None, "diverged"
        # a residual of 1e-12 ||B||_F, below tol but not zero
        return a, b, b * (1 + 1e-12), None, "converged"
    if case == "converged":
        return *_problem(seed=0), None, None, "converged"
    if case == "max-iter":
        return *_problem(seed=0), None, SolverConfig(max_iter=2), "failed: max_iter"
    if case == "young1c-p32-breakdown":
        a = read_matrix_market(Path(__file__).parent / "fixtures" / "young1c.mtx")[1]
        return a, gen_rhs(a.n, 32, 0), None, None, "breakdown: R^T V"
    diag, rhs, system = _BREAKDOWNS[name][case == "beta-breakdown"]
    a = ComplexSymmetricMatrix.from_dense(np.diag(diag))
    return a, np.array([rhs], dtype=complex).T, None, None, f"breakdown: {system}"


class TestDerivedFields:
    """iterations and converged are read off the residual history, for
    every status. Only that invariant is pinned, not an iteration count:
    where a solve breaks down may depend on the BLAS thread count."""

    @pytest.mark.parametrize("case,name", _STATUS_CASES,
                             ids=[f"{c}-{n}" for c, n in _STATUS_CASES])
    def test_iterations_and_converged_follow_the_history(self, case, name):
        a, b, x0, cfg, status = _status_case(case, name)
        res = SOLVERS[name](a, b, x0=x0, cfg=cfg)
        assert res.status.startswith(status), res.status
        tol = (cfg or SolverConfig()).tol
        assert res.iterations == len(res.history) - 1
        assert res.converged == (res.history[-1] <= tol)
        if case == "converged-at-0":
            assert res.history == [res.history[0]] and 0.0 < res.history[0] <= tol


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

    @pytest.mark.parametrize("local", [False, True], ids=["file-order", "locality"])
    def test_observed_arrays_are_iteration_snapshots(self, local, monkeypatch):
        # no array handed to the observer may change after the call, for
        # any solver or state key, although the solvers rotate a fixed set
        # of blocks; at n = 300, p = 8 some QRs take two passes and leave
        # Q in the other of its two blocks
        if local:
            every_operator_wide(monkeypatch)
        for name, solver in ALL:
            a, b = _local_problem(8)
            snaps = []

            def obs(m, state):
                snaps.extend((m, k, v, v.copy()) for k, v in state.items())

            res = solver(a, b, cfg=SolverConfig(observer=obs))
            assert res.iterations > 1
            for m, key, live, copy in snaps:
                np.testing.assert_array_equal(live, copy, f"{name} {key} m={m}")


class TestWorkspaces:
    """Each recurrence allocates its n x p blocks once per solve and
    rotates them: COCG holds X, Q, S and W = A S, COCR X, Q, S, U and a
    free block, which takes V = A Q and then U. The exit writes X's
    caller-order copy, B's row-major copy and A X (then B - A X) into
    the blocks other than X."""

    BUDGET = {"bl_cocg": 4, "bl_cocg_rq": 4, "bl_cocr": 5, "bl_cocr_rq": 5}

    @pytest.mark.parametrize("local", [False, True], ids=["file-order", "locality"])
    @pytest.mark.parametrize("name,solver", ALL)
    def test_live_blocks_per_solve(self, name, solver, local, monkeypatch):
        if local:
            every_operator_wide(monkeypatch)
        a, b = gen_problem(
            ProblemSpec(n=20_000, p=8, kind="diagdominant", density=1e-4, seed=4)
        )
        # the first solve decides the row order and builds any copy
        solver(a, b)
        assert bool(a._local) == local
        tracemalloc.start()
        try:
            res = solver(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged and res.iterations > 2
        # the p x p matrices and the history are a few kB
        assert peak < (self.BUDGET[name] + 0.25) * b.nbytes, peak / b.nbytes


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

    def test_benchmark_reads_resolve_after_a_bare_import(self):
        # perfbench/worker.py records cskrylov.kernels.get_backend() after
        # `import cskrylov`, and the tracer wraps perfbench/tracing.py's
        # KERNELS on cskrylov.solvers and counts a matrix's bytes by the
        # array attributes it names; only a fresh process shows whether a
        # bare import makes all of these reachable
        root = Path(__file__).resolve().parents[1]
        child = textwrap.dedent(
            """
            import json, runpy, sys
            import cskrylov
            tracing = runpy.run_path(sys.argv[1])
            kernels = tracing["KERNELS"]
            read = cskrylov.mm_io.read_matrix_market
            tracer = tracing["Tracer"]("check")
            tracer.install(cskrylov)
            _, m = cskrylov.mm_io.read_matrix_market(sys.argv[2])
            tracer.uninstall()
            print(json.dumps({
                "backend": cskrylov.kernels.get_backend(),
                "kernels": list(kernels),
                "missing": [k for k in kernels if not hasattr(cskrylov.solvers, k)],
                "spans": sorted({span[0] for span in tracer.spans}),
                "restored": cskrylov.mm_io.read_matrix_market is read,
                "matrix_bytes": tracing["computed_bytes"](m),
                "csr_bytes": m.row_ptr.nbytes + m.col_idx.nbytes + m.values.nbytes,
            }))
            """
        )
        seen = run_child(
            child,
            root / "perfbench" / "tracing.py",
            root / "tests" / "fixtures" / "young1c.mtx",
        )
        assert seen["backend"] == "numpy"
        assert seen["kernels"] and seen["missing"] == []
        assert seen["spans"] == ["core_la.from_coo", "mm_io.read_matrix_market"]
        assert seen["restored"]
        assert seen["matrix_bytes"] == seen["csr_bytes"] > 0


class TestIterationLoop:
    """All four public solvers run one loop, `solvers._iterate`, which
    they look up on the module at call time (`scripts/alloc_probe.py`
    wraps it there), once per solve that iterates."""

    @pytest.mark.parametrize("name,solver", ALL)
    def test_each_solver_reaches_the_loop_once(self, name, solver, monkeypatch):
        loop = solvers_module._iterate
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return loop(*args)

        monkeypatch.setattr(solvers_module, "_iterate", counted)
        a, b = _problem(seed=0)
        assert solver(a, b).converged
        assert calls == [name.startswith("bl_cocr")]
        # an x0 that already meets tol: no iteration, so no loop
        res = solver(a, b, x0=direct_solve(a.to_dense(), b))
        assert res.converged and res.iterations == 0
        assert len(calls) == 1


class TestCocrObservedV:
    @pytest.mark.parametrize("local", [False, True], ids=["file-order", "locality"])
    @pytest.mark.parametrize("solver", [bl_cocr, bl_cocr_rq])
    def test_v_is_the_product_of_the_residual_block(self, solver, local, monkeypatch):
        # V_{m+1} is formed in the block where U_{m+1} then overwrites it,
        # so the observer must be handed a copy taken before that
        if local:
            every_operator_wide(monkeypatch)
        a, b = _local_problem(8)
        seen = []

        def obs(m, state):
            seen.append((m, state["R" if "R" in state else "Q"], state["U"], state["V"]))

        res = solver(a, b, cfg=SolverConfig(observer=obs))
        assert bool(a._local) == local
        assert res.iterations > 2 and [m for m, *_ in seen] == list(range(res.iterations))
        for m, r, u, v in seen:
            if local:
                # the solve's own product: on the copy, in its row order
                perm, copy = a._local
                expected = np.empty_like(v)
                expected[perm] = copy.matvec(r[perm])
            else:
                expected = a.matvec(r)
            assert v.tobytes() == expected.tobytes(), m
            # V_0 = U_0; after that U advances by recurrence
            assert (u.tobytes() == v.tobytes()) == (m == 0), m


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
        # each child solves twice with every solver, in file order and
        # then, on a new copy of the matrix read as wide, through the
        # locality copy; both runs in one process must
        # match bit for bit whatever the BLAS thread count
        child = textwrap.dedent(
            """
            import hashlib, json
            from cskrylov import SOLVERS, ProblemSpec, core_la, gen_problem
            spec = ProblemSpec(n=2000, p=8, kind="diagdominant", density=1e-3, seed=11)
            a, b = gen_problem(spec)
            def digest(res):
                h = hashlib.sha256(repr(res.history).encode())
                h.update(res.x.tobytes())
                return h.hexdigest()
            runs = {name: [digest(fn(a, b)) for _ in range(2)]
                    for name, fn in SOLVERS.items()}
            assert a._local is False
            core_la._spread = lambda a: float("inf")
            a, b = gen_problem(spec)
            for name, fn in SOLVERS.items():
                runs[name + " local"] = [digest(fn(a, b)) for _ in range(2)]
            assert a._local
            print(json.dumps(runs))
            """
        )
        for threads in ("1", "2"):
            digests = run_child(child, OPENBLAS_NUM_THREADS=threads)
            assert list(digests) == list(SOLVERS) + [f"{k} local" for k in SOLVERS]
            for name, (first, second) in digests.items():
                assert first == second, f"{name} under {threads} BLAS threads"

    def test_multi_chunk_gram_repeatability_under_blas_threads(self):
        # n = 5000 spans two row chunks of the thin QR's Gram products;
        # each child takes every product and solve twice, and both must
        # match bit for bit whatever the BLAS thread count
        child = textwrap.dedent(
            """
            import hashlib, json
            import numpy as np
            from cskrylov import SOLVERS, ProblemSpec, gen_problem
            from cskrylov.core_la import thin_qr
            a, b = gen_problem(ProblemSpec(
                n=5000, p=8, kind="diagdominant", density=1e-3, seed=11))
            def digest(res):
                h = hashlib.sha256(repr(res.history).encode())
                h.update(res.x.tobytes())
                return h.hexdigest()
            def qr_digest(fac):
                return hashlib.sha256(fac.q.tobytes() + fac.xi.tobytes()).hexdigest()
            b_rows = np.ascontiguousarray(b)
            runs = {"thin_qr": [qr_digest(thin_qr(b_rows)) for _ in range(2)]}
            for name in ("bl_cocg_rq", "bl_cocr_rq"):
                runs[name] = [digest(SOLVERS[name](a, b)) for _ in range(2)]
            print(json.dumps(runs))
            """
        )
        for threads in ("1", "2"):
            digests = run_child(child, OPENBLAS_NUM_THREADS=threads)
            assert list(digests) == ["thin_qr", "bl_cocg_rq", "bl_cocr_rq"]
            for name, (first, second) in digests.items():
                assert first == second, f"{name} under {threads} BLAS threads"

    def test_same_bits_under_one_and_two_blas_threads(self):
        # every reported norm is summed in one order whatever the BLAS
        # thread count: an n = 1e5, p = 8 norm, and short solves through
        # the locality copy and on a banded operator in file order, give
        # the same bytes under 1 and 2 threads
        child = textwrap.dedent(
            """
            import hashlib, json
            import numpy as np
            from cskrylov import SOLVERS, ProblemSpec, SolverConfig, gen_problem
            from cskrylov.core_la import ComplexSymmetricMatrix, fro_norm
            rng = np.random.default_rng(5)
            n = 100_000
            v = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
            runs = {"fro_norm": fro_norm(v).hex()}
            wide, b = gen_problem(ProblemSpec(
                n=n, p=8, kind="diagdominant", density=2e-5, seed=0))
            i = np.arange(n)
            banded = ComplexSymmetricMatrix.from_coo(
                n,
                np.concatenate([i, i[1:], i[:-1]]),
                np.concatenate([i, i[:-1], i[1:]]),
                np.concatenate([np.full(n, 4 + 1j), np.full(2 * n - 2, -1.0)]),
            )
            cfg = SolverConfig(max_iter=4)
            for case, a in (("wide", wide), ("banded", banded)):
                for name, fn in SOLVERS.items():
                    res = fn(a, b, cfg=cfg)
                    h = hashlib.sha256(np.asarray(res.history).tobytes())
                    h.update(np.float64(res.trr).tobytes())
                    h.update(res.x.tobytes())
                    runs[f"{case} {name}"] = h.hexdigest()
            assert wide._local and banded._local is False
            print(json.dumps(runs))
            """
        )
        digests = []
        for threads in ("1", "2"):
            digests.append(run_child(child, timeout=300, OPENBLAS_NUM_THREADS=threads))
        assert len(digests[0]) == 9
        for name, first in digests[0].items():
            assert first == digests[1][name], f"{name}: 1 and 2 BLAS threads differ"

    def test_single_columns_keep_their_bits_under_one_and_two_blas_threads(self):
        # a single column is updated by one zaxpy call, which OpenBLAS
        # threads above its level-1 threshold and whose bits then depend
        # on the thread count at some odd orders; the update at n = 841
        # and 1e5, and young1c's four p = 1 solves, give the same bytes
        # under 1 and 2 threads
        child = textwrap.dedent(
            """
            import hashlib, json, sys
            import numpy as np
            from cskrylov import SOLVERS, gen_rhs, read_matrix_market
            from cskrylov.core_la import _routine, axpy_block
            runs = {"zaxpy bound": _routine("zaxpy") is not None}
            for n in (841, 100_000):
                rng = np.random.default_rng(n)
                x, y, c = (rng.standard_normal(s) + 1j * rng.standard_normal(s)
                           for s in ((n, 1), (n, 1), (1, 1)))
                axpy_block(x, y, c)
                runs[f"update n={n}"] = hashlib.sha256(x.tobytes()).hexdigest()
            _, a = read_matrix_market(sys.argv[1])
            b = gen_rhs(a.n, 1, 0)
            for name, fn in SOLVERS.items():
                res = fn(a, b)
                h = hashlib.sha256(np.asarray(res.history).tobytes())
                h.update(np.float64(res.trr).tobytes())
                h.update(res.x.tobytes())
                runs[f"young1c p=1 {name}"] = [res.iterations, h.hexdigest()]
            print(json.dumps(runs))
            """
        )
        young1c = Path(__file__).parent / "fixtures" / "young1c.mtx"
        one, two = (run_child(child, young1c, OPENBLAS_NUM_THREADS=threads)
                    for threads in ("1", "2"))
        assert len(one) == 7 and one["zaxpy bound"]
        for name, first in one.items():
            assert first == two[name], f"{name}: 1 and 2 BLAS threads differ"


def _csr_array_matvec(self, v, out=None):
    """The CSR product as it was before the multi-vector kernel: scipy's
    `csr_array @ v`, copied into out or a fresh row-major block."""
    import scipy.sparse

    csr = scipy.sparse.csr_array(
        (self.values, self.col_idx, self.row_ptr), shape=(self.n, self.n)
    )
    if out is None:
        out = np.empty(np.shape(v), dtype=np.complex128)
    out[:] = csr @ v
    return out


def _matmul_axpy(x, y, c):
    """The block update as it was before zgemm: X + Y C into a fresh
    row-major block."""
    out = np.empty(np.shape(x), dtype=np.complex128)
    np.matmul(y, c, out=out)
    out += x
    return out


class TestKernelBits:
    """The multi-vector CSR product, the in-place block update and the
    thin QR give the bits of the formulas they replaced."""

    @staticmethod
    def _cases():
        from cskrylov.mm_io import read_matrix_market

        _, young1c = read_matrix_market(Path(__file__).parent / "fixtures" / "young1c.mtx")
        yield "young1c p=8", young1c, gen_rhs(young1c.n, 8, 0)
        yield "young1c p=32", young1c, gen_rhs(young1c.n, 32, 0)
        yield "diagdominant n=2e4 p=8", *gen_problem(
            ProblemSpec(n=20_000, p=8, kind="diagdominant", density=1e-4, seed=4)
        )

    @staticmethod
    def _outcomes(a, b, solvers=ALL):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankLossWarning)
            return {
                name: (res.iterations, res.status, res.history, res.x.tobytes())
                for name, res in ((name, fn(a, b)) for name, fn in solvers)
            }

    def test_kernels_keep_the_bits_of_the_replaced_formulas(self, monkeypatch):
        for case, a, b in self._cases():
            new = self._outcomes(a, b)
            with monkeypatch.context() as patch:
                patch.setattr(ComplexSymmetricMatrix, "matvec", _csr_array_matvec)
                patch.setattr(solvers_module, "axpy_block", _matmul_axpy)
                old = self._outcomes(a, b)
            for name in new:
                assert new[name] == old[name], f"{case} {name}"

    def test_thin_qr_keeps_the_bits_of_the_conjugate_copy_grams(self, monkeypatch):
        # the reference is CholeskyQR2 throughout, so the live thin QR runs
        # with its one-pass gate shut. The reference works in Fortran
        # order, whose products have the row-major bits only where n is a
        # multiple of 4 too, so the solves take its Grams and Cholesky
        # factors with row-major products (`_two_pass`), as at n = 841
        # in TestAgainstQrReference
        monkeypatch.setattr(core_la, "_CHOLQR_ONE_PASS_BOUND", 0.0)
        factored = [(name, fn) for name, fn in ALL if name.endswith("_rq")]
        for case, a, b in self._cases():
            new = self._outcomes(a, b, factored)
            with monkeypatch.context() as patch:
                patch.setattr(solvers_module, "thin_qr", _two_pass)
                old = self._outcomes(a, b, factored)
            for name in new:
                assert new[name] == old[name], f"{case} {name}"


def _calls(monkeypatch, owner, name):
    """A list that gets one entry per call of `owner.name` from now on."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOnePassQr:
    """Residual blocks that `thin_qr` factors in one CholeskyQR pass stay
    orthonormal inside the `_rq` solves."""

    @pytest.mark.parametrize("case", ["young1c p=32", "diagdominant n=2e4 p=8"])
    @pytest.mark.parametrize("name,solver", [("bl_cocg_rq", bl_cocg_rq),
                                             ("bl_cocr_rq", bl_cocr_rq)])
    def test_q_stays_orthonormal(self, case, name, solver, monkeypatch):
        a, b = next((a, b) for c, a, b in TestKernelBits._cases() if c == case)
        factorings = _calls(monkeypatch, solvers_module, "thin_qr")
        grams = _calls(monkeypatch, core_la, "_gram_h")
        defects = []

        def obs(m, state):
            q = state["Q"]
            defects.append(np.linalg.norm(np.conj(q.T) @ q - np.eye(q.shape[1])))

        res = solver(a, b, cfg=SolverConfig(observer=obs))
        assert res.converged and len(defects) == res.iterations
        assert max(defects) <= 1e-12, f"{case} {name}"
        # some factorizations took one pass, whose Q is the one at risk
        assert 2 * len(factorings) > len(grams), f"{case} {name}"


def _local_problem(p):
    return gen_problem(
        ProblemSpec(n=300, p=p, kind="diagdominant", density=0.02, seed=20 + p)
    )


def _x0(b):
    return np.asfortranarray(gen_rhs(b.shape[0], b.shape[1], 9, complex_values=True))


class TestLocalityOrder:
    """Solves through the locality copy, with every matrix read as wide,
    against the same solves in file order. The row order is cached on
    a matrix at its first solve, so the copy is taken on a new matrix."""

    @pytest.fixture
    def local_gate(self, monkeypatch):
        every_operator_wide(monkeypatch)

    @pytest.mark.parametrize("p", [1, 3, 8])
    @pytest.mark.parametrize("with_x0", [False, True], ids=["x0=0", "x0"])
    @pytest.mark.parametrize("name,solver", ALL)
    def test_solves_match_file_order(self, name, solver, with_x0, p, monkeypatch):
        a, b = _local_problem(p)
        x0 = _x0(b) if with_x0 else None
        cfg = SolverConfig(tol=1e-10)
        plain = solver(a, b, x0, cfg)
        assert a._local is False
        every_operator_wide(monkeypatch)
        wide, _ = _local_problem(p)
        local = solver(wide, b, x0, cfg)
        again = solver(wide, b, x0, cfg)
        assert type(wide._local[1]) is ComplexSymmetricMatrix
        assert plain.converged
        assert (local.iterations, local.status) == (plain.iterations, plain.status)
        if x0 is None:
            # ||B||_F is taken on B in the copy's row order, as R_0 is
            assert local.history[0] == plain.history[0] == 1.0
        # X is returned row-major in the caller's row order and meets tol
        # on its own true residual, from the file-order product
        assert local.x.flags.c_contiguous and plain.x.flags.c_contiguous
        assert local.x.shape == b.shape
        assert true_relative_residual(a, b, local.x) == local.trr
        assert local.trr <= math.log10(cfg.tol)
        np.testing.assert_allclose(local.x, plain.x, rtol=1e-8)
        assert again.history == local.history
        assert again.x.tobytes() == local.x.tobytes()

    @pytest.mark.parametrize("name,solver", ALL)
    def test_observer_sees_caller_order(self, name, solver, monkeypatch):
        a, b = _local_problem(3)

        def at_m1(states):
            def observe(m, state):
                if m == 1:
                    states.update(state)

            return SolverConfig(observer=observe)

        plain_state, local_state = {}, {}
        solver(a, b, cfg=at_m1(plain_state))
        every_operator_wide(monkeypatch)
        a, b = _local_problem(3)
        solver(a, b, cfg=at_m1(local_state))
        assert a._local
        assert set(local_state) == set(plain_state)
        x, x_plain = local_state["X"], plain_state["X"]
        assert fro_norm(x - x_plain) <= 1e-12 * fro_norm(x_plain)

    def test_overriding_matvec_keeps_file_order(self, local_gate):
        class CountingMatrix(ComplexSymmetricMatrix):
            def matvec(self, v):
                self.count = getattr(self, "count", 0) + 1
                return super().matvec(v)

        base, b = _local_problem(3)
        a = CountingMatrix(
            base.n, row_ptr=base.row_ptr, col_idx=base.col_idx, values=base.values
        )
        for name, solver in ALL:
            counts = []
            res = solver(a, b, cfg=SolverConfig(
                observer=lambda m, state: counts.append(getattr(a, "count", 0))
            ))
            assert res.converged
            assert np.all(np.diff(counts) == 1), name
        assert a._local is None

    def test_public_arrays_and_product_stay_in_file_order(self, local_gate):
        a, b = _local_problem(8)
        arrays = [arr.tobytes() for arr in (a.row_ptr, a.col_idx, a.values)]
        before = a.matvec(b)
        bl_cocg(a, b)
        assert a._local
        assert [arr.tobytes() for arr in (a.row_ptr, a.col_idx, a.values)] == arrays
        assert a.matvec(b).tobytes() == before.tobytes()


def _tridiagonal(n):
    """Diagonal 4 + 1j, off-diagonals -1: a chain, banded in file order."""
    i = np.arange(n)
    rows = np.concatenate([i, i[1:], i[:-1]])
    cols = np.concatenate([i, i[:-1], i[1:]])
    vals = np.concatenate([np.full(n, 4 + 1j), np.full(2 * n - 2, -1.0)])
    return ComplexSymmetricMatrix.from_coo(n, rows, cols, vals)


def _grid(m, perm=None):
    """The five-point -Laplacian - k^2 (1 + 0.1i) on an m x m grid at
    kh = 0.3, with row k the grid point numbered perm[k] in natural
    order (natural order itself for perm None)."""
    k = np.arange(m * m)
    right, down = k[k % m < m - 1], k[k < m * m - m]
    rows = np.concatenate([k, right, right + 1, down, down + m])
    cols = np.concatenate([k, right + 1, right, down + m, down])
    vals = np.where(rows == cols, 4 - 0.09 * (1 + 0.1j), -1.0)
    if perm is not None:
        position = np.empty(m * m, dtype=np.int64)
        position[perm] = k
        rows, cols = position[rows], position[cols]
    return ComplexSymmetricMatrix.from_coo(m * m, rows, cols, vals)


class TestLocalityGate:
    """The row order follows the operator's spread, not its order: a
    banded operator of any order is solved in file order, a wide one
    through its locality copy."""

    @pytest.mark.parametrize("build", [lambda: _tridiagonal(100_000), lambda: _grid(316)],
                             ids=["tridiagonal n=1e5", "grid 316x316"])
    def test_banded_operators_build_no_copy(self, build, monkeypatch):
        def refuse(*args):
            raise AssertionError("a banded operator ran the breadth-first search")

        monkeypatch.setattr(core_la, "_bfs_order", refuse)
        a = build()
        assert a.n >= 50_000 and core_la._spread(a) < 200
        b = gen_rhs(a.n, 2, 0)
        for name, solver in ALL:
            res = solver(a, b, cfg=SolverConfig(max_iter=2))
            assert res.iterations == 2 and np.isfinite(res.trr), name
        assert a._local is False

    def test_wide_operator_of_any_order_takes_its_copy(self):
        natural = _grid(200)
        a = _grid(200, np.random.default_rng(0).permutation(natural.n))
        assert core_la._spread(natural) < 200 < core_la._LOCALITY_WINDOW < core_la._spread(a)
        b = gen_rhs(a.n, 4, 0)
        cfg = SolverConfig(max_iter=3)
        for m in (natural, a):
            assert bl_cocg(m, b, cfg=cfg).iterations == 3
        assert natural._local is False
        perm, copy = a._local
        assert core_la._spread(copy) < 200

    def test_overriding_matvec_on_a_wide_operator_keeps_file_order(self, monkeypatch):
        class CountingMatrix(ComplexSymmetricMatrix):
            def matvec(self, v):
                self.count = getattr(self, "count", 0) + 1
                return super().matvec(v)

        m = 200
        base = _grid(m, np.random.default_rng(0).permutation(m * m))
        a = CountingMatrix(
            base.n, row_ptr=base.row_ptr, col_idx=base.col_idx, values=base.values
        )
        assert core_la._spread(a) > core_la._LOCALITY_WINDOW
        spreads = _calls(monkeypatch, core_la, "_spread")
        for name, solver in ALL:
            res = solver(a, gen_rhs(a.n, 4, 0), cfg=SolverConfig(max_iter=3))
            # one product per iteration, one for COCR's set-up, one at exit
            assert a.count == res.iterations + (2 if "cocr" in name else 1), name
            a.count = 0
        assert a._local is None and not spreads

    def test_narrow_verdict_is_read_once_per_matrix(self, monkeypatch):
        spreads = _calls(monkeypatch, core_la, "_spread")
        a, b = _local_problem(3)
        for name, solver in ALL:
            assert solver(a, b).converged, name
        assert a._local is False and len(spreads) == 1


def _count_multi_vector_products(monkeypatch):
    """Count the calls of scipy's multi-vector CSR kernel; returns the
    list that grows by one per call."""
    calls = []
    kernels = core_la._sparsetools()

    def counting(*args):
        calls.append(1)
        return kernels.csr_matvecs(*args)

    patched = types.SimpleNamespace(csr_matvec=kernels.csr_matvec, csr_matvecs=counting)
    monkeypatch.setattr(core_la, "_sparsetools", lambda: patched)
    return calls


class TestRowMajorSolves:
    """Every solve of p >= 2 runs on row-major blocks: in file order and
    through the locality copy alike."""

    KERNELS = ("block_matvec", "t_gram", "axpy_block", "thin_qr", "fro_norm")

    @pytest.mark.parametrize("case", ["young1c p=8", "n=40 p=3", "locality n=300 p=8"])
    def test_kernels_see_only_row_major_blocks(self, case, monkeypatch):
        if case == "young1c p=8":
            a, b = next((a, b) for c, a, b in TestKernelBits._cases() if c == case)
        elif case == "n=40 p=3":
            a, b = _problem(n=40, p=3)
        else:
            every_operator_wide(monkeypatch)
            a, b = _local_problem(8)
        seen, products = [], []
        for kernel in self.KERNELS:
            fn = getattr(solvers_module, kernel)

            def recording(*args, _fn=fn, _kernel=kernel, **kwargs):
                out = _fn(*args, **kwargs)
                if _kernel == "block_matvec":
                    products.append(1)
                for arr in (*args, *kwargs.values(), getattr(out, "q", out)):
                    if isinstance(arr, np.ndarray) and arr.shape == b.shape:
                        seen.append(arr.flags.c_contiguous)
                return out

            monkeypatch.setattr(solvers_module, kernel, recording)
        by_rows = _count_multi_vector_products(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankLossWarning)
            for name, solver in ALL:
                res = solver(a, b)
                assert res.converged and res.x.flags.c_contiguous, name
        assert seen and all(seen)
        # every product, the exit check's included, is one pass of the
        # multi-vector kernel
        assert len(by_rows) == len(products) > 0


class TestLayoutBits:
    """Row-major blocks, on which the solvers and the kernels compute,
    against the same blocks in Fortran order, which public callers may
    hand them: such a block is copied to row-major, so both give the
    same bits."""

    @pytest.mark.parametrize("p", [3, 8])
    @pytest.mark.parametrize("name,solver", ALL)
    def test_solves_match_the_fortran_order_solve(self, name, solver, p, monkeypatch):
        # a row-major B and its Fortran-order copy reach the operator as
        # the same row-major block, in file order and through the locality
        # copy alike, so the two solves keep the same bits
        for wide in (False, True):
            if wide:
                every_operator_wide(monkeypatch)
            a, b = _local_problem(p)
            by_rows = _count_multi_vector_products(monkeypatch)
            rows = solver(a, np.ascontiguousarray(b))
            # one product per iteration and one for the exit check, all
            # by the multi-vector kernel
            assert len(by_rows) == rows.iterations + 1
            columns = solver(a, np.asfortranarray(b))
            assert len(by_rows) == 2 * (rows.iterations + 1)
            assert bool(a._local) == wide
            assert rows.converged
            assert (rows.iterations, rows.status) == (columns.iterations, columns.status)
            assert rows.history == columns.history and rows.trr == columns.trr
            assert rows.x.flags.c_contiguous and columns.x.flags.c_contiguous
            assert rows.x.tobytes() == columns.x.tobytes()

    @pytest.mark.parametrize("n", [40, 841, 5000])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_kernels_compute_on_row_major_blocks(self, n, p):
        # the kernels take the solvers' row-major blocks as given
        rng = np.random.default_rng(p)
        v, w = (
            np.ascontiguousarray(rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p)))
            for _ in range(2)
        )
        c = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        assert t_gram(v, w).tobytes() == (v.T @ w).tobytes()
        # one block as both is one buffer to numpy, which takes zsyrk,
        # exactly symmetric
        g = t_gram(v, v)
        assert g.tobytes() == np.ascontiguousarray(g.T).tobytes()
        fac = core_la.thin_qr(v)
        assert fac.q.flags.c_contiguous
        np.testing.assert_allclose(fac.q @ fac.xi, v, rtol=0, atol=1e-12)
        # zgemm keeps the bits of numpy's product; a single column takes
        # zaxpy's, within rounding of it
        x = v.copy()
        expected = v + w @ c
        assert core_la.axpy_block(x, w, c) is x
        if p == 1:
            zaxpy = core_la._routine("zaxpy")
            if zaxpy is not None:
                direct, ints = v.copy(), core_la._INT
                zaxpy(ints(n), c.ctypes.data, w.ctypes.data, ints(1), direct.ctypes.data,
                      ints(1))
                assert x.tobytes() == direct.tobytes()
            np.testing.assert_allclose(x, expected, rtol=0, atol=1e-14)
        else:
            assert x.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("p", [3, 8])
    def test_gram_without_zgemm_takes_numpy(self, p, monkeypatch):
        # where no zgemm is bound a Hermitian Gram is numpy's product of
        # conjugate copies, which gives both layouts the same bits
        rng = np.random.default_rng(p)
        v = np.asfortranarray(rng.standard_normal((841, p)) + 1j * rng.standard_normal((841, p)))
        v_rows = np.ascontiguousarray(v)
        monkeypatch.setattr(core_la, "_routine", lambda name: None)
        assert core_la._gram_h(v_rows).tobytes() == core_la._gram_h(v).tobytes()


class TestSolvesWithNothingBound:
    """Whole solves where `_routine` binds nothing, as on every numpy
    build but its OpenBLAS wheels: numpy's block updates and
    conjugate-copy Hermitian Grams, and the Python LU. Release criteria 01 and 04 of
    `tests/test_acceptance.py` hold there too."""

    @pytest.fixture(autouse=True)
    def python_lu_calls(self, monkeypatch):
        monkeypatch.setattr(core_la, "_routine", lambda name: None)
        return _calls(monkeypatch, core_la, "_python_solve")

    def test_oracle_equivalence_over_twenty_seeds(self, python_lu_calls):
        for seed in range(20):
            a, b = gen_problem(ProblemSpec(n=50, p=4, kind="diagdominant", seed=seed))
            x_oracle = direct_solve(a.to_dense(), b)
            ref = fro_norm(np.asfortranarray(x_oracle))
            for name, solver in ALL:
                res = solver(a, b)
                assert res.converged, (seed, name, res.status)
                err = fro_norm(res.x - x_oracle) / ref
                assert err <= 1e-8, (seed, name, err)
        assert python_lu_calls

    def test_young1c_rq_bands(self, young1c, python_lu_calls):
        b = gen_rhs(young1c.n, 8, 0)
        for name, reference in (("bl_cocg_rq", 177), ("bl_cocr_rq", 180)):
            res = SOLVERS[name](young1c, b)
            assert res.converged, (name, res.status)
            assert res.trr <= -10, (name, res.trr)
            assert 0.75 * reference <= res.iterations <= 1.25 * reference, (
                name, res.iterations
            )
        assert python_lu_calls


class TestScaleInvariance:
    """A right-hand side far from unit norm is solved scaled by an exact
    power of 2, so every solver solves B * 1e-160 and B * 1e160 as it
    solves B, without a warning. B * 1e-160 is B rounded once more, so
    the plain solvers, whose late residuals carry that rounding, keep
    their unit-scale histories to 1e-8 and the factored ones to 1e-9."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    @pytest.mark.parametrize("name", ["bl_cocg", "bl_cocr", "bl_cocg_rq", "bl_cocr_rq"])
    def test_solves_keep_their_unit_scale_run(self, name, scale):
        a, b = _problem()
        unit = SOLVERS[name](a, b)
        scaled = SOLVERS[name](a, b * scale)
        assert (scaled.iterations, scaled.status) == (unit.iterations, unit.status)
        assert unit.converged
        rtol = 1e-9 if name.endswith("_rq") else 1e-8
        np.testing.assert_allclose(scaled.history, unit.history, rtol=rtol)
        assert scaled.trr == pytest.approx(unit.trr, abs=0.01)
        x = scaled.x / scale
        assert fro_norm(x - unit.x) <= 1e-9 * fro_norm(unit.x)

    @pytest.mark.parametrize("name,solver", ALL)
    def test_rescaling_by_a_power_of_2_keeps_the_bits(self, name, solver, monkeypatch):
        # with no window every B is solved at unit norm; B * 2^200 then
        # runs the unit solve's operations, each scaled exactly
        a, b = _problem()
        unit = solver(a, b)
        monkeypatch.setattr(solvers_module, "_RHS_EXP_WINDOW", -1)
        rescaled = solver(a, b * 2.0**200)
        assert (rescaled.iterations, rescaled.trr) == (unit.iterations, unit.trr)
        assert rescaled.history == unit.history
        assert (rescaled.x * 2.0**-200).tobytes() == unit.x.tobytes()


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

    def test_x_shape_must_match_rhs(self):
        a, b = _problem(p=4, seed=0)
        x = np.zeros((a.n, 1), dtype=complex)
        message = r"x shape \(40, 1\) does not match RHS shape \(40, 4\)"
        with pytest.raises(ValueError, match=message):
            true_relative_residual(a, b, x)

    def test_one_dimensional_rhs_is_named(self):
        a = ComplexSymmetricMatrix.from_dense(np.eye(3))
        b = np.ones(3, dtype=complex)
        message = r"right-hand side must be 2-D, got shape \(3,\)"
        with pytest.raises(ValueError, match=message):
            true_relative_residual(a, b, b)


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
        # loading, generating and checking stay scipy-free;
        # the first CSR product is what imports scipy.sparse
        child = textwrap.dedent(
            """
            import json, sys
            import numpy as np
            loaded = lambda: "scipy" in sys.modules
            seen = {}
            import cskrylov
            seen["import"] = loaded()
            from cskrylov import ProblemSpec, gen_problem
            from cskrylov.mm_io import read_matrix_market
            _, m = read_matrix_market(sys.argv[1])
            seen["read"] = loaded()
            a, _ = gen_problem(ProblemSpec(n=40, p=3, kind="diagdominant", seed=3))
            cskrylov.check_complex_symmetric(a)
            seen["generate_and_check"] = loaded()
            m.matvec(np.ones((m.n, 1)))
            seen["csr_matvec"] = loaded()
            print(json.dumps(seen))
            """
        )
        fixture = Path(__file__).parent / "fixtures" / "young1c.mtx"
        assert run_child(child, fixture) == {
            "import": False,
            "read": False,
            "generate_and_check": False,
            "csr_matvec": True,
        }

    def test_locality_order_loads_no_csgraph(self):
        # the breadth-first order is numpy alone: scipy.sparse.csgraph
        # would add ~11 MB to a solving process's peak RSS
        child = textwrap.dedent(
            """
            import json, sys
            from cskrylov import ProblemSpec, bl_cocr_rq, core_la, gen_problem
            core_la._spread = lambda a: float("inf")
            a, b = gen_problem(ProblemSpec(n=2000, p=4, kind="diagdominant",
                                           density=1e-3, seed=2))
            res = bl_cocr_rq(a, b)
            print(json.dumps({
                "converged": res.converged,
                "local": bool(a._local),
                "csgraph": [m for m in sys.modules if "csgraph" in m],
            }))
            """
        )
        seen = run_child(child)
        assert seen == {"converged": True, "local": True, "csgraph": []}

    def test_no_solve_builds_a_csr_array(self, monkeypatch):
        # the products run scipy's kernel on the matrix's own arrays; no
        # scipy.sparse matrix or array of any compressed format is built
        import scipy.sparse._compressed

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"a solve built a {type(self).__name__}")

        monkeypatch.setattr(scipy.sparse._compressed._cs_matrix, "__init__", refuse)
        a, b = _problem(seed=2)
        for name, solver in ALL:
            assert solver(a, b).converged, name
        with pytest.raises(AssertionError, match="built a csr_array"):
            scipy.sparse.csr_array((a.values, a.col_idx, a.row_ptr), shape=(a.n, a.n))
