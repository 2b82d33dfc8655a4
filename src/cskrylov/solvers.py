"""
Block Krylov solvers for complex symmetric systems with multiple
right-hand sides.

Two recurrences (COCG, COCR), plain or residual-factored, solve
A X = B where A equals its unconjugated transpose (A == A^T, A != A^H)
and B holds p right-hand sides as columns:

- ``bl_cocg``: block conjugate-orthogonal conjugate gradient. The
  residual blocks stay mutually conjugate-orthogonal (R_i^T R_j = O)
  and the search blocks conjugate-A-orthogonal (P_i^T A P_j = O).
- ``bl_cocr``: block conjugate-orthogonal conjugate residual, the
  A-orthogonality counterpart (R_i^T A R_j = O, (AP_i)^T (AP_j) = O).
- ``bl_cocg_rq`` / ``bl_cocr_rq``: the same recurrences with each
  residual block kept QR-factored, R_m = Q_m xi_m. Working with the
  orthonormal Q_m preserves the linear independence of the residual
  columns, which is what degrades first in the plain methods, and the
  residual norm falls out for free as ||xi_m||_F.

Each recurrence is written once (`_cocg`, `_cocr`); the plain method
is its unfactored case, Q_m = R_m and xi_m = tau_m = I, with the
products by those identities skipped rather than taken.

Every method applies the operator exactly once per iteration after
setup. Convergence is declared on the recursive residual; the true
residual is recomputed from a fresh operator application at exit and
reported as log10 of the relative Frobenius norm. A singular small
Gram system aborts the run with a breakdown report (no look-ahead, no
deflation); rank loss in xi_m is a warning, not an abort, since columns
converging at different rates is expected.
"""

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core_la import (
    BreakdownError,
    axpy_block,
    block_matvec,
    fro_norm,
    solve_small,
    t_gram,
    thin_qr,
)

__all__ = [
    "SolverConfig",
    "SolveResult",
    "BreakdownInfo",
    "RankLossWarning",
    "SOLVERS",
    "bl_cocg",
    "bl_cocr",
    "bl_cocg_rq",
    "bl_cocr_rq",
    "true_relative_residual",
    "check_complex_symmetric",
]

# xi diagonal ratio under this emits RankLossWarning
_RANK_FLOOR = 1e-12


class RankLossWarning(UserWarning):
    """The QR factor of a residual block is numerically rank deficient."""


@dataclass
class SolverConfig:
    """Knobs shared by all four solvers.

    Parameters
    ----------
    tol : float
        Relative residual threshold, > 0.
    max_iter : int or None
        Iteration cap; None means the matrix order.
    norm_reference : str
        "rhs" normalizes residuals by ||B||_F, "r0" by ||R_0||_F.
        They coincide when x0 is zero.
    observer : callable or None
        Diagnostic hook called at the top of every iteration as
        ``observer(m, state)`` where state maps symbol names to the
        live block arrays. The arrays are freshly allocated each
        iteration; treat them as read-only. Solver output is bitwise
        identical with or without an observer.
    """

    tol: float = 1e-10
    max_iter: Optional[int] = None
    norm_reference: str = "rhs"
    observer: Optional[Callable] = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.norm_reference not in ("rhs", "r0"):
            raise ValueError(
                f"norm_reference must be 'rhs' or 'r0', got {self.norm_reference!r}"
            )


@dataclass
class BreakdownInfo:
    """Which small Gram system went singular, and when."""

    system: str
    iteration: int
    pivot_index: int
    pivot_magnitude: float


@dataclass
class SolveResult:
    """Outcome of one solver run.

    Attributes
    ----------
    x : ndarray
        Approximate solution block, (n, p).
    iterations : int
        Completed iterations at exit.
    converged : bool
        Whether the recursive residual reached tol.
    trr : float
        log10 of the true relative residual, from a fresh operator
        application at exit.
    history : list of float
        Relative recursive-residual norms; history[0] is the m = 0
        entry and the last entry is the exit value.
    breakdown : BreakdownInfo or None
        Set when a small Gram system was singular.
    elapsed : float
        Wall seconds for the whole solve.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    trr: float
    history: list = field(default_factory=list)
    breakdown: Optional[BreakdownInfo] = None
    elapsed: float = 0.0

    @property
    def status(self):
        """Single comma-free status token for reports."""
        if self.converged:
            return "converged"
        if self.breakdown is not None:
            return (
                f"breakdown: {self.breakdown.system} at iter "
                f"{self.breakdown.iteration}"
            )
        if self.history and not math.isfinite(self.history[-1]):
            return "diverged"
        return "failed: max_iter"

    def __repr__(self):
        return (
            f"SolveResult(status={self.status!r}, iterations={self.iterations}, "
            f"trr={self.trr:.2f}, elapsed={self.elapsed:.3f}s)"
        )


def check_complex_symmetric(a):
    """True iff the operator equals its unconjugated transpose exactly.

    Raises
    ------
    ValueError
        If the operator stores NaN or infinite entries. No symmetry
        verdict is given for them: NaN never equals itself, so exact
        comparison would report a symmetric operator as asymmetric.
    """
    if not a.is_finite:
        raise ValueError(
            "operator has non-finite entries (NaN or Inf); these methods "
            "require a finite operator"
        )
    return a.is_symmetric


def true_relative_residual(a, b, x):
    """log10(||B - AX||_F / ||B||_F) from a fresh operator application.

    Independent of any solver recurrence; this is the honest exit
    metric. An exact solve returns -inf.

    Raises
    ------
    ValueError
        If ||B||_F is zero, the ratio is undefined.
    """
    b = np.asfortranarray(b, dtype=np.complex128)
    norm_b = fro_norm(b)
    if norm_b == 0.0:
        raise ValueError("relative residual undefined for a zero right-hand side")
    r = b - block_matvec(a, x)
    with np.errstate(divide="ignore"):
        return float(np.log10(fro_norm(r) / norm_b))


def _setup(a, b, x0, cfg):
    """Validation and initial residual shared by both recurrences.

    Returns (cfg, b, x, r0, ref, h0, max_iter, done) where done flags an
    immediate exit: the initial residual already meets tol, is exactly
    zero, or is not finite.
    """
    if cfg is None:
        cfg = SolverConfig()
    if not check_complex_symmetric(a):
        raise ValueError(
            "operator failed check_complex_symmetric; these methods require "
            "A equal to its unconjugated transpose"
        )
    b = np.asfortranarray(b, dtype=np.complex128)
    if b.ndim != 2:
        raise ValueError(f"right-hand side must be 2-D, got shape {b.shape}")
    n, p = b.shape
    if n != a.n:
        raise ValueError(f"operator order {a.n} does not match RHS rows {n}")
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    norm_b = fro_norm(b)
    if norm_b == 0.0:
        raise ValueError("right-hand side is identically zero; nothing to solve")
    if x0 is None:
        x = np.zeros((n, p), dtype=np.complex128, order="F")
        r0 = b.copy(order="F")
    else:
        x = np.asfortranarray(x0, dtype=np.complex128).copy(order="F")
        if x.shape != (n, p):
            raise ValueError(f"x0 shape {x.shape} does not match RHS shape {b.shape}")
        r0 = b - block_matvec(a, x)
    r0_norm = fro_norm(r0)
    ref = norm_b if cfg.norm_reference == "rhs" else r0_norm
    h0 = 0.0 if r0_norm == 0.0 else r0_norm / ref
    max_iter = cfg.max_iter if cfg.max_iter is not None else a.n
    done = (not math.isfinite(h0)) or h0 <= cfg.tol
    return cfg, b, x, r0, ref, h0, max_iter, done


def _finalize(a, b, x, iterations, converged, history, breakdown, t0):
    """TRR recomputation and result assembly."""
    return SolveResult(
        x=x,
        iterations=iterations,
        converged=converged,
        trr=true_relative_residual(a, b, x),
        history=history,
        breakdown=breakdown,
        elapsed=time.perf_counter() - t0,
    )


def _observe(cfg, m, keys, blocks, xi):
    """Hand the observer this iteration's blocks by symbol, xi last."""
    if cfg.observer is not None:
        state = dict(zip(keys, blocks))
        if xi is not None:
            state["xi"] = xi
        cfg.observer(m, state)


def _xi_rank_check(xi, warned):
    """Warn once per run when xi's diagonal spans more than _RANK_FLOOR.

    Called from a recurrence loop only, so that the warning points at
    the caller of the public solver.
    """
    d = np.abs(np.diag(xi))
    top = d.max()
    if not warned and top > 0.0 and d.min() < _RANK_FLOOR * top:
        warnings.warn(
            f"residual block lost numerical rank: smallest xi diagonal is "
            f"{d.min():.3e} against largest {top:.3e}",
            RankLossWarning,
            stacklevel=4,
        )
        return True
    return warned


def _factor(r, factored):
    """(Q_0, xi_0) of the initial residual; unfactored, (R_0, None)."""
    if not factored:
        return r, None
    fac = thin_qr(r)
    return fac.q, fac.xi


def _advance(x, s, q, w, alpha, xi, ref):
    """The solution and residual step both recurrences share.

    X_{m+1} = X_m + S_m alpha xi_m, and Q_m - W alpha is re-factored
    as Q_{m+1} tau_{m+1}, giving xi_{m+1} = tau_{m+1} xi_m. Unfactored
    (xi is None) the residual Q_m - W alpha is Q_{m+1} itself: no QR is
    taken and no product with xi or tau is formed.

    Returns (X_{m+1}, Q_{m+1}, tau_{m+1}, xi_{m+1}, ||R_{m+1}||_F / ref),
    with tau and xi None when unfactored.
    """
    x = axpy_block(x, s, alpha if xi is None else alpha @ xi)
    q = axpy_block(q, w, -alpha)
    if xi is None:
        return x, q, None, None, fro_norm(q) / ref
    fac = thin_qr(q)
    xi = fac.xi @ xi
    return x, fac.q, fac.xi, xi, fro_norm(xi) / ref


def _cocg(a, b, x0, cfg, factored):
    """Block COCG on R_m = Q_m xi_m, or on R_m itself when not factored.

    In the factored form the search block is S_m and the Grams are
    S^T A S and Q^T Q; unfactored they are named P^T A P and R^T R.
    The Gram Q^T Q of one iteration is reused in the next, so each
    iteration forms two Gram products.
    """
    t0 = time.perf_counter()
    cfg, b, x, r, ref, h0, max_iter, done = _setup(a, b, x0, cfg)
    history = [h0]
    if done:
        return _finalize(a, b, x, 0, h0 <= cfg.tol, history, None, t0)
    q, xi = _factor(r, factored)
    warned = factored and _xi_rank_check(xi, False)
    keys = ("X", "Q", "S") if factored else ("X", "R", "P")
    grams = ("S^T A S", "Q^T Q") if factored else ("P^T A P", "R^T R")
    s = q.copy(order="F")
    qq = t_gram(q, q)
    converged, breakdown, iterations = False, None, 0
    for m in range(max_iter):
        _observe(cfg, m, keys, (x, q, s), xi)
        as_ = block_matvec(a, s)
        try:
            alpha = solve_small(t_gram(s, as_), qq)
        except BreakdownError as e:
            breakdown = BreakdownInfo(grams[0], m, e.pivot_index, e.pivot_magnitude)
            break
        x, q_new, tau, xi, h = _advance(x, s, q, as_, alpha, xi, ref)
        history.append(h)
        iterations = m + 1
        if not math.isfinite(h) or h <= cfg.tol:
            converged = h <= cfg.tol
            break
        # a converged block is all noise; rank only matters while iterating
        if factored:
            warned = _xi_rank_check(xi, warned)
        qq_new = t_gram(q_new, q_new)
        try:
            beta = solve_small(qq, tau.T @ qq_new if factored else qq_new)
        except BreakdownError as e:
            breakdown = BreakdownInfo(grams[1], m, e.pivot_index, e.pivot_magnitude)
            break
        s = axpy_block(q_new, s, beta)
        q, qq = q_new, qq_new
    return _finalize(a, b, x, iterations, converged, history, breakdown, t0)


def _cocr(a, b, x0, cfg, factored):
    """Block COCR on R_m = Q_m xi_m, or on R_m itself when not factored.

    V_m = A Q_m is the one operator application per iteration, and
    U_m = A S_m advances by recurrence. The right-hand side of the alpha
    system and the matrix of the beta system is Q^T V (R^T V unfactored);
    see `bl_cocr_rq` for why not Q^T U.
    """
    t0 = time.perf_counter()
    cfg, b, x, r, ref, h0, max_iter, done = _setup(a, b, x0, cfg)
    history = [h0]
    if done:
        return _finalize(a, b, x, 0, h0 <= cfg.tol, history, None, t0)
    q, xi = _factor(r, factored)
    warned = factored and _xi_rank_check(xi, False)
    keys = ("X", "Q", "S", "U", "V") if factored else ("X", "R", "P", "U", "V")
    s = q.copy(order="F")
    v = block_matvec(a, q)
    u = v.copy(order="F")
    qv = t_gram(q, v)
    converged, breakdown, iterations = False, None, 0
    for m in range(max_iter):
        _observe(cfg, m, keys, (x, q, s, u, v), xi)
        try:
            alpha = solve_small(t_gram(u, u), qv)
        except BreakdownError as e:
            breakdown = BreakdownInfo("U^T U", m, e.pivot_index, e.pivot_magnitude)
            break
        x, q_new, tau, xi, h = _advance(x, s, q, u, alpha, xi, ref)
        history.append(h)
        iterations = m + 1
        if not math.isfinite(h) or h <= cfg.tol:
            converged = h <= cfg.tol
            break
        if factored:
            warned = _xi_rank_check(xi, warned)
        v_new = block_matvec(a, q_new)
        qv_new = t_gram(q_new, v_new)
        try:
            beta = solve_small(qv, tau.T @ qv_new if factored else qv_new)
        except BreakdownError as e:
            system = "Q^T V" if factored else "R^T V"
            breakdown = BreakdownInfo(system, m, e.pivot_index, e.pivot_magnitude)
            break
        s = axpy_block(q_new, s, beta)
        u = axpy_block(v_new, u, beta)
        q, v, qv = q_new, v_new, qv_new
    return _finalize(a, b, x, iterations, converged, history, breakdown, t0)


def bl_cocg(a, b, x0=None, cfg=None):
    """Block conjugate-orthogonal conjugate gradient.

    Per iteration: alpha_m solves (P_m^T A P_m) alpha_m = R_m^T R_m,
    then X and R advance along P_m, beta_m solves
    (R_m^T R_m) beta_m = R_{m+1}^T R_{m+1}, and the next search block
    is P_{m+1} = R_{m+1} + P_m beta_m. One operator application per
    iteration, on the search block.

    Parameters
    ----------
    a : ComplexSymmetricMatrix
        Complex symmetric operator.
    b : ndarray
        Right-hand sides, (n, p).
    x0 : ndarray or None
        Initial guess; None means zero.
    cfg : SolverConfig or None

    Returns
    -------
    SolveResult
    """
    return _cocg(a, b, x0, cfg, factored=False)


def bl_cocr(a, b, x0=None, cfg=None):
    """Block conjugate-orthogonal conjugate residual.

    Setup computes U_0 = V_0 = A R_0. Per iteration: alpha_m solves
    (U_m^T U_m) alpha_m = R_m^T V_m, X and R advance, the single
    operator application forms V_{m+1} = A R_{m+1}, beta_m solves
    (R_m^T V_m) beta_m = R_{m+1}^T V_{m+1}, and P, U advance by
    recurrence so A P_{m+1} is never formed directly.

    Parameters and return as `bl_cocg`.
    """
    return _cocr(a, b, x0, cfg, factored=False)


def bl_cocg_rq(a, b, x0=None, cfg=None):
    """Block COCG with residual orthonormalization.

    The residual block is held factored, R_m = Q_m xi_m with Q_m
    orthonormal, and the search block is scaled to S_m. Per iteration:
    alpha'_m solves (S_m^T A S_m) alpha'_m = Q_m^T Q_m; the solution
    advances by S_m alpha'_m xi_m; a fresh QR of Q_m - (A S_m) alpha'_m
    gives Q_{m+1} and tau_{m+1}; xi_{m+1} = tau_{m+1} xi_m; beta'_m
    solves (Q_m^T Q_m) beta'_m = tau_{m+1}^T (Q_{m+1}^T Q_{m+1}); and
    S_{m+1} = Q_{m+1} + S_m beta'_m. The residual norm is monitored as
    ||xi_m||_F, which equals ||R_m||_F because Q_m is orthonormal.

    Parameters and return as `bl_cocg`.
    """
    return _cocg(a, b, x0, cfg, factored=True)


def bl_cocr_rq(a, b, x0=None, cfg=None):
    """Block COCR with residual orthonormalization.

    Setup factors R_0 = Q_0 xi_0 and computes U_0 = V_0 = A Q_0. Per
    iteration: alpha'_m solves (U_m^T U_m) alpha'_m = Q_m^T V_m; the
    solution advances by S_m alpha'_m xi_m; a fresh QR of
    Q_m - U_m alpha'_m gives Q_{m+1}, tau_{m+1}; xi_{m+1} =
    tau_{m+1} xi_m; the single operator application forms V_{m+1} =
    A Q_{m+1}; beta'_m solves (Q_m^T V_m) beta'_m =
    tau_{m+1}^T (Q_{m+1}^T V_{m+1}); and S, U advance by recurrence.

    Q_m^T V_m is the Gram the scaling of the plain method produces; the
    alternative Q_m^T U_m coincides with it in exact arithmetic (the
    cross term Q_m^T U_{m-1} vanishes by conjugate A-orthogonality) but
    feeding the accumulated cross-term error back through alpha' is
    unstable in floating point, so Q_m^T V_m is used for both the
    alpha' right-hand side and the beta' system.

    Parameters and return as `bl_cocg`.
    """
    return _cocr(a, b, x0, cfg, factored=True)


# benchmark-facing registry; insertion order is the default run order
SOLVERS = {
    "bl_cocg": bl_cocg,
    "bl_cocg_rq": bl_cocg_rq,
    "bl_cocr": bl_cocr,
    "bl_cocr_rq": bl_cocr_rq,
}
