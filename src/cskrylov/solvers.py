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
setup, and allocates no n-by-p block in its iterations: each recurrence
works in a fixed set of blocks, allocated once per solve and rotated
(see `_cocg` and `_cocr`). Every solve runs on row-major blocks: B is
copied into the operator's row order as a row-major block, once, and
the recurrence keeps that layout. A wide matrix is solved through its
locality copy (see `core_la.solve_operator`), and X comes back in the
caller's row order; X is row-major either way.
Convergence is declared on the recursive residual relative to
||B||_F; the true residual is recomputed from a fresh operator
application at exit and reported as log10 of the relative Frobenius
norm. A singular small Gram system aborts the run with a breakdown
report (no look-ahead, no deflation); rank loss in xi_m is a warning,
not an abort, since columns converging at different rates is expected.
"""

import math
import operator
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core_la import (
    BreakdownError,
    _as_block,
    _ldexp,
    axpy_block,
    block_matvec,
    fro_norm,
    solve_operator,
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
# a right-hand side whose norm has a binary exponent beyond this is solved
# scaled to unit norm: the plain methods' Grams R^T R square the norm, so
# at B * 1e-160 they fall into the subnormal range, at B * 1e160 overflow
_RHS_EXP_WINDOW = 256


class RankLossWarning(UserWarning):
    """The QR factor of a residual block is numerically rank deficient."""


@dataclass
class SolverConfig:
    """Knobs shared by all four solvers.

    Parameters
    ----------
    tol : float
        Threshold on the relative residual ||R||_F / ||B||_F, > 0.
    max_iter : int or None
        Iteration cap; None means the matrix order.
    observer : callable or None
        Diagnostic hook called at the top of every iteration as
        ``observer(m, state)`` where state maps symbol names to the
        iteration's blocks. The solvers update X and the residual in
        place, so the n-by-p blocks are row-major copies in the caller's
        row order, taken only when an observer is installed; the
        observer may keep them. For a B far from unit norm they are the
        blocks of the solve scaled to unit norm (see `_solve`). Solver
        output is bitwise identical with or without an observer.
    """

    tol: float = 1e-10
    max_iter: Optional[int] = None
    observer: Optional[Callable] = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iter is not None:
            try:
                operator.index(self.max_iter)
            except TypeError:
                raise ValueError(
                    f"max_iter must be an integer, got {self.max_iter!r}"
                ) from None
            if self.max_iter < 1:
                raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


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
        Approximate solution block, (n, p), row-major.
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
        Wall seconds for the whole solve. The first solve on a matrix
        includes deciding its row order, and on a wide one building its
        locality copy, once per matrix (`core_la.solve_operator`).
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
    metric. An exact solve returns -inf. B - AX is formed in the new
    block of the product, and both norms are `fro_norm`'s, so the
    layouts of B and X do not change the result.

    Raises
    ------
    ValueError
        If B is not 2-D, if X does not have B's shape, or if ||B||_F is
        zero, where the ratio is undefined.
    """
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim != 2:
        raise ValueError(f"right-hand side must be 2-D, got shape {b.shape}")
    if np.shape(x) != b.shape:
        raise ValueError(f"x shape {np.shape(x)} does not match RHS shape {b.shape}")
    return _relative_residual(a, _as_block(b), x, None)


def _relative_residual(a, b, x, out):
    """`true_relative_residual` of a row-major B, with A X and then
    B - A X formed in out, a row-major block, or in a new one."""
    norm_b = fro_norm(b)
    if norm_b == 0.0:
        raise ValueError("relative residual undefined for a zero right-hand side")
    r = block_matvec(a, x, out=out)
    np.subtract(b, r, out=r)
    with np.errstate(divide="ignore"):
        return float(np.log10(fro_norm(r) / norm_b))


def _solve(recurrence, a, b, x0, cfg, factored):
    """Validate, form the initial residual, run one recurrence and
    assemble the result.

    X and R_0 are row-major, in the row order of the operator the
    recurrence runs on (`solve_operator`): the locality copy of a wide
    a, or a itself. ||B||_F is taken on B in that order, and for x0 =
    None history[0] is norm_b / norm_b, exactly 1 for a finite B. A B
    whose norm has a binary exponent e beyond `_RHS_EXP_WINDOW` is
    solved as B 2^-e (x0 too), and X scaled back.
    The recurrence is skipped when the initial residual already meets
    tol, is exactly zero, or is not finite. It returns before X goes
    back to the caller's row order and the true residual is taken, and
    hands back its blocks other than X (R_0's block where it is
    skipped): the exit writes X's caller-order copy, B's row-major copy
    and the product A X, in which B - A X is formed, into them.
    """
    t0 = time.perf_counter()
    if cfg is None:
        cfg = SolverConfig()
    if not check_complex_symmetric(a):
        raise ValueError(
            "operator failed check_complex_symmetric; these methods require "
            "A equal to its unconjugated transpose"
        )
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim != 2:
        raise ValueError(f"right-hand side must be 2-D, got shape {b.shape}")
    n, p = b.shape
    if n != a.n:
        raise ValueError(f"operator order {a.n} does not match RHS rows {n}")
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.complex128)
        if x0.shape != (n, p):
            raise ValueError(f"x0 shape {x0.shape} does not match RHS shape {b.shape}")
    op, to_op, to_caller = solve_operator(a)
    r0 = to_op(b)
    norm_b = fro_norm(r0)
    if norm_b == 0.0:
        raise ValueError("right-hand side is identically zero; nothing to solve")
    e = math.frexp(norm_b)[1]
    shift = -e if abs(e) > _RHS_EXP_WINDOW else 0
    if shift:
        b, r0 = _ldexp(b, shift), _ldexp(r0, shift)
        x0 = None if x0 is None else _ldexp(x0, shift)
        norm_b = fro_norm(r0)
    if x0 is None:
        # R_0 is allocated before X, which the solve updates in place and
        # returns. The plain methods update R_0 in place too; freed at
        # exit, it leaves a block-sized gap below X for the caller's next
        # block. With X first, the young1c-sweep benchmark's peak RSS rose
        # from 84 to 93 MB (glibc placement)
        x = np.zeros_like(r0)
        # ||R_0||_F is norm_b: 1, or NaN where B is not finite
        history = [norm_b / norm_b]
    else:
        x = to_op(x0)
        r0 -= block_matvec(op, x)
        history = [fro_norm(r0) / norm_b]
    converged, breakdown, iterations = history[0] <= cfg.tol, None, 0
    free = [r0]
    if math.isfinite(history[0]) and not converged:
        max_iter = cfg.max_iter if cfg.max_iter is not None else a.n
        observe = _observer_hook(cfg.observer, to_caller)
        x, converged, breakdown, iterations, free = recurrence(
            op, x, r0, norm_b, history, max_iter, cfg.tol, observe, factored
        )
    # the exit needs two blocks, three through a locality copy, and
    # allocates only those that the recurrence did not leave free
    free = list(free)
    free += [np.empty_like(x) for _ in range(2 + (op is not a) - len(free))]
    # no exit copy in file order: one raised young1c-sweep's peak RSS
    if op is not a:
        x = to_caller(x, out=free.pop())
    # the scaled pair gives the same ratio
    b_rows = free.pop()
    np.copyto(b_rows, b)
    trr = _relative_residual(a, b_rows, x, free.pop())
    if shift:
        x = _ldexp(x, -shift)
    return SolveResult(
        x=x,
        iterations=iterations,
        converged=converged,
        trr=trr,
        history=history,
        breakdown=breakdown,
        elapsed=time.perf_counter() - t0,
    )


def _observer_hook(observer, to_caller):
    """observer as the recurrences call it, ``observe(m, keys, blocks,
    xi)``, or None when there is none. It hands the observer copies of
    the blocks by symbol, made by to_caller in the caller's row order,
    xi last; xi is never updated in place, so it is passed as it is."""
    if observer is None:
        return None

    def observe(m, keys, blocks, xi):
        state = {k: to_caller(v) for k, v in zip(keys, blocks)}
        if xi is not None:
            state["xi"] = xi
        observer(m, state)

    return observe


def _xi_rank_check(xi, warned):
    """Warn once per run when xi's diagonal spans more than _RANK_FLOOR.

    Called from a recurrence loop only (below `_solve` and a public
    solver), so that the warning points at the caller of the public
    solver.
    """
    if warned:
        return True
    # xi is finite here (its norm is), so Python's min and max of the
    # moduli are numpy's, without an array call each
    d = np.abs(xi.diagonal()).tolist()
    top, low = max(d), min(d)
    if top > 0.0 and low < _RANK_FLOOR * top:
        warnings.warn(
            f"residual block lost numerical rank: smallest xi diagonal is "
            f"{low:.3e} against largest {top:.3e}",
            RankLossWarning,
            stacklevel=5,
        )
        return True
    return False


def _qr(w, free):
    """(QR factors of w, the block left free): the QR writes into free
    and over w (see `thin_qr`), and whichever of the two does not hold
    Q is free after it."""
    fac = thin_qr(w, out=free)
    return fac, w if fac.q is free else free


def _factor(r, free, factored):
    """(Q_0, xi_0, the free block) of the initial residual, whose block
    is scratch once factored; unfactored, (R_0, None, free)."""
    if not factored:
        return r, None, free
    fac, free = _qr(r, free)
    return fac.q, fac.xi, free


def _advance(x, s, q, w, alpha, xi, norm_b, free):
    """The solution and residual step both recurrences share.

    X_{m+1} = X_m + S_m alpha xi_m, and Q_m - W alpha is re-factored
    as Q_{m+1} tau_{m+1}, giving xi_{m+1} = tau_{m+1} xi_m. Unfactored
    (xi is None) the residual Q_m - W alpha is Q_{m+1} itself: no QR is
    taken and no product with xi or tau is formed. X and Q are updated
    in place, and the QR writes into the free block, which may be w,
    and over Q_m (see `_qr`).

    Returns (X_{m+1}, Q_{m+1}, tau_{m+1}, xi_{m+1}, ||R_{m+1}||_F / ||B||_F,
    the free block), with tau and xi None and free unchanged when
    unfactored.
    """
    x = axpy_block(x, s, alpha if xi is None else alpha @ xi)
    q = axpy_block(q, w, -alpha)
    if xi is None:
        return x, q, None, None, fro_norm(q) / norm_b, free
    fac, free = _qr(q, free)
    xi = fac.xi @ xi
    h = fro_norm(xi) / norm_b
    return x, fac.q, fac.xi, xi, h, free


def _cocg(a, x, r, norm_b, history, max_iter, tol, observe, factored):
    """Block COCG on R_m = Q_m xi_m, or on R_m itself when not factored.

    In the factored form the search block is S_m and the Grams are
    S^T A S and Q^T Q; unfactored they are named P^T A P and R^T R.
    The Gram Q^T Q of one iteration is reused in the next, so each
    iteration forms two Gram products.

    Runs from `_solve`'s row-major X and R_0 on the operator a, calls
    observe (None: no observer) at the top of every iteration, and appends
    residual norms relative to norm_b = ||B||_F to history. Returns
    (X, converged, breakdown, iterations, its other blocks), which
    `_solve`'s exit reuses.

    The iteration works in four n x p blocks, X, Q, S and W = A S,
    allocated once: R_0 is Q unfactored, and scratch of the first QR
    factored. W is dead once Q advances, so it takes the next QR and,
    with a copy of Q_{m+1}, starts S_{m+1}, whose old block is the next W.
    """
    q, xi, w = _factor(r, np.empty_like(r), factored)
    warned = factored and _xi_rank_check(xi, False)
    keys = ("X", "Q", "S") if factored else ("X", "R", "P")
    grams = ("S^T A S", "Q^T Q") if factored else ("P^T A P", "R^T R")
    s = q.copy()
    qq = t_gram(q, q)
    converged, breakdown, iterations = False, None, 0
    for m in range(max_iter):
        if observe is not None:
            observe(m, keys, (x, q, s), xi)
        w = block_matvec(a, s, out=w)
        try:
            alpha = solve_small(t_gram(s, w), qq)
        except BreakdownError as e:
            breakdown = BreakdownInfo(grams[0], m, e.pivot_index, e.pivot_magnitude)
            break
        x, q, tau, xi, h, w = _advance(x, s, q, w, alpha, xi, norm_b, w)
        history.append(h)
        iterations = m + 1
        if not math.isfinite(h) or h <= tol:
            converged = h <= tol
            break
        # a converged block is all noise; rank only matters while iterating
        if factored:
            warned = _xi_rank_check(xi, warned)
        qq_new = t_gram(q, q)
        try:
            beta = solve_small(qq, tau.T @ qq_new if factored else qq_new)
        except BreakdownError as e:
            breakdown = BreakdownInfo(grams[1], m, e.pivot_index, e.pivot_magnitude)
            break
        # Q_{m+1} lives on, so S_{m+1} starts from a copy of it
        np.copyto(w, q)
        s, w = axpy_block(w, s, beta), s
        qq = qq_new
    return x, converged, breakdown, iterations, (q, s, w)


def _cocr(a, x, r, norm_b, history, max_iter, tol, observe, factored):
    """Block COCR on R_m = Q_m xi_m, or on R_m itself when not factored.

    V_m = A Q_m is the one operator application per iteration, and
    U_m = A S_m advances by recurrence. The right-hand side of the alpha
    system and the matrix of the beta system is Q^T V (R^T V unfactored);
    see `bl_cocr_rq` for why not Q^T U. Arguments and return as `_cocg`.

    The iteration works in five n x p blocks, X, Q, S, U and a free
    block, allocated once: R_0 is Q unfactored, and the first free block
    factored, and U_0 = V_0 takes the block of V_0. The free block takes
    the QR, then V_{m+1}, in which U_{m+1} = V_{m+1} + U_m beta is formed
    in place; S_{m+1} starts from a copy of Q_{m+1} in U_m's dead block,
    and S_m's block is the next free one. V_{m+1} outlives U_{m+1} only
    as a copy taken for an installed observer.
    """
    q, xi, free = _factor(r, np.empty_like(r), factored)
    warned = factored and _xi_rank_check(xi, False)
    keys = ("X", "Q", "S", "U", "V") if factored else ("X", "R", "P", "U", "V")
    s = q.copy()
    u = v = block_matvec(a, q)
    qv = t_gram(q, u)
    converged, breakdown, iterations = False, None, 0
    for m in range(max_iter):
        if observe is not None:
            observe(m, keys, (x, q, s, u, v), xi)
        try:
            alpha = solve_small(t_gram(u, u), qv)
        except BreakdownError as e:
            breakdown = BreakdownInfo("U^T U", m, e.pivot_index, e.pivot_magnitude)
            break
        x, q, tau, xi, h, free = _advance(x, s, q, u, alpha, xi, norm_b, free)
        history.append(h)
        iterations = m + 1
        if not math.isfinite(h) or h <= tol:
            converged = h <= tol
            break
        if factored:
            warned = _xi_rank_check(xi, warned)
        free = block_matvec(a, q, out=free)
        qv_new = t_gram(q, free)
        try:
            beta = solve_small(qv, tau.T @ qv_new if factored else qv_new)
        except BreakdownError as e:
            system = "Q^T V" if factored else "R^T V"
            breakdown = BreakdownInfo(system, m, e.pivot_index, e.pivot_magnitude)
            break
        if observe is not None:
            v = free.copy()
        # U_{m+1} forms over V_{m+1}; then U_m's block takes a copy of
        # Q_{m+1}, which lives on, to start S_{m+1}
        u, dead = axpy_block(free, u, beta), u
        np.copyto(dead, q)
        s, free = axpy_block(dead, s, beta), s
        qv = qv_new
    return x, converged, breakdown, iterations, (q, s, u, free)


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
    return _solve(_cocg, a, b, x0, cfg, factored=False)


def bl_cocr(a, b, x0=None, cfg=None):
    """Block conjugate-orthogonal conjugate residual.

    Setup computes U_0 = V_0 = A R_0. Per iteration: alpha_m solves
    (U_m^T U_m) alpha_m = R_m^T V_m, X and R advance, the single
    operator application forms V_{m+1} = A R_{m+1}, beta_m solves
    (R_m^T V_m) beta_m = R_{m+1}^T V_{m+1}, and P, U advance by
    recurrence so A P_{m+1} is never formed directly.

    Parameters and return as `bl_cocg`.
    """
    return _solve(_cocr, a, b, x0, cfg, factored=False)


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
    return _solve(_cocg, a, b, x0, cfg, factored=True)


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
    return _solve(_cocr, a, b, x0, cfg, factored=True)


# benchmark-facing registry; insertion order is the default run order
SOLVERS = {
    "bl_cocg": bl_cocg,
    "bl_cocg_rq": bl_cocg_rq,
    "bl_cocr": bl_cocr,
    "bl_cocr_rq": bl_cocr_rq,
}
