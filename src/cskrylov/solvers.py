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

One loop (`_iterate`) runs all four: COCR is COCG in the bilinear form
x^T A y, and the plain method is the unfactored case, Q_m = R_m and
xi_m = tau_m = I, with the products by those identities skipped.

Every method applies the operator exactly once per iteration after
setup, and allocates no n-by-p block in its iterations: the loop works
in a fixed set of blocks, allocated once per solve and rotated (see
`_iterate`). Every solve runs on row-major blocks: B is
copied into the operator's row order as a row-major block, once, and
the recurrence keeps that layout. A wide matrix is solved through its
locality copy (see `core_la.solve_operator`), and X comes back in the
caller's row order; X is row-major either way.
Convergence is declared on the recursive residual relative to
||B||_F, whose history is the run's one record of its progress: the
iteration count and convergence are read off it. The true residual is
recomputed from a fresh operator application at exit and reported as
log10 of the relative Frobenius norm. A singular small Gram system
aborts the run with a breakdown report (no look-ahead, no deflation);
rank loss in xi_m is a warning, not an abort, since columns converging
at different rates is expected.
"""

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core_la import (
    BreakdownError,
    _as_block,
    _count,
    _diagonal_span,
    _ldexp,
    _real,
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


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by all four solvers. Frozen: the checks run at
    construction, and again in ``dataclasses.replace``.

    Parameters
    ----------
    tol : float
        Threshold on the relative residual ||R||_F / ||B||_F, a real
        number > 0 (`core_la._real`: not a bool).
    max_iter : int or None
        Iteration cap, an integer >= 1 (`core_la._count`: not a bool);
        None means the matrix order.
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
        if not _real(self.tol, "tol") > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iter is not None:
            _count(self.max_iter, "max_iter")
        if self.observer is not None and not callable(self.observer):
            raise ValueError(
                f"observer must be callable or None, got {self.observer!r}"
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
        Approximate solution block, (n, p), row-major.
    iterations : int
        Completed iterations at exit, len(history) - 1.
    converged : bool
        Whether the recursive residual reached tol, history[-1] <= tol.
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
    metric. An exact solve returns -inf. A X is the operator's
    ``matvec``, which takes X in any layout, and B - AX is formed in its
    new block; both norms are `fro_norm`'s, so the layouts of B and X do
    not change the result.

    Raises
    ------
    ValueError
        If B is not 2-D, if X does not have B's shape, if B's rows do not
        match the operator's order, or if ||B||_F is zero, where the
        ratio is undefined.
    """
    return _relative_residual(_as_block(_as_rhs(b, x, "x")), a.matvec(x))


def _as_rhs(b, x, name):
    """b as a complex128 array, refused unless 2-D and of x's shape."""
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim != 2:
        raise ValueError(f"right-hand side must be 2-D, got shape {b.shape}")
    if x is not None and np.shape(x) != b.shape:
        raise ValueError(
            f"{name} shape {np.shape(x)} does not match RHS shape {b.shape}"
        )
    return b


def _relative_residual(b, r):
    """`true_relative_residual` of a row-major B, with r the block of
    A X, which B - A X overwrites."""
    norm_b = fro_norm(b)
    if norm_b == 0.0:
        raise ValueError("relative residual undefined for a zero right-hand side")
    np.subtract(b, r, out=r)
    with np.errstate(divide="ignore"):
        return float(np.log10(fro_norm(r) / norm_b))


def _solve(a, b, x0, cfg, factored, cocr):
    """Validate, form the initial residual, run the iteration loop
    (`_iterate`, COCR where cocr) and assemble the result.

    X and R_0 are row-major, in the row order of the operator the loop
    runs on (`solve_operator`): the locality copy of a wide a, or a
    itself. ||B||_F is taken on B in that order, and for x0 =
    None history[0] is norm_b / norm_b, exactly 1 for a finite B. A B
    whose norm has a binary exponent e beyond `_RHS_EXP_WINDOW` is
    solved as B 2^-e (x0 too), and X scaled back.
    The loop is skipped when the initial residual already meets tol, is
    exactly zero, or is not finite. It appends to history, off which
    the result's iterations and converged are read, and returns before
    X goes back to the caller's row order and the true residual is
    taken, handing back three blocks other than X (R_0's block where it
    is skipped): the exit writes X's caller-order copy, B's row-major
    copy and the product A X, in which B - A X is formed, into them.
    """
    t0 = time.perf_counter()
    if cfg is None:
        cfg = SolverConfig()
    if not check_complex_symmetric(a):
        raise ValueError(
            "operator failed check_complex_symmetric; these methods require "
            "A equal to its unconjugated transpose"
        )
    b = _as_rhs(b, x0, "x0")
    x0 = None if x0 is None else np.asarray(x0, dtype=np.complex128)
    n, p = b.shape
    if n != a.n:
        raise ValueError(f"operator order {a.n} does not match RHS rows {n}")
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
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
    breakdown, free = None, [r0]
    if cfg.tol < history[0] < math.inf:
        x, breakdown, free = _iterate(
            op, x, r0, norm_b, history, cfg, to_caller, factored, cocr
        )
    # the exit needs two blocks, three through a locality copy, and
    # allocates only those that the loop did not leave free
    free += [np.empty_like(x) for _ in range(2 + (op is not a) - len(free))]
    # no exit copy in file order: one raised young1c-sweep's peak RSS
    if op is not a:
        x = to_caller(x, out=free.pop())
    # the scaled pair gives the same ratio
    b_rows = free.pop()
    np.copyto(b_rows, b)
    trr = _relative_residual(b_rows, block_matvec(a, x, out=free.pop()))
    if shift:
        x = _ldexp(x, -shift)
    return SolveResult(
        x=x,
        iterations=len(history) - 1,
        converged=history[-1] <= cfg.tol,
        trr=trr,
        history=history,
        breakdown=breakdown,
        elapsed=time.perf_counter() - t0,
    )


def _xi_rank_check(xi):
    """Warn when xi's diagonal spans more than _RANK_FLOOR, and return
    whether it did; a run checks until it has warned once. Called from
    `_iterate` only (below `_solve` and a public solver), so that the
    warning points at the public solver's caller."""
    # xi is finite here (its norm is)
    low, top = _diagonal_span(xi)
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
    """(Q, xi, the block left free) of w: the QR writes into free and
    over w (see `thin_qr`), and whichever of the two does not hold Q is
    free after it."""
    q, xi = thin_qr(w, out=free)
    return q, xi, w if q is free else free


def _iterate(a, x, r, norm_b, history, cfg, to_caller, factored, cocr):
    """Block COCG, or block COCR where cocr, on R_m = Q_m xi_m, or on
    R_m itself when not factored (then Q is named R and S is named P).

    COCR is COCG in A's bilinear form (docs/derivation.md, section 3),
    with U = A S in both: alpha solves (S^T U) alpha = Q^T Q in COCG and
    (U^T U) alpha = Q^T V, V = A Q, in COCR (see `bl_cocr_rq` for why
    not Q^T U). Unfactored, no QR is taken and no product with xi or tau
    formed. The one operator application forms U_m = A S_m in COCG and
    V_{m+1} = A Q_{m+1} in COCR, which advances U by recurrence.

    Runs from `_solve`'s row-major X and R_0 on the operator a for at
    most cfg.max_iter iterations (None: a's order), handing cfg.observer,
    if set, the state `SolverConfig` describes at the top of each: the
    blocks by key, copied by to_caller into the caller's order, and xi.
    It appends ||R_{m+1}||_F / norm_b, norm_b = ||B||_F, to history until
    one meets cfg.tol or is not finite. Returns (X, the breakdown or
    None, three of its other blocks), which `_solve`'s exit reuses.

    Every n x p block is allocated once; X and Q are updated in place,
    and R_0 is Q unfactored, the first QR's free block factored. COCG
    works in four, X, Q, S and a free block, which takes U_m, then the
    QR (see `_qr`) and a copy of Q_{m+1} that starts S_{m+1}. COCR works
    in five, with U as the fifth (U_0 = V_0 takes V_0's block); its free
    block takes the QR, then V_{m+1}, over which U_{m+1} forms, and U_m's
    dead block takes the copy of Q_{m+1}. In both, S_m's block is the
    next free one. V_{m+1} outlives U_{m+1} only as a copy taken for an
    installed observer.
    """
    keys, alpha_system, beta_system = {
        (False, False): (("X", "R", "P"), "P^T A P", "R^T R"),
        (False, True): (("X", "Q", "S"), "S^T A S", "Q^T Q"),
        (True, False): (("X", "R", "P", "U", "V"), "U^T U", "R^T V"),
        (True, True): (("X", "Q", "S", "U", "V"), "U^T U", "Q^T V"),
    }[cocr, factored]
    q, xi, free = _qr(r, np.empty_like(r)) if factored else (r, None, np.empty_like(r))
    warned = factored and _xi_rank_check(xi)
    s = q.copy()
    # COCG's U lives in its free block; the observer gets U and V for COCR only
    u = v = block_matvec(a, q) if cocr else None
    g = t_gram(q, u if cocr else q)
    breakdown, tol, observer = None, cfg.tol, cfg.observer
    for m in range(cfg.max_iter or a.n):
        if observer is not None:
            state = {k: to_caller(b) for k, b in zip(keys, (x, q, s, u, v))}
            if factored:
                state["xi"] = xi
            observer(m, state)
        if not cocr:
            u = free = block_matvec(a, s, out=free)
        try:
            alpha = solve_small(t_gram(u if cocr else s, u), g)
        except BreakdownError as e:
            breakdown = BreakdownInfo(alpha_system, m, e.pivot_index, e.pivot_magnitude)
            break
        x = axpy_block(x, s, alpha @ xi if factored else alpha)
        q = axpy_block(q, u, -alpha)
        if factored:
            q, tau, free = _qr(q, free)
            xi = tau @ xi
        history.append(fro_norm(xi if factored else q) / norm_b)
        if not tol < history[-1] < math.inf:
            break
        # a converged block is all noise; rank only matters while iterating
        if factored and not warned:
            warned = _xi_rank_check(xi)
        if cocr:
            free = block_matvec(a, q, out=free)
        g_new = t_gram(q, free if cocr else q)
        try:
            beta = solve_small(g, tau.T @ g_new if factored else g_new)
        except BreakdownError as e:
            breakdown = BreakdownInfo(beta_system, m, e.pivot_index, e.pivot_magnitude)
            break
        if cocr:
            if observer is not None:
                v = free.copy()
            # U_{m+1} forms over V_{m+1}, and U_m's block is then free
            u, free = axpy_block(free, u, beta), u
        # Q_{m+1} lives on, so S_{m+1} starts from a copy of it
        np.copyto(free, q)
        s, free = axpy_block(free, s, beta), s
        g = g_new
    return x, breakdown, [q, s, free]


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
    return _solve(a, b, x0, cfg, factored=False, cocr=False)


def bl_cocr(a, b, x0=None, cfg=None):
    """Block conjugate-orthogonal conjugate residual.

    Setup computes U_0 = V_0 = A R_0. Per iteration: alpha_m solves
    (U_m^T U_m) alpha_m = R_m^T V_m, X and R advance, the single
    operator application forms V_{m+1} = A R_{m+1}, beta_m solves
    (R_m^T V_m) beta_m = R_{m+1}^T V_{m+1}, and P, U advance by
    recurrence so A P_{m+1} is never formed directly.

    Parameters and return as `bl_cocg`.
    """
    return _solve(a, b, x0, cfg, factored=False, cocr=True)


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
    return _solve(a, b, x0, cfg, factored=True, cocr=False)


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
    return _solve(a, b, x0, cfg, factored=True, cocr=True)


# benchmark-facing registry; insertion order is the default run order
SOLVERS = {
    "bl_cocg": bl_cocg,
    "bl_cocg_rq": bl_cocg_rq,
    "bl_cocr": bl_cocr,
    "bl_cocr_rq": bl_cocr_rq,
}
