"""
Ground truth for tests and benchmarks: seeded problem generators and a
dense direct solver that shares no code with the iterative solvers.

Determinism contract
--------------------
All generation runs on numpy's default_rng, which is PCG64, with a
fixed draw order per kind: off-diagonal positions, then off-diagonal
values (real parts before imaginary parts), then diagonal draws where
the kind needs them, then the right-hand side. The same (kind, n, p,
density, seed) therefore reproduces the same problem bit for bit, and
the test suite freezes sample vectors to pin the generator down.
"""

from dataclasses import dataclass

import numpy as np

from .core_la import _count, _mirrored, _real

__all__ = [
    "KINDS",
    "ProblemSpec",
    "gen_problem",
    "gen_rhs",
    "direct_solve",
]

KINDS = ("diagdominant", "realspd", "diagonal")

# Off-diagonal magnitude for the sparse kinds. Keeping entries small
# against the 2 + row-abs-sum diagonal bounds the condition number low
# enough that every block solver reaches 1e-10 before the block Krylov
# space saturates C^n (at roughly n/p iterations), where plain block
# methods genuinely lose residual rank and abort.
_OFF_SCALE = 0.25


@dataclass(frozen=True)
class ProblemSpec:
    """Description of a generated test problem. Frozen, like
    `solvers.SolverConfig`: the checks run at construction, and again in
    ``dataclasses.replace``. No number may be a bool.

    Parameters
    ----------
    n : int
        Matrix order, an integer >= 1 (`core_la._count`).
    p : int
        Number of right-hand sides, an integer, 1 <= p <= n.
    kind : str
        "diagdominant" (complex symmetric, diagonally dominant),
        "realspd" (real symmetric positive definite) or "diagonal"
        (complex diagonal). The first two are sparse with the given
        density; "diagonal" ignores density.
    density : float
        Fraction of strictly-lower-triangle positions to fill, a real
        number (`core_la._real`), 0 < density <= 1.
    seed : int
        64-bit generator seed, an integer >= 0.
    """

    n: int
    p: int
    kind: str
    density: float = 0.05
    seed: int = 0

    def __post_init__(self):
        _count(self.n, "n")
        _count(self.p, "p")
        _count(self.seed, "seed", low=0)
        _real(self.density, "density")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        if not 1 <= self.p <= self.n:
            raise ValueError(f"need n >= p >= 1, got n={self.n}, p={self.p}")


def _pair_decode(t):
    """Map flat indices to strictly-lower-triangle pairs (i, j), i > j.

    The flat index of (i, j) is i*(i-1)/2 + j, counting pairs row by
    row. Inverted with a square root plus an integer fix-up so the
    decode is exact for any index size.
    """
    t = np.asarray(t, dtype=np.int64)
    i = ((np.sqrt(8.0 * t + 1.0) + 1.0) / 2.0).astype(np.int64)
    # float rounding can land one row off in either direction
    i = np.where(t < i * (i - 1) // 2, i - 1, i)
    i = np.where(t >= i * (i + 1) // 2, i + 1, i)
    j = t - i * (i - 1) // 2
    return i, j


def gen_problem(spec):
    """Generate a seeded matrix and right-hand side.

    The matrix is symmetric by construction: the strictly lower
    triangle is sampled and, with the diagonal, mirrored entry for entry
    by `core_la._mirrored`, so the matrix holds its symmetry verdict,
    True, from the build and its symmetry check sorts nothing. The
    diagonally dominant kinds set each diagonal entry to 2 plus the
    absolute row sum, which bounds the condition number and keeps
    iteration counts small.

    Parameters
    ----------
    spec : ProblemSpec

    Returns
    -------
    (ComplexSymmetricMatrix, ndarray)
        CSR matrix of order n and an (n, p) complex block right-hand
        side with uniform [0, 1) real entries.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    if spec.kind == "diagonal":
        rows = np.arange(n, dtype=np.int64)
        cols = rows.copy()
        vals = rng.uniform(1.0, 2.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    else:
        total = n * (n - 1) // 2
        k = int(round(spec.density * total))
        flat = rng.choice(total, size=k, replace=False) if k else np.empty(0, np.int64)
        flat = np.sort(np.asarray(flat, dtype=np.int64))
        li, lj = _pair_decode(flat)
        re = _OFF_SCALE * rng.uniform(-1.0, 1.0, k)
        if spec.kind == "diagdominant":
            off = re + 1j * _OFF_SCALE * rng.uniform(-1.0, 1.0, k)
        else:
            off = re.astype(np.complex128)
        abs_row = np.zeros(n)
        np.add.at(abs_row, li, np.abs(off))
        np.add.at(abs_row, lj, np.abs(off))
        if spec.kind == "diagdominant":
            diag = (2.0 + abs_row) + 1j
        else:
            diag = (2.0 + abs_row).astype(np.complex128)
        rows = np.concatenate([li, np.arange(n, dtype=np.int64)])
        cols = np.concatenate([lj, np.arange(n, dtype=np.int64)])
        vals = np.concatenate([off, diag])
    a = _mirrored(n, rows, cols, vals)
    b = np.asfortranarray(rng.random((n, spec.p)), dtype=np.complex128)
    return a, b


def gen_rhs(n, p, seed, complex_values=False):
    """Seeded right-hand side block, independent of any matrix.

    Parameters
    ----------
    n, p : int
        Shape of the block, integers >= 1 (`core_la._count`).
    seed : int
        Generator seed, an integer >= 0.
    complex_values : bool
        Default draws real uniform [0, 1) entries promoted to complex;
        True draws uniform [-1, 1) real and imaginary parts instead
        (useful for property tests that need dense phases).

    Returns
    -------
    ndarray
        (n, p) complex128, Fortran order.
    """
    n, p = _count(n, "n"), _count(p, "p")
    rng = np.random.default_rng(_count(seed, "seed", low=0))
    if complex_values:
        b = rng.uniform(-1.0, 1.0, (n, p)) + 1j * rng.uniform(-1.0, 1.0, (n, p))
    else:
        b = rng.random((n, p))
    return np.asfortranarray(b, dtype=np.complex128)


def direct_solve(a_dense, b):
    """Dense direct solve, the verification oracle.

    Runs LAPACK's partial-pivoted LU through numpy without exploiting
    symmetry, so it shares nothing with the iterative code paths.

    Parameters
    ----------
    a_dense : ndarray
        Square dense matrix, typically from
        ComplexSymmetricMatrix.to_dense().
    b : ndarray
        Right-hand side block, (n, p).

    Returns
    -------
    ndarray
        X with A @ X = B.

    Raises
    ------
    numpy.linalg.LinAlgError
        If A is singular to working precision.
    """
    a_dense = np.asarray(a_dense, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return np.linalg.solve(a_dense, b)
