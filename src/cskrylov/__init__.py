"""
Block Krylov solvers for complex symmetric linear systems with
multiple right-hand sides, with Matrix Market I/O, seeded problem
generators and a benchmark CLI.
"""

# perfbench/worker.py reads `cskrylov.kernels.get_backend()` after a bare
# `import cskrylov`; nothing inside the package imports the module
from . import kernels
from .core_la import ComplexSymmetricMatrix
from .mm_io import MatrixMarketHeader, read_matrix_market, write_matrix_market
from .oracle import KINDS, ProblemSpec, direct_solve, gen_problem, gen_rhs
from .solvers import (
    SOLVERS,
    BreakdownInfo,
    RankLossWarning,
    SolveResult,
    SolverConfig,
    bl_cocg,
    bl_cocg_rq,
    bl_cocr,
    bl_cocr_rq,
    check_complex_symmetric,
    true_relative_residual,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ComplexSymmetricMatrix",
    "MatrixMarketHeader",
    "read_matrix_market",
    "write_matrix_market",
    "KINDS",
    "ProblemSpec",
    "gen_problem",
    "gen_rhs",
    "direct_solve",
    "SOLVERS",
    "SolverConfig",
    "SolveResult",
    "BreakdownInfo",
    "RankLossWarning",
    "bl_cocg",
    "bl_cocg_rq",
    "bl_cocr",
    "bl_cocr_rq",
    "true_relative_residual",
    "check_complex_symmetric",
]
