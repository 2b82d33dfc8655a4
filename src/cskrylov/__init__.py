"""
Block Krylov solvers for complex symmetric linear systems with
multiple right-hand sides, with Matrix Market I/O, seeded problem
generators and a benchmark CLI.
"""

from .core_la import (
    BreakdownError,
    ComplexSymmetricMatrix,
    QrFactors,
    axpy_block,
    block_matvec,
    fro_norm,
    solve_small,
    t_gram,
    thin_qr,
)
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
    "QrFactors",
    "BreakdownError",
    "block_matvec",
    "t_gram",
    "thin_qr",
    "solve_small",
    "fro_norm",
    "axpy_block",
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
