"""The package's public API."""

import cskrylov

PUBLIC_API = (
    "__version__",
    # the matrix and Matrix Market I/O
    "ComplexSymmetricMatrix",
    "MatrixMarketHeader",
    "read_matrix_market",
    "write_matrix_market",
    # the generators
    "KINDS",
    "ProblemSpec",
    "gen_problem",
    "gen_rhs",
    "direct_solve",
    # the four solvers, their registry, config and result types
    "SOLVERS",
    "bl_cocg",
    "bl_cocg_rq",
    "bl_cocr",
    "bl_cocr_rq",
    "SolverConfig",
    "SolveResult",
    "BreakdownInfo",
    "RankLossWarning",
    "true_relative_residual",
    "check_complex_symmetric",
)
# private to the solvers' loop: they take its blocks as given
KERNEL_LAYER = ("block_matvec", "t_gram", "axpy_block", "thin_qr", "solve_small",
                "fro_norm", "QrFactors", "BreakdownError")


def test_all_is_exactly_the_public_api():
    assert sorted(cskrylov.__all__) == sorted(PUBLIC_API)
    assert len(set(cskrylov.__all__)) == len(cskrylov.__all__)
    for name in cskrylov.__all__:
        assert hasattr(cskrylov, name), name


def test_kernel_layer_stays_out_of_the_package_namespace():
    for name in KERNEL_LAYER:
        assert not hasattr(cskrylov, name), name
        assert hasattr(cskrylov.core_la, name), name
        assert name not in cskrylov.core_la.__all__, name
