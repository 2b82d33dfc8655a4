"""Benchmark CLI: reports, history files, exit codes."""

import subprocess
import sys

import pytest
from conftest import child_env, every_operator_wide

from cskrylov import core_la
from cskrylov.bench_cli import (
    _build_parser,
    format_report_csv,
    format_report_md,
    main,
    parse_report_csv,
)
from cskrylov.oracle import ProblemSpec
from cskrylov.solvers import SOLVERS, SolverConfig

GEN_ARGS = ["--gen", "diagdominant", "--n", "30", "--p", "2", "--seed", "3"]


def _solve(tmp_path, extra=(), name="report.csv"):
    out = tmp_path / name
    code = main(["solve", *GEN_ARGS, "--out", str(out), *extra])
    return code, out.read_text() if out.exists() else ""


@pytest.fixture
def solver_calls(monkeypatch):
    """Names of the solvers run through `SOLVERS` during the test."""
    calls = []
    for name, solve in SOLVERS.items():

        def counting(*args, _name=name, _solve=solve):
            calls.append(_name)
            return _solve(*args)

        monkeypatch.setitem(SOLVERS, name, counting)
    return calls


class TestSolveCommand:
    def test_converged_run_exits_zero(self, tmp_path):
        code, text = _solve(tmp_path)
        assert code == 0
        report = parse_report_csv(text)
        assert [r.solver for r in report.rows] == list(SOLVERS)
        assert all(r.status == "converged" for r in report.rows)
        assert all(r.trr <= -10 for r in report.rows)

    def test_metadata_fields(self, tmp_path):
        _, text = _solve(tmp_path)
        meta = text.splitlines()[0]
        assert meta.startswith("# matrix=diagdominant n=30 nnz=")
        for token in ("p=2", "tol=1e-10", "seed=3"):
            assert token in meta
        keys = [tok.split("=", 1)[0] for tok in meta[2:].split()]
        assert keys == ["matrix", "n", "nnz", "p", "tol", "seed"]

    def test_report_round_trips_and_repeats(self, tmp_path):
        _, text1 = _solve(tmp_path, name="r1.csv")
        _, text2 = _solve(tmp_path, name="r2.csv")
        assert format_report_csv(parse_report_csv(text1)) == text1

        def strip_cpu(t):
            return [
                ",".join(c for i, c in enumerate(ln.split(",")) if i != 3)
                for ln in t.splitlines()
            ]

        # everything except cpu is byte-identical
        assert strip_cpu(text1) == strip_cpu(text2)

    def test_locality_copy_built_before_the_first_solver(
        self, tmp_path, monkeypatch, solver_calls
    ):
        # the warm-up builds a wide matrix's locality copy, so that no
        # solver's cpu cell carries it; every operator is read as wide
        every_operator_wide(monkeypatch)
        bfs_order = core_la._bfs_order

        def recording(*args):
            solver_calls.append("build")
            return bfs_order(*args)

        monkeypatch.setattr(core_la, "_bfs_order", recording)
        code, text = _solve(tmp_path)
        assert code == 0
        assert solver_calls == ["build", *SOLVERS]
        report = parse_report_csv(text)
        assert all(r.status == "converged" for r in report.rows)

    def test_stdout_destination(self, capsys):
        code = main(["solve", *GEN_ARGS, "--out", "-"])
        assert code == 0
        assert "solver,iterations,trr,cpu,status" in capsys.readouterr().out

    def test_python_m_runs_the_same_command(self):
        out = subprocess.run(
            [sys.executable, "-m", "cskrylov", "solve", *GEN_ARGS, "--solvers", "bl_cocg"],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert [r.solver for r in parse_report_csv(out.stdout).rows] == ["bl_cocg"]

    def test_markdown_format(self, tmp_path):
        code, text = _solve(tmp_path, extra=["--format", "md"])
        assert code == 0
        lines = text.splitlines()
        assert lines[2].startswith("| solver")
        assert set(lines[3]) <= {"|", "-"}
        assert len([ln for ln in lines if ln.startswith("| bl_")]) == 4

    def test_solver_subset_and_order(self, tmp_path, solver_calls):
        code, text = _solve(tmp_path, extra=["--solvers", "bl_cocr_rq,bl_cocg"])
        assert code == 0
        report = parse_report_csv(text)
        assert [r.solver for r in report.rows] == ["bl_cocr_rq", "bl_cocg"]
        assert solver_calls == ["bl_cocr_rq", "bl_cocg"]

    def test_history_files(self, tmp_path):
        hist = tmp_path / "hist"
        code, text = _solve(tmp_path, extra=["--history-dir", str(hist)])
        assert code == 0
        report = parse_report_csv(text)
        for row in report.rows:
            lines = (hist / f"{row.solver}.csv").read_text().splitlines()
            assert lines[0] == "iter,relres"
            assert lines[1] == "0,1.0"  # zero initial guess
            assert len(lines) == row.iterations + 2
            # last entry is the converged residual, parseable and tiny
            assert float(lines[-1].split(",")[1]) <= 1e-10

    def test_matrix_file_input(self, tmp_path, young1c):
        from cskrylov.mm_io import write_matrix_market

        path = tmp_path / "acoustic.mtx"
        write_matrix_market(young1c, path)
        out = tmp_path / "r.csv"
        code = main(
            ["solve", "--matrix", str(path), "--p", "2", "--seed", "1",
             "--solvers", "bl_cocr_rq", "--out", str(out)]
        )
        assert code == 0
        report = parse_report_csv(out.read_text())
        assert report.matrix == "acoustic"
        assert report.n == 841
        assert report.rows[0].status == "converged"

    def test_matrix_name_with_spaces_round_trips(self, tmp_path, young1c):
        from cskrylov.mm_io import write_matrix_market

        path = tmp_path / "young  1c.mtx"
        write_matrix_market(young1c, path)
        out = tmp_path / "r.csv"
        code = main(
            ["solve", "--matrix", str(path), "--p", "2", "--seed", "1",
             "--solvers", "bl_cocg", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("# matrix=young  1c n=841 nnz=")
        report = parse_report_csv(text)
        assert (report.matrix, report.n, report.p, report.seed) == ("young  1c", 841, 2, 1)
        assert format_report_csv(report) == text

    def test_sparse_kernels_loaded_before_the_first_solver(self, tmp_path, monkeypatch):
        # the warm-up product imports scipy.sparse and resolves its CSR
        # kernel, so that one-off cost stays out of every cpu time
        from cskrylov import core_la

        core_la._sparsetools.cache_clear()
        seen = []
        solve = SOLVERS["bl_cocg"]

        def checking(a, b, x0, cfg):
            seen.append(core_la._sparsetools.cache_info().currsize)
            return solve(a, b, x0, cfg)

        monkeypatch.setitem(SOLVERS, "bl_cocg", checking)
        code, _ = _solve(tmp_path, extra=["--solvers", "bl_cocg"])
        assert code == 0
        assert seen == [1]


def test_defaults_are_the_config_types_defaults():
    args = _build_parser().parse_args(["solve", "--gen", "diagdominant"])
    assert args.tol == SolverConfig.tol and args.maxit == SolverConfig.max_iter
    assert args.density == ProblemSpec.density and args.seed == ProblemSpec.seed


class TestExitCodes:
    def test_max_iter_failure_exits_one(self, tmp_path):
        code, text = _solve(tmp_path, extra=["--maxit", "2"])
        assert code == 1
        assert "failed: max_iter" in text

    def test_unknown_solver_exits_two(self, capsys):
        code = main(["solve", *GEN_ARGS, "--solvers", "bl_gmres"])
        assert code == 2
        assert "unknown solver" in capsys.readouterr().err

    def test_empty_solver_list_exits_two(self, capsys):
        code = main(["solve", *GEN_ARGS, "--solvers", ","])
        assert code == 2
        assert "no solvers requested" in capsys.readouterr().err

    def test_gen_without_n_exits_two(self, capsys):
        code = main(["solve", "--gen", "diagdominant"])
        assert code == 2
        assert "need --n" in capsys.readouterr().err

    def test_missing_matrix_file_exits_two(self, capsys):
        code = main(["solve", "--matrix", "/nonexistent/file.mtx"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_report_exits_two(self, tmp_path, capsys, solver_calls):
        # the destinations are checked before any solver runs, so a
        # writable history directory gets no files for a run with no report
        hist = tmp_path / "hist"
        out = tmp_path / "missing" / "r.csv"
        code = main(
            ["solve", *GEN_ARGS, "--out", str(out), "--history-dir", str(hist)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert "Traceback" not in err
        assert solver_calls == []
        assert list(hist.glob("*")) == []

    def test_directory_as_report_runs_no_solver(self, tmp_path, capsys, solver_calls):
        code = main(["solve", *GEN_ARGS, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert solver_calls == []

    @pytest.mark.parametrize("case", ["new", "existing", "history-file-is-a-directory"])
    def test_unusable_history_dir_runs_no_solver(
        self, tmp_path, capsys, solver_calls, case
    ):
        # a history directory under a regular file cannot be made, and a
        # history file where a directory stands cannot be opened; the
        # report destination checked before them is left as it was
        existing = case == "existing"
        if case == "history-file-is-a-directory":
            hist = tmp_path / "hist"
            (hist / "bl_cocg.csv").mkdir(parents=True)
        else:
            blocker = tmp_path / "blocker"
            blocker.write_text("")
            hist = blocker / "hist"
        out = tmp_path / "r.csv"
        if existing:
            out.write_text("old report\n")
        code = main(
            ["solve", *GEN_ARGS, "--out", str(out), "--history-dir", str(hist)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert solver_calls == []
        if existing:
            assert out.read_text() == "old report\n"
        else:
            assert not out.exists()

    def test_non_symmetric_matrix_refused(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex general\n"
            "2 2 2\n1 2 1.0 0.0\n2 1 2.0 0.0\n"
        )
        code = main(["solve", "--matrix", str(path)])
        assert code == 2
        assert "check_complex_symmetric" in capsys.readouterr().err

    def test_malformed_matrix_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "dup.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex symmetric\n"
            "2 2 3\n1 1 1.0 0.0\n2 1 1.0 0.0\n2 1 2.0 0.0\n"
        )
        code = main(["solve", "--matrix", str(path)])
        assert code == 2
        assert "error: duplicate entry at (2, 1)" in capsys.readouterr().err

    def test_order_beyond_the_sort_key_exits_two(self, tmp_path, capsys):
        path = tmp_path / "huge.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            f"{10**20} {10**20} 2\n1 1 1\n2 1 2\n"
        )
        code = main(["solve", "--matrix", str(path)])
        assert code == 2
        assert f"error: matrix order {10**20} exceeds" in capsys.readouterr().err

    def test_huge_declared_entry_count_exits_two(self, tmp_path, capsys):
        path = tmp_path / "short.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex symmetric\n"
            "% one entry\n3 3 1000000000000\n1 1 1.0 0.0\n"
        )
        code = main(["solve", "--matrix", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "error: entry count mismatch: size line declares 1000000000000, "
            "file has 1\n"
        )

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_matrix_refused(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex symmetric\n"
            f"2 2 2\n1 1 {bad} 0.0\n2 2 1.0 0.0\n"
        )
        code = main(["solve", "--matrix", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "non-finite entries" in err
        assert "check_complex_symmetric" not in err

    def test_bad_kind_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--gen", "hilbert", "--n", "10"])
        assert exc.value.code == 2


class TestReportHelpers:
    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="metadata"):
            parse_report_csv("solver,iterations\n")

    def test_parse_rejects_a_wrong_header(self, tmp_path):
        _, text = _solve(tmp_path)
        meta, _, body = text.split("\n", 2)
        with pytest.raises(ValueError, match="unexpected header line: 'solver,iters'"):
            parse_report_csv(f"{meta}\nsolver,iters\n{body}")

    def test_markdown_of_parsed_report(self, tmp_path):
        _, text = _solve(tmp_path)
        md = format_report_md(parse_report_csv(text))
        assert md.count("|") > 10
