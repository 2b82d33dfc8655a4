"""Shared test fixtures and helpers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / name


def child_env(**extra):
    """Environment for a child Python process that imports the same
    cskrylov package as the tests, installed or not."""
    import cskrylov

    src = str(Path(cskrylov.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_child(code, *args, timeout=120, **extra):
    """Run code in a child Python process with args as sys.argv[1:],
    under `child_env(**extra)`, and return the JSON it prints; the child
    must exit 0."""
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=child_env(**extra),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def every_operator_wide(monkeypatch):
    """Read every matrix's file-order spread as infinite for the rest of
    the test, so that its solves go through its locality copy. The copy
    is still built only where its own spread is within the window, which
    holds at every order up to `core_la._LOCALITY_WINDOW`."""
    from cskrylov import core_la

    monkeypatch.setattr(core_la, "_spread", lambda a: float("inf"))


def require_fixture(name: str) -> Path:
    """Return the path to a bundled matrix file, failing honestly if absent.

    Missing matrices are an environment limitation, not an expected state:
    the check fails rather than skips so the gap stays visible.
    """
    path = fixture_path(name)
    if not path.exists():
        pytest.fail(
            f"fixture {name} is absent; run scripts/fetch_matrices.py to download "
            f"it (network access to the public matrix collections is blocked in "
            f"this environment, so the file could not be bundled)",
            pytrace=False,
        )
    return path


@pytest.fixture
def young1c():
    from cskrylov.mm_io import read_matrix_market

    _, matrix = read_matrix_market(require_fixture("young1c.mtx"))
    return matrix


@pytest.fixture
def householder_calls(monkeypatch):
    """Shapes of the blocks that `core_la.thin_qr` hands to its Householder
    fallback during the test."""
    from cskrylov import core_la

    calls = []
    householder = core_la._householder_qr

    def counting(w, q, xi):
        calls.append(w.shape)
        householder(w, q, xi)

    monkeypatch.setattr(core_la, "_householder_qr", counting)
    return calls
