"""Shared test fixtures and helpers."""

from pathlib import Path

import pytest

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / name


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
