#!/usr/bin/env python3
"""Download the acoustic-scattering test matrices into tests/fixtures/.

Pulls young1c, young2c, and young3c in Matrix Market format from the
public collections that distribute them. Files that already exist are
left alone. Each download is validated (order 841, complex symmetric)
before being written.

Network access is required; run from the repository root:

    python3 scripts/fetch_matrices.py
"""

from __future__ import annotations

import gzip
import io
import sys
import tarfile
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cskrylov.core_la import ComplexSymmetricMatrix
from cskrylov.mm_io import read_matrix_market, write_matrix_market

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "tests" / "fixtures"

NAMES = ("young1c", "young2c", "young3c")

# Mirrors, tried in order. {name} is the matrix name.
SOURCES = (
    # NIST Matrix Market, Harwell-Boeing ACOUST set, gzipped .mtx
    "https://math.nist.gov/pub/MatrixMarket2/Harwell-Boeing/acoust/{name}.mtx.gz",
    # SuiteSparse collection, Matrix Market tarball ({name}/{name}.mtx inside)
    "https://suitesparse-collection-website.herokuapp.com/MM/HB/{name}.tar.gz",
    "https://sparse.tamu.edu/MM/HB/{name}.tar.gz",
)


def _fetch(url: str) -> bytes:
    req = urllib.request.Request(url, headers={"User-Agent": "fetch-matrices/1.0"})
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.read()


def _extract_mtx(name: str, url: str, raw: bytes) -> bytes:
    if url.endswith(".tar.gz"):
        with tarfile.open(fileobj=io.BytesIO(raw), mode="r:gz") as tar:
            member = next(
                (m for m in tar.getmembers() if m.name.endswith(f"{name}.mtx")), None
            )
            if member is None:
                raise ValueError(f"no {name}.mtx inside tarball from {url}")
            extracted = tar.extractfile(member)
            if extracted is None:
                raise ValueError(f"unreadable tar member {member.name} from {url}")
            return extracted.read()
    if url.endswith(".gz"):
        return gzip.decompress(raw)
    return raw


def _validate(name: str, text: bytes) -> ComplexSymmetricMatrix:
    """Parse a download and check it is the expected matrix; return it."""
    header, matrix = read_matrix_market(text)
    if matrix.n != 841:
        raise ValueError(f"{name}: expected order 841, got {matrix.n}")
    if header.field != "complex":
        raise ValueError(f"{name}: expected complex field, got {header.field}")
    if not matrix.is_symmetric:
        raise ValueError(f"{name}: matrix is not symmetric")
    return matrix


def fetch_one(name: str) -> bool:
    dest = FIXTURE_DIR / f"{name}.mtx"
    if dest.exists():
        print(f"{name}: already present, skipping")
        return True
    for template in SOURCES:
        url = template.format(name=name)
        try:
            raw = _fetch(url)
            text = _extract_mtx(name, url, raw)
            matrix = _validate(name, text)
        except (urllib.error.URLError, OSError, ValueError, tarfile.TarError) as e:
            print(f"{name}: {url} failed ({e})")
            continue
        # Re-emit through our own writer so every fixture shares one format.
        FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
        with dest.open("w") as f:
            write_matrix_market(
                matrix,
                f,
                comments=(
                    f"{name}: acoustic scattering matrix, order 841, complex symmetric",
                    f"fetched from {url}",
                ),
            )
        print(f"{name}: written to {dest}")
        return True
    print(f"{name}: all sources failed")
    return False


def main() -> int:
    ok = all([fetch_one(name) for name in NAMES])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
