"""MatrixMarket I/O — drop-in support for the real SuiteSparse files.

Users with access to the actual paper matrices (sparse.tamu.edu) can
read them here and run every experiment on the genuine data; the
functions wrap :mod:`scipy.io` with the validation the rest of the
library expects (square, CSR, non-empty).
"""

from __future__ import annotations

import os

from .._lazy import lazy_module
from ..errors import MatrixGenerationError

sio = lazy_module("scipy.io")
sp = lazy_module("scipy.sparse")

__all__ = ["read_matrix", "write_matrix"]


def read_matrix(path: str | os.PathLike) -> sp.csr_matrix:
    """Read a MatrixMarket file as a square CSR matrix.

    Pattern-only files get unit values; rectangular matrices are
    rejected (row-parallel SpMV here assumes square, as in the paper's
    symmetric test set).
    """
    if not os.path.exists(path):
        raise MatrixGenerationError(f"no such file: {path}")
    try:
        A = sio.mmread(os.fspath(path))
    except Exception as exc:
        raise MatrixGenerationError(f"cannot parse MatrixMarket file {path}: {exc}") from exc
    A = sp.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise MatrixGenerationError(
            f"matrix is {A.shape[0]}x{A.shape[1]}; only square matrices are supported"
        )
    if A.nnz == 0:
        raise MatrixGenerationError("matrix has no nonzeros")
    return A


def write_matrix(path: str | os.PathLike, A: sp.spmatrix, *, comment: str = "") -> None:
    """Write ``A`` to a MatrixMarket file."""
    sio.mmwrite(os.fspath(path), sp.coo_matrix(A), comment=comment)
