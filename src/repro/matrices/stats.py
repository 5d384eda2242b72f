"""Degree statistics of sparse matrices — the Table 1 columns.

The paper characterizes each test matrix by its maximum row/column
degree (``max``), the coefficient of variation of the degrees (``cv``)
and the maximum degree ratio (``maxdr = max / n``).  High ``cv`` and
``maxdr`` signal dense rows/columns — the source of the latency
explosions STFW targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._lazy import lazy_module

sp = lazy_module("scipy.sparse")

__all__ = ["DegreeStats", "degree_stats", "row_degrees", "is_structurally_symmetric"]


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a matrix's row-degree distribution."""

    n: int
    nnz: int
    max_degree: int
    avg_degree: float
    cv: float
    maxdr: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.n} nnz={self.nnz} max={self.max_degree} "
            f"avg={self.avg_degree:.1f} cv={self.cv:.2f} maxdr={self.maxdr:.3f}"
        )


def row_degrees(A: sp.spmatrix) -> np.ndarray:
    """Nonzeros per row of ``A``."""
    A = sp.csr_matrix(A)
    return np.diff(A.indptr).astype(np.int64)


def degree_stats(A: sp.spmatrix) -> DegreeStats:
    """Compute the Table 1 statistics of ``A`` (row degrees)."""
    A = sp.csr_matrix(A)
    deg = row_degrees(A)
    n = A.shape[0]
    mean = float(deg.mean()) if n else 0.0
    std = float(deg.std()) if n else 0.0
    return DegreeStats(
        n=n,
        nnz=int(A.nnz),
        max_degree=int(deg.max(initial=0)),
        avg_degree=mean,
        cv=std / mean if mean > 0 else 0.0,
        maxdr=float(deg.max(initial=0)) / n if n else 0.0,
    )


def is_structurally_symmetric(A: sp.spmatrix) -> bool:
    """True iff the sparsity pattern of ``A`` equals its transpose's."""
    A = sp.csr_matrix(A)
    B = A.copy()
    B.data = np.ones_like(B.data)
    C = sp.csr_matrix(A.T)
    C.data = np.ones_like(C.data)
    return (B != C).nnz == 0
