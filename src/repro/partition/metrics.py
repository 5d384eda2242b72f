"""Partition quality metrics: edge cut and load balance."""

from __future__ import annotations

import numpy as np

from .._lazy import lazy_module
from ..arrayops import sorted_unique
from ..errors import PartitionError
from .base import Partition

sp = lazy_module("scipy.sparse")

__all__ = ["edge_cut", "partition_quality", "connectivity_volume"]


def edge_cut(A: sp.spmatrix, partition: Partition) -> int:
    """Number of (symmetrized, off-diagonal) edges crossing parts.

    A proxy for communication volume: every cut edge makes one vector
    entry travel between two processes in row-parallel SpMV.
    """
    A = sp.csr_matrix(A)
    if A.shape[0] != partition.n:
        raise PartitionError(
            f"matrix has {A.shape[0]} rows but partition covers {partition.n}"
        )
    S = sp.csr_matrix(A + A.T).tocoo()
    mask = S.row < S.col  # each undirected edge once, no diagonal
    pr = partition.parts[S.row[mask]]
    pc = partition.parts[S.col[mask]]
    return int((pr != pc).sum())


def partition_quality(A: sp.spmatrix, partition: Partition) -> dict[str, float]:
    """Summary dict: edge cut, cut fraction, row and nnz imbalance."""
    A = sp.csr_matrix(A)
    cut = edge_cut(A, partition)
    S = sp.csr_matrix(A + A.T).tocoo()
    total_edges = int((S.row < S.col).sum())
    nnz_weights = np.diff(A.indptr).astype(np.float64)
    return {
        "edge_cut": float(cut),
        "cut_fraction": cut / total_edges if total_edges else 0.0,
        "row_imbalance": partition.imbalance(),
        "nnz_imbalance": partition.imbalance(nnz_weights),
    }


def connectivity_volume(A: sp.spmatrix, partition: Partition) -> int:
    """The hypergraph connectivity-minus-one volume metric (PaToH's).

    In the column-net hypergraph model of row-parallel SpMV (Catalyurek
    & Aykanat 1999), column ``j`` is a net connecting the rows with a
    nonzero in it; if the net touches ``lambda_j`` distinct parts
    (counting x_j's owner), its vector entry must be communicated
    ``lambda_j - 1`` times.  The total is *exactly* the number of words
    the extracted :func:`repro.spmv.pattern.spmv_pattern` moves — a
    cross-validation the test suite pins.
    """
    A = sp.csr_matrix(A)
    if A.shape[0] != partition.n:
        raise PartitionError(
            f"matrix has {A.shape[0]} rows but partition covers {partition.n}"
        )
    coo = A.tocoo()
    parts = partition.parts
    n = A.shape[0]
    # distinct (column, touching part) pairs, including the owner part
    key = coo.col.astype(np.int64) * np.int64(partition.K) + parts[coo.row]
    owner_key = np.arange(n, dtype=np.int64) * np.int64(partition.K) + parts
    lam = np.zeros(n, dtype=np.int64)
    uniq = sorted_unique(np.concatenate([key, owner_key]))
    np.add.at(lam, (uniq // partition.K).astype(np.int64), 1)
    # columns with no nonzeros contribute lambda=1 (owner only) -> 0
    return int(np.maximum(lam - 1, 0).sum())
