"""Partition metrics that the partitioner and SpMV-pattern tests check against.

No experiment reads them: the paper's cells measure the extracted
communication pattern itself (:func:`repro.spmv.pattern.spmv_pattern`).
"""

import numpy as np
import scipy.sparse as sp


def edge_cut(A, partition) -> int:
    """Number of (symmetrized, off-diagonal) edges crossing parts.

    A proxy for communication volume: every cut edge makes one vector
    entry travel between two processes in row-parallel SpMV.
    """
    A = sp.csr_matrix(A)
    S = sp.csr_matrix(A + A.T).tocoo()
    mask = S.row < S.col  # each undirected edge once, no diagonal
    pr = partition.parts[S.row[mask]]
    pc = partition.parts[S.col[mask]]
    return int((pr != pc).sum())


def connectivity_volume(A, partition) -> int:
    """The hypergraph connectivity-minus-one volume metric (PaToH's).

    In the column-net hypergraph model of row-parallel SpMV (Catalyurek
    & Aykanat 1999), column ``j`` is a net connecting the rows with a
    nonzero in it; if the net touches ``lambda_j`` distinct parts
    (counting x_j's owner), its vector entry must be communicated
    ``lambda_j - 1`` times.  The total is *exactly* the number of words
    ``spmv_pattern`` moves, computed here without it.
    """
    coo = sp.csr_matrix(A).tocoo()
    parts = partition.parts
    K = np.int64(partition.K)
    # distinct (column, touching part) pairs, including the owner part
    key = coo.col.astype(np.int64) * K + parts[coo.row]
    owner_key = np.arange(partition.n, dtype=np.int64) * K + parts
    lam = np.bincount(np.unique(np.concatenate([key, owner_key])) // K, minlength=partition.n)
    return int((lam - 1).sum())
