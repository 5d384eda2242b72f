"""Locality partitioner: Reverse Cuthill–McKee ordering + balanced blocks.

The paper partitions with PaToH to "reduce the communication overheads
in SpMV ... a common technique".  Our stand-in reorders the symmetrized
sparsity graph with RCM — which clusters connected rows into a narrow
band — and cuts the ordering into nnz-balanced contiguous blocks.  On
structurally local matrices this removes most communication exactly as
a hypergraph partitioner would, while dense rows/columns keep their
irreducible all-to-many pattern — the residue the paper's method
attacks.
"""

from __future__ import annotations

import numpy as np

from .._lazy import lazy_module
from ..errors import PartitionError
from .base import Partition
from .simple import balanced_blocks_from_order

sp = lazy_module("scipy.sparse")

__all__ = ["rcm_partition", "rcm_order"]


def rcm_order(A: sp.spmatrix, *, dense_row_factor: float | None = 10.0) -> np.ndarray:
    """Reverse Cuthill–McKee ordering of ``A``'s symmetrized pattern.

    Dense rows (degree above ``dense_row_factor`` times the average)
    are excluded from the ordering graph: a single near-full row makes
    the whole graph diameter ~2 and destroys any bandwidth-reducing
    ordering, while the dense row itself communicates with everyone no
    matter where it lands.  This mirrors how hypergraph partitioners
    treat dense rows/columns specially.  Pass ``None`` to disable.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    A = sp.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise PartitionError("RCM ordering needs a square matrix")
    # only the structure is ordered: int8 ones keep the symmetrized copies at
    # 5 bytes an entry, where A's float64 values made them 12
    A = sp.csr_matrix((np.ones(A.indices.shape, dtype=np.int8), A.indices, A.indptr), shape=A.shape)
    pattern = sp.csr_matrix(A + A.T)
    if dense_row_factor is not None:
        deg = np.diff(pattern.indptr)
        threshold = dense_row_factor * max(deg.mean(), 1.0) + 10
        dense = deg > threshold
        if dense.any() and not dense.all():
            keep = ~dense
            mask = sp.diags(keep.astype(np.int8), format="csr", dtype=np.int8)
            pattern = sp.csr_matrix(mask @ pattern @ mask)
    return np.asarray(
        reverse_cuthill_mckee(sp.csr_matrix(pattern), symmetric_mode=True),
        dtype=np.int64,
    )


def rcm_partition(
    A: sp.spmatrix, K: int, *, balance: str = "nnz"
) -> Partition:
    """Partition rows of ``A`` into ``K`` parts along the RCM ordering.

    ``balance`` selects the block-balancing weight: ``"nnz"`` equalizes
    per-part nonzeros (compute load; the paper's setting) and
    ``"rows"`` equalizes row counts.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    order = rcm_order(A)
    if balance == "nnz":
        weights = np.diff(A.indptr).astype(np.float64)
        weights = np.maximum(weights, 1.0)
    elif balance == "rows":
        weights = np.ones(n, dtype=np.float64)
    else:
        raise PartitionError(f"unknown balance mode {balance!r}")
    return balanced_blocks_from_order(order, K, weights)
