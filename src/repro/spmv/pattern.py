"""Communication pattern of row-parallel SpMV — the paper's workload.

In row-parallel SpMV, process ``p`` owns a set of rows of ``A`` and the
conformal entries of the input vector ``x``.  To compute ``y = A x`` it
needs ``x_j`` for every column ``j`` with a nonzero in one of its rows;
if ``x_j`` lives on another process, that entry must be communicated.
Each (owner, needer) pair exchanges one message carrying the *distinct*
x-entries needed — exactly the ``SendSet`` structure Algorithm 1
regularizes.

Everything here is vectorized over the stored entries, so million-nonzero
matrices and 16K-way partitions reduce to two value sorts of int64 keys
that pack a pair as ``(a << bits) | b`` (the order of the pairs, a shift
and a mask to unpack): one sorted-run dedup of the (needer, column) keys
(:func:`repro.arrayops.sorted_unique`) and one counted ``np.unique`` of
the (owner, needer) keys.
"""

from __future__ import annotations

import numpy as np

from .._lazy import lazy_module
from ..arrayops import sorted_unique
from ..core.pattern import CommPattern
from ..errors import PlanError
from ..partition.base import Partition

sp = lazy_module("scipy.sparse")

__all__ = ["spmv_pattern", "spmv_needed_entries", "nnz_per_part"]


def _key_bits(bound: int) -> int:
    """Bits per coordinate of an int64 key ``(a << bits) | b``, both coordinates below ``bound``."""
    bits = (bound - 1).bit_length()
    if 2 * bits > 62:
        raise PlanError(f"two coordinates below {bound} do not fit one int64 key")
    return bits


def _needed_pairs(A: sp.spmatrix, partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (needer process, x index) pairs with off-process owner."""
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise PlanError("row-parallel SpMV needs a square matrix")
    if partition.n != n:
        raise PlanError(f"partition covers {partition.n} rows, matrix has {n}")
    parts = partition.parts
    bits = _key_bits(max(n, partition.K))
    needer = np.repeat(parts, np.diff(A.indptr))  # of every stored entry, row by row
    remote = needer != parts[A.indices]
    # one int64 array the size of the remote entries, made in place: (needer, col) packed
    key = needer[remote]
    key <<= bits
    key |= A.indices[remote]
    del needer, remote  # 9 bytes a nonzero, dead weight under the sort
    key = sorted_unique(key)
    return key >> bits, key & ((1 << bits) - 1)


def spmv_pattern(A: sp.spmatrix, partition: Partition) -> CommPattern:
    """The point-to-point pattern of one SpMV under ``partition``.

    Message ``m_pq`` carries the distinct x-entries process ``p`` owns
    and process ``q`` needs; its size in words is that count (8-byte
    values).
    """
    needer, col = _needed_pairs(A, partition)
    K = partition.K
    bits = _key_bits(K)
    pair_key = partition.parts[col]  # the owner, then (owner, needer) packed
    pair_key <<= bits
    pair_key |= needer
    uniq, counts = np.unique(pair_key, return_counts=True)
    return CommPattern.from_arrays(K, uniq >> bits, uniq & ((1 << bits) - 1), counts)


def spmv_needed_entries(
    A: sp.spmatrix, partition: Partition
) -> list[dict[int, np.ndarray]]:
    """Per-process receive lists: ``needed[q][p]`` = x indices ``q`` gets from ``p``.

    The index arrays are sorted, which both sides of the exchange agree
    on — the send side uses the same arrays to pack values, so packing
    and unpacking line up without extra metadata.
    """
    needer, col = _needed_pairs(A, partition)
    K = partition.K
    needed: list[dict[int, np.ndarray]] = [dict() for _ in range(K)]
    if needer.size == 0:
        return needed
    owner = partition.parts[col]
    order = np.lexsort((col, owner, needer))
    needer, owner, col = needer[order], owner[order], col[order]
    boundaries = np.flatnonzero(
        np.diff(needer * np.int64(K) + owner, prepend=-1)
    )
    boundaries = np.append(boundaries, needer.size)
    for b0, b1 in zip(boundaries[:-1], boundaries[1:]):
        q = int(needer[b0])
        p = int(owner[b0])
        needed[q][p] = col[b0:b1].copy()
    return needed


def nnz_per_part(A: sp.spmatrix, partition: Partition) -> np.ndarray:
    """Nonzeros owned by each process (the local compute load)."""
    A = sp.csr_matrix(A)
    row_nnz = np.diff(A.indptr).astype(np.int64)
    return np.bincount(partition.parts, weights=row_nnz, minlength=partition.K).astype(
        np.int64
    )
