"""Mapping processes onto the VPT — the paper's Section 8 future work.

The store-and-forward volume of a message equals the Hamming distance
between its endpoints' VPT coordinates times its size.  The identity
mapping (process rank = VPT position) ignores this; the paper proposes
"reducing the Hamming distance of the pair of processes that have a
large amount of data to send to each other".

We implement that proposal: order the *process communication graph* by
Reverse Cuthill–McKee, so heavily-communicating processes get adjacent
VPT positions — and adjacent mixed-radix positions share all high-order
digits, i.e. have small Hamming distance.  The ablation bench
(``benchmarks/test_bench_ablation_vpt_mapping.py``) quantifies the
resulting volume reduction.

Note the mapping changes *volume*, never the per-stage message-count
bound ``k_d - 1``, which is a property of the topology alone.
"""

from __future__ import annotations

import numpy as np

from .._lazy import lazy_module
from ..errors import PlanError
from .pattern import CommPattern
from .vpt import VirtualProcessTopology

sp = lazy_module("scipy.sparse")

__all__ = [
    "communication_matrix",
    "locality_vpt_mapping",
    "apply_mapping",
    "average_hops",
    "weighted_hop_volume",
]


def communication_matrix(pattern: CommPattern) -> sp.csr_matrix:
    """Symmetrized ``K x K`` matrix of pairwise communication volume."""
    K = pattern.K
    M = sp.csr_matrix(
        (pattern.size.astype(np.float64), (pattern.src, pattern.dst)), shape=(K, K)
    )
    return sp.csr_matrix(M + M.T)


def locality_vpt_mapping(pattern: CommPattern) -> np.ndarray:
    """Permutation placing heavy communicators at adjacent VPT positions.

    Returns ``position`` with ``position[rank]`` = the VPT slot of
    process ``rank``; built from the RCM ordering of the communication
    graph.  Identity when the pattern is empty.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    K = pattern.K
    if pattern.num_messages == 0:
        return np.arange(K, dtype=np.int64)
    comm = communication_matrix(pattern)
    order = np.asarray(
        reverse_cuthill_mckee(comm, symmetric_mode=True), dtype=np.int64
    )
    position = np.empty(K, dtype=np.int64)
    position[order] = np.arange(K, dtype=np.int64)
    return position


def apply_mapping(pattern: CommPattern, position: np.ndarray) -> CommPattern:
    """Relabel the pattern's processes by their VPT ``position``.

    The returned pattern is what the store-and-forward plan should be
    built from; process ``r``'s traffic appears under its slot
    ``position[r]``.
    """
    position = np.asarray(position, dtype=np.int64)
    if position.shape != (pattern.K,):
        raise PlanError(
            f"mapping has shape {position.shape}, expected ({pattern.K},)"
        )
    if not np.array_equal(np.sort(position), np.arange(pattern.K)):
        raise PlanError("mapping must be a permutation of 0..K-1")
    return CommPattern(
        pattern.K,
        position[pattern.src],
        position[pattern.dst],
        pattern.size.copy(),
    )


def weighted_hop_volume(pattern: CommPattern, vpt: VirtualProcessTopology) -> int:
    """Total store-and-forward volume: sum of ``size * hamming(src, dst)``.

    Exactly the total words the plan will move (every submessage is
    communicated once per differing coordinate).
    """
    if vpt.K != pattern.K:
        raise PlanError(f"pattern K={pattern.K} != vpt K={vpt.K}")
    hops = vpt.hamming_array(pattern.src, pattern.dst)
    return int((hops * pattern.size).sum())


def average_hops(pattern: CommPattern, vpt: VirtualProcessTopology) -> float:
    """Volume-weighted mean Hamming distance of the pattern's messages."""
    total = pattern.total_words
    if total == 0:
        return 0.0
    return weighted_hop_volume(pattern, vpt) / total
