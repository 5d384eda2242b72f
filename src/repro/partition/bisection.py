"""Recursive graph bisection with BFS growing and greedy refinement.

A quality-oriented PaToH stand-in for small and medium matrices:
recursively split the (symmetrized) sparsity graph, growing one half by
breadth-first search from a peripheral vertex until it holds half the
weight, then improving the cut with gain-based boundary moves (a
single-pass Fiduccia–Mattheyses-style sweep per refinement round).
Slower but cut-aware, unlike the ordering-based
:func:`repro.partition.rcm.rcm_partition`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .._lazy import lazy_module
from ..errors import PartitionError
from .base import Partition

sp = lazy_module("scipy.sparse")

__all__ = ["bisection_partition", "bisect_once"]


def _symmetrize(A: sp.spmatrix) -> sp.csr_matrix:
    A = sp.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise PartitionError("bisection needs a square matrix")
    S = sp.csr_matrix(A + A.T)
    S.data = np.ones_like(S.data)
    S.setdiag(0)
    S.eliminate_zeros()
    return S


def _bfs_grow(
    adj: sp.csr_matrix,
    rows: np.ndarray,
    weights: np.ndarray,
    target: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Grow a weight-``target`` side by BFS inside the induced subgraph."""
    member = np.zeros(adj.shape[0], dtype=bool)
    member[rows] = True
    # start from a pseudo-peripheral vertex: BFS twice from a random seed
    start = int(rows[rng.integers(rows.size)])
    for _ in range(2):
        far = start
        seen = {start}
        q = deque([start])
        while q:
            u = q.popleft()
            far = u
            for v in adj.indices[adj.indptr[u]: adj.indptr[u + 1]]:
                if member[v] and v not in seen:
                    seen.add(int(v))
                    q.append(int(v))
        start = far

    side = np.zeros(adj.shape[0], dtype=bool)
    grown = 0.0
    q = deque([start])
    visited = np.zeros(adj.shape[0], dtype=bool)
    visited[start] = True
    remaining = deque(int(r) for r in rows)
    while grown < target:
        if not q:
            # disconnected component exhausted: seed from any unvisited row
            while remaining and (visited[remaining[0]] or not member[remaining[0]]):
                remaining.popleft()
            if not remaining:
                break
            nxt = remaining.popleft()
            visited[nxt] = True
            q.append(nxt)
            continue
        u = q.popleft()
        side[u] = True
        grown += weights[u]
        for v in adj.indices[adj.indptr[u]: adj.indptr[u + 1]]:
            if member[v] and not visited[v]:
                visited[v] = True
                q.append(int(v))
    return side


def _refine(
    adj: sp.csr_matrix,
    rows: np.ndarray,
    side: np.ndarray,
    weights: np.ndarray,
    target: float,
    passes: int,
    tol: float = 0.1,
) -> None:
    """Greedy gain-based boundary moves, in place on ``side``."""
    member = np.zeros(adj.shape[0], dtype=bool)
    member[rows] = True
    total = float(weights[rows].sum())
    lo = target - tol * total
    hi = target + tol * total
    side_weight = float(weights[rows[side[rows]]].sum())
    for _ in range(passes):
        moved = 0
        for u in rows:
            nbrs = adj.indices[adj.indptr[u]: adj.indptr[u + 1]]
            nbrs = nbrs[member[nbrs]]
            if nbrs.size == 0:
                continue
            same = int(side[nbrs].sum()) if side[u] else int((~side[nbrs]).sum())
            other = nbrs.size - same
            if other <= same:
                continue
            w = float(weights[u])
            if side[u]:
                if side_weight - w < lo:
                    continue
                side[u] = False
                side_weight -= w
            else:
                if side_weight + w > hi:
                    continue
                side[u] = True
                side_weight += w
            moved += 1
        if moved == 0:
            break


def bisect_once(
    adj: sp.csr_matrix,
    rows: np.ndarray,
    weights: np.ndarray,
    frac: float,
    rng: np.random.Generator,
    refine_passes: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``rows`` into (side, rest) with ``frac`` of the weight in side."""
    total = float(weights[rows].sum())
    side_mask = _bfs_grow(adj, rows, weights, frac * total, rng)
    _refine(adj, rows, side_mask, weights, frac * total, refine_passes)
    side = rows[side_mask[rows]]
    rest = rows[~side_mask[rows]]
    if side.size == 0 or rest.size == 0:
        # refinement or growth degenerated; fall back to an even split
        half = max(int(rows.size * frac), 1)
        side, rest = rows[:half], rows[half:]
    return side, rest


def bisection_partition(
    A: sp.spmatrix,
    K: int,
    *,
    seed: int | None = None,
    refine_passes: int = 2,
    balance: str = "nnz",
) -> Partition:
    """Recursive bisection of ``A``'s rows into ``K`` parts."""
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if K < 1:
        raise PartitionError("K must be positive")
    if K > n:
        raise PartitionError(f"cannot split {n} rows into {K} non-empty parts")
    if balance == "nnz":
        weights = np.maximum(np.diff(A.indptr).astype(np.float64), 1.0)
    elif balance == "rows":
        weights = np.ones(n, dtype=np.float64)
    else:
        raise PartitionError(f"unknown balance mode {balance!r}")
    adj = _symmetrize(A)
    rng = np.random.default_rng(seed)
    parts = np.zeros(n, dtype=np.int64)

    def rec(rows: np.ndarray, k: int, first: int) -> None:
        if k == 1:
            parts[rows] = first
            return
        k_left = k // 2
        side, rest = bisect_once(
            adj, rows, weights, k_left / k, rng, refine_passes
        )
        if side.size < k_left or rest.size < k - k_left:
            # too skewed to host the remaining parts; even fallback
            cut = rows.size * k_left // k
            side, rest = rows[:cut], rows[cut:]
        rec(side, k_left, first)
        rec(rest, k - k_left, first + k_left)

    rec(np.arange(n, dtype=np.int64), K, 0)
    return Partition(parts, K)
