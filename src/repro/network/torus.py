"""k-ary n-D torus interconnects (BlueGene/Q's 5-D, Cray XK7's 3-D).

Nodes are arranged in an ``n``-dimensional grid with wrap-around links;
the hop count between two nodes is the sum of per-dimension *Lee
distances* ``min(|a - b|, k - |a - b|)`` — the minimal-path length of
dimension-ordered hardware routing.

Do not confuse this with :class:`repro.core.vpt.VirtualProcessTopology`:
the torus here is the *physical* network underneath; the VPT is a
software-level structure oblivious to it (Section 2.1 of the paper).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..arrayops import read_only
from ..errors import NetworkModelError
from .model import Topology

__all__ = ["TorusTopology", "fit_torus_dims"]


def fit_torus_dims(num_nodes: int, n_dims: int) -> tuple[int, ...]:
    """Choose near-equal torus dimensions whose product covers ``num_nodes``.

    Prefers an exact balanced factorization when ``num_nodes`` permits
    one; otherwise rounds each dimension up so every node gets a slot
    (real machines allocate convex sub-tori, a harmless idealization
    here).
    """
    if num_nodes < 1 or n_dims < 1:
        raise NetworkModelError("num_nodes and n_dims must be positive")
    from ..core.dimensioning import balanced_dim_sizes

    try:
        dims = balanced_dim_sizes(num_nodes, n_dims)
        if all(d >= 2 for d in dims):
            return dims
    except Exception:
        pass
    side = max(2, round(num_nodes ** (1.0 / n_dims)))
    dims_list = [side] * n_dims
    while _prod(dims_list) < num_nodes:
        dims_list[int(np.argmin(dims_list))] += 1
    return tuple(dims_list)


def _prod(xs: Sequence[int]) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


class TorusTopology(Topology):
    """An ``n``-dimensional torus with per-dimension sizes ``dims``."""

    def __init__(self, dims: Sequence[int]):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise NetworkModelError(f"invalid torus dims {dims}")
        self._dims = dims
        self._num_nodes = _prod(dims)
        # per dimension, every node's coordinate (what hops_array gathers)
        nodes = np.arange(self._num_nodes)
        coords = np.stack(np.unravel_index(nodes, dims, order="F")).astype(np.int32)
        self._coords = read_only(coords)[0]  # a machine's topology is shared (placement)

    @property
    def dims(self) -> tuple[int, ...]:
        """Per-dimension torus sizes."""
        return self._dims

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def coords(self, node: int) -> tuple[int, ...]:
        """Grid coordinates of ``node`` (dimension 0 least significant)."""
        self._check_node(node)
        out = []
        for d in self._dims:
            out.append(node % d)
            node //= d
        return tuple(out)

    def hops(self, a: int, b: int) -> int:
        self._check_node(a)
        self._check_node(b)
        total = 0
        for d in self._dims:
            ca, cb = a % d, b % d
            delta = abs(ca - cb)
            total += min(delta, d - delta)
            a //= d
            b //= d
        return total

    def hops_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        for x in (a, b):
            if x.size and (x.min() < 0 or x.max() >= self._num_nodes):
                raise NetworkModelError("node array outside torus")
        total = np.zeros(np.broadcast(a, b).shape, dtype=np.int32)
        for coord, d in zip(self._coords, self._dims):
            delta = np.abs(coord.take(a) - coord.take(b))
            total += np.minimum(delta, d - delta)
        return total.astype(np.int64)

    def diameter(self) -> int:
        """Closed form: sum of ``floor(k_d / 2)`` over dimensions."""
        return sum(d // 2 for d in self._dims)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TorusTopology({self._dims})"
