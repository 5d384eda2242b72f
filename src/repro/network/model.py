"""Abstract interconnect topology: the hop counts the message cost reads.

The paper measures communication time on three machines whose networks
differ in topology (5-D torus, Dragonfly, 3-D torus) and in the ratio
of message start-up time (*alpha*, latency) to per-word transfer time
(*beta*, inverse bandwidth).  STFW's value proposition rests exactly on
this ratio: it pays extra beta (forwarded volume) to save alpha
(message count).

A :class:`Topology` maps node pairs to hop counts; a machine charges
one physical message of ``w`` words between nodes ``a`` and ``b``
``machine.send_cost(hops(a, b), w)``
(:meth:`repro.network.machines.Machine.send_cost`, the one cost
expression of the simulator).

Per-hop latency is small but distinguishes compact torus placements
from far-apart ones, which is what the rank-mapping ablation exercises.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import NetworkModelError

__all__ = ["Topology", "FlatTopology"]


class Topology(ABC):
    """An interconnect topology over ``num_nodes`` physical nodes."""

    @property
    @abstractmethod
    def num_nodes(self) -> int:
        """Number of physical nodes the topology can host."""

    @abstractmethod
    def hops(self, a: int, b: int) -> int:
        """Network hops between nodes ``a`` and ``b`` (0 for ``a == b``)."""

    def hops_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`hops`; subclasses override with array math."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.empty(np.broadcast(a, b).shape, dtype=np.int64)
        flat_a, flat_b = np.broadcast_arrays(a, b)
        it = np.nditer(out, flags=["multi_index"], op_flags=["writeonly"])
        for cell in it:
            idx = it.multi_index
            cell[...] = self.hops(int(flat_a[idx]), int(flat_b[idx]))
        return out

    def diameter(self) -> int:
        """Maximum hop distance between any node pair (brute force)."""
        worst = 0
        for a in range(self.num_nodes):
            for b in range(a + 1, self.num_nodes):
                worst = max(worst, self.hops(a, b))
        return worst

    def _check_node(self, x: int) -> None:
        if not 0 <= x < self.num_nodes:
            raise NetworkModelError(f"node {x} outside [0, {self.num_nodes})")


class FlatTopology(Topology):
    """Distance-oblivious topology: every distinct pair is one hop apart.

    The right model when per-hop latency is negligible or unknown; also
    the fallback used to reason about the pure alpha-beta trade-off.
    """

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise NetworkModelError(f"num_nodes={num_nodes} must be positive")
        self._num_nodes = int(num_nodes)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def hops(self, a: int, b: int) -> int:
        self._check_node(a)
        self._check_node(b)
        return 0 if a == b else 1

    def hops_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        self._check_bounds(a)
        self._check_bounds(b)
        return (a != b).astype(np.int64)

    def _check_bounds(self, x: np.ndarray) -> None:
        if x.size and (x.min() < 0 or x.max() >= self._num_nodes):
            raise NetworkModelError(f"node array outside [0, {self._num_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlatTopology({self._num_nodes})"
