"""Machine presets: the paper's three evaluation systems.

Each :class:`Machine` bundles a physical topology family, ranks per
node, and an alpha-beta cost model.  Parameter values are *calibrated,
not measured*: absolute microseconds from a simulator are not
comparable to the paper's testbed numbers, but the parameters are
chosen so the machines keep their published *ordering* of
latency-boundedness (alpha / beta-per-word ratio).  ``beta`` is a
*per-rank effective* transfer cost: the ranks of a node share one NIC,
and in a sparse exchange a handful of them inject concurrently, so the
per-rank bandwidth is modeled as the node injection bandwidth divided
by ~4 concurrent injectors:

================  ==========  ================  ============  =====
machine           network     alpha_us (setup)  beta_us/word  ratio
================  ==========  ================  ============  =====
BlueGene/Q        5-D torus   3.0               0.0176        ~170
Cray XK7          3-D torus   1.8               0.0056        ~320
Cray XC40         Dragonfly   1.9               0.0044        ~430
================  ==========  ================  ============  =====

The XC40's largest ratio is exactly the property the paper invokes to
explain its bigger STFW wins (Section 6.4); BlueGene/Q's smallest ratio
makes forwarded volume hurt most there.  Sources for the rough
magnitudes: published MPI ping-pong latencies and per-node injection
bandwidths (BG/Q ~1.8 GB/s, Gemini ~6 GB/s, Aries ~14 GB/s).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .dragonfly import DragonflyTopology
from .model import Topology
from .torus import TorusTopology, fit_torus_dims

__all__ = ["Machine", "RECV_ALPHA_FRACTION", "BGQ", "CRAY_XC40", "CRAY_XK7", "MACHINES"]

#: fraction of alpha charged on the receive side of a match
RECV_ALPHA_FRACTION = 0.4


@dataclass(frozen=True)
class Machine:
    """A parallel machine: physical network + message cost parameters.

    Attributes
    ----------
    name:
        Human-readable system name.
    network:
        Short network-family label used in reports.
    cores_per_node:
        Ranks placed per node by the default block mapping.
    alpha_us:
        Message start-up latency in microseconds.
    alpha_hop_us:
        Additional latency per network hop.
    beta_us_per_word:
        Transfer time per 8-byte word.
    flops_per_us:
        Sustained per-rank SpMV flop rate, used to model the local
        compute phase (2 flops per nonzero).
    topology_factory:
        Builds the physical topology for a node count.
    """

    name: str
    network: str
    cores_per_node: int
    alpha_us: float
    alpha_hop_us: float
    beta_us_per_word: float
    flops_per_us: float
    topology_factory: Callable[[int], Topology]

    def num_nodes(self, K: int) -> int:
        """Nodes needed for ``K`` ranks under block placement."""
        return -(-K // self.cores_per_node)

    def topology(self, K: int) -> Topology:
        """Physical topology sized for ``K`` ranks."""
        return self.topology_factory(self.num_nodes(K))

    @property
    def latency_bandwidth_ratio(self) -> float:
        """alpha / beta — how latency-bound the machine is."""
        return self.alpha_us / self.beta_us_per_word

    def lookahead_us(self) -> float:
        """Minimum virtual time any message needs to cross the network.

        Every send costs at least ``alpha_us`` (hop, size, and jitter
        terms only add to it), so a message sent at time *t* arrives no
        earlier than ``t + lookahead_us()``.  Conservative parallel-DES
        engines use this as the safe-window width: ranks at clock floor
        *F* cannot influence each other before ``F + lookahead_us()``.
        """
        return self.alpha_us

    def send_cost(self, hops, words):
        """Sender-side cost of a message of ``words`` words over ``hops`` hops.

        The one send-cost expression of the simulator: the event engine
        calls it per message with Python ints, the batch engine and
        :func:`~repro.network.timing.time_plan` per stage with arrays.
        One expression, one IEEE-754 operation sequence, so an array
        element equals the scalar call on it bit for bit.
        """
        return self.alpha_us + self.alpha_hop_us * hops + self.beta_us_per_word * words

    def recv_cost(self, words):
        """Receiver-side cost of matching a message of ``words`` words.

        ``RECV_ALPHA_FRACTION * alpha + beta * words``, on scalars or
        arrays alike (see :meth:`send_cost`).
        """
        return RECV_ALPHA_FRACTION * self.alpha_us + self.beta_us_per_word * words

    def with_params(self, **kwargs) -> "Machine":
        """Copy with selected cost parameters overridden."""
        return replace(self, **kwargs)


def _bgq_topology(num_nodes: int) -> Topology:
    return TorusTopology(fit_torus_dims(num_nodes, 5))


def _xk7_topology(num_nodes: int) -> Topology:
    return TorusTopology(fit_torus_dims(num_nodes, 3))


def _xc40_topology(num_nodes: int) -> Topology:
    return DragonflyTopology.fit(num_nodes)


#: IBM BlueGene/Q — 16 PowerPC A2 ranks/node, 5-D torus (paper Sec. 6.1)
BGQ = Machine(
    name="BlueGene/Q",
    network="5-D Torus",
    cores_per_node=16,
    alpha_us=3.0,
    alpha_hop_us=0.04,
    beta_us_per_word=0.0176,
    flops_per_us=200.0,
    topology_factory=_bgq_topology,
)

#: Cray XC40 — 32 Haswell ranks/node, Aries Dragonfly
CRAY_XC40 = Machine(
    name="Cray XC40",
    network="Dragonfly",
    cores_per_node=32,
    alpha_us=1.9,
    alpha_hop_us=0.1,
    beta_us_per_word=0.0044,
    flops_per_us=1200.0,
    topology_factory=_xc40_topology,
)

#: Cray XK7 — 16 Opteron ranks/node, Gemini 3-D torus
CRAY_XK7 = Machine(
    name="Cray XK7",
    network="3-D Torus",
    cores_per_node=16,
    alpha_us=1.8,
    alpha_hop_us=0.06,
    beta_us_per_word=0.0056,
    flops_per_us=400.0,
    topology_factory=_xk7_topology,
)

#: all presets by short key
MACHINES: dict[str, Machine] = {
    "bgq": BGQ,
    "xc40": CRAY_XC40,
    "xk7": CRAY_XK7,
}
