"""Rank-to-node mappings.

A machine hosts several MPI ranks per node (16 on BG/Q and XK7, 32 on
XC40).  The mapping decides which physical node each rank lands on and
therefore the hop distance of each message.  The default *block*
mapping (consecutive ranks share a node) matches the default placement
of all three systems in the paper.  :func:`placement` is where every
consumer of a machine gets its topology and mapping.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from ..arrayops import read_only
from ..errors import NetworkModelError

if TYPE_CHECKING:
    from .machines import Machine
    from .model import Topology

__all__ = ["block_mapping", "round_robin_mapping", "random_mapping", "validate_mapping",
           "placement"]


def block_mapping(K: int, cores_per_node: int) -> np.ndarray:
    """Consecutive ranks on the same node: ``node = rank // cores_per_node``."""
    if K < 1 or cores_per_node < 1:
        raise NetworkModelError("K and cores_per_node must be positive")
    return np.arange(K, dtype=np.int64) // cores_per_node


def round_robin_mapping(K: int, cores_per_node: int) -> np.ndarray:
    """Cyclic placement: ``node = rank % num_nodes``."""
    if K < 1 or cores_per_node < 1:
        raise NetworkModelError("K and cores_per_node must be positive")
    num_nodes = -(-K // cores_per_node)
    return np.arange(K, dtype=np.int64) % num_nodes


def random_mapping(K: int, cores_per_node: int, seed: int | None = None) -> np.ndarray:
    """Random balanced placement (each node gets at most ``cores_per_node``)."""
    if K < 1 or cores_per_node < 1:
        raise NetworkModelError("K and cores_per_node must be positive")
    base = block_mapping(K, cores_per_node)
    rng = np.random.default_rng(seed)
    return base[rng.permutation(K)]


def validate_mapping(mapping: np.ndarray, K: int, num_nodes: int) -> np.ndarray:
    """Check a user-supplied mapping and return it as an int64 array."""
    m = np.asarray(mapping, dtype=np.int64)
    if m.shape != (K,):
        raise NetworkModelError(f"mapping has shape {m.shape}, expected ({K},)")
    if m.size and (m.min() < 0 or m.max() >= num_nodes):
        raise NetworkModelError(f"mapping references nodes outside [0, {num_nodes})")
    return m


def placement(
    machine: Machine, K: int, mapping: np.ndarray | None = None
) -> tuple[Topology, np.ndarray]:
    """The topology ``machine`` builds for ``K`` ranks and the rank -> node map.

    ``mapping`` defaults to the machine's block mapping.  That default
    and the topology are made once per ``(machine, K)`` and shared by
    every caller, so the mapping is read-only; a caller's ``mapping`` is
    validated on every call (:func:`validate_mapping`).
    """
    topology, default = _default_placement(machine, K)
    if mapping is None:
        return topology, default
    return topology, validate_mapping(mapping, K, topology.num_nodes)


@lru_cache(maxsize=16)
def _default_placement(machine: Machine, K: int) -> tuple[Topology, np.ndarray]:
    topology = machine.topology(K)
    mapping = validate_mapping(block_mapping(K, machine.cores_per_node), K, topology.num_nodes)
    return topology, read_only(mapping)[0]
