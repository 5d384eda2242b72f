"""Row partitioners (PaToH stand-ins)."""

from .base import Partition, reassign_parts
from .bisection import bisect_once, bisection_partition
from .multilevel import coarsen_graph, multilevel_partition, refine_partition
from .rcm import rcm_order, rcm_partition
from .simple import balanced_blocks_from_order, block_partition, random_partition

__all__ = [
    "Partition",
    "reassign_parts",
    "block_partition",
    "random_partition",
    "balanced_blocks_from_order",
    "rcm_partition",
    "rcm_order",
    "bisection_partition",
    "bisect_once",
    "multilevel_partition",
    "coarsen_graph",
    "refine_partition",
]

#: partitioners by name, for experiment configs and the ablation bench
PARTITIONERS = {
    "block": lambda A, K, **kw: block_partition(A.shape[0], K),
    "random": lambda A, K, **kw: random_partition(A.shape[0], K, seed=kw.get("seed")),
    "rcm": lambda A, K, **kw: rcm_partition(A, K),
    "bisection": lambda A, K, **kw: bisection_partition(A, K, seed=kw.get("seed")),
    "multilevel": lambda A, K, **kw: multilevel_partition(A, K, seed=kw.get("seed")),
}

__all__.append("PARTITIONERS")
