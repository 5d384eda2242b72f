"""Topology rebuild after a communicator shrink.

When crashes reduce ``K`` processes to ``K' = K - |dead|`` survivors,
the fault-tolerant exchange can keep detouring around dead forwarders —
but every subsequent stage then pays the detour penalty forever.  The
better steady state, and what this module computes, is a **rebuilt**
regular topology over the survivors:

1. survivors are renumbered densely (``vid`` space ``0..K'-1``,
   ascending original rank, so the mapping is deterministic);
2. dead parts' matrix rows are folded into survivors by
   :func:`~repro.partition.base.reassign_parts` and the partition is
   compacted into vid space;
3. the VPT is re-dimensioned over ``K'`` via the Section 5 balancing
   scheme — with the dimension count clamped to what ``K'`` can
   support (``K'`` prime forces the flat baseline topology ``T_1``).

The resulting :class:`RecoveryPlan` carries everything the iterative
driver needs to re-derive the communication pattern and regenerate the
STFW plan, whose per-process message count again respects the paper's
``sum_d (k'_d - 1)`` bound — the quantity the resilience metrics check
after every shrink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TopologyError
from ..partition.base import Partition, reassign_parts
from .dimensioning import _prime_factors, balanced_dim_sizes
from .vpt import VirtualProcessTopology

__all__ = ["RecoveryPlan", "shrink_dim_sizes", "build_recovery"]


def shrink_dim_sizes(K_new: int, n: int) -> tuple[int, ...]:
    """Balanced dimension sizes for ``K_new >= 1`` survivors.

    Requests ``n`` dimensions but settles for fewer when ``K_new`` has
    fewer than ``n`` prime factors (every dimension size must be at
    least 2).  Where no multi-dimensional topology exists — ``n <= 1``,
    ``K_new`` prime, or a single survivor — this is ``(K_new,)``, the
    flat ``T_1`` of the direct baseline.
    """
    if K_new < 1:
        raise TopologyError(f"no topology over {K_new} survivors")
    n_eff = min(int(n), len(_prime_factors(K_new)))
    return (K_new,) if n_eff <= 1 else balanced_dim_sizes(K_new, n_eff)


@dataclass(frozen=True)
class RecoveryPlan:
    """Everything needed to resume an exchange over the survivors.

    ``partition`` lives in **vid space**: part ``v`` is survivor
    ``survivors[v]``.  ``vpt`` is the topology over the survivors: the
    flat ``T_1`` (direct sends) when the survivor count admits no
    multi-dimensional one.  ``requested_dims`` records the dimension
    count the run asked for, which may exceed what ``vpt.n`` delivers.
    """

    old_K: int
    dead: tuple[int, ...]
    survivors: tuple[int, ...]
    partition: Partition
    vpt: VirtualProcessTopology
    requested_dims: int

    @property
    def new_K(self) -> int:
        """Number of survivors ``K'``."""
        return len(self.survivors)

    def vid_of(self, rank: int) -> int:
        """Dense survivor id of original ``rank`` (raises if dead)."""
        try:
            return self.survivors.index(rank)
        except ValueError:
            raise TopologyError(f"rank {rank} is not a survivor") from None

    def rank_of(self, vid: int) -> int:
        """Original rank of survivor ``vid``."""
        return self.survivors[vid]

    def message_bound(self) -> int:
        """Per-process sent-message bound ``sum_d (k'_d - 1)``.

        Over ``T_1`` this is ``K' - 1``, the flat-topology bound.
        """
        return self.vpt.max_message_count_bound()


def build_recovery(
    partition: Partition, dead: tuple[int, ...] | list[int], n_dims: int
) -> RecoveryPlan:
    """Compute the post-shrink topology and row remap.

    ``partition`` is the current partition over the **original** ``K``
    ranks; ``dead`` the agreed crashed set.  With ``dead`` empty this
    is the epoch-0 identity rebuild (vid == rank), so the driver uses
    one code path for the initial and every recovered epoch.
    """
    dead_t = tuple(sorted(set(int(d) for d in dead)))
    K = partition.K
    for d in dead_t:
        if not 0 <= d < K:
            raise TopologyError(f"dead rank {d} outside [0, {K})")
    survivors = tuple(r for r in range(K) if r not in set(dead_t))
    if not survivors:
        raise TopologyError("no survivors to rebuild over")
    remapped = reassign_parts(partition, dead_t)
    # compact the surviving part ids into dense vid space
    lut = np.full(K, -1, dtype=np.int64)
    lut[list(survivors)] = np.arange(len(survivors), dtype=np.int64)
    vid_parts = lut[remapped.parts]
    assert (vid_parts >= 0).all()
    new_partition = Partition(vid_parts, len(survivors))
    return RecoveryPlan(
        old_K=K,
        dead=dead_t,
        survivors=survivors,
        partition=new_partition,
        vpt=VirtualProcessTopology(shrink_dim_sizes(len(survivors), n_dims)),
        requested_dims=int(n_dims),
    )
