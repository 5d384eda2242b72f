"""The dense-collective alternative the paper argues against.

Section 1: *"using collectives under similar scenarios may not always
prove feasible in terms of efficiency."*  The natural collective for an
arbitrary P2P exchange is a personalized all-to-all realized with
Bruck's algorithm (Bruck et al. 1997, the paper's reference [4]):
``lg2 K`` rounds, round ``r`` sending to rank ``i + 2^r`` everything
whose remaining route has bit ``r`` set.

Bruck's round structure is exactly dimension-ordered store-and-forward
on the hypercube VPT — but *oblivious to sparsity*: classic
implementations exchange fixed-size blocks for every (source,
destination) pair, moving ``O(K/2)`` block slots per process per round
whether or not data exists.  This module builds that dense-Bruck plan
so it can be compared against STFW, quantifying the paper's feasibility
claim: identical message counts (``lg2 K``), wildly different volume on
sparse inputs.

``bruck_plan`` charges each round's messages with the *dense* block
count (every pair's slot travels, empty or not, sized by the pattern's
maximum message so the buffer layout is uniform, as in real dense
all-to-all); ``sparse_bruck_plan`` is the sparsity-aware variant — and
is, by construction, exactly ``build_plan`` on the hypercube VPT.
"""

from __future__ import annotations

import numpy as np

from ..errors import PlanError
from .dimensioning import ilog2, make_vpt
from .pattern import CommPattern
from .plan import CommPlan, StageSchedule, build_plan

__all__ = ["bruck_plan", "sparse_bruck_plan"]


def bruck_plan(pattern: CommPattern, *, block_words: int | None = None) -> CommPlan:
    """The dense personalized all-to-all (Bruck) plan for a pattern.

    Parameters
    ----------
    pattern:
        The sparse exchange the collective would be (ab)used for.
    block_words:
        Uniform per-pair block size; defaults to the pattern's maximum
        message size (the layout a dense ``MPI_Alltoall`` forces).

    Returns
    -------
    CommPlan
        ``lg2 K`` stages; in round ``r`` every process sends exactly one
        message of ``K/2 * block_words`` words to rank ``i + 2^r`` —
        independent of the pattern's sparsity.
    """
    K = pattern.K
    lg = ilog2(K)
    if block_words is None:
        block_words = int(pattern.size.max(initial=1))
    if block_words < 1:
        raise PlanError("block_words must be positive")

    vpt = make_vpt(K, max(lg, 1))
    ranks = np.arange(K, dtype=np.int64)
    slots_per_round = K // 2  # half the (rotated) blocks move each round
    words = np.full(K, slots_per_round * block_words, dtype=np.int64)
    nsub = np.full(K, slots_per_round, dtype=np.int64)
    # every round sends the same counts from every rank: one array each
    stages = [
        StageSchedule(stage=(1 << r, 2 << r), K=K, header_words=0, sender=ranks,
                      receiver=(ranks + (1 << r)) % K, nsub=nsub, payload_words=words)
        for r in range(lg)
    ]
    return CommPlan(
        vpt=vpt,
        pattern=pattern,
        stages=stages,
        header_words=0,
        forward_occupancy=np.full(
            (max(lg, 1), K), (K - 1) * block_words, dtype=np.int64
        ),
    )


def sparse_bruck_plan(pattern: CommPattern) -> CommPlan:
    """The sparsity-aware Bruck: store-and-forward on the hypercube VPT.

    Identical round structure and message-count bound (``lg2 K``), but
    only real data travels — i.e. exactly the paper's STFW at its
    highest dimension.
    """
    K = pattern.K
    return build_plan(pattern, make_vpt(K, ilog2(K)))
