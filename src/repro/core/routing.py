"""Dimension-ordered routing through the VPT — Section 3 of the paper.

A submessage from ``src`` to ``dst`` is routed like e-cube routing in a
hypercube: stages are visited in increasing dimension order and at
stage ``d`` the current holder forwards the submessage iff its
coordinate in dimension ``d`` differs from the destination's.  The
holder after stage ``d`` therefore has the destination's digits in
dimensions ``0..d`` and the source's digits in dimensions ``d+1..n-1``.

With the mixed-radix rank encoding (dimension 0 least significant) that
holder is computed *without unpacking coordinates*::

    holder_after(d) = src - src % W + dst % W,   W = k_0 * ... * k_d

which is what makes whole-system plan simulation a handful of
vectorized array operations per stage (:mod:`repro.core.plan`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import RoutingError
from .vpt import VirtualProcessTopology

__all__ = ["Hop", "route", "holder_after_stage", "holder_after_stage_array"]


@dataclass(frozen=True)
class Hop:
    """One forwarding step of a submessage.

    Attributes
    ----------
    stage:
        Communication stage (= dimension) in which the hop occurs.
    sender:
        Rank holding the submessage before the stage.
    receiver:
        Rank holding the submessage after the stage.
    """

    stage: int
    sender: int
    receiver: int


def holder_after_stage(vpt: VirtualProcessTopology, src: int, dst: int, stage: int) -> int:
    """Rank holding the ``src -> dst`` submessage after ``stage`` completes.

    ``stage == -1`` returns ``src`` (before any communication);
    ``stage == n - 1`` returns ``dst`` (delivery is complete after the
    last stage).
    """
    if not 0 <= src < vpt.K or not 0 <= dst < vpt.K:
        raise RoutingError(f"src={src} or dst={dst} outside [0, {vpt.K})")
    if not -1 <= stage < vpt.n:
        raise RoutingError(f"stage {stage} outside [-1, {vpt.n})")
    if stage == -1:
        return src
    w = vpt.weights[stage + 1]
    return src - src % w + dst % w


def holder_after_stage_array(
    vpt: VirtualProcessTopology, src: np.ndarray, dst: np.ndarray, stage: int
) -> np.ndarray:
    """Vectorized :func:`holder_after_stage` over paired rank arrays."""
    if not -1 <= stage < vpt.n:
        raise RoutingError(f"stage {stage} outside [-1, {vpt.n})")
    s = np.asarray(src, dtype=np.int64)
    t = np.asarray(dst, dtype=np.int64)
    if stage == -1:
        return s.copy()
    w = vpt.weights[stage + 1]
    return s - s % w + t % w


def route(vpt: VirtualProcessTopology, src: int, dst: int) -> list[Hop]:
    """The full dimension-ordered route of a ``src -> dst`` submessage.

    Returns one :class:`Hop` per stage in which the submessage is
    actually forwarded; the number of hops equals the Hamming distance
    between ``src`` and ``dst`` (Section 3).  An empty list means
    ``src == dst``.
    """
    hops: list[Hop] = []
    holder = src
    for d in range(vpt.n):
        nxt = holder_after_stage(vpt, src, dst, d)
        if nxt != holder:
            hops.append(Hop(stage=d, sender=holder, receiver=nxt))
            holder = nxt
    if holder != dst:  # pragma: no cover - defensive; cannot happen
        raise RoutingError(f"route from {src} did not reach {dst} (stopped at {holder})")
    return hops
