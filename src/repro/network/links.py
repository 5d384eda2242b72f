"""Link-level congestion analysis and timing.

The default timing model (:func:`repro.network.timing.time_plan`) is
single-port: it sees each process's NIC but not the shared links
inside the network.  This module routes every physical message over
the modeled topology's links — dimension-ordered minimal routing on the
torus, minimal (local, global, local) routing on the dragonfly — and
accumulates per-link word loads, giving:

* :func:`link_loads` — the per-link traffic of one stage,
* :func:`congestion_summary` — hot-link statistics (max/mean load),
* :func:`time_plan_links` — a stage time that is the *larger* of the
  port model's time and the hottest link's drain time
  ``max_link_words * beta``.

Routing detail matters most for bandwidth-heavy, low-dimension
configurations on tori, where many messages funnel through the same
few links; the dragonfly's all-to-all groups spread load much more
evenly — one more reason the paper's dimension choice depends on the
physical network.

Link keys
---------
Torus: ``(node, dim, direction)`` — the directed link leaving ``node``
along ``dim`` (+1 or -1 with wraparound).  Dragonfly: terminal links
``("t", node)``, local links ``("l", router_a, router_b)`` (ordered
pair) and global links ``("g", group_a, group_b)`` (ordered pair).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..core.plan import CommPlan
from ..errors import NetworkModelError
from .dragonfly import DragonflyTopology
from .machines import Machine
from .mapping import placement
from .model import FlatTopology, Topology
from .timing import CommTiming, StageTiming, time_plan
from .torus import TorusTopology

__all__ = ["torus_route_links", "dragonfly_route_links", "link_loads",
           "congestion_summary", "time_plan_links", "CongestionSummary"]


def torus_route_links(topo: TorusTopology, a: int, b: int) -> list[tuple]:
    """Directed links of the dimension-ordered minimal route ``a -> b``."""
    if not (0 <= a < topo.num_nodes and 0 <= b < topo.num_nodes):
        raise NetworkModelError("node outside torus")
    links: list[tuple] = []
    coords = list(topo.coords(a))
    target = topo.coords(b)
    for dim, k in enumerate(topo.dims):
        ca, cb = coords[dim], target[dim]
        if ca == cb:
            continue
        forward = (cb - ca) % k
        backward = (ca - cb) % k
        step = 1 if forward <= backward else -1
        while coords[dim] != cb:
            node = 0
            for d in range(len(coords) - 1, -1, -1):
                node = node * topo.dims[d] + coords[d]
            links.append((node, dim, step))
            coords[dim] = (coords[dim] + step) % k
    return links


def dragonfly_route_links(topo: DragonflyTopology, a: int, b: int) -> list[tuple]:
    """Links of the minimal dragonfly route ``a -> b``."""
    if not (0 <= a < topo.num_nodes and 0 <= b < topo.num_nodes):
        raise NetworkModelError("node outside dragonfly")
    if a == b:
        return []
    ra, rb = topo.router_of(a), topo.router_of(b)
    links: list[tuple] = [("t", a)]
    if ra != rb:
        ga, gb = topo.group_of(a), topo.group_of(b)
        if ga == gb:
            links.append(("l", ra, rb))
        else:
            links.append(("g", ga, gb))
    links.append(("t", b))
    return links


def _route_links(topo: Topology, a: int, b: int) -> list[tuple]:
    if isinstance(topo, TorusTopology):
        return torus_route_links(topo, a, b)
    if isinstance(topo, DragonflyTopology):
        return dragonfly_route_links(topo, a, b)
    if isinstance(topo, FlatTopology):
        return [] if a == b else [("flat", a, b)]
    raise NetworkModelError(f"no link router for topology {type(topo).__name__}")


def link_loads(
    stage,
    topo: Topology,
    mapping: np.ndarray,
) -> Counter:
    """Words carried by each link during one stage."""
    loads: Counter = Counter()
    for s, r, w in zip(stage.sender, stage.receiver, stage.total_words):
        na, nb = int(mapping[s]), int(mapping[r])
        if na == nb:
            continue
        for link in _route_links(topo, na, nb):
            loads[link] += int(w)
    return loads


@dataclass(frozen=True)
class CongestionSummary:
    """Hot-link statistics of one stage."""

    stage: int
    num_links: int
    max_load: int
    mean_load: float

    @property
    def imbalance(self) -> float:
        """max / mean link load (1.0 = perfectly even)."""
        return self.max_load / self.mean_load if self.mean_load > 0 else 0.0


def congestion_summary(
    plan: CommPlan, machine: Machine, *, mapping: np.ndarray | None = None
) -> list[CongestionSummary]:
    """Per-stage hot-link statistics of a plan on a machine."""
    topo, mapping = placement(machine, plan.K, mapping)
    out = []
    for d, st in enumerate(plan.stages):
        loads = link_loads(st, topo, mapping)
        if loads:
            vals = list(loads.values())
            out.append(
                CongestionSummary(
                    stage=d,
                    num_links=len(vals),
                    max_load=max(vals),
                    mean_load=sum(vals) / len(vals),
                )
            )
        else:
            out.append(CongestionSummary(stage=d, num_links=0,
                                         max_load=0, mean_load=0.0))
    return out


def time_plan_links(
    plan: CommPlan,
    machine: Machine,
    *,
    mapping: np.ndarray | None = None,
    stage_sync: bool = True,
) -> CommTiming:
    """Stage times under the link-congestion model.

    Each stage's time is the larger of the single-port model's time
    and the hottest link's drain time ``max_link_words * beta`` — a
    message cannot finish before its most congested link has carried
    everything scheduled over it.
    """
    port = time_plan(plan, machine, mapping=mapping, stage_sync=stage_sync)
    topo, mapping = placement(machine, plan.K, mapping)

    beta = machine.beta_us_per_word
    stages: list[StageTiming] = []
    total = 0.0
    for st, pt in zip(plan.stages, port.stages):
        loads = link_loads(st, topo, mapping)
        drain = beta * max(loads.values()) if loads else 0.0
        t = max(pt.time_us, drain)
        stages.append(
            StageTiming(
                stage=pt.stage,
                time_us=t,
                max_send_us=pt.max_send_us,
                max_recv_us=pt.max_recv_us,
                bottleneck_rank=pt.bottleneck_rank,
            )
        )
        total += t
    return CommTiming(machine=machine.name, total_us=total, stages=tuple(stages))
