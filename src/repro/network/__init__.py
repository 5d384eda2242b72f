"""Physical network models: topologies, machine presets, plan timing."""

from .dragonfly import DragonflyTopology
from .links import (
    CongestionSummary,
    congestion_summary,
    dragonfly_route_links,
    link_loads,
    time_plan_links,
    torus_route_links,
)
from .machines import BGQ, CRAY_XC40, CRAY_XK7, MACHINES, Machine
from .mapping import block_mapping, placement, random_mapping, round_robin_mapping, validate_mapping
from .model import FlatTopology, Topology
from .timing import CommTiming, StageTiming, spmv_compute_time, time_plan
from .torus import TorusTopology, fit_torus_dims

__all__ = [
    "Topology",
    "FlatTopology",
    "TorusTopology",
    "DragonflyTopology",
    "fit_torus_dims",
    "Machine",
    "BGQ",
    "CRAY_XC40",
    "CRAY_XK7",
    "MACHINES",
    "block_mapping",
    "round_robin_mapping",
    "random_mapping",
    "validate_mapping",
    "placement",
    "time_plan",
    "CommTiming",
    "StageTiming",
    "spmv_compute_time",
    "time_plan_links",
    "link_loads",
    "congestion_summary",
    "CongestionSummary",
    "torus_route_links",
    "dragonfly_route_links",
]
