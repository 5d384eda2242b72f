"""Core of the reproduction: the paper's primary contribution.

Virtual process topologies (Section 2), dimension-ordered
store-and-forward routing (Section 3), plan-level simulation of
Algorithm 1, closed-form analysis (Section 4) and VPT formation
(Section 5).
"""

from .bounds import (
    buffer_bound_words,
    direct_volume,
    expected_hops_uniform,
    forward_volume,
    loose_volume_bound,
    max_message_count_bound,
    uniform_forward_volume,
)
from .collective_baseline import bruck_plan, sparse_bruck_plan
from .dimensioning import (
    balanced_dim_sizes,
    ilog2,
    is_power_of_two,
    make_vpt,
    max_message_count,
    optimal_dim_sizes,
    skewed_dim_sizes,
    valid_dimensions,
)
from .mapping import (
    apply_mapping,
    average_hops,
    communication_matrix,
    locality_vpt_mapping,
    weighted_hop_volume,
)
from .pattern import CommPattern, PatternDelta, PatternStats
from .recovery import RecoveryPlan, build_recovery, shrink_dim_sizes
from .regularizer import Regularizer
from .plan import (
    CommPlan,
    PlanBuilder,
    StageSchedule,
    build_direct_plan,
    build_plan,
    plans_for_dimensions,
    repair_plan,
)
from .serialize import load_pattern, save_pattern
from .routing import Hop, holder_after_stage, holder_after_stage_array, route
from .stfw import (
    ExchangeResult,
    FaultPolicy,
    FTRankReport,
    recv_counts_from_plan,
    repair_side_tables,
    run_exchange,
    side_tables_from_plan,
    SideTables,
    stfw_process,
)
from .tradeoff import TradeoffPoint, recommend_dimension, tradeoff_curve
from .vpt import VirtualProcessTopology

__all__ = [
    "VirtualProcessTopology",
    "CommPattern",
    "PatternDelta",
    "PatternStats",
    "CommPlan",
    "PlanBuilder",
    "Regularizer",
    "StageSchedule",
    "repair_plan",
    "Hop",
    "build_plan",
    "build_direct_plan",
    "bruck_plan",
    "sparse_bruck_plan",
    "tradeoff_curve",
    "recommend_dimension",
    "TradeoffPoint",
    "save_pattern",
    "load_pattern",
    "plans_for_dimensions",
    "route",
    "holder_after_stage",
    "holder_after_stage_array",
    "stfw_process",
    "FaultPolicy",
    "recv_counts_from_plan",
    "SideTables",
    "side_tables_from_plan",
    "repair_side_tables",
    "run_exchange",
    "ExchangeResult",
    "FTRankReport",
    "locality_vpt_mapping",
    "apply_mapping",
    "communication_matrix",
    "average_hops",
    "weighted_hop_volume",
    "make_vpt",
    "optimal_dim_sizes",
    "balanced_dim_sizes",
    "skewed_dim_sizes",
    "valid_dimensions",
    "max_message_count",
    "is_power_of_two",
    "ilog2",
    "max_message_count_bound",
    "uniform_forward_volume",
    "forward_volume",
    "loose_volume_bound",
    "direct_volume",
    "buffer_bound_words",
    "expected_hops_uniform",
    "RecoveryPlan",
    "build_recovery",
    "shrink_dim_sizes",
]
