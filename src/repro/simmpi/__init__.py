"""Deterministic discrete-event MPI emulator (the library's MPI substrate)."""

from .checkpoint import HEARTBEAT_TAG, CheckpointStore, RankCheckpoint, heartbeat_round
from .discovery import DISCOVERY_TAG, DiscoveryStats, nbx_discover
from .engine import engine_names, resolve_engine
from .faults import FaultEvent, FaultPlan, LinkOutage
from .integrity import corrupt_draw, flip_array, flip_payload, payload_checksum
from .message import ANY_SOURCE, ANY_TAG, TIMEOUT, RunResult, TraceRecord
from .policy import ESCALATION_LADDER, CircuitBreaker, EscalationPolicy, PolicyConfig
from .reliable import ReliableComm, ReliableStats, retry_jitter
from .runtime import AllReduceOp, Comm, RecvOp, ShrinkOp, SimMPI, run_spmd

__all__ = [
    "SimMPI",
    "Comm",
    "run_spmd",
    "engine_names",
    "resolve_engine",
    "RunResult",
    "TraceRecord",
    "ANY_SOURCE",
    "ANY_TAG",
    "TIMEOUT",
    "FaultPlan",
    "FaultEvent",
    "LinkOutage",
    "ReliableComm",
    "ReliableStats",
    "retry_jitter",
    "payload_checksum",
    "corrupt_draw",
    "flip_array",
    "flip_payload",
    "ESCALATION_LADDER",
    "PolicyConfig",
    "CircuitBreaker",
    "EscalationPolicy",
    "DISCOVERY_TAG",
    "DiscoveryStats",
    "nbx_discover",
    "RecvOp",
    "AllReduceOp",
    "ShrinkOp",
    "CheckpointStore",
    "RankCheckpoint",
    "heartbeat_round",
    "HEARTBEAT_TAG",
]
