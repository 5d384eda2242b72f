"""Exception hierarchy for :mod:`repro`.

Every error raised deliberately by the library derives from
:class:`ReproError` so that callers can catch library failures without
masking genuine programming errors (``TypeError`` and friends still
propagate unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "ReproError",
    "TopologyError",
    "RoutingError",
    "PlanError",
    "SimMPIError",
    "DeadlockError",
    "FaultError",
    "RecoveryError",
    "PendingOp",
    "format_pending",
    "NetworkModelError",
    "PartitionError",
    "MatrixGenerationError",
    "ExperimentError",
    "MetricsError",
    "ObsError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class TopologyError(ReproError):
    """Invalid virtual process topology specification or query."""


class RoutingError(ReproError):
    """A route query referenced ranks outside the topology."""


class PlanError(ReproError):
    """Malformed communication-plan input (bad send sets, sizes, ...)."""


class SimMPIError(ReproError):
    """Generic failure inside the simulated MPI runtime."""


@dataclass(frozen=True)
class PendingOp:
    """Machine-readable description of one blocked rank in a deadlock dump.

    ``kind`` is the blocking operation (``"recv"``, ``"allreduce"`` or
    ``"shrink"``); ``source``/``tag`` are only meaningful for
    receives (``None`` otherwise, with wildcards reported as ``-1``).
    ``mailbox`` is the number of unconsumed envelopes waiting at the
    rank — a non-empty mailbox on a blocked receive usually means a
    tag/source mismatch rather than a missing send.  ``detail`` is the
    engine's pre-rendered description of the blocking op (excluded from
    equality so tests can compare against hand-built instances).
    """

    rank: int
    kind: str
    source: int | None = None
    tag: int | None = None
    mailbox: int = 0
    detail: str | None = field(default=None, compare=False)


def format_pending(pending: Sequence[PendingOp]) -> str:
    """Render blocked-rank state as the standard per-rank dump lines.

    One ``  rank R: blocked on <op>`` line per entry, used by both the
    deadlock report and recovery-abort messages so the two read
    identically.  Entries carrying the engine's ``detail`` string are
    printed verbatim; hand-built entries fall back to a reconstruction
    from the structured fields.
    """
    lines = []
    for p in pending:
        if p.detail is not None:
            desc = p.detail
        elif p.kind == "recv":
            src = "ANY_SOURCE" if p.source in (None, -1) else p.source
            tag = "ANY_TAG" if p.tag in (None, -1) else p.tag
            desc = f"recv(source={src}, tag={tag}), mailbox={p.mailbox}"
        elif p.kind == "runnable":
            desc = "nothing (runnable?)"
        else:
            desc = p.kind
        lines.append(f"  rank {p.rank}: blocked on {desc}")
    return "\n".join(lines)


class DeadlockError(SimMPIError):
    """All virtual processes are blocked and no message is in flight.

    Besides the formatted per-rank dump in ``args[0]``, the exception
    carries structured state so tests and resilience reports can assert
    on it without string parsing:

    ``pending``
        one :class:`PendingOp` per blocked rank;
    ``crashed``
        ranks killed by fault injection before the deadlock;
    ``clocks``
        every rank's virtual clock (microseconds) at detection time.
    """

    def __init__(
        self,
        message: str,
        *,
        pending: Sequence[PendingOp] = (),
        crashed: Sequence[int] = (),
        clocks: Sequence[float] = (),
    ):
        super().__init__(message)
        self.pending = tuple(pending)
        self.crashed = tuple(crashed)
        self.clocks = tuple(clocks)


class FaultError(SimMPIError):
    """Reliable delivery gave up: retries exhausted without an ack.

    Carries the structured context of the failed transfer: ``rank``
    (the sender), ``dest``, ``tag`` (the logical tag) and ``attempts``.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: int | None = None,
        dest: int | None = None,
        tag: int | None = None,
        attempts: int | None = None,
    ):
        super().__init__(message)
        self.rank = rank
        self.dest = dest
        self.tag = tag
        self.attempts = attempts


class RecoveryError(SimMPIError):
    """Shrink-recovery could not restore a consistent run state.

    Raised when an iterative run cannot continue past a failure: no
    complete checkpoint exists to roll back to, no survivors remain, or
    repeated retry rounds made no progress.  ``dead`` is the agreed
    dead set at abort time, ``iteration`` the iteration the aborting
    rank had reached, and ``pending`` any blocked-rank state inherited
    from an underlying deadlock (formatted with :func:`format_pending`).
    """

    def __init__(
        self,
        message: str,
        *,
        dead: Sequence[int] = (),
        iteration: int | None = None,
        pending: Sequence[PendingOp] = (),
    ):
        super().__init__(message)
        self.dead = tuple(dead)
        self.iteration = iteration
        self.pending = tuple(pending)


class NetworkModelError(ReproError):
    """Invalid network-model parameters or rank mapping."""


class PartitionError(ReproError):
    """Invalid partition vector or partitioning request."""


class MatrixGenerationError(ReproError):
    """A synthetic matrix could not be generated to specification."""


class ExperimentError(ReproError):
    """An experiment configuration is inconsistent."""


class MetricsError(ReproError):
    """Invalid metrics request (e.g. an unknown scheme label)."""


class ObsError(ReproError):
    """Invalid tracing input or a malformed trace export."""
