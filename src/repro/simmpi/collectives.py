"""Engine-native collective operations and request objects.

The emulator resolves a collective when *every* live rank has yielded
the same collective kind (a mismatch — some ranks in ``barrier``,
others in ``allreduce`` — is reported as a deadlock, exactly the hang a
real MPI program would produce).  Costs follow the standard tree /
pairwise estimates of Chan et al. 2007:

=============  =====================================================
collective     virtual-time charge (on top of clock alignment)
=============  =====================================================
barrier        ``alpha``
bcast          ``ceil(lg K) * (alpha + beta * words)``
allgather      ``ceil(lg K) * alpha + beta * total_words``
reduce         ``ceil(lg K) * (alpha + beta * words)``
allreduce      ``2 * ceil(lg K) * (alpha + beta * words)``
alltoall       ``(K - 1) * (alpha + beta * words)``
=============  =====================================================

``words`` always means the per-unit message size in 8-byte words (per
peer for ``alltoall``, per contribution elsewhere); see
:class:`repro.simmpi.runtime.Comm` for the convention.
"""

from __future__ import annotations

from typing import Any, Callable

from .message import ANY_SOURCE, ANY_TAG

__all__ = [
    "BarrierOp",
    "AllGatherOp",
    "AllReduceOp",
    "AllToAllOp",
    "BcastOp",
    "ReduceOp",
    "ShrinkOp",
    "RecvRequest",
    "SendRequest",
    "REDUCTIONS",
]

#: named reduction operators accepted by reduce/allreduce
REDUCTIONS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "max": lambda a, b: a if a >= b else b,
    "min": lambda a, b: a if a <= b else b,
    "prod": lambda a, b: a * b,
}


class BarrierOp:
    """All ranks wait; resumes with ``None``."""

    __slots__ = ()

    def describe(self) -> str:
        """Human-readable form for deadlock state dumps."""
        return "barrier"


class AllGatherOp:
    """Each rank contributes ``value``; resumes with the list of all."""

    __slots__ = ("value", "words")

    def __init__(self, value: Any, words: int):
        self.value = value
        self.words = words

    def describe(self) -> str:
        """Human-readable form for deadlock state dumps."""
        return f"allgather(words={self.words})"


class AllReduceOp:
    """Elementwise reduction over all ranks; resumes with the result."""

    __slots__ = ("value", "words", "op")

    def __init__(self, value: Any, words: int, op: str):
        self.value = value
        self.words = words
        self.op = op

    def describe(self) -> str:
        """Human-readable form for deadlock state dumps."""
        return f"allreduce(op={self.op}, words={self.words})"


class ReduceOp:
    """Reduction to ``root``; resumes with the result there, None elsewhere."""

    __slots__ = ("value", "words", "op", "root")

    def __init__(self, value: Any, words: int, op: str, root: int):
        self.value = value
        self.words = words
        self.op = op
        self.root = root

    def describe(self) -> str:
        """Human-readable form for deadlock state dumps."""
        return f"reduce(op={self.op}, root={self.root}, words={self.words})"


class AllToAllOp:
    """Each rank contributes a length-K list; resumes with its column.

    ``words`` is the charged size of each per-peer value.
    """

    __slots__ = ("values", "words")

    def __init__(self, values: list, words: int):
        self.values = values
        self.words = words

    def describe(self) -> str:
        """Human-readable form for deadlock state dumps."""
        return f"alltoall(words={self.words})"


class BcastOp:
    """Root's ``value`` is distributed; resumes with it everywhere."""

    __slots__ = ("value", "words", "root")

    def __init__(self, value: Any, words: int, root: int):
        self.value = value
        self.words = words
        self.root = root

    def describe(self) -> str:
        """Human-readable form for deadlock state dumps."""
        return f"bcast(root={self.root}, words={self.words})"


class ShrinkOp:
    """Revoke-and-agree shrink; resumes with the agreed dead-rank tuple.

    Unlike the other collectives, a shrink completes over the *live*
    ranks only: survivors align clocks, agree on the set of crashed
    ranks, and have their mailboxes purged (every in-flight message
    from before the agreement is revoked).  After a shrink, ordinary
    collectives complete over the survivor set.
    """

    __slots__ = ()

    def describe(self) -> str:
        """Human-readable form for deadlock state dumps."""
        return "shrink"


class SendRequest:
    """Completed-at-creation request returned by ``Comm.isend``.

    Sends are eager in the emulator, so the request is born complete;
    ``wait()`` yields nothing and exists for MPI-shaped code.
    """

    __slots__ = ()

    def test(self) -> bool:
        """Always true: eager sends complete immediately."""
        return True


class RecvRequest:
    """Deferred receive returned by ``Comm.irecv`` / ``Comm.recv``.

    Yield the request itself (or the op from :meth:`wait`) to complete
    it; the generator resumes with ``(source, tag, payload)``.  A
    ``timeout_us`` makes the receive resumable by a virtual-time timer:
    if no matching message arrives within that many microseconds of
    blocking, the generator resumes with the
    :data:`~repro.simmpi.message.TIMEOUT` sentinel instead.  ``deadline``
    is the absolute expiry time, filled in by the engine at block time.
    """

    __slots__ = ("source", "tag", "timeout_us", "deadline")

    def __init__(self, source: int, tag: int, timeout_us: float | None = None):
        self.source = source
        self.tag = tag
        self.timeout_us = timeout_us
        self.deadline: float | None = None

    def describe(self) -> str:
        """Human-readable form for deadlock state dumps."""
        src = "ANY_SOURCE" if self.source == ANY_SOURCE else self.source
        tag = "ANY_TAG" if self.tag == ANY_TAG else self.tag
        base = f"recv(source={src}, tag={tag}"
        if self.timeout_us is not None:
            base += f", timeout_us={self.timeout_us}"
        return base + ")"
