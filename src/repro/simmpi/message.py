"""Messages, the indexed mailbox, and trace records of the simulated MPI runtime.

A message in flight is **one plain tuple**, the *envelope* (built by the
engine as a tuple display, by :func:`Envelope` elsewhere; read by index)::

    (arrive_time, source, seq, tag, words, send_time, payload, dest)
     0            1       2    3    4      5          6        7

It is ordered so that the envelope *is* its own wildcard key: envelopes
compare by ``(arrive_time, source, seq)`` — ``seq`` being the
**sender-side** send sequence number, unique per ``(source, dest)``, so
a comparison never reaches the payload.  The key depends only on *what
was sent*, never on the order the engine discovered it, so wildcard
matching is a function of the messages alone even at exact
arrival-time ties.  It must stay an exact ``tuple`` (a ``NamedTuple`` or
any subclass stays tracked): CPython's cyclic collector stops tracking
an exact tuple whose items are all untracked, one level of nesting per
pass that sees it, so messages with array or atomic payloads cost the
collector nothing and its old generations hold per-rank state only.

:class:`Mailbox` is the per-rank store the event-driven engine matches
receives against.  It has **one index**: a heap per tag, holding the
envelopes themselves, so ``recv(ANY_SOURCE, tag=t)`` — the receive
every part of the system issues, the store-and-forward stage loop's
included — is one heap top, and a post is one ``heappush``.  A wildcard
receive matches the waiting envelope with the **earliest virtual
arrival time**, ties broken by sender rank and then sender program
order.  The flavours only tests use (``recv(s, t)``,
``recv(s, ANY_TAG)``, ``recv()``) scan the waiting mail for the smallest
matching ``(arrive_time, source, seq)``.  For ``recv(s, t)`` that is
still FIFO per channel: a sender's clock is monotone and its ``seq``
increases, so one source's envelopes arrive in the order they were sent.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from heapq import heapify, heappop, heappush
from typing import Any

import numpy as np

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "TIMEOUT",
    "Envelope",
    "Mailbox",
    "RunResult",
    "TraceRecord",
]

#: wildcard source for :meth:`Comm.recv`
ANY_SOURCE = -1
#: wildcard tag for :meth:`Comm.recv`
ANY_TAG = -1


class _Timeout:
    """Singleton resume value of a receive whose deadline expired."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "TIMEOUT"

    def __bool__(self) -> bool:
        return False


#: the value a ``recv(..., timeout_us=...)`` resumes with when its
#: deadline fires before a matching message arrives; test with ``is``
TIMEOUT = _Timeout()


def Envelope(
    source: int, dest: int, tag: int, payload: Any, words: int,
    send_time: float = 0.0, arrive_time: float = 0.0, seq: int = 0,
) -> tuple:
    """The envelope tuple of an in-flight message (layout: module docstring).

    ``words`` is the charged size in 8-byte words (independent of the
    Python payload object, so tests can exercise the cost model with
    symbolic payloads).  ``send_time``/``arrive_time`` are virtual
    microseconds on the sender's/receiver's clock; ``seq`` is identical
    across engine backends.
    """
    return (arrive_time, source, seq, tag, words, send_time, payload, dest)


class Mailbox:
    """Per-rank message store: one arrival heap per tag (see the module docstring).

    From :meth:`post` until the receive that takes it, an envelope sits
    in exactly one place, the heap of its tag, so a delivered message
    leaves nothing behind: an idle mailbox has ``len() == 0`` and empty
    heaps.
    """

    __slots__ = ("_heaps", "_len")

    def __init__(self) -> None:
        #: tag -> heap of the waiting envelopes with that tag; a tag's
        #: heap is kept, empty, once it has held mail
        self._heaps: dict[int, list[tuple]] = {}
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def post(self, env: tuple) -> None:
        """File one envelope in the heap of its tag."""
        heap = self._heaps.get(env[3])
        if heap is None:
            heap = self._heaps[env[3]] = []
        heappush(heap, env)
        self._len += 1

    def match(
        self,
        source: int,
        tag: int,
        before: float | None = None,
        horizon: float | None = None,
    ) -> tuple | None:
        """Remove and return the envelope a ``recv(source, tag)`` should receive.

        Every flavour takes the matching envelope with the earliest
        ``arrive_time``, ties broken by sender rank then sender program
        order; per ``(source, tag)`` that is FIFO.  Returns ``None`` when
        nothing matches.

        ``before`` bounds the match by virtual arrival time: an
        envelope with ``arrive_time > before`` is *left in place* and
        ``None`` is returned, so a timed receive whose deadline has
        passed cannot consume a message that had not yet arrived — it
        stays matchable by a later receive.  ``horizon`` is the
        *strict* variant used by conservative wildcard matching: an
        envelope with ``arrive_time >= horizon`` is left in place,
        because an envelope arriving exactly at the horizon may still
        be preempted by a not-yet-seen message arriving at the same
        instant.  Only the earliest candidate is checked, which is exact.
        """
        heap, i = self._find(source, tag)
        if heap is None:
            return None
        env = heap[i]
        if (before is not None and env[0] > before) or (
            horizon is not None and env[0] >= horizon
        ):
            return None
        if i:
            heap[i] = heap[-1]
            heap.pop()
            heapify(heap)
        else:
            heappop(heap)
        self._len -= 1
        return env

    def peek_arrival(
        self, source: int, tag: int, before: float | None = None
    ) -> float | None:
        """Arrival time of the envelope :meth:`match` would return.

        Nothing is consumed.  Conservative engines call this where a
        rank blocks, to learn its time floor: the earliest instant at
        which the rank could possibly resume (and therefore send again).
        """
        heap, i = self._find(source, tag)
        if heap is None or (before is not None and heap[i][0] > before):
            return None
        return heap[i][0]

    def _find(self, source: int, tag: int) -> tuple[list[tuple] | None, int]:
        """The heap and index of the earliest envelope matching ``recv(source, tag)``."""
        if source == ANY_SOURCE and tag != ANY_TAG:
            heap = self._heaps.get(tag)
            return (heap, 0) if heap else (None, 0)
        found, at, best = None, 0, None
        for heap in self._heaps.values() if tag == ANY_TAG else (self._heaps.get(tag, ()),):
            for i, env in enumerate(heap):
                # (source, seq) is unique, so the comparison stops before the payload
                if (source == ANY_SOURCE or env[1] == source) and (best is None or env < best):
                    found, at, best = heap, i, env
        return found, at

    def purge(self) -> int:
        """Drop every unconsumed envelope (a shrink's revoke step).

        Returns the number of envelopes discarded; the heaps are reset,
        so nothing keeps a reference to them.
        """
        dropped = self._len
        self._heaps.clear()
        self._len = 0
        return dropped


@dataclass(frozen=True)
class TraceRecord:
    """One delivered message, recorded when tracing is enabled."""

    source: int
    dest: int
    tag: int
    words: int
    send_time: float
    arrive_time: float


@dataclass(eq=False)
class RunResult:
    """Outcome of an SPMD run.

    Attributes
    ----------
    returns:
        Per-rank return value of the process function (``None`` for a
        rank killed by fault injection).
    clocks:
        Final virtual clock of each rank in microseconds: a read-only
        float64 array (the batch engine's repeat runs share one; use
        ``.tolist()`` for a list).
    makespan_us:
        Maximum final clock — the run's virtual wall time.
    trace:
        Delivered-message records (empty unless tracing was on).
    crashed:
        Ranks killed by the run's fault plan, in crash order.
    fault_events:
        Injected-fault log (:class:`~repro.simmpi.faults.FaultEvent`);
        empty when no fault fired, so a run under a trivial plan
        compares equal to one with no plan at all.
    engine_stats:
        Deterministic counts of the engine's own bookkeeping (quiescent
        rounds, wakes, match attempts, ... — see
        :data:`repro.simmpi.runtime.ENGINE_STATS`).  Excluded from
        equality, so results still compare equal across backends; empty
        for the batch engine, which has no event loop.

    Two results are ``==`` when every field but ``engine_stats`` is;
    ``clocks`` compare by ``np.array_equal``, so they never make ``==``
    raise, whatever their lengths.  Two delivery sequences (per rank a
    list of ``(origin, payload)`` pairs: an exchange's event ``returns``,
    or a batch :class:`~repro.simmpi.batch.Deliveries`) compare pair by
    pair, array payloads by dtype and ``np.array_equal``.
    """

    returns: list[Any]
    clocks: np.ndarray
    makespan_us: float
    trace: list[TraceRecord] = field(default_factory=list)
    crashed: list[int] = field(default_factory=list)
    fault_events: list = field(default_factory=list)
    engine_stats: dict = field(default_factory=dict, compare=False)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = [f.name for f in fields(self) if f.compare and f.name not in ("clocks", "returns")]
        return (
            np.array_equal(self.clocks, other.clocks)
            and _same_returns(self.returns, other.returns)
            and [getattr(self, n) for n in names] == [getattr(other, n) for n in names]
        )


def _is_deliveries(returns) -> bool:
    """Per rank a list of ``(origin, payload)`` pairs, or ``None`` (the rank returned nothing)."""
    return isinstance(returns, Sequence) and all(
        r is None or isinstance(r, list) and all(type(m) is tuple and len(m) == 2 for m in r)
        for r in returns
    )


def _same_returns(a, b) -> bool:
    if not (_is_deliveries(a) and _is_deliveries(b)):
        return a == b
    return len(a) == len(b) and all(
        x == y if x is None or y is None else len(x) == len(y) and all(map(_same_pair, x, y))
        for x, y in zip(a, b)
    )


def _same_pair(x: tuple, y: tuple) -> bool:
    (o, p), (q, r) = x, y
    if isinstance(p, np.ndarray) or isinstance(r, np.ndarray):
        arrays = isinstance(p, np.ndarray) and isinstance(r, np.ndarray)
        return o == q and arrays and p.dtype == r.dtype and np.array_equal(p, r)
    return o == q and bool(p == r)
