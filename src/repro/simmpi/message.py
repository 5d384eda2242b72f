"""Messages, the indexed mailbox, and trace records of the simulated MPI runtime.

Besides the plain data records (:class:`Envelope`, :class:`TraceRecord`,
:class:`RunResult`) this module owns :class:`Mailbox` — the per-rank
message store the event-driven engine matches receives against.  Its
indexes make a ``recv`` complete in O(log n) regardless of how many
unrelated messages are queued:

* a ``(source, tag) -> channel slot`` map for fully-specified receives
  (per source, posting order equals virtual arrival order, so a plain
  FIFO is already arrival-ordered);
* a per-source heap for ``recv(source=s, tag=ANY_TAG)``;
* a per-tag heap for ``recv(source=ANY_SOURCE, tag=t)`` (the hot path
  of the store-and-forward stage loop);
* a global heap for ``recv(ANY_SOURCE, ANY_TAG)``.

All heaps are keyed by ``(arrive_time, source, seq)`` — ``seq`` being
the **sender-side** send sequence number — which gives the engine its
documented wildcard guarantee: a wildcard receive matches the waiting
envelope with the **earliest virtual arrival time**, ties broken by
sender rank and then sender program order.  The key depends only on
*what was sent*, never on the order the engine discovered it, so the
serial and sharded backends match wildcards identically even at exact
arrival-time ties.  An in-flight message owns a constant number of small
objects (the envelope, its key and one entry per active heap) and a
receive releases them; see :class:`Mailbox` for the ownership and
lazy-invalidation rules.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any

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


@dataclass(slots=True)
class Envelope:
    """An in-flight message inside the engine.

    ``words`` is the charged size in 8-byte words (independent of the
    Python payload object, so tests can exercise the cost model with
    symbolic payloads).  ``send_time``/``arrive_time`` are virtual
    microseconds on the sender's/receiver's clock.  ``seq`` is the
    sender's send sequence number — unique per ``(source, dest)`` and
    identical across engine backends, which makes the wildcard
    tie-break key ``(arrive_time, source, seq)`` canonical.
    ``consumed`` flips when a receive matches the envelope; an entry for
    it left in another wildcard index is recognised by it and discarded.
    """

    source: int
    dest: int
    tag: int
    payload: Any
    words: int
    send_time: float = 0.0
    arrive_time: float = 0.0
    seq: int = 0
    consumed: bool = field(default=False, compare=False, repr=False)


class Mailbox:
    """Per-rank message store with indexed, arrival-ordered matching.

    **Who owns an envelope when.**  From :meth:`post` until the receive
    that takes it, an envelope is owned by its ``(source, tag)``
    *channel slot* in the by-key index: the bare envelope while it is
    the only one in flight on that channel (the common case — no
    container is allocated for it), a FIFO ``deque`` once a second one
    arrives.  :meth:`match` releases the slot whichever flavour of
    receive took the envelope, so a delivered message leaves nothing
    behind: an idle mailbox has ``len() == 0`` and an empty index.
    Because a sender's clock is monotone, the head of a channel is also
    the earliest envelope of that channel in every arrival-ordered
    index, so "remove the channel head" is always the right release.

    The three wildcard heap indexes are **activated lazily**, per
    flavour, the first time a matching wildcard receive runs — a rank
    that only ever posts fully specified receives (or only
    ``recv(tag=d)``, the STFW stage loop) never pays for indexes it does
    not use.  Once a heap exists it is kept current by subsequent posts.
    **Lazy-invalidation rule:** the index a receive matched through
    drops its entry at once; an entry for the same envelope in *another*
    active index (mixed receive flavours on one mailbox) is marked by
    ``Envelope.consumed`` and discarded when it reaches the top of that
    heap.
    """

    __slots__ = ("_by_key", "_src_heaps", "_tag_heaps", "_any_heap", "_wild", "_len")

    def __init__(self) -> None:
        self._by_key: dict[tuple[int, int], Envelope | deque[Envelope]] = {}
        #: lazily-activated wildcard indexes; a missing entry means no
        #: wildcard receive of that flavor has run yet
        self._src_heaps: dict[int, list[tuple[float, int, int, Envelope]]] = {}
        self._tag_heaps: dict[int, list[tuple[float, int, int, Envelope]]] = {}
        self._any_heap: list[tuple[float, int, int, Envelope]] | None = None
        #: True once any wildcard index is active — one flag check in
        #: post() instead of three container probes
        self._wild = False
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def post(self, env: Envelope) -> None:
        """File one envelope; updates whichever indexes are active."""
        key = (env.source, env.tag)
        slot = self._by_key.get(key)
        if slot is None:
            self._by_key[key] = env
        elif slot.__class__ is deque:
            slot.append(env)
        else:
            self._by_key[key] = deque((slot, env))
        if self._wild:
            entry = (env.arrive_time, env.source, env.seq, env)
            heap = self._tag_heaps.get(env.tag)
            if heap is not None:
                heappush(heap, entry)
            if self._src_heaps:
                heap = self._src_heaps.get(env.source)
                if heap is not None:
                    heappush(heap, entry)
            if self._any_heap is not None:
                heappush(self._any_heap, entry)
        self._len += 1

    def match(
        self,
        source: int,
        tag: int,
        before: float | None = None,
        horizon: float | None = None,
    ) -> Envelope | None:
        """Remove and return the envelope a ``recv(source, tag)`` should receive.

        Fully-specified receives are FIFO per (source, tag); wildcard
        receives take the earliest ``arrive_time`` among the matching
        envelopes, ties broken by sender rank then sender program
        order.  Returns ``None`` when nothing matches.

        ``before`` bounds the match by virtual arrival time: an
        envelope with ``arrive_time > before`` is *left in place* and
        ``None`` is returned, so a timed receive whose deadline has
        passed cannot consume a message that had not yet arrived — it
        stays matchable by a later receive.  ``horizon`` is the
        *strict* variant used by conservative wildcard matching: an
        envelope with ``arrive_time >= horizon`` is left in place,
        because an envelope arriving exactly at the horizon may still
        be preempted by a not-yet-seen message arriving at the same
        instant.  Candidates are arrival-ordered in every index, so
        checking only the head is exact.
        """
        heap = None
        if source != ANY_SOURCE and tag != ANY_TAG:
            slot = self._by_key.get((source, tag))
            if slot is None:
                return None
            env = slot[0] if slot.__class__ is deque else slot
        else:
            heap = self._heap(source, tag)
            if not heap:
                return None
            env = heap[0][3]
        if (before is not None and env.arrive_time > before) or (
            horizon is not None and env.arrive_time >= horizon
        ):
            return None
        if heap is not None:
            heappop(heap)
        key = (env.source, env.tag)
        slot = self._by_key[key]
        if slot is env:
            del self._by_key[key]
        else:
            slot.popleft()
            if not slot:
                del self._by_key[key]
        env.consumed = True
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
        if source != ANY_SOURCE and tag != ANY_TAG:
            slot = self._by_key.get((source, tag))
            if slot is None:
                return None
            env = slot[0] if slot.__class__ is deque else slot
        else:
            heap = self._heap(source, tag)
            if not heap:
                return None
            env = heap[0][3]
        if before is not None and env.arrive_time > before:
            return None
        return env.arrive_time

    def _heap(self, source: int, tag: int) -> list[tuple[float, int, int, Envelope]]:
        """The arrival heap of one wildcard flavour, a live entry on top.

        Built (backfilled from the channel slots) on first use; entries
        consumed through another index are discarded here.
        """
        if source != ANY_SOURCE:
            heap = self._src_heaps.get(source)
            if heap is None:
                heap = self._src_heaps[source] = self._build_heap(lambda s, t: s == source)
        elif tag != ANY_TAG:
            heap = self._tag_heaps.get(tag)
            if heap is None:
                heap = self._tag_heaps[tag] = self._build_heap(lambda s, t: t == tag)
        else:
            heap = self._any_heap
            if heap is None:
                heap = self._any_heap = self._build_heap(lambda s, t: True)
        while heap and heap[0][3].consumed:
            heappop(heap)
        return heap

    def _build_heap(self, want) -> list[tuple[float, int, int, Envelope]]:
        """Activate a wildcard index: backfill from the channel slots."""
        self._wild = True
        heap = [
            (env.arrive_time, env.source, env.seq, env)
            for (s, t), slot in self._by_key.items()
            if want(s, t)
            for env in (slot if slot.__class__ is deque else (slot,))
        ]
        heapify(heap)
        return heap

    def purge(self) -> int:
        """Drop every unconsumed envelope (a shrink's revoke step).

        Returns the number of envelopes discarded; every index is reset,
        so nothing keeps a reference to them.
        """
        dropped = self._len
        self._by_key.clear()
        self._src_heaps.clear()
        self._tag_heaps.clear()
        self._any_heap = None
        self._wild = False
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


@dataclass
class RunResult:
    """Outcome of an SPMD run.

    Attributes
    ----------
    returns:
        Per-rank return value of the process function (``None`` for a
        rank killed by fault injection).
    clocks:
        Final virtual clock of each rank in microseconds.
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
    """

    returns: list[Any]
    clocks: list[float]
    makespan_us: float
    trace: list[TraceRecord] = field(default_factory=list)
    crashed: list[int] = field(default_factory=list)
    fault_events: list = field(default_factory=list)
    engine_stats: dict = field(default_factory=dict, compare=False)
