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
receives against, in O(log n) however many unrelated messages wait:

* a ``(source, tag) -> channel slot`` map for fully-specified receives
  (per source, posting order equals virtual arrival order, so a plain
  FIFO is already arrival-ordered);
* a per-source heap for ``recv(source=s, tag=ANY_TAG)``;
* a per-tag heap for ``recv(source=ANY_SOURCE, tag=t)`` (the hot path
  of the store-and-forward stage loop);
* a global heap for ``recv(ANY_SOURCE, ANY_TAG)``.

The heaps hold the envelopes themselves, the same objects as the channel
slots, which gives the documented wildcard guarantee: a wildcard receive
matches the waiting envelope with the **earliest virtual arrival time**,
ties broken by sender rank and then sender program order.
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


#: ``Mailbox._wild``: no wildcard index yet; the one receive flavour that
#: has indexes; or receives of two kinds have run (heap tops may be dead)
_NONE, _SRC, _TAG, _BOTH, _MIXED = range(5)


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
    Because a sender's clock is monotone (and ``seq`` increases), the
    head of a channel is also the earliest envelope of that channel in
    every arrival-ordered index, so "remove the channel head" is always
    the right release.

    The three wildcard heap indexes are **activated lazily**, per
    flavour, the first time a matching wildcard receive runs — a rank
    that only ever posts fully specified receives (or only
    ``recv(tag=d)``, the STFW stage loop) never pays for indexes it does
    not use.  Once a heap exists it is kept current by subsequent posts,
    and the index a receive matched through drops its entry at once.
    **Lazy-invalidation rule:** *the top of a wildcard heap is live iff
    it is the head of its channel slot*, by identity.  Every live
    matching envelope is in the index (backfill at activation, then
    every post) and inside one channel heap order is FIFO order, so a
    top that is not its channel's head was taken through another index.
    Heaps of one flavour share no envelope, so the check is off until
    the mailbox sees a second wildcard flavour activated or a fully
    specified receive run while an index exists (``_wild == _MIXED``).
    """

    __slots__ = ("_by_key", "_src_heaps", "_tag_heaps", "_any_heap", "_wild", "_len")

    def __init__(self) -> None:
        self._by_key: dict[tuple[int, int], tuple | deque[tuple]] = {}
        #: lazily-activated wildcard indexes; a missing entry means no
        #: wildcard receive of that flavor has run yet
        self._src_heaps: dict[int, list[tuple]] = {}
        self._tag_heaps: dict[int, list[tuple]] = {}
        self._any_heap: list[tuple] | None = None
        #: truthy once any wildcard index is active — one flag check in
        #: post() instead of three container probes
        self._wild = _NONE
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def post(self, env: tuple) -> None:
        """File one envelope; updates whichever indexes are active."""
        key = (env[1], env[3])
        slot = self._by_key.get(key)
        if slot is None:
            self._by_key[key] = env
        elif slot.__class__ is deque:
            slot.append(env)
        else:
            self._by_key[key] = deque((slot, env))
        if self._wild:
            heap = self._tag_heaps.get(env[3])
            if heap is not None:
                heappush(heap, env)
            if self._src_heaps:
                heap = self._src_heaps.get(env[1])
                if heap is not None:
                    heappush(heap, env)
            if self._any_heap is not None:
                heappush(self._any_heap, env)
        self._len += 1

    def match(
        self,
        source: int,
        tag: int,
        before: float | None = None,
        horizon: float | None = None,
    ) -> tuple | None:
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
            env = heap[0]
        if (before is not None and env[0] > before) or (
            horizon is not None and env[0] >= horizon
        ):
            return None
        if heap is not None:
            heappop(heap)
        elif self._wild:
            self._wild = _MIXED  # taken behind the wildcard indexes' back
        key = (env[1], env[3])
        slot = self._by_key[key]
        if slot is env:
            del self._by_key[key]
        else:
            slot.popleft()
            if not slot:
                del self._by_key[key]
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
            env = heap[0]
        if before is not None and env[0] > before:
            return None
        return env[0]

    def _heap(self, source: int, tag: int) -> list[tuple]:
        """The arrival heap of one wildcard flavour, a live entry on top.

        Built (backfilled from the channel slots) on first use; on a
        mailbox with mixed receives, tops that are no longer the head of
        their channel are discarded here.
        """
        if source != ANY_SOURCE:
            heap = self._src_heaps.get(source)
            if heap is None:
                heap = self._src_heaps[source] = self._build_heap(_SRC, lambda s, t: s == source)
        elif tag != ANY_TAG:
            heap = self._tag_heaps.get(tag)
            if heap is None:
                heap = self._tag_heaps[tag] = self._build_heap(_TAG, lambda s, t: t == tag)
        else:
            heap = self._any_heap
            if heap is None:
                heap = self._any_heap = self._build_heap(_BOTH, lambda s, t: True)
        if self._wild == _MIXED:
            by_key = self._by_key
            while heap:
                top = heap[0]
                slot = by_key.get((top[1], top[3]))
                if (slot[0] if slot.__class__ is deque else slot) is top:
                    break
                heappop(heap)
        return heap

    def _build_heap(self, flavour: int, want) -> list[tuple]:
        """Activate a wildcard index: backfill from the channel slots."""
        self._wild = flavour if self._wild in (_NONE, flavour) else _MIXED
        heap = [
            env
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
        self._wild = _NONE
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
