"""A deterministic discrete-event MPI emulator.

``K`` virtual processes run as Python generators; the three blocking
operations (``recv``, ``allreduce`` and ``shrink``) are ``yield`` points
at which the engine regains control, matches messages and advances
virtual clocks.  Sends are *eager*: they never block (as MPI
eager-protocol sends of small messages do not), so the classic
send-send deadlock cannot occur, while recv cycles and collective
mismatches are detected and reported as
:class:`~repro.errors.DeadlockError` with a per-rank state dump.

Engine architecture
-------------------
The scheduler is **event-driven**, and does work only for events that
can occur:

* A **ready deque** holds exactly the ranks that can make progress.
  Each pop drives one rank until it blocks or finishes; a rank blocked
  on a receive or a collective costs *nothing* until the event that
  unblocks it occurs, so an engine step is O(work done), not O(K).
* Each rank owns a :class:`~repro.simmpi.message.Mailbox` with one
  index, an arrival-time heap per tag: ``recv(ANY_SOURCE, tag=t)``, the
  receive the system issues, takes the top of heap ``t`` in O(log n);
  the flavours only tests use scan the waiting mail.  A message in
  flight is one plain tuple (the envelope, which is also its own heap
  entry) that the cyclic collector stops tracking; it sits in one heap
  from the send until the receive that takes it, so nothing per
  message outlives its delivery.
* A rank blocked on a receive is its own wait-map entry (a rank blocks
  on at most one receive): :meth:`SimMPI._enqueue` inspects only the
  destination's posted ``(source, tag)`` interest and wakes it **iff the
  new envelope is one it can take now**.  No other rank is ever
  inspected on a send.
* Quiescence (the ready deque drained) is arbitrated from two lazily
  invalidated heaps — held wildcard candidates and receive deadlines —
  pushed where a rank blocks or a post is held, so raising the horizon
  and finding the next timer cost O(released * log K), not O(K).  An
  entry is never searched for and removed: it is *live* iff it still
  describes its rank (same deadline, same earliest candidate, still
  blocked), and a dead one is dropped when it surfaces at the top.
* Collective completion is counter-driven: the engine tracks how many
  live ranks are blocked on which collective kind, so the
  "all K ranks have entered the same collective" check is O(1) and only
  runs when the ready deque drains.  A mismatch (some ranks in
  ``allreduce``, others in ``shrink``) is a deadlock, the hang a real
  MPI program would produce.

``RunResult.engine_stats`` (:data:`ENGINE_STATS`) counts these steps —
rounds, wakes, match attempts, deliveries — exactly, for any run.

Wildcard matching semantics
---------------------------
``recv(ANY_SOURCE, ...)`` / ``recv(..., ANY_TAG)`` receives are
**arrival-time ordered**: among the waiting envelopes that match, the
one with the earliest virtual ``arrive_time`` is delivered first (ties
broken by sender rank, then sender program order).  Fully-specified
receives are FIFO per ``(source, tag)`` (which per source is the same
as arrival order, since a sender's clock is monotone).

With a machine attached matching is **conservative**: every send costs
at least the lookahead ``L``, so a wildcard receive may only take an
envelope arriving strictly before the safe **horizon** — a rival not
yet sent must arrive at or after it.  That makes delivery a pure
function of virtual time, and it gives the engine the invariant the
three mechanisms above share:

    *a rank blocked in a wildcard receive never holds a matching
    envelope that arrives before the horizon.*

It holds when the rank blocks (the match that failed was gated by the
horizon), it is kept by a post (an envelope arriving before the horizon
wakes the receiver; one at or after it is only recorded as the rank's
held candidate — waking would find nothing to take), and it is restored
by a horizon raise to ``H2``, which wakes exactly the ranks whose
earliest held candidate is ``< H2``, in ascending rank order.  So at
quiescence a blocked rank's floor — the earliest time it can resume —
is its earliest held candidate or its deadline, both already on the
heaps, and the horizon rises to ``min floor + L`` without visiting a
rank.  Machine-less runs have no positive ``L``; they keep the eager
rule (a matching post always wakes) and never consult the horizon.

Time model
----------
Each rank owns a virtual clock in microseconds.  With a
:class:`~repro.network.machines.Machine` attached:

* a send charges ``machine.send_cost(hops, words)`` (``alpha +
  alpha_hop * hops + beta * words``) to the sender's clock; the
  message's arrival time is the sender's clock after the charge
  (single-port serialization of sends);
* a matching recv sets the receiver's clock to
  ``max(own clock, arrival) + machine.recv_cost(words)``;
* an allreduce over ``P`` ranks aligns their clocks to the maximum
  plus a tree's ``2 * ceil(lg P) * (alpha + beta * words)`` and sums
  the values;
* a shrink over ``P`` survivors aligns their clocks to the maximum plus
  one revoke round and two tree sweeps, ``(1 + 2 * ceil(lg P)) *
  alpha`` (:func:`shrink_cost`).

Without a machine the run is purely functional (all clocks stay 0) —
useful for semantics tests.

Timers and fault injection
--------------------------
Two kinds of **virtual-time timer events** extend the event loop; both
only fire when the ready deque drains (they cost nothing while the
system makes progress):

* a ``recv(..., timeout_us=...)`` blocked past its deadline resumes
  with the :data:`~repro.simmpi.message.TIMEOUT` sentinel, its clock
  advanced to the deadline — the primitive underneath the reliable
  delivery layer (:mod:`repro.simmpi.reliable`);
* a rank whose :class:`~repro.simmpi.faults.FaultPlan` crash time has
  passed is killed where it blocks.

With a ``fault_plan`` attached, :meth:`SimMPI._post_send` additionally
consults the plan for link drops / duplications / outages, and the
cost model applies per-rank straggler slowdowns; see
:mod:`repro.simmpi.faults` for semantics and determinism guarantees.
If every live rank is blocked and no timer is pending, the run is a
deadlock, reported as :class:`~repro.errors.DeadlockError` carrying a
machine-readable :class:`~repro.errors.PendingOp` list.

Determinism: the ready deque is seeded in rank order, ranks are woken
in posting order (a horizon raise wakes in rank order), message matching
follows the rules above, and timer events fire in (time, kind, rank)
order, so a run is a pure function of its inputs (including the fault
plan's seed).
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Sequence

import numpy as np

from ..arrayops import read_only
from ..errors import DeadlockError, PendingOp, SimMPIError, format_pending
from ..network.machines import Machine
from ..network.mapping import placement
from .faults import FaultPlan, FaultState
from .message import ANY_SOURCE, ANY_TAG, TIMEOUT, Mailbox, RunResult, TraceRecord

__all__ = [
    "Comm",
    "SimMPI",
    "run_spmd",
    "ENGINE_STATS",
    "RecvOp",
    "AllReduceOp",
    "ShrinkOp",
    "engine_lookahead",
    "shrink_cost",
    "trace_sort_key",
    "fault_sort_key",
]


class _RankCrashed(BaseException):
    """Raised inside a process generator whose rank's crash time passed.

    Derives from ``BaseException`` so workload-level ``except
    Exception`` handlers cannot swallow a fault-injected crash.
    """

    def __init__(self, rank: int):
        self.rank = rank

#: upper bound, in entries (rows x num_nodes), on the source node -> hop
#: row memo.  A row is a byte per entry (a list, 8 bytes per entry, only
#: past diameter 255), so the bound is 16 MB and the whole table of
#: K = 65536 on BlueGene/Q (4096 nodes, 2**24 entries) still fits.  Past
#: it the memo is cleared wholesale; a thrashing run pays one ~40 us row
#: per clear-and-miss, never worse than the scalar walks it replaces once
#: a row serves 10 sends (a rank posts a stage's sends in one drive).
_HOP_ROWS_MAX_ENTRIES = 1 << 24

#: names of the deterministic bookkeeping counts a run reports as
#: ``RunResult.engine_stats``: drained-deque arbitration rounds; ranks
#: put on the ready deque after the initial seeding; wakes that found
#: nothing to receive; wildcard receivers released by a horizon raise;
#: timer events fired; mailbox match calls; messages delivered; hop-count
#: rows built (memo misses, at most one per source node unless the memo
#: overflowed); and the largest number of envelopes in flight at once
ENGINE_STATS = (
    "quiescent_rounds",
    "wakes",
    "stale_wakes",
    "held_released",
    "timer_fires",
    "match_attempts",
    "deliveries",
    "hop_memo_misses",
    "mailbox_peak_live",
)


class RecvOp:
    """A receive returned by :meth:`Comm.recv`.

    Yield it to complete it; the generator resumes with ``(source, tag,
    payload)``.  A ``timeout_us`` makes the receive resumable by a
    virtual-time timer: if no matching message arrives within that many
    microseconds of blocking, the generator resumes with the
    :data:`~repro.simmpi.message.TIMEOUT` sentinel instead.
    ``deadline`` is the absolute expiry time, filled in by the engine at
    block time.
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


class AllReduceOp:
    """A sum over all ranks, returned by :meth:`Comm.allreduce`."""

    __slots__ = ("value", "words")

    def __init__(self, value: Any, words: int):
        self.value = value
        self.words = words

    def describe(self) -> str:
        """Human-readable form for deadlock state dumps."""
        return f"allreduce(words={self.words})"


class ShrinkOp:
    """A revoke-and-agree shrink, returned by :meth:`Comm.shrink`."""

    __slots__ = ()

    def describe(self) -> str:
        """Human-readable form for deadlock state dumps."""
        return "shrink"


def trace_sort_key(rec: TraceRecord) -> tuple:
    """Canonical ordering of delivered-message trace records.

    The key covers every field, so any two traces holding the same
    *multiset* of records sort to the same sequence — the property that
    lets a backend that discovers deliveries in another order (the batch
    engine sweeps them stage by stage) produce byte-identical
    ``RunResult.trace`` lists.
    """
    return (rec.dest, rec.arrive_time, rec.source, rec.tag, rec.send_time, rec.words)


def fault_sort_key(ev) -> tuple:
    """Canonical ordering of :class:`~repro.simmpi.faults.FaultEvent`s."""
    return (ev.time_us, ev.kind, ev.rank, ev.dest, ev.tag, ev.words, ev.reason)


def shrink_cost(P: int, alpha: float) -> float:
    """Virtual-time cost of the shrink agreement over ``P`` survivors:
    one revoke round plus two tree sweeps."""
    lg = math.ceil(math.log2(max(P, 2)))
    return (1 + 2 * lg) * alpha


def engine_lookahead(machine: Machine | None, fault_plan: FaultPlan | None) -> float:
    """Conservative lookahead: a lower bound on any send's virtual cost.

    The machine's minimum message latency (``Machine.lookahead_us()``),
    scaled down by the fastest straggler factor when the fault plan has
    one below 1.0 (a "straggler" < 1 *speeds a rank up*, so the bound
    must shrink with it).  Jitter needs no correction — it only ever
    multiplies costs by a factor >= 1.  Returns 0.0 for machine-less
    (zero-cost) runs, where no positive bound exists and conservative
    wildcard matching is disabled.
    """
    if machine is None:
        return 0.0
    la = machine.lookahead_us()
    if fault_plan is not None and fault_plan.stragglers:
        la *= min(1.0, min(fault_plan.stragglers.values()))
    return la


class Comm:
    """Per-rank communicator handle passed to every process function.

    Mirrors the part of the mpi4py lowercase (pickle-style, any-object)
    API that the system runs: eager ``send``, ``recv`` (with wildcards
    and an optional timeout), ``allreduce`` (the sum that ends NBX
    discovery) and the ULFM-style ``shrink``.  Blocking calls return
    *operation objects* that the process generator must ``yield``; the
    engine resumes the generator with the result::

        def worker(comm):
            comm.send(1 - comm.rank, b"hi", words=1)
            src, tag, payload = yield comm.recv()
            return payload

    Size-keyword convention
    -----------------------
    Both operations that charge message volume take the same keyword,
    ``words``: the size in 8-byte words of one message for ``send`` and
    of one rank's contribution for ``allreduce``.  ``words`` must be a
    non-negative integer; the check happens eagerly at the call site and
    the error names the rank and the offending argument.
    """

    __slots__ = ("_engine", "rank", "size")

    def __init__(self, engine: "SimMPI", rank: int):
        self._engine = engine
        self.rank = rank
        self.size = engine.K

    @property
    def time(self) -> float:
        """This rank's current virtual clock in microseconds."""
        return self._engine._procs[self.rank].clock

    def send(self, dest: int, payload: Any, *, tag: int = 0, words: int | None = None) -> None:
        """Eagerly send ``payload`` to ``dest`` (never blocks).

        ``words`` is the charged message size in 8-byte words; if
        omitted it is taken from ``len(payload)`` (raising for unsized
        payloads, which keeps cost accounting honest).  Arguments are
        validated here, at the call site, so a bad destination, size or
        tag names the offending rank instead of failing deep inside the
        engine.
        """
        if words is None:
            try:
                words = len(payload)
            except TypeError as exc:
                raise SimMPIError(
                    f"rank {self.rank}: payload has no len(); pass words= explicitly"
                ) from exc
        elif type(words) is not int:
            words = self._check_words("send", words)
        # fast path: one combined range check covers the overwhelmingly
        # common valid call; the specific errors live on the cold path
        if 0 <= dest < self.size and tag >= 0 and words >= 0:
            self._engine._post_send(self.rank, dest, tag, payload, words)
            return
        if not 0 <= dest < self.size:
            raise SimMPIError(
                f"rank {self.rank}: send to rank {dest} outside [0, {self.size})"
            )
        if tag < 0:
            raise SimMPIError(f"rank {self.rank}: send with negative tag {tag}")
        raise SimMPIError(
            f"rank {self.rank}: message words must be non-negative, got {words}"
        )

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        *,
        timeout_us: float | None = None,
    ) -> RecvOp:
        """Blocking receive; yield it to obtain ``(source, tag, payload)``.

        With ``timeout_us``, the receive gives up after that much
        virtual time and resumes with the
        :data:`~repro.simmpi.message.TIMEOUT` sentinel instead of a
        message triple.
        """
        if timeout_us is not None and timeout_us <= 0:
            raise SimMPIError(f"rank {self.rank}: timeout_us must be positive")
        return RecvOp(source, tag, timeout_us)

    def _check_words(self, op_name: str, words: Any) -> int:
        """Eagerly validate a ``words=`` argument that is not a plain ``int``.

        Errors name the rank and the argument (``words``) so a typo'd
        size fails at the call site, not deep inside the cost model.
        """
        if isinstance(words, bool) or not isinstance(words, (int, np.integer)):
            raise SimMPIError(
                f"rank {self.rank}: {op_name} words= must be an int, "
                f"got {type(words).__name__}"
            )
        if words < 0:
            raise SimMPIError(
                f"rank {self.rank}: {op_name} words= must be non-negative, got {words}"
            )
        return int(words)

    def allreduce(self, value: Any, *, words: int = 1) -> AllReduceOp:
        """Blocking allreduce; yield it to obtain the sum of every rank's
        ``value``, folded in ascending rank order."""
        return AllReduceOp(value, self._check_words("allreduce", words))

    def shrink(self) -> ShrinkOp:
        """Blocking revoke-and-agree shrink; yield it to obtain the
        agreed tuple of crashed ranks (ascending).

        The ULFM-style recovery primitive: every *surviving* rank must
        call it (it completes like a collective, but over the live
        ranks only).  On completion each survivor's mailbox is purged —
        in-flight messages from before the agreement are revoked — and
        from then on an ``allreduce`` completes over the survivor set.
        """
        return ShrinkOp()


class _ProcState:
    __slots__ = (
        "gen",
        "clock",
        "blocked_on",
        "finished",
        "retval",
        "mailbox",
        "resume_value",
        "queued",
        "send_seq",
        "held",
    )

    def __init__(self, gen: Generator | None):
        self.gen = gen
        self.clock = 0.0
        #: sender-side send counter; envelope seq numbers come from it so
        #: the wildcard tie-break key is identical across engine backends
        self.send_seq = 0
        self.blocked_on: Any = None
        self.finished = gen is None
        self.retval: Any = None
        self.mailbox = Mailbox()
        self.resume_value: Any = None
        #: True while the rank sits in the engine's ready deque
        self.queued = False
        #: while blocked in a conservative wildcard receive: arrival time
        #: of the earliest matching envelope it holds (inf if none)
        self.held = math.inf


class SimMPI:
    """The engine: owns ranks, mailboxes, clocks and the cost model.

    ``SimMPI`` is the event-driven engine (``engine="event"``): it runs
    any process function.  Its planned-exchange-only subclass
    :class:`~repro.simmpi.batch.BatchSimMPI` (``engine="batch"``)
    returns the same :class:`~repro.simmpi.message.RunResult` for the
    planned exchanges it accepts.
    """

    #: runs arbitrary process functions; the one dispatch site,
    #: ``run_exchange``, spawns per-rank processes on this engine
    planned_only = False

    def __init__(
        self,
        K: int,
        *,
        machine: Machine | None = None,
        mapping: np.ndarray | None = None,
        trace: bool = False,
        jitter: float = 0.0,
        jitter_seed: int = 0,
        fault_plan: FaultPlan | None = None,
        tracer=None,
    ):
        if K < 1:
            raise SimMPIError(f"K={K} must be positive")
        if jitter < 0:
            raise SimMPIError("jitter must be non-negative")
        self.K = int(K)
        self.machine = machine
        #: per-message multiplicative slowdown ~ U(0, jitter); models OS
        #: noise / stragglers.  Deterministic per (seed, message order).
        self.jitter = float(jitter)
        self._jitter_seed = jitter_seed
        if fault_plan is not None:
            fault_plan.validate(K)
        self.fault_plan = fault_plan
        #: per-run fault state; rebuilt by :meth:`run` so repeated runs
        #: on one engine are identically seeded
        self._faults: FaultState | None = None
        #: conservative-matching state.  With a machine every send costs
        #: at least ``_lookahead``, so a wildcard receive may only take
        #: an envelope arriving strictly before ``_horizon`` — any
        #: not-yet-sent rival must arrive at or after it.  This makes
        #: wildcard delivery a pure function of virtual time (earliest
        #: arrival wins) instead of an artifact of engine interleaving,
        #: which is what lets the batch backend reproduce these runs bit
        #: for bit.  Machine-less runs have no positive cost bound
        #: and keep the eager match-on-post behavior.
        self._lookahead = engine_lookahead(machine, fault_plan)
        self._conservative = self._lookahead > 0.0
        self._horizon = 0.0
        self._trace_enabled = trace
        self.trace: list[TraceRecord] = []
        #: injected observability tracer (see :mod:`repro.obs`); kept as
        #: None when absent or disabled so hot paths pay one identity
        #: check and nothing else
        self.tracer = tracer
        self._obs = tracer if (tracer is not None and tracer.enabled) else None
        if machine is not None:
            self._topology, self._mapping = placement(machine, K, mapping)
        else:
            if mapping is not None:
                raise SimMPIError("mapping given without a machine")
            self._topology = None
            self._mapping = None
        if not self.planned_only:
            #: rank -> node as plain ints (skips per-send numpy scalar
            #: boxing) and a source node -> hops-to-every-node memo: one
            #: vector call per sending node instead of one scalar walk
            #: per node pair (a sparse pattern sees each pair about once);
            #: an engine that never sends one message at a time builds neither
            self._map_list: list[int] = [] if self._mapping is None else self._mapping.tolist()
            self._hop_rows: dict[int, bytes | list[int]] = {}
        self._procs: list[_ProcState] = []
        self._ready: deque[int] = deque()
        #: lazily invalidated min-heaps kept where a rank blocks or a post
        #: is held: ``(candidate arrival, rank)`` of blocked wildcard
        #: receivers and ``(deadline, rank)`` of blocked timed receives.
        #: An entry is live iff it still describes its rank (see
        #: :meth:`_recv_floors`); dead ones are dropped when they surface.
        self._held: list[tuple[float, int]] = []
        self._deadlines: list[tuple[float, int]] = []
        self._stats = dict.fromkeys(ENGINE_STATS, 0)
        self._live = 0
        self._num_finished = 0
        #: ranks currently blocked on a collective, and a kind -> count
        #: map over them; together they make the completion check O(1)
        self._coll_blocked = 0
        self._coll_kinds: dict[type, int] = {}
        #: crashed ranks a completed shrink has acknowledged; ordinary
        #: collectives may complete over the survivors once every
        #: finished rank is in this set
        self._acked_dead: set[int] = set()

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def _send_cost(self, source: int, dest: int, words: int) -> float:
        if self.machine is None:
            return 0.0
        nodes = self._map_list
        node = nodes[source]
        rows = self._hop_rows
        row = rows.get(node)
        if row is None:
            n = self._topology.num_nodes
            if (len(rows) + 1) * n > _HOP_ROWS_MAX_ENTRIES:
                rows.clear()
            # indexing a row gives the very int the scalar hops() returns
            hops = self._topology.hops_array(node, np.arange(n))
            row = hops.astype(np.uint8).tobytes() if hops.max() < 256 else hops.tolist()
            rows[node] = row
            self._stats["hop_memo_misses"] += 1
        cost = self.machine.send_cost(row[nodes[dest]], words)
        if self.jitter > 0.0:
            cost *= 1.0 + self.jitter * float(self._jitter_rng.random())
        if self._faults is not None:
            slow = self._faults.slowdown(source)
            if slow != 1.0:
                cost *= slow
        return cost

    def _recv_cost(self, rank: int, words: int) -> float:
        if self.machine is None:
            return 0.0
        cost = self.machine.recv_cost(words)
        if self._faults is not None:
            slow = self._faults.slowdown(rank)
            if slow != 1.0:
                cost *= slow
        return cost

    # ------------------------------------------------------------------
    # Engine internals
    # ------------------------------------------------------------------

    def _post_send(self, source: int, dest: int, tag: int, payload: Any, words: int) -> None:
        """Charge and post one send; :meth:`Comm.send` has validated the arguments."""
        fs = self._faults
        sender = self._procs[source]
        if fs is not None:
            ct = fs.crash_time(source)
            if ct is not None and sender.clock >= ct:
                # the send starts at or after the rank's crash time: the
                # rank dies here instead of sending (unwound in _drive)
                raise _RankCrashed(source)
        obs = self._obs
        start = sender.clock
        sender.clock += self._send_cost(source, dest, words)
        duplicate = False
        if fs is not None:
            fate = fs.outcome(source, dest, tag, words, start)
            if fate == "drop":
                if obs is not None:
                    obs.instant(
                        "fault.drop", start, track=source, cat="fault",
                        dest=dest, tag=tag, words=words,
                    )
                return  # the sender paid the cost; the message is gone
            duplicate = fate == "duplicate"
            if fate == "flip":
                # the receiver gets a corrupted *copy*; the sender's
                # object (and any retransmission of it) stays intact
                payload = fs.corrupt_payload(payload, source, dest, tag, words, start)
                if obs is not None:
                    obs.instant(
                        "fault.flip", start, track=source, cat="fault",
                        dest=dest, tag=tag, words=words,
                    )
        # the envelope tuple; its layout is documented in message.py
        arrive = sender.clock
        self._enqueue((arrive, source, sender.send_seq, tag, words, start, payload, dest))
        sender.send_seq += 1
        if duplicate:
            self._enqueue((arrive, source, sender.send_seq, tag, words, start, payload, dest))
            sender.send_seq += 1
        if obs is not None:
            obs.count("engine.sends", 1, track=source)
            obs.count("engine.sent_words", words, track=source)
            if duplicate:
                obs.instant(
                    "fault.duplicate", start, track=source, cat="fault",
                    dest=dest, tag=tag,
                )

    def _enqueue(self, env: tuple) -> None:
        """File ``env`` at its destination and tell a receiver it can unblock.

        Wait-map lookup: only the destination's posted ``(source, tag)``
        interest is inspected, never another rank.  A timed receive
        ignores envelopes arriving after its deadline (they belong to
        some future receive; the pending one resolves via its timer).
        A conservative wildcard receive cannot take an envelope arriving
        at or after the horizon, so the rank is not woken for one: the
        arrival is recorded as its held candidate and the horizon raise
        that passes it does the waking.
        """
        arrive, env_source, _, env_tag, _, _, _, dest = env
        state = self._procs[dest]
        state.mailbox.post(env)
        self._live = live = self._live + 1
        if live > self._stats["mailbox_peak_live"]:
            self._stats["mailbox_peak_live"] = live
        op = state.blocked_on
        if op.__class__ is RecvOp:
            source = op.source
            tag = op.tag
            if (
                (source == ANY_SOURCE or source == env_source)
                and (tag == ANY_TAG or tag == env_tag)
                and (op.deadline is None or arrive <= op.deadline)
            ):
                if (
                    self._conservative
                    and (source == ANY_SOURCE or tag == ANY_TAG)
                    and arrive >= self._horizon
                ):
                    if arrive < state.held:
                        state.held = arrive
                        heappush(self._held, (arrive, dest))
                else:
                    self._wake(dest)

    def _wake(self, rank: int) -> None:
        state = self._procs[rank]
        if not state.queued:
            state.queued = True
            self._ready.append(rank)
            self._stats["wakes"] += 1

    def _deliver(self, rank: int, state: _ProcState, env: tuple) -> tuple[int, int, Any]:
        arrive, source, _, tag, words, send_time, payload, _ = env
        state.clock = max(state.clock, arrive) + self._recv_cost(rank, words)
        self._live -= 1
        self._stats["deliveries"] += 1
        if self._trace_enabled:
            self.trace.append(TraceRecord(source, rank, tag, words, send_time, arrive))
        obs = self._obs
        if obs is not None:
            obs.count("engine.recvs", 1, track=rank)
            obs.count("engine.recv_words", words, track=rank)
        return (source, tag, payload)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def _reset(self, proc_factory: Callable[[Comm], Generator | Any]) -> None:
        """Rebuild per-run state and seed the ready deque in rank order."""
        self.trace = []
        self._procs = [_ProcState(None) for _ in range(self.K)]
        self._ready = ready = deque()
        self._held = []
        self._deadlines = []
        self._stats = dict.fromkeys(ENGINE_STATS, 0)
        self._live = 0
        self._num_finished = 0
        self._coll_blocked = 0
        self._coll_kinds = {}
        self._acked_dead = set()
        self._horizon = self._lookahead
        # like the fault state, the jitter stream restarts with every run
        self._jitter_rng = np.random.default_rng(self._jitter_seed)
        self._faults = (
            None if self.fault_plan is None else FaultState(self.fault_plan, self.K)
        )
        for r in range(self.K):
            out = proc_factory(Comm(self, r))
            state = self._procs[r]
            if isinstance(out, Generator):
                state.gen = out
                state.finished = False
                state.queued = True
                ready.append(r)
            else:
                state.retval = out
                self._num_finished += 1

    def _match_recv(self, state: _ProcState, op: RecvOp) -> tuple | None:
        """Match a blocked receive against the rank's mailbox.

        Under conservative matching (any run with a machine), wildcard
        receives only take envelopes arriving strictly before the safe
        horizon; a candidate at or past it stays held until the
        quiescent horizon raise proves no earlier rival can appear.
        Fully-specified receives need no gate — a channel's FIFO order
        is arrival order regardless of discovery interleaving.
        """
        self._stats["match_attempts"] += 1
        if self._conservative and (op.source == ANY_SOURCE or op.tag == ANY_TAG):
            return state.mailbox.match(op.source, op.tag, op.deadline, self._horizon)
        return state.mailbox.match(op.source, op.tag, op.deadline)

    def _drain_ready(self) -> None:
        """Drive ready ranks until nothing is runnable."""
        ready = self._ready
        while ready:
            r = ready.popleft()
            state = self._procs[r]
            state.queued = False
            if state.finished:
                continue
            op = state.blocked_on
            if op is not None:
                if not isinstance(op, RecvOp):
                    continue  # collectives resume via _complete_collective
                env = self._match_recv(state, op)
                if env is None:
                    self._stats["stale_wakes"] += 1
                    continue  # stay blocked
                state.blocked_on = None
                state.resume_value = self._deliver(r, state, env)
            self._drive(r, state)

    def _finalize(self) -> RunResult:
        """Assemble the canonical :class:`RunResult` of a finished run.

        The trace and fault-event lists are sorted by their canonical
        total orders (:func:`trace_sort_key` / :func:`fault_sort_key`)
        so results compare byte-identical across backends that discover
        the same events in different orders.
        """
        returns = [p.retval for p in self._procs]
        (clocks,) = read_only(np.fromiter((p.clock for p in self._procs), np.float64, self.K))
        fs = self._faults
        trace = self.trace
        trace.sort(key=trace_sort_key)
        return RunResult(
            returns=returns,
            clocks=clocks,
            makespan_us=float(clocks.max()),
            trace=trace,
            crashed=[] if fs is None else sorted(fs.crashed),
            fault_events=[] if fs is None else sorted(fs.events, key=fault_sort_key),
            engine_stats=dict(self._stats),
        )

    def run(self, proc_factory: Callable[[Comm], Generator | Any]) -> RunResult:
        """Run one process per rank until all finish.

        ``proc_factory(comm)`` must return a generator (a function
        using ``yield`` for blocking calls) or a plain value for ranks
        that perform no blocking communication.
        """
        self._reset(proc_factory)
        while True:
            # event loop: drive ready ranks until nothing is runnable
            self._drain_ready()

            if self._num_finished == self.K:
                break

            # ready deque drained: raise the conservative horizon (which
            # may release held wildcard envelopes), then either every
            # live rank sits in one uniform collective (counter check,
            # O(1)), a virtual-time timer (recv timeout / scheduled
            # crash) fires, or we deadlocked.  Held envelopes land
            # before any collective or timer resolves.
            alive_count = self.K - self._num_finished
            self._stats["quiescent_rounds"] += 1
            if self._conservative and self._raise_horizon_at_quiescence():
                continue
            if self._coll_blocked == alive_count and len(self._coll_kinds) == 1:
                kind = next(iter(self._coll_kinds))
                alive = [r for r in range(self.K) if not self._procs[r].finished]
                if kind is ShrinkOp:
                    # crash timers due by the agreement point fire
                    # before it (the shrink cannot miss a rank already
                    # due to die), but the agreement never warps time
                    # forward: crashes scheduled after it stay pending
                    horizon = max(self._procs[r].clock for r in alive)
                    if self._fire_next_timer(horizon=horizon):
                        continue
                    self._complete_collective(kind, alive)
                    continue
                # an allreduce needs every rank — or, after a shrink,
                # every survivor (finished ranks all being
                # shrink-acknowledged crashes)
                finished = {r for r in range(self.K) if self._procs[r].finished}
                if alive_count == self.K or finished <= self._acked_dead:
                    self._complete_collective(kind, alive)
                    continue
            if self._fire_next_timer():
                continue
            self._raise_deadlock(
                [r for r in range(self.K) if not self._procs[r].finished]
            )

        return self._finalize()

    def _raise_horizon_at_quiescence(self) -> bool:
        """Advance the safe horizon once nothing is runnable.

        Every blocked receive yields a *floor* — the earliest virtual
        time its rank could possibly resume (and so send again): the
        earliest matchable arrival in its mailbox, capped by its
        deadline.  Collective-blocked ranks contribute nothing (they
        resume only through a completion, which raises the horizon
        itself).  Any future send then arrives at or after
        ``min_floor + lookahead``, so the horizon may rise to that
        bound; if the raise releases a held wildcard candidate, its
        receiver is woken and the caller must re-drain before
        arbitrating collectives or timers.  Returns True iff a held
        envelope was released.
        """
        min_floor = min(self._recv_floors())
        if min_floor == math.inf:
            # nothing recv-blocked: the horizon must NOT jump to
            # infinity — collective completion raises it finitely
            return False
        H2 = min_floor + self._lookahead
        return H2 > self._horizon and self._raise_horizon(H2) > 0

    def _recv_floors(self) -> tuple[float, float]:
        """``(earliest deadline, earliest held candidate)`` of the blocked receives.

        Valid when nothing is runnable.  At that point a blocked rank
        never holds a matching envelope it could take (the invariant in
        the module docstring), so the minimum over ranks of "earliest
        matchable arrival capped by the deadline" is the smaller of the
        two heap tops — no rank is visited.  A heap entry is live iff
        its rank is still blocked in a receive with that very deadline /
        that very earliest candidate; anything else on top is a leftover
        of a receive that completed, and is dropped here.
        """
        procs = self._procs
        deadlines = self._deadlines
        while deadlines:
            t, r = deadlines[0]
            op = procs[r].blocked_on
            if op.__class__ is RecvOp and op.deadline == t:
                break
            heappop(deadlines)
        held = self._held
        while held:
            t, r = held[0]
            state = procs[r]
            if state.blocked_on.__class__ is RecvOp and state.held == t:
                break
            heappop(held)
        return (
            deadlines[0][0] if deadlines else math.inf,
            held[0][0] if held else math.inf,
        )

    def _raise_horizon(self, H2: float) -> int:
        """Set the horizon to ``H2``; wake the receivers that releases.

        Exactly the blocked wildcard receivers whose earliest candidate
        arrives before ``H2`` are woken, in ascending rank order.
        Returns how many.
        """
        self._horizon = H2
        procs = self._procs
        held = self._held
        ranks: list[int] = []
        while held and held[0][0] < H2:
            t, r = heappop(held)
            state = procs[r]
            if state.blocked_on.__class__ is RecvOp and state.held == t:
                state.held = math.inf  # a second entry of this rank is dead now
                ranks.append(r)
        ranks.sort()
        for r in ranks:
            self._wake(r)
        self._stats["held_released"] += len(ranks)
        return len(ranks)

    def _peek_next_timer(self) -> tuple[float, int, int] | None:
        """Earliest pending virtual-time event as ``(time, kind, rank)``.

        Two event kinds exist: a scheduled **crash** of a live rank
        (kind 0) and the **deadline** of a blocked
        ``recv(..., timeout_us=...)`` (kind 1).  Crashes order before
        deadlines at equal times (a message to a rank dying at *t* must
        already find it dead); an overdue crash (clock already past it)
        is reported at the rank's current clock.  Returns ``None`` when
        no event is pending.
        """
        best: tuple[float, int, int] | None = None
        if self.fault_plan is not None:
            for r, ct in self.fault_plan.crashes.items():
                state = self._procs[r]
                if not state.finished:
                    key = (max(ct, state.clock), 0, r)
                    if best is None or key < best:
                        best = key
        self._recv_floors()  # leaves a live deadline on top, if there is one
        if self._deadlines:
            t, r = self._deadlines[0]
            if best is None or (t, 1, r) < best:
                best = (t, 1, r)
        return best

    def _fire_timer(self, t: float, kind: int, r: int) -> None:
        """Apply one timer event from :meth:`_peek_next_timer`."""
        state = self._procs[r]
        self._stats["timer_fires"] += 1
        if kind == 0:
            self._kill_rank(r, state, at=t)
        else:
            state.clock = max(state.clock, t)
            state.blocked_on = None
            state.resume_value = TIMEOUT
            if self._obs is not None:
                self._obs.instant("engine.recv_timeout", state.clock, track=r, cat="timer")
            self._wake(r)

    def _fire_next_timer(self, *, horizon: float | None = None) -> bool:
        """Fire the earliest pending virtual-time event, if any.

        With ``horizon``, events strictly after it are left pending
        (used by the shrink agreement, which must not pull future
        crashes into the present).  Returns True iff an event fired.
        """
        best = self._peek_next_timer()
        if best is None:
            return False
        t, kind, r = best
        if horizon is not None and t > horizon:
            return False
        self._fire_timer(t, kind, r)
        return True

    def _kill_rank(self, rank: int, state: _ProcState, *, at: float) -> None:
        """Crash ``rank`` at virtual time ``at`` (fault injection)."""
        state.clock = max(state.clock, at)
        if state.blocked_on is not None and not isinstance(state.blocked_on, RecvOp):
            # dying inside a collective: release the completion counters
            kind = type(state.blocked_on)
            self._coll_blocked -= 1
            n = self._coll_kinds.get(kind, 0) - 1
            if n > 0:
                self._coll_kinds[kind] = n
            else:
                self._coll_kinds.pop(kind, None)
        state.blocked_on = None
        if state.gen is not None:
            state.gen.close()
        state.finished = True
        state.retval = None
        self._num_finished += 1
        self._faults.record_crash(rank, state.clock)
        if self._obs is not None:
            self._obs.instant("fault.crash", state.clock, track=rank, cat="fault")
            self._obs.count("engine.crashes", 1)

    def _complete_collective(self, kind: type, waiting: list[int]) -> None:
        """Resolve the collective every rank in ``waiting`` is blocked on.

        An allreduce sums the values in ascending rank order and costs a
        tree's ``2 * ceil(lg P) * (alpha + beta * words)``.  A shrink
        costs :func:`shrink_cost`, agrees on the tuple of crashed ranks
        and revokes in-flight mail: every survivor's mailbox is purged.
        Each participant resumes at the latest clock plus the cost.
        """
        procs = self._procs
        m = self.machine
        alpha = 0.0 if m is None else m.alpha_us
        shrink = kind is ShrinkOp
        if shrink:
            fs = self._faults
            result = () if fs is None else tuple(sorted(fs.crashed))
            cost = shrink_cost(len(waiting), alpha)
            self._acked_dead.update(result)
            labels = {"dead": len(result)}
        else:
            ops = [procs[r].blocked_on for r in waiting]
            words = max(op.words for op in ops)
            lg = math.ceil(math.log2(max(len(waiting), 2)))
            cost = 2 * lg * (alpha + (0.0 if m is None else m.beta_us_per_word) * words)
            result = ops[0].value
            for op in ops[1:]:
                result = result + op.value
            labels = {}
        t = max(procs[r].clock for r in waiting) + cost
        obs = self._obs
        name = kind.__name__.removesuffix("Op").lower()
        for r in waiting:
            p = procs[r]
            if obs is not None:
                obs.add_span(name, p.clock, t, track=r, cat="collective", **labels)
            p.clock = t
            p.blocked_on = None
            if shrink:
                self._live -= p.mailbox.purge()
            p.resume_value = result
            self._wake(r)
        if obs is not None:
            if shrink:
                obs.count("engine.shrinks", 1)
            else:
                obs.count("engine.collectives", 1, kind=name)
        self._coll_blocked = 0
        self._coll_kinds.clear()
        # every participant resumes at t, so no future send arrives
        # before t + lookahead
        if self._conservative and t + self._lookahead > self._horizon:
            self._horizon = t + self._lookahead

    def _drive(self, rank: int, state: _ProcState) -> None:
        """Advance one rank until it blocks, finishes or crashes."""
        fs = self._faults
        crash_t = None if fs is None else fs.crash_time(rank)
        while True:
            if crash_t is not None and state.clock >= crash_t:
                self._kill_rank(rank, state, at=state.clock)
                return
            try:
                value = state.resume_value
                state.resume_value = None
                op = state.gen.send(value)
            except StopIteration as stop:
                state.finished = True
                state.retval = stop.value
                self._num_finished += 1
                return
            except _RankCrashed:
                self._kill_rank(rank, state, at=state.clock)
                return
            if isinstance(op, RecvOp):
                # fix the deadline before matching: a message already
                # queued but arriving (virtually) after the deadline
                # must not satisfy this receive — it stays in the
                # mailbox for a later one and this receive times out
                if op.timeout_us is not None:
                    op.deadline = state.clock + op.timeout_us
                env = self._match_recv(state, op)
                if env is not None:
                    state.resume_value = self._deliver(rank, state, env)
                    continue
                # block, leaving the rank's floor where quiescence finds it
                state.blocked_on = op
                if op.deadline is not None:
                    heappush(self._deadlines, (op.deadline, rank))
                state.held = math.inf
                if self._conservative and (op.source == ANY_SOURCE or op.tag == ANY_TAG):
                    held = state.mailbox.peek_arrival(op.source, op.tag, op.deadline)
                    if held is not None:
                        state.held = held
                        heappush(self._held, (held, rank))
                return
            if isinstance(op, (AllReduceOp, ShrinkOp)):
                state.blocked_on = op
                kind = type(op)
                self._coll_blocked += 1
                self._coll_kinds[kind] = self._coll_kinds.get(kind, 0) + 1
                return
            raise SimMPIError(
                f"rank {rank} yielded {op!r}; processes may only yield "
                "comm.recv()/comm.allreduce()/comm.shrink() operations"
            )

    def _pending_ops(self, alive: list[int]) -> list[PendingOp]:
        """Machine-readable dump of what each live rank is blocked on."""
        pending: list[PendingOp] = []
        for r in alive:
            p = self._procs[r]
            op = p.blocked_on
            if isinstance(op, RecvOp):
                pending.append(
                    PendingOp(
                        rank=r,
                        kind="recv",
                        source=op.source,
                        tag=op.tag,
                        mailbox=len(p.mailbox),
                        detail=f"{op.describe()}, mailbox={len(p.mailbox)}",
                    )
                )
            elif op is None:  # pragma: no cover - defensive
                pending.append(PendingOp(rank=r, kind="runnable"))
            else:
                kind = type(op).__name__.removesuffix("Op").lower()
                pending.append(
                    PendingOp(
                        rank=r, kind=kind, mailbox=len(p.mailbox), detail=op.describe()
                    )
                )
        return pending

    def _raise_deadlock(self, alive: list[int]) -> None:
        pending = self._pending_ops(alive)
        fs = self._faults
        crashed = () if fs is None else tuple(sorted(fs.crashed))
        finished = self.K - len(alive)
        head = "deadlock: no rank can progress"
        if crashed:
            head += f" ({len(crashed)} rank(s) crashed: {list(crashed)})"
        if finished - len(crashed):
            head += f" ({finished - len(crashed)} rank(s) already exited)"
        raise DeadlockError(
            head + "\n" + format_pending(pending),
            pending=pending,
            crashed=crashed,
            clocks=tuple(p.clock for p in self._procs),
        )


def run_spmd(
    K: int,
    fn: Callable[..., Generator | Any],
    *args: Any,
    machine: Machine | None = None,
    mapping: np.ndarray | Sequence[int] | None = None,
    trace: bool = False,
    jitter: float = 0.0,
    jitter_seed: int = 0,
    fault_plan: FaultPlan | None = None,
    tracer=None,
) -> RunResult:
    """Convenience wrapper: run ``fn(comm, *args)`` on every rank.

    Returns the :class:`~repro.simmpi.message.RunResult` with per-rank
    return values, final clocks and (optionally) the message trace.
    ``jitter``/``fault_plan`` forward to :class:`SimMPI` (straggler
    noise and fault injection); ``tracer`` is an optional :class:`repro.obs.Tracer`
    receiving engine spans/counters in virtual time.
    """
    sim = SimMPI(
        K,
        machine=machine,
        mapping=None if mapping is None else np.asarray(mapping),
        trace=trace,
        jitter=jitter,
        jitter_seed=jitter_seed,
        fault_plan=fault_plan,
        tracer=tracer,
    )
    return sim.run(lambda comm: fn(comm, *args))
