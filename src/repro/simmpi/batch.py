"""Fully-vectorized NumPy batch engine for *planned* exchanges.

:class:`BatchSimMPI` (``engine="batch"``) is the second engine beside
the event-driven :class:`~repro.simmpi.runtime.SimMPI`.  It targets
exactly the regime the paper times — planned, fault-free STFW/BL
exchanges, where the whole message schedule is known statically — and
executes each stage as dense NumPy array sweeps instead of per-message
Python events:

* per-stage send/recv message arrays come straight from the
  :class:`~repro.core.plan.CommPlan`'s coalesced stage arrays (BL, the
  flat ``T_1``, is its one stage, each rank sending in ascending
  destination order as the event engine's stage loop does);
* payloads travel as an :class:`EdgePayloads` table — ``src``, ``dst``,
  ``size`` columns and the payload objects or, for default payloads,
  one int64 key per message (a payload is its key repeated ``size``
  times: the cost model reads word counts, never words) — so no
  ``{dst: payload}`` dict is built or read unless the caller passed
  dicts, and a default payload's read-only view is made only for
  whoever reads it as an object: the list form of the deliveries, or an
  event engine that asks the table for dicts;
* what every rank received comes back the same way, as one
  :class:`Deliveries` — CSR-by-receiver ``ptr``, origin ``src`` and
  table ``rows`` in delivery order — that reads like the event engine's
  per-rank ``[(origin, payload), ...]`` lists and builds them only when
  someone does read it that way;
* arrival times come from the machine's one cost model,
  :meth:`~repro.network.machines.Machine.send_cost` /
  :meth:`~repro.network.machines.Machine.recv_cost`, called on whole
  stage arrays where the event engine calls them per message;
* per-rank clocks advance by grouped segment sweeps: the ``j``-th send
  of every rank in one vector op (``t += cost``), the ``j``-th delivery
  of every rank as one Lindley fold (``t = max(t, arrive) + recv_cost``);
* the sweeps and the routing replay depend on the plan, the machine,
  the mapping and the order of the payload table's rows, not on the
  payloads, so the first run of a pattern's plan pays for them and a
  repeat run reuses their :class:`Schedule` from the pattern's plan
  memo: it pays only the checks on its payloads and plan and the
  assembly of its result (a traced run computes in full).

**Bit-identity contract.**  For every supported scenario the engine
reproduces the event engine's ``RunResult`` (returns, clocks, makespan,
canonical trace), obs counters and chrome-trace bytes *exactly* — not
approximately.  Three facts make that possible:

1. With a machine present, both built-in engines run the conservative
   wildcard gate, which makes per-``(rank, tag)`` wildcard delivery a
   pure function of virtual time: envelopes are matched in
   ``(arrive_time, source, seq)`` order.  That order is computable in
   closed form, so the batch engine never needs to discover it event by
   event: a stage's arrays are sorted by (sender, send order) with one
   message per (sender, receiver), so equal arrival times at a receiver
   already stand in ``(source, seq)`` order and one *stable*
   ``np.lexsort((arrive, receiver))`` is the whole four-key order (both
   keys as 16-bit digits, which NumPy radix-sorts: the receiver's, and
   the arrival time's bit pattern, which orders like the time itself
   because arrival times are positive and finite).  Machine-less
   runs keep the event engine's eager match-on-post behavior — an
   artifact of interleaving that cannot be batch-scheduled — so they
   are refused.
2. Both engines evaluate the same two expressions,
   ``Machine.send_cost`` and ``Machine.recv_cost``: on arrays here, on
   Python numbers there, with integer hop counts from ``hops_array``
   equal to the event engine's hop memo.  One IEEE-754 operation
   sequence per element, so every send/recv cost agrees bit for bit.
3. Bundle membership and message sizes are order-independent — the
   plan's stage arrays and its row -> message map (``members``) say
   which submessages every message carries — which breaks the
   timing/routing circularity: timing is swept first from the plan
   arrays, then one ordered routing pass replays deliveries in the
   computed order to assemble the exact per-rank delivery lists.

**Eager refusals.**  Everything the engine cannot do bit-identically is
refused by name at construction or entry — wildcard/timeout receives
and shrinks (any :meth:`run` with an arbitrary process function),
dynamic NBX-style count discovery, fault plans, jitter, machine-less
runs, plans built for another VPT or whose stages repeat a route
(``build_plan(..., coalesce=False)``), payloads that disagree with the plan or name a
destination outside ``[0, K)``, arrival times that are not positive
finite floats — never silently mis-simulated.
"""

from __future__ import annotations

import operator
from collections import abc
from functools import cached_property
from itertools import chain
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ..arrayops import read_only
from ..errors import PlanError, SimMPIError
from ..network.machines import Machine
from .message import RunResult, TraceRecord
from .runtime import SimMPI, trace_sort_key

__all__ = ["BatchSimMPI", "Deliveries", "EdgePayloads", "Schedule"]


#: bit pattern of ``+inf``: every positive finite double is below it
_INF_BITS = 0x7FF0_0000_0000_0000


def _same_elements(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two views show the very same elements of one array."""

    def place(x: np.ndarray) -> tuple:
        return x.ctypes.data, x.shape, x.strides, x.dtype

    owner_a, owner_b = (a if a.base is None else a.base), (b if b.base is None else b.base)
    return owner_a is owner_b and place(a) == place(b)


def digits16(x: np.ndarray, bound: int) -> list[np.ndarray]:
    """``x`` (integers in ``[0, bound)``) as 16-bit digits, least significant first.

    ``np.lexsort(digits16(x, bound))`` is ``np.argsort(x, kind="stable")``
    done by NumPy's radix sort, which it only has for 16-bit keys: one
    pass up to ``bound = 2**16``, two up to ``2**32``, and so on.
    """
    bits = max(int(bound) - 1, 1).bit_length()
    return [(x >> shift).astype(np.uint16) for shift in range(0, bits, 16)]


def rounds(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The slots of an array grouped by rank, round-major: ``(ranks, slots, sizes)``.

    Rank ``r`` owns the slots ``off[r] .. off[r] + counts[r] - 1`` of an
    array grouped by rank (``off`` the exclusive prefix sum); round ``j``
    holds the ``j``-th slot of every rank that has one, each rank once.
    ``ranks`` orders the ranks by descending count, so round ``j`` is the
    prefix ``ranks[:sizes[j]]``, and ``slots`` lists round 0's slots, then
    round 1's, and so on, each round in ``ranks`` order.  The only sort
    is over the ``len(counts)`` ranks.
    """
    ranks = np.argsort(counts)[::-1]
    first = (np.cumsum(counts) - counts)[ranks]
    # sizes[j]: how many ranks hold more than j slots
    sizes = np.searchsorted(-counts[ranks], -np.arange(counts.max(initial=0))).tolist()
    slots = np.concatenate([first[:n] + j for j, n in enumerate(sizes)] or [first[:0]])
    return ranks, slots, sizes


class EdgePayloads:
    """The payloads of one exchange by columns, one row per message.

    Rows are grouped by source rank ascending and, inside a rank, kept
    in send order — a dict's insertion order, the order the event
    engine's process functions iterate ``send_data.items()``.  ``src``,
    ``dst`` and ``size`` (words) are int64 columns; the payloads are the
    caller's objects (:meth:`from_dicts`) or, for a synthetic table
    (:meth:`synthetic`), one int64 key per row that becomes a payload
    only when asked for: :meth:`take` makes those of the rows it is
    given, ``table[rank]`` (what an event engine reads) builds all ``K``
    ``{dst: payload}`` dicts on first use.  A synthetic payload is a
    read-only view that repeats its key ``size`` times: copy it to
    write to it.  :meth:`columns` reads payloads without making objects
    of them.  ``size`` is ``None`` for a table flattened from received
    payloads (:meth:`Deliveries.from_lists`), which may not be sized at
    all.

    A synthetic table also records where it came from: the columns it
    was cut from and the order it put their rows in (``None``: as
    given).  :meth:`rows_of` reads that record, so a batch run of the
    pattern the table was cut from pairs its rows without sorting.
    """

    def __init__(self, K, src, dst, size, payload, dicts=None, origin=None):
        self.K, self.src, self.dst, self.size = K, src, dst, size
        self._payload = payload  # object array, or None for a synthetic table
        self._dicts = dicts
        self._origin = origin  # a synthetic table's (src, dst, size, order)

    @cached_property
    def _key(self) -> np.ndarray | None:
        """A synthetic row's one word, repeated ``size`` times (made on first read)."""
        return None if self._payload is not None else self.src * self.K + self.dst

    @classmethod
    def from_dicts(cls, payloads: Sequence[Mapping[int, Any]], K: int) -> "EdgePayloads":
        """Flatten per-rank ``{dst: payload}`` dicts (a table passes through)."""
        if len(payloads) != K:
            raise SimMPIError(f"engine='batch' got {len(payloads)} payload dicts for K={K} ranks")
        if isinstance(payloads, cls):
            return payloads
        counts = np.fromiter(map(len, payloads), np.int64, count=K)
        src = np.repeat(np.arange(K, dtype=np.int64), counts)
        dst = np.fromiter(chain.from_iterable(payloads), np.int64, count=src.size)
        if dst.size and not 0 <= dst.min() <= dst.max() < K:
            bad = int(np.nonzero((dst < 0) | (dst >= K))[0][0])
            raise SimMPIError(f"rank {int(src[bad])}: send to rank {int(dst[bad])} outside [0, {K})")
        values = chain.from_iterable(p.values() for p in payloads)
        objects = np.fromiter(values, object, count=src.size)
        try:
            size = np.fromiter(map(len, objects), np.int64, count=src.size)
        except TypeError as exc:
            raise PlanError("payloads must be sized (len()-able) objects") from exc
        return cls(K, src, dst, size, objects, dicts=payloads)

    @classmethod
    def synthetic(
        cls, K: int, src: np.ndarray, dst: np.ndarray, size: np.ndarray, grouped: bool
    ) -> "EdgePayloads":
        """Message ``(s, t)`` carries the words ``[s * K + t] * size``; the sort
        is stable, so a rank's rows keep the order given (a fill's dict order).

        Columns already ``grouped`` by source (a pattern's
        ``grouped_by_source``) are kept as given, unsorted and uncopied: pass arrays
        nobody writes to, such as a pattern's read-only views, which an
        in-place ``apply_delta`` replaces rather than writes.  The
        table records those columns and its row order (the identity,
        or the sort's) for :meth:`rows_of`; the keys are made when a
        payload is first read.
        """
        order = None if grouped else np.lexsort(digits16(src, K))
        rows = (src, dst, size) if order is None else (src[order], dst[order], size[order])
        return cls(K, *rows, None, origin=(src, dst, size, order))

    def rows_of(self, pattern) -> np.ndarray | None:
        """The table row of every row of ``pattern``; ``None`` when that is the row itself.

        A synthetic table cut from the pattern's own columns (the very
        arrays behind its views, which an in-place ``apply_delta``
        replaces) answers from its record, without a sort.  Any other
        table is sorted by ``(src, dst)`` key, stably, and compared with
        the pattern's edge index; a table that disagrees with the
        pattern is refused: the event engine would stall mid-exchange on
        it, so refuse up front instead of mis-simulating.
        """
        origin = self._origin
        if origin is not None and all(
            map(_same_elements, origin[:3], (pattern.src, pattern.dst, pattern.size))
        ):
            order = origin[3]
            if order is None:
                return None
            rows = np.empty(order.size, dtype=np.int64)
            rows[order] = np.arange(order.size)
            return rows
        key = self.src * self.K + self.dst
        eorder = np.argsort(key, kind="stable")
        pkey, porder = pattern.edges()  # the pattern's sorted keys, kept with it
        if not (
            np.array_equal(key[eorder], pkey)
            and np.array_equal(self.size[eorder], pattern.size[porder].astype(np.int64))
        ):
            raise SimMPIError(
                "engine='batch': payload dicts disagree with the planned "
                "pattern (missing/extra destinations or wrong payload sizes); "
                "the event engine would deadlock here — fix the payloads or "
                "rebuild the plan"
            )
        if np.array_equal(eorder, porder):
            return None
        # the sort and the pattern's edge index pair pattern rows with
        # table rows: the order payload dicts are enumerated in
        rows = np.empty(key.size, dtype=np.int64)
        rows[porder] = eorder
        return rows

    def take(self, rows) -> Sequence[Any]:
        """The payload objects of ``rows``, in that order."""
        if self._payload is not None:
            return self._payload[rows]
        key, size = self._key[rows], self.size[rows]
        width = size.max(initial=0)
        # row i repeats key[i] with stride 0: it shares no byte with another row
        grid = np.broadcast_to(key[:, None], (key.size, width))
        if (size == width).all():
            return list(grid)  # one size: whole rows, a third of the time of cutting each
        return [grid[i, :n] for i, n in enumerate(size.tolist())]

    def columns(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The payloads of ``rows`` by columns: ``(length, is_int64, words)``.

        ``length[i]`` is the word count of payload ``i`` (-1 unless it
        is one-dimensional), ``is_int64[i]`` whether its dtype is int64,
        and ``words`` the int64 payloads with a length, end to end in
        row order.  A synthetic table repeats its keys and makes no
        payload; caller objects are read once each through ``np.asarray``.
        """
        if self._payload is None:
            length = self.size[rows]
            return length, np.ones(length.size, dtype=bool), np.repeat(self._key[rows], length)
        arrays = [np.asarray(p) for p in self._payload[rows]]
        n = len(arrays)
        length = np.fromiter((a.shape[0] if a.ndim == 1 else -1 for a in arrays), np.int64, count=n)
        is_int64 = np.fromiter((a.dtype == np.int64 for a in arrays), bool, count=n)
        whole = [arrays[i] for i in np.flatnonzero(is_int64 & (length >= 0)).tolist()]
        return length, is_int64, np.concatenate(whole) if whole else np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return self.K

    def __getitem__(self, rank: int) -> Mapping[int, Any]:
        if self._dicts is None:
            self._dicts = dicts = [{} for _ in range(self.K)]
            for s, t, p in zip(self.src.tolist(), self.dst.tolist(), self.take(slice(None))):
                dicts[s][t] = p
        return self._dicts[rank]


def _delivery_lists(
    table: EdgePayloads, src: np.ndarray, rows: np.ndarray, ptr: np.ndarray
) -> list[list[tuple[int, Any]]]:
    """Per-rank ``(origin, payload)`` lists from table rows in delivery order.

    ``rows`` are grouped by receiver, ranks ascending, each rank's rows
    in its delivery order: rank ``r`` owns ``rows[ptr[r]:ptr[r + 1]]``.
    The deliveries from one origin share one ``int`` object.
    """
    origins = np.arange(len(table)).astype(object)[src].tolist()
    pairs = list(zip(origins, table.take(rows)))
    ends = ptr.tolist()
    return [pairs[a:b] for a, b in zip(ends, ends[1:])]


class Deliveries(abc.Sequence):
    """What every rank received, by columns, in the engine's delivery order.

    CSR by receiver over the rows of an :class:`EdgePayloads` table:
    rank ``r`` received ``rows[ptr[r]:ptr[r + 1]]``, in that order, from
    the origins ``src[ptr[r]:ptr[r + 1]]``.  It is also the ``Sequence``
    an event engine's ``returns`` is — ``deliveries[r]`` is rank ``r``'s
    ``[(origin, payload), ...]`` list — and builds all ``K`` lists, once,
    the first time one is read.  The payloads in them are the caller's
    own objects or, for a synthetic table, read-only views that repeat
    each row's key: copy a view to change it.  The origins are one
    shared ``int`` per rank.  ``rows``, ``ptr`` and ``src`` are
    read-only: a repeat run of one plan shares ``rows`` and ``ptr``
    (:class:`Schedule`), and ``src`` is gathered when first read.
    """

    def __init__(self, table: EdgePayloads, rows: np.ndarray, ptr: np.ndarray, lists=None):
        self.table = table
        self.rows, self.ptr = read_only(rows, ptr)
        self._lists = lists

    @cached_property
    def src(self) -> np.ndarray:
        """The origin of every delivery (made on first read)."""
        return read_only(self.table.src[self.rows])[0]

    @classmethod
    def from_lists(cls, delivered: Sequence[Sequence[tuple[int, Any]] | None]) -> "Deliveries":
        """Flatten per-rank ``(origin, payload)`` lists, one table row per delivery.

        ``None`` (a crashed rank returned nothing) counts as no
        deliveries; a :class:`Deliveries` passes through.  The payloads
        were received, possibly damaged, so the table has no ``size``:
        :meth:`EdgePayloads.columns` records what each one is.
        """
        if isinstance(delivered, cls):
            return delivered
        K = len(delivered)
        counts = np.fromiter((len(msgs or ()) for msgs in delivered), np.int64, count=K)
        ptr = np.concatenate(([0], np.cumsum(counts)))
        n = int(ptr[-1])
        pairs = [pair for msgs in delivered if msgs for pair in msgs]
        src = np.fromiter((s for s, _ in pairs), np.int64, count=n)
        objects = np.fromiter((p for _, p in pairs), object, count=n)
        dst = np.repeat(np.arange(K, dtype=np.int64), counts)
        table = EdgePayloads(K, src, dst, None, objects)
        return cls(table, np.arange(n), ptr, lists=delivered)

    @property
    def dst(self) -> np.ndarray:
        """The receiving rank of every delivery."""
        return np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.ptr))

    def __len__(self) -> int:
        return self.ptr.size - 1

    def __getitem__(self, rank):
        if self._lists is None:
            self._lists = _delivery_lists(self.table, self.src, self.rows, self.ptr)
        return self._lists[rank]

    def __iter__(self):
        return iter(self[:])  # one pass over the lists, not K index calls


class Schedule(NamedTuple):
    """What the sweeps and the routing replay of a planned STFW run compute.

    They read the plan's stage arrays, the machine, the rank mapping and
    the order of the payload table's rows, never the payloads, so the
    pattern's plan memo keeps the result
    (:attr:`repro.core.plan.PlanBuilder.schedules`): one entry per
    ``(vpt.weights, header_words, machine, mapping)`` key, with the plan's
    stages and the table-row order it was computed from.  A run with
    that key reuses it only if its plan's ``n`` stages are those very
    objects (frozen, checked when made, and kept by the plan builder)
    and its table rows come in the same order; anything else computes
    afresh, meets ``_stage_routes``' refusals and replaces the entry.
    The memo goes when the pattern is mutated in place.  A
    ``trace=True`` run always computes: its trace needs every message's
    times, which no entry keeps.  All arrays are read-only.
    """

    #: every rank's clock before stage 0, then after each stage
    clocks: tuple[np.ndarray, ...]
    #: the delivered table rows, grouped by receiver, in delivery order
    rows: np.ndarray
    #: rank ``r`` received ``rows[ptr[r]:ptr[r + 1]]``
    ptr: np.ndarray
    #: the largest final clock
    makespan_us: float


def _same_rows(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Whether two :meth:`EdgePayloads.rows_of` answers are one row order."""
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


class BatchSimMPI(SimMPI):
    """Vectorized planned-exchange backend (``engine="batch"``).

    Construct as ``BatchSimMPI(K, machine=...)`` and drive it through
    :meth:`run_planned_stfw`/:meth:`run_planned_direct`, or select it
    with ``engine="batch"`` on :func:`repro.core.stfw.run_exchange`
    (directly, or through ``distributed_spmv`` and the persistent
    exchange service, which forward it) — arbitrary process functions
    are refused (see :meth:`run`).  Accepts
    ``SimMPI``'s constructor keywords and rejects, by name, every
    option it cannot honor bit-identically.
    """

    #: planned-exchange-only backend: the one dispatch site,
    #: ``run_exchange``, routes through the vectorized executors instead
    #: of spawning per-rank process functions
    planned_only = True

    def __init__(
        self,
        K: int,
        *,
        machine: Machine | None = None,
        mapping: np.ndarray | None = None,
        trace: bool = False,
        jitter: float = 0.0,
        jitter_seed: int = 0,
        fault_plan=None,
        tracer=None,
    ):
        if machine is None:
            raise SimMPIError(
                "engine='batch' requires a machine: without one the event engine "
                "matches wildcard receives eagerly (an interleaving artifact a "
                "batch schedule cannot reproduce); use engine='event' for "
                "machine-less functional runs"
            )
        if jitter != 0.0:
            raise SimMPIError(
                f"jitter={jitter!r} is refused by engine='batch': per-message "
                "random slowdowns are drawn in engine event order, which a "
                "whole-stage sweep does not have; use engine='event'"
            )
        if fault_plan is not None:
            raise SimMPIError(
                "fault_plan is refused by engine='batch': crashes, drops, "
                "duplicates, flips, stragglers and outages are decided per "
                "event and change the message schedule mid-run; use "
                "engine='event'"
            )
        super().__init__(
            K,
            machine=machine,
            mapping=mapping,
            trace=trace,
            jitter_seed=jitter_seed,
            tracer=tracer,
        )
        # the default mapping is a function of K and the machine, which the
        # schedule memo's key holds already: only a caller's mapping is copied
        self._mapping_key = None if mapping is None else self._mapping.tobytes()
        if self._lookahead <= 0.0:
            raise SimMPIError(
                "engine='batch' requires a machine with positive minimum "
                f"latency, got lookahead {self._lookahead!r} us from "
                f"{machine.name!r}: zero lookahead disables the conservative "
                "wildcard gate that makes delivery order a pure function of "
                "virtual time; use engine='event'"
            )

    # ------------------------------------------------------------------
    # Arbitrary SPMD programs: refused by name
    # ------------------------------------------------------------------

    def run(self, proc_factory: Callable[..., Any]) -> RunResult:
        """Refuse arbitrary process functions, naming what cannot batch.

        A general SPMD program decides wildcard receives, timeouts,
        shrinks and NBX-style dynamic discovery message by message —
        control flow the whole-stage sweep cannot replay.  Planned
        exchanges go through ``run_exchange(..., engine='batch')``;
        everything else needs ``engine='event'``.
        """
        raise SimMPIError(
            "engine='batch' cannot run arbitrary process functions: wildcard "
            "receives, timeouts, shrink and NBX discovery are decided message "
            "by message and cannot be batch-scheduled; use "
            "run_exchange(..., engine='batch') for planned exchanges, or "
            "engine='event'"
        )

    # ------------------------------------------------------------------
    # Shared sweep machinery
    # ------------------------------------------------------------------

    def _sweep_sends(
        self,
        clocks: np.ndarray,
        snd: np.ndarray,
        rcv: np.ndarray,
        words: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance sender clocks for one stage; return start/arrive/counts.

        ``snd`` must be sorted ascending with each sender's messages in
        its program send order (true for plan stage arrays).  The
        ``j``-th send of every rank is one vector op, so the per-element
        float sequence ``start = clock; clock += cost`` matches the
        scalar engine (on round-major prefix slices: :func:`rounds`).
        """
        map_arr = self._mapping
        hops = self._topology.hops_array(map_arr[snd], map_arr[rcv])
        cost = self.machine.send_cost(hops, words)
        cnt_s = np.bincount(snd, minlength=self.K)
        senders, slots, sizes = rounds(cnt_s)
        cost = cost[slots]
        t = clocks[senders]
        before = np.empty(slots.size, dtype=np.float64)
        lo = 0
        for n in sizes:
            before[lo : lo + n] = t[:n]
            t[:n] += cost[lo : lo + n]
            lo += n
        clocks[senders] = t
        start, arrive = np.empty((2, slots.size), dtype=np.float64)
        start[slots] = before
        arrive[slots] = before + cost
        return start, arrive, cnt_s

    def _sweep_recvs(
        self,
        clocks: np.ndarray,
        rcv: np.ndarray,
        words: np.ndarray,
        arrive: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold one stage's deliveries into receiver clocks.

        Returns the message indices in global delivery order (receivers
        ascending, then the conservative gate's canonical
        ``(arrive_time, source, seq)`` match order, which a stable sort
        of the sender-sorted input gives: module docstring, fact 1) plus
        per-rank receive counts; ``arrive`` must not be empty.  The
        ``j``-th delivery of every rank is one Lindley fold ``clock =
        max(clock, arrive) + recv_cost`` — the scalar engine's
        ``_deliver`` elementwise.
        """
        rc = self.machine.recv_cost(words)
        # positive finite doubles order like their bit patterns, and those
        # radix-sort as four 16-bit digits where the floats would be compared
        bits = arrive.view(np.int64)
        if not 0 < bits.min() <= bits.max() < _INF_BITS:
            raise SimMPIError(
                "engine='batch': a message arrives at a time that is not a "
                "positive finite float (a machine whose send costs are zero, "
                "negative, infinite or NaN); the delivery order cannot be "
                "sorted by bit pattern — use engine='event'"
            )
        dord = np.lexsort((*digits16(bits, 2**63), *digits16(rcv, self.K)))
        cnt_r = np.bincount(rcv, minlength=self.K)
        receivers, slots, sizes = rounds(cnt_r)
        m = dord[slots]
        arrive, rc = arrive[m], rc[m]
        t = clocks[receivers]
        lo = 0
        for n in sizes:
            np.maximum(t[:n], arrive[lo : lo + n], out=t[:n])
            t[:n] += rc[lo : lo + n]
            lo += n
        clocks[receivers] = t
        return dord, cnt_r

    def _emit_engine_counters(
        self,
        sends: np.ndarray,
        sent_words: np.ndarray,
        recvs: np.ndarray,
        recv_words: np.ndarray,
    ) -> None:
        """Emit the aggregated ``engine.*`` counters.

        The event engine counts one increment per send/delivery; the
        totals per track are identical, and counters are compared by
        final value, so one aggregated emission per rank is exact.
        """
        obs = self._obs
        if obs is None:
            return
        r_s = np.nonzero(sends)[0].tolist()
        obs.count_batch("engine.sends", r_s, sends[r_s].tolist())
        obs.count_batch(
            "engine.sent_words", r_s, sent_words[r_s].astype(np.int64).tolist()
        )
        r_r = np.nonzero(recvs)[0].tolist()
        obs.count_batch("engine.recvs", r_r, recvs[r_r].tolist())
        obs.count_batch(
            "engine.recv_words", r_r, recv_words[r_r].astype(np.int64).tolist()
        )

    def _finalize_run(
        self,
        returns: Sequence[Any],
        sched: Schedule,
        trace_parts: list[tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray, np.ndarray]],
    ) -> RunResult:
        """Assemble the canonical ``RunResult`` (event-engine shape) on the
        schedule's own read-only final clocks."""
        trace: list[TraceRecord] = []
        for snd, rcv, tag, words, start, arrive in trace_parts:
            snd_l = snd.tolist()
            rcv_l = rcv.tolist()
            words_l = words.tolist()
            start_l = start.tolist()
            arrive_l = arrive.tolist()
            for i in range(len(snd_l)):
                trace.append(
                    TraceRecord(
                        source=snd_l[i],
                        dest=rcv_l[i],
                        tag=tag,
                        words=words_l[i],
                        send_time=start_l[i],
                        arrive_time=arrive_l[i],
                    )
                )
        trace.sort(key=trace_sort_key)
        self.trace = trace
        return RunResult(
            returns=returns,
            clocks=sched.clocks[-1],
            makespan_us=sched.makespan_us,
            trace=trace,
            crashed=[],
            fault_events=[],
        )

    # ------------------------------------------------------------------
    # Planned STFW exchange
    # ------------------------------------------------------------------

    def run_planned_stfw(
        self,
        vpt,
        plan,
        payloads: Sequence[Mapping[int, Any]],
    ) -> RunResult:
        """Execute a planned STFW exchange as whole-stage sweeps.

        ``plan`` must be the :func:`~repro.core.plan.build_plan` output
        for ``(plan.pattern, vpt)`` with the desired ``header_words``;
        ``payloads`` is an :class:`EdgePayloads` table or, per rank, a
        ``{destination: payload}`` dict (insertion order = the rank's
        send order, as in ``stfw_process``).  Returns the bit-identical
        ``RunResult`` of the event engine, its ``returns`` a
        :class:`Deliveries`: ``returns[r]`` is rank ``r``'s delivered
        ``(origin, payload)`` list.

        A repeat run of a plan reuses the :class:`Schedule` of the first
        instead of sweeping again.  The payloads are checked against the
        plan on every call (:meth:`EdgePayloads.rows_of`: a default table
        of the plan's own pattern by its record, any other by a sort).
        The stages were checked when made; a computed schedule refuses,
        with :meth:`~repro.core.plan.CommPlan.stage_members`'s
        ``PlanError``, a stage that repeats a route and one whose derived
        ``members`` disagree with ``nsub``.
        """
        K = self.K
        if vpt.K != K:
            raise SimMPIError(f"vpt K={vpt.K} does not match engine K={K}")
        if plan.vpt.dim_sizes != vpt.dim_sizes:
            raise SimMPIError(
                f"engine='batch': the plan was built for the VPT {plan.vpt.dim_sizes}, "
                f"not for {vpt.dim_sizes}; build the plan for the VPT it runs on"
            )
        table = EdgePayloads.from_dicts(payloads, K)
        pat = plan.pattern
        # table_row[p]: the table row of pattern row p (None: row p itself)
        table_row = table.rows_of(pat)

        from ..core.plan import PlanBuilder  # repro.core imports this module

        memo = PlanBuilder.of(pat).schedules
        key = (plan.vpt.weights, plan.header_words, self.machine, self._mapping_key)
        entry = None if self._trace_enabled else memo.get(key)
        trace_parts: list = []
        if (
            entry is not None
            and all(map(operator.is_, entry[0], plan.stages))
            and _same_rows(entry[1], table_row)
        ):
            sched = entry[2]
        else:
            sched, trace_parts = self._schedule(plan, table_row)
            memo[key] = (plan.stages, read_only(table_row)[0], sched)
        if self._obs is not None:
            self._observe(plan, sched.clocks)
        delivered = Deliveries(table, sched.rows, sched.ptr)
        return self._finalize_run(delivered, sched, trace_parts)

    def _stage_routes(self, plan, d: int) -> tuple[np.ndarray, ...]:
        """Stage ``d``'s messages and the pattern rows they carry.

        Returns ``(snd, rcv, words, moving, carrier)``: the stage's
        message arrays, the pattern rows that move in it and the message
        that carries each.  Refuses a stage the sweeps cannot replay.
        """
        st = plan.stages[d]
        members = plan.stage_members(d)  # refuses a stage that repeats a route
        moving = np.flatnonzero(members >= 0)
        return st.sender, st.receiver, st.total_words, moving, members[moving]

    def _schedule(self, plan, table_row: np.ndarray | None) -> tuple[Schedule, list]:
        """Sweep and route every stage of ``plan``: its :class:`Schedule`.

        ``table_row[p]`` is the table row of pattern row ``p`` (``None``:
        ``p`` itself).  Also returns the per-stage trace arrays when the
        run is traced.
        """
        K, pat = self.K, plan.pattern
        E = pat.num_messages
        if table_row is None:
            table_row = np.arange(E, dtype=np.int64)
        clocks = np.zeros(K, dtype=np.float64)
        stage_clocks = [clocks.copy()]
        trace_parts: list = []

        # routing by the plan: stage ``d`` carries pattern row ``p`` in
        # message ``plan.stage_members(d)[p]`` (-1: the row stays put).
        # Each row carries an *arrival key*: the global position at
        # which it entered the forward buffer it is next sent from.
        # Setup uses the table row (payload dicts are enumerated in
        # rank/dict order before any stage runs); keys assigned during
        # the stages start at E and grow monotonically, so sorting a
        # stage's moving rows by (message delivery position, arrival key)
        # reproduces the event engine's bundle order exactly — setup
        # entries first in dict order, then forwarded arrivals in
        # delivery order — without a per-message Python walk.  Arrival
        # keys are unique and below ``key_span``, so the pair is sorted
        # as one packed integer.
        arrival = table_row.copy()
        key_span = E + sum(int(st.nsub.sum()) for st in plan.stages)
        if max((st.num_messages for st in plan.stages), default=0) * key_span >= 2**62:
            raise SimMPIError(
                f"engine='batch': {key_span} arrival keys times the largest "
                "stage's message count does not fit the packed 64-bit routing key"
            )
        next_key = E
        del_rank_parts: list[np.ndarray] = []
        del_row_parts: list[np.ndarray] = []

        for d, st in enumerate(plan.stages):
            nm = st.num_messages
            if nm == 0:
                stage_clocks.append(stage_clocks[-1])
                continue
            snd, rcv, words, moving, carrier = self._stage_routes(plan, d)
            start, arrive, _ = self._sweep_sends(clocks, snd, rcv, words)
            dord, _ = self._sweep_recvs(clocks, rcv, words, arrive)
            stage_clocks.append(clocks.copy())
            if self._trace_enabled:
                trace_parts.append((snd, rcv, d, words, start, arrive))

            # ordered routing replay: sorting the stage's moving rows by
            # (delivery position of their message, arrival key) is exactly
            # "for each delivered message in delivery order, its bundle in
            # buffer order".  Rows the message brings to their destination
            # land in the per-rank delivery lists; the rest take the next
            # arrival key, which seeds the bundle order of the next stage.
            pos = np.empty(nm, dtype=np.int64)
            pos[dord] = np.arange(nm, dtype=np.int64)
            order = np.argsort(pos[carrier] * key_span + arrival[moving])
            ordered = moving[order]
            fin = rcv[carrier[order]] == pat.dst[ordered]
            arrival[ordered[~fin]] = next_key + np.flatnonzero(~fin)
            next_key += ordered.size
            del_rank_parts.append(pat.dst[ordered[fin]])
            del_row_parts.append(table_row[ordered[fin]])

        # per-rank delivery lists: arrival keys grow monotonically across
        # stages, so concatenating the per-stage final hops (already in
        # delivery order) and grouping stably by receiver reproduces each
        # rank's exact append order (``dr`` is one sorted run per stage,
        # which the stable kernel merges in linear time)
        empty = np.empty(0, dtype=np.int64)
        dr = np.concatenate(del_rank_parts or [empty])
        de = np.concatenate(del_row_parts or [empty])
        gord = np.argsort(dr, kind="stable")
        ptr = np.concatenate(([0], np.cumsum(np.bincount(dr, minlength=K))))
        sched = Schedule(
            read_only(*stage_clocks), *read_only(de[gord], ptr), float(clocks.max())
        )
        return sched, trace_parts

    def _observe(self, plan, clocks: Sequence[np.ndarray]) -> None:
        """Emit a planned run's stage spans and ``stfw.*``/``engine.*`` counters.

        ``clocks[d]`` holds every rank's clock when stage ``d`` starts,
        ``clocks[d + 1]`` when it ends.
        """
        obs, K, pat = self._obs, self.K, plan.pattern
        total_sends = np.zeros(K, dtype=np.int64)
        total_sent_words = np.zeros(K, dtype=np.float64)
        total_recvs = np.zeros(K, dtype=np.int64)
        total_recv_words = np.zeros(K, dtype=np.float64)
        origin_words = np.zeros(K, dtype=np.float64)
        forwarded_words = np.zeros(K, dtype=np.float64)
        for d, st in enumerate(plan.stages):
            nm = st.num_messages
            if nm == 0:
                cl = clocks[d].tolist()
                obs.add_span_batch(
                    f"stfw.stage{d}", cl, cl, range(K),
                    [(("expected", 0), ("stage", d))] * K, cat="stage",
                )
                continue
            snd, rcv, words, moving, carrier = self._stage_routes(plan, d)
            cnt_r = np.bincount(rcv, minlength=K)
            total_sends += np.bincount(snd, minlength=K)
            total_sent_words += np.bincount(snd, weights=words, minlength=K)
            total_recvs += cnt_r
            total_recv_words += np.bincount(rcv, weights=words, minlength=K)
            obs.count("stfw.stage_messages", int(nm), stage=d)
            obs.count("stfw.stage_words", int(words.sum()), stage=d)
            h_snd = snd[carrier]
            h_sz = pat.size[moving]
            omask = h_snd == pat.src[moving]
            origin_words += np.bincount(h_snd[omask], weights=h_sz[omask], minlength=K)
            forwarded_words += np.bincount(h_snd[~omask], weights=h_sz[~omask], minlength=K)
            frozen = [(("expected", c), ("stage", d)) for c in cnt_r.tolist()]
            obs.add_span_batch(
                f"stfw.stage{d}", clocks[d].tolist(), clocks[d + 1].tolist(),
                range(K), frozen, cat="stage",
            )

        r_o = np.nonzero(origin_words)[0]
        obs.count_batch(
            "stfw.origin_words",
            r_o.tolist(),
            origin_words[r_o].astype(np.int64).tolist(),
        )
        r_f = np.nonzero(forwarded_words)[0]
        obs.count_batch(
            "stfw.forwarded_words",
            r_f.tolist(),
            forwarded_words[r_f].astype(np.int64).tolist(),
        )
        self._emit_engine_counters(
            total_sends, total_sent_words, total_recvs, total_recv_words
        )

    def run_planned_direct(
        self,
        payloads: Sequence[Mapping[int, Any]],
        plan,
    ) -> RunResult:
        """Execute a :func:`~repro.core.plan.build_direct_plan` plan (BL).

        BL is Algorithm 1 over ``T_1``, so this is :meth:`run_planned_stfw`
        on the plan's flat VPT; a plan over any other VPT is refused.
        """
        if plan.K != self.K or not plan.vpt.is_flat():
            raise SimMPIError(
                f"engine='batch': run_planned_direct runs a T_1 plan over K={self.K}, "
                f"got one for the VPT {plan.vpt.dim_sizes}"
            )
        return self.run_planned_stfw(plan.vpt, plan, payloads)
