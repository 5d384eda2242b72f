"""Plan-level simulation of the store-and-forward scheme (Algorithm 1).

Building a :class:`CommPlan` answers, for a given pattern and VPT,
*exactly which physical messages are exchanged in every stage* without
executing per-process code: dimension-ordered routing makes the holder
of every submessage after stage ``d`` a pure function of its source,
destination and the topology (:func:`repro.core.routing.holder_after_stage_array`).
Submessages that share a (sender, receiver) pair in a stage coalesce
into one physical message — the coalescing that gives STFW its
``sum_d (k_d - 1)`` message-count bound.

The plan is the scalable path of the library (exact at 16K+ processes);
:mod:`repro.simmpi` + :mod:`repro.core.stfw` execute the same algorithm
process-by-process and are cross-validated against the plan in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..arrayops import read_only, run_starts
from ..errors import PlanError
from .pattern import CommPattern, PatternDelta
from .vpt import VirtualProcessTopology

__all__ = [
    "StageSchedule",
    "CommPlan",
    "PlanBuilder",
    "build_plan",
    "build_direct_plan",
    "plans_for_dimensions",
    "plans_identical",
    "repair_plan",
]


#: what a stage stores per message; ``route_key`` and ``total_words`` are derived
_STAGE_ARRAYS = ("sender", "receiver", "nsub", "payload_words")


@dataclass(frozen=True, kw_only=True)
class StageSchedule:
    """All physical messages of one communication stage of a ``K``-process plan.

    Parallel int64 arrays, one entry per physical message, ordered by
    ``route_key = sender * K + receiver``.  ``nsub`` is the number of
    submessages coalesced inside the message; ``payload_words`` their
    total payload.  A builder's coalesced stage also carries ``members``,
    per pattern row the message that carries it in this stage (-1: the
    row does not move; :meth:`CommPlan.stage_members` derives it when
    absent).  ``stage`` is the weight pair ``(w_d, w_{d+1})`` the
    messages depend on, so one stage serves every plan whose weights
    contain the pair.  ``route_key`` and ``total_words`` are derived,
    not stored.

    The constructor checks every invariant once and refuses a stage
    that breaks one by name; it records in ``coalesced`` whether the
    keys are strictly increasing (one message per route, which a
    ``coalesce=False`` build need not have) and makes the arrays
    read-only, so no consumer checks them again.
    """

    stage: tuple[int, int]
    K: int
    header_words: int
    sender: np.ndarray
    receiver: np.ndarray
    nsub: np.ndarray
    payload_words: np.ndarray
    members: np.ndarray | None = field(default=None, repr=False, compare=False)
    coalesced: bool = field(init=False)

    def __post_init__(self):
        d, m = "{}->{}".format(*self.stage), self.members
        arrays = [getattr(self, name) for name in _STAGE_ARRAYS]
        for name, a in zip((*_STAGE_ARRAYS, "members"), arrays + ([] if m is None else [m])):
            if not (isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype == np.int64):
                raise PlanError(f"stage {d}: {name} must be a 1-D int64 array, got {a!r:.60}")
        n = self.sender.size
        if any(a.size != n for a in arrays):
            raise PlanError(f"stage {d}: the message arrays differ in length")
        key = self.route_key
        later, earlier = key[1:], key[:-1]
        if (later < earlier).any():
            raise PlanError(f"stage {d}: the messages are not in (sender, receiver) order")
        object.__setattr__(self, "coalesced", not (later == earlier).any())
        if n and (self.nsub.min() < 1 or self.payload_words.min() < 0):
            raise PlanError(f"stage {d}: a message has nsub < 1 or payload_words < 0")
        # one count of members + 1 (taken into one scratch array), whose slot 0
        # takes the rows that stay: on ~460k rows half the time of selecting
        # the moving rows first
        if m is not None and not np.array_equal(
            np.bincount(np.maximum(slot := m + 1, 0, out=slot), minlength=n + 1)[1:], self.nsub
        ):
            raise PlanError(
                f"stage {d}: nsub disagrees with members, the pattern rows each message carries"
            )
        read_only(*arrays, m)

    @property
    def route_key(self) -> np.ndarray:
        """``sender * K + receiver`` per message, the stage's sort key (read-only,
        made on each read)."""
        key = self.sender * np.int64(self.K)
        key += self.receiver
        return read_only(key)[0]

    @property
    def total_words(self) -> np.ndarray:
        """Payload plus ``header_words`` per submessage, per message (read-only).

        At ``header_words == 0`` it is ``payload_words`` itself; otherwise
        it is made on each read.
        """
        h = self.header_words
        return self.payload_words if h == 0 else read_only(self.payload_words + h * self.nsub)[0]

    @property
    def num_messages(self) -> int:
        """Number of physical messages in this stage."""
        return int(self.sender.size)

    def require_coalesced(self, user: str) -> None:
        """Refuse, in the name of ``user``, a stage that repeats a route."""
        if not self.coalesced:
            raise PlanError(f"{user} requires a coalesced plan: stage {self.stage[0]}->"
                            f"{self.stage[1]} repeats a (sender, receiver) route (coalesce=False); "
                            "use build_plan(..., coalesce=True)")

    def sent_counts(self) -> np.ndarray:
        """Physical messages sent per process in this stage."""
        return np.bincount(self.sender, minlength=self.K)

    def recv_counts(self) -> np.ndarray:
        """Physical messages received per process in this stage."""
        return np.bincount(self.receiver, minlength=self.K)

    def sent_words(self) -> np.ndarray:
        """Words sent per process in this stage (incl. headers)."""
        return np.bincount(self.sender, weights=self.total_words, minlength=self.K).astype(np.int64)

    def recv_words(self) -> np.ndarray:
        """Words received per process in this stage (incl. headers)."""
        return np.bincount(self.receiver, weights=self.total_words,
                           minlength=self.K).astype(np.int64)


@dataclass(frozen=True)
class CommPlan:
    """Complete stage-by-stage schedule of an STFW exchange.

    Produced by :func:`build_plan`.  All reported "message counts" are
    counts of *physical* messages (coalesced), matching the paper's
    metrics; volumes are in words.  Frozen; its stages were checked when
    they were made, so it checks only that stage ``d`` is the one of its
    weight pair ``(w_d, w_{d+1})``, ``K`` and ``header_words`` (O(stages):
    the builder makes one per call).
    """

    vpt: VirtualProcessTopology
    pattern: CommPattern
    stages: tuple[StageSchedule, ...]
    header_words: int
    #: words of submessages resident at each process after each stage,
    #: excluding submessages already at their final destination
    #: (shape ``(n, K)``); the store-and-forward buffer occupancy.
    forward_occupancy: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    #: stage -> the ``members`` :meth:`stage_members` derived for it
    _derived_members: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        K, h, w = self.vpt.K, self.header_words, self.vpt.weights
        if self.pattern.K != K:
            raise PlanError(f"pattern has K={self.pattern.K} but VPT has K={K}")
        if len(stages) >= len(w):
            raise PlanError(f"a {len(w) - 1}-stage VPT has no room for {len(stages)} stages")
        for d, st in enumerate(stages):
            if st.stage != w[d:d + 2] or st.K != K or st.header_words != h:
                raise PlanError(
                    f"stage {d} of a K={K}, header_words={h} plan over weights {w[d]}->{w[d + 1]} "
                    f"is a stage {st.stage[0]}->{st.stage[1]} of a K={st.K}, "
                    f"header_words={st.header_words} one"
                )

    # -- message-count metrics -----------------------------------------

    @property
    def K(self) -> int:
        """Number of processes."""
        return self.vpt.K

    @property
    def n_stages(self) -> int:
        """Number of communication stages (= VPT dimension)."""
        return len(self.stages)

    def sent_counts(self) -> np.ndarray:
        """Total physical messages sent per process over all stages."""
        out = np.zeros(self.K, dtype=np.int64)
        for st in self.stages:
            out += st.sent_counts()
        return out

    def recv_counts(self) -> np.ndarray:
        """Total physical messages received per process over all stages."""
        out = np.zeros(self.K, dtype=np.int64)
        for st in self.stages:
            out += st.recv_counts()
        return out

    def sent_words(self) -> np.ndarray:
        """Total words sent per process over all stages (incl. headers)."""
        out = np.zeros(self.K, dtype=np.int64)
        for st in self.stages:
            out += st.sent_words()
        return out

    def recv_words(self) -> np.ndarray:
        """Total words received per process over all stages (incl. headers)."""
        out = np.zeros(self.K, dtype=np.int64)
        for st in self.stages:
            out += st.recv_words()
        return out

    @property
    def max_message_count(self) -> int:
        """The paper's ``mmax``: max messages sent by any process."""
        return int(self.sent_counts().max(initial=0))

    @property
    def avg_message_count(self) -> float:
        """The paper's ``mavg``: average messages sent per process."""
        return float(self.sent_counts().mean())

    @property
    def max_volume(self) -> int:
        """Max words sent by any process."""
        return int(self.sent_words().max(initial=0))

    @property
    def avg_volume(self) -> float:
        """The paper's ``vavg``: average words sent per process."""
        return float(self.sent_words().mean())

    @property
    def total_volume(self) -> int:
        """Total words moved over all stages (forwarding included)."""
        return int(sum(int(st.total_words.sum()) for st in self.stages))

    @property
    def num_physical_messages(self) -> int:
        """Total physical messages over all stages."""
        return sum(st.num_messages for st in self.stages)

    def stage_members(self, d: int) -> np.ndarray:
        """Stage ``d``'s ``members`` (read-only).

        A repaired or Bruck plan derives the same array the first time
        it is asked for, looking each moving row's (holder before,
        holder after) up in the stage's route keys, refuses a stage
        whose messages do not carry the rows it counts (``nsub``), and
        keeps it: the plan is frozen, and valid only as long as its
        pattern is not mutated in place.
        """
        st = self.stages[d]
        st.require_coalesced("routing by the plan")
        if st.members is not None:
            return st.members
        members = self._derived_members.get(d)
        if members is None:
            members = self._derived_members[d] = read_only(self._derive_members(d))[0]
        return members

    def _derive_members(self, d: int) -> np.ndarray:
        st = self.stages[d]
        pat, (w0, w1), key = self.pattern, st.stage, st.route_key
        h0 = _holder_of(pat.src, pat.dst, w0)
        h1 = _holder_of(pat.src, pat.dst, w1)
        moved = np.flatnonzero(h0 != h1)
        hkey = h0[moved] * np.int64(self.K) + h1[moved]
        m = np.searchsorted(key, hkey)
        if moved.size and (key.size == 0 or (key[np.minimum(m, key.size - 1)] != hkey).any()):
            raise PlanError(f"stage {d} of the plan has no message for a submessage it routes")
        if not np.array_equal(np.bincount(m, minlength=st.num_messages), st.nsub):
            raise PlanError(
                f"the messages of stage {d} do not carry the submessages the plan "
                "counts (nsub); the plan does not belong to its pattern"
            )
        members = np.full(pat.num_messages, -1, dtype=np.int64)
        members[moved] = m
        return members

    # -- buffer metrics --------------------------------------------------

    def buffer_words(self) -> np.ndarray:
        """Per-process buffer requirement in words.

        Model (Section 6.2): the buffers for the *original* messages a
        process sends and receives, plus — for multi-stage plans — the
        peak store-and-forward footprint: the largest over stages of
        (words received in the stage) + (words of transit submessages
        resident after the stage).  For a 1-stage plan (BL) the second
        term is zero and this reduces to the paper's BL definition.
        """
        orig_send = self.pattern.sent_words()
        orig_recv = self.pattern.recv_words()
        base = orig_send + orig_recv
        if self.n_stages == 1:
            return base
        peak = np.zeros(self.K, dtype=np.int64)
        for d, st in enumerate(self.stages):
            footprint = st.recv_words() + self.forward_occupancy[d]
            np.maximum(peak, footprint, out=peak)
        return base + peak

    @property
    def max_buffer_words(self) -> int:
        """Max per-process buffer requirement in words."""
        return int(self.buffer_words().max(initial=0))

    # -- bound checks (Section 4) ---------------------------------------

    def check_stage_bounds(self) -> None:
        """Raise ``PlanError`` if any process exceeds ``k_d - 1`` sends in a stage."""
        for d, st in enumerate(self.stages):
            limit = self.vpt.dim_sizes[d] - 1
            counts = st.sent_counts()
            worst = int(counts.max(initial=0))
            if worst > limit:
                raise PlanError(
                    f"stage {d}: a process sends {worst} messages, bound is {limit}"
                )


def _holder_of(src: np.ndarray, dst: np.ndarray, w: int) -> np.ndarray:
    """Vectorized dimension-ordered holder after a stage of weight ``w``."""
    if w == 1:
        return src
    return src - src % w + dst % w


class _DeltaRows:
    """One drift step resolved against a concrete pattern.

    Splits a :class:`~repro.core.pattern.PatternDelta` into the three
    per-row contribution groups :func:`repair_plan` folds into a plan:
    removed rows with their old sizes, reweighted rows with their size
    *change*, and added rows.
    """

    __slots__ = (
        "rem_src", "rem_dst", "rem_size", "rem_rows",
        "rw_src", "rw_dst", "rw_dsize", "rw_rows",
        "add_src", "add_dst", "add_size",
    )

    def __init__(self, pattern: CommPattern, delta: PatternDelta):
        if delta.K != pattern.K:
            raise PlanError(f"delta K={delta.K} does not match pattern K={pattern.K}")
        size = pattern.size
        rem_rows = pattern.edge_rows(delta.remove_src, delta.remove_dst)
        self.rem_src = delta.remove_src
        self.rem_dst = delta.remove_dst
        self.rem_size = size[rem_rows]
        self.rem_rows = rem_rows
        rw_rows = pattern.edge_rows(delta.reweight_src, delta.reweight_dst)
        self.rw_src = delta.reweight_src
        self.rw_dst = delta.reweight_dst
        self.rw_dsize = delta.reweight_size - size[rw_rows]
        self.rw_rows = rw_rows
        self.add_src = delta.add_src
        self.add_dst = delta.add_dst
        self.add_size = delta.add_size

    def stage_delta(
        self, K: int, w0: int, w1: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Aggregate (key, d_nsub, d_payload) for the stage ``w0 -> w1``.

        Only rows whose holder actually moves in the stage contribute;
        keys come back sorted and unique, matching the key order of the
        coalesced stage arrays.
        """
        keys: list[np.ndarray] = []
        dns: list[np.ndarray] = []
        dps: list[np.ndarray] = []
        for s, d, weight, dn_unit in (
            (self.rem_src, self.rem_dst, -self.rem_size, -1),
            (self.rw_src, self.rw_dst, self.rw_dsize, 0),
            (self.add_src, self.add_dst, self.add_size, 1),
        ):
            if s.size == 0:
                continue
            h0 = _holder_of(s, d, w0)
            h1 = _holder_of(s, d, w1)
            moved = h0 != h1
            if not moved.any():
                continue
            keys.append(h0[moved] * np.int64(K) + h1[moved])
            dns.append(np.full(int(moved.sum()), dn_unit, dtype=np.int64))
            dps.append(weight[moved])
        if not keys:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy(), e.copy()
        key = np.concatenate(keys)
        dn = np.concatenate(dns)
        dp = np.concatenate(dps)
        uniq, inv = np.unique(key, return_inverse=True)
        dn_agg = np.zeros(uniq.size, dtype=np.int64)
        dp_agg = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(dn_agg, inv, dn)
        np.add.at(dp_agg, inv, dp)
        live = (dn_agg != 0) | (dp_agg != 0)
        return uniq[live], dn_agg[live], dp_agg[live]

    def occupancy_delta(self, K: int, w1: int) -> np.ndarray:
        """Per-process change of in-transit words after a stage of weight ``w1``."""
        adj = np.zeros(K, dtype=np.int64)
        for s, d, weight in (
            (self.rem_src, self.rem_dst, -self.rem_size),
            (self.rw_src, self.rw_dst, self.rw_dsize),
            (self.add_src, self.add_dst, self.add_size),
        ):
            if s.size == 0:
                continue
            h1 = _holder_of(s, d, w1)
            transit = h1 != d
            if transit.any():
                np.add.at(adj, h1[transit], weight[transit])
        return adj


def _merge_stage_arrays(
    st: StageSchedule, dkey: np.ndarray, dn: np.ndarray, dp: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fold an aggregated stage delta into a coalesced stage's four lanes.

    The stage's keys are strictly increasing — canonical coalesced form,
    exactly what ``np.unique`` produces in the full build — and ``dkey``
    sorted and unique, so the merged result is byte-identical to
    rebuilding the stage from the drifted pattern.  The keys are made
    once, to place the delta; returns ``(sender, receiver, nsub,
    payload)``.
    """
    lanes = (st.sender, st.receiver, st.nsub, st.payload_words)
    if dkey.size == 0:
        return lanes
    key = st.route_key
    pos = np.searchsorted(key, dkey)
    if key.size:
        present = key[np.minimum(pos, key.size - 1)] == dkey
    else:
        present = np.zeros(dkey.size, dtype=bool)
    nsub = st.nsub.copy()
    payload = st.payload_words.copy()
    idx = pos[present]
    nsub[idx] += dn[present]
    payload[idx] += dp[present]
    # only an emptied message goes: what a delta that does not apply
    # leaves (a count below one, a negative payload) the stage refuses
    gone = idx[(nsub[idx] == 0) & (payload[idx] == 0)]
    lanes = (st.sender, st.receiver, nsub, payload)
    if gone.size:
        keep = np.ones(key.size, dtype=bool)
        keep[gone] = False
        lanes = tuple(a[keep] for a in lanes)
    new = ~present
    if not new.any():
        return lanes
    # linear merge of two sorted runs (new keys are never present in
    # the base, so tie handling does not arise); only the small inserted
    # run pays a divmod, and its slots come from where it would go among
    # the old keys less the emptied messages before it
    at = pos[new]
    at -= np.searchsorted(gone, at)
    slot = np.zeros(lanes[0].size + at.size, dtype=bool)
    slot[at + np.arange(at.size)] = True
    rest = ~slot
    merged = []
    for base, ins in zip(lanes, (*np.divmod(dkey[new], st.K), dn[new], dp[new])):
        out = np.empty(slot.size, dtype=np.int64)
        out[slot] = ins
        out[rest] = base
        merged.append(out)
    return tuple(merged)


class PlanBuilder:
    """Builds plans for one pattern, memoizing shared routing state.

    Under dimension-ordered routing the holder of a submessage after
    stage ``d`` is ``src - src % w + dst % w`` with ``w`` the VPT's
    ``weights[d + 1]`` — a function of the *weight* alone, not of the
    dimensionality it came from.  A stage's physical messages likewise
    depend only on the weight pair ``(w_d, w_{d+1})``, and the
    forward-buffer occupancy after the stage only on ``w_{d+1}``.  This
    builder caches all three by those keys, so building plans for many
    dimensionalities of one pattern (``plans_for_dimensions``, the SpMV
    scheme sweep) recomputes nothing two topologies share.

    ``PlanBuilder(pattern)`` starts from nothing; :meth:`of` (what
    :func:`build_plan` uses) reads and fills the memo the pattern
    itself keeps, so a pattern builds each stage once however many
    times its plans are asked for.  Memoized arrays are read-only and
    are shared by every plan built from them.  A stage goes through the
    :class:`StageSchedule` constructor once per ``(w_d, w_{d+1},
    header_words, coalesce)`` and the memo keeps the checked object,
    which every plan whose weights contain the pair shares; it also
    keeps each plan's stage tuple and forward occupancy, so a repeat
    :meth:`plan` allocates no array and checks only its O(stages)
    :class:`CommPlan`, and the batch engine knows a repeat plan by the
    identity of its stages.  The memo
    also holds :attr:`schedules`, what the batch engine computed from
    this pattern's plans (:mod:`repro.simmpi.batch`).
    Plans produced either way are identical — stage arrays, totals and
    occupancy — to a from-scratch build; the test suite pins this.
    """

    def __init__(self, pattern: CommPattern):
        self.pattern = pattern
        #: weight -> holder array after any stage with that weight
        self._holders: dict[int, np.ndarray] = {}
        #: (w_d, w_{d+1}, header_words, coalesce) -> the checked stage
        self._stages: dict[tuple[int, int, int, bool], StageSchedule] = {}
        #: w_{d+1} -> per-process in-transit words after the stage
        self._occupancy: dict[int, np.ndarray] = {}
        #: (weights, header_words, coalesce) -> (stages, occupancy): what
        #: plan() hands out, each stage made and checked once
        self._plans: dict[tuple, tuple] = {}
        #: the batch engine's run schedules, one per (weights,
        #: header_words, machine, mapping) key
        self.schedules: dict[tuple, tuple] = {}

    @classmethod
    def of(cls, pattern: CommPattern) -> "PlanBuilder":
        """A builder on ``pattern``'s own memo.

        The memo lives in the pattern and holds arrays only, no
        reference back to it: it goes when the pattern goes, when
        the pattern is mutated in place, and it is left out of a pickle.
        """
        memo = pattern._plan_memo
        if memo is None:
            memo = pattern._plan_memo = ({}, {}, {}, {}, {})
        builder = cls.__new__(cls)
        builder.pattern = pattern
        (builder._holders, builder._stages, builder._occupancy, builder._plans,
         builder.schedules) = memo
        return builder

    def _holder(self, w: int) -> np.ndarray:
        arr = self._holders.get(w)
        if arr is None:
            arr = self._holders[w] = _holder_of(self.pattern.src, self.pattern.dst, w)
            read_only(arr)
        return arr

    def _stage(self, w0: int, w1: int, header_words: int, coalesce: bool) -> StageSchedule:
        key = (w0, w1, header_words, coalesce)
        st = self._stages.get(key)
        if st is not None:
            return st
        if header_words:  # the header-free stage's arrays, charged headers
            st = replace(self._stage(w0, w1, 0, coalesce), header_words=header_words)
            self._stages[key] = st
            return st
        K = self.pattern.K
        holder = self._holder(w0)
        nxt = self._holder(w1)
        moved = holder != nxt
        senders = holder[moved]
        receivers = nxt[moved]
        sizes = self.pattern.size[moved]

        mkey = senders * np.int64(K) + receivers
        if not coalesce:
            order = np.argsort(mkey, kind="stable")
            msg_sender = senders[order]
            msg_receiver = receivers[order]
            payload = sizes[order]
            nsub = np.ones(senders.size, dtype=np.int64)
            members = None  # duplicate routes: a route names no one message
        else:
            # nothing below sees the order inside a run of equal keys
            order = np.argsort(mkey)
            key_sorted = mkey[order]
            first = run_starts(key_sorted)
            uniq = key_sorted[first]
            inv = np.empty(mkey.size, dtype=np.int64)
            inv[order] = np.cumsum(first) - 1
            nsub = np.bincount(inv, minlength=uniq.size).astype(np.int64, copy=False)
            payload = np.bincount(inv, weights=sizes, minlength=uniq.size).astype(np.int64)
            msg_sender, msg_receiver = np.divmod(uniq, K)
            members = np.full(moved.size, -1, dtype=np.int64)
            members[moved] = inv

        st = self._stages[key] = StageSchedule(
            stage=(w0, w1), K=K, header_words=0, sender=msg_sender, receiver=msg_receiver,
            nsub=nsub, payload_words=payload, members=members,
        )
        return st

    def _occupancy_row(self, w1: int) -> np.ndarray:
        row = self._occupancy.get(w1)
        if row is None:
            K = self.pattern.K
            holder = self._holder(w1)
            dst = self.pattern.dst
            in_transit = holder != dst
            if in_transit.any():
                row = np.bincount(
                    holder[in_transit],
                    weights=self.pattern.size[in_transit],
                    minlength=K,
                ).astype(np.int64)
            else:
                row = np.zeros(K, dtype=np.int64)
            self._occupancy[w1] = row
            read_only(row)
        return row

    def plan(
        self,
        vpt: VirtualProcessTopology,
        *,
        header_words: int = 0,
        coalesce: bool = True,
    ) -> CommPlan:
        """Build the plan for one topology (see :func:`build_plan`)."""
        if vpt.K != self.pattern.K:
            raise PlanError(f"pattern has K={self.pattern.K} but VPT has K={vpt.K}")
        if header_words < 0:
            raise PlanError("header_words must be non-negative")

        key = (vpt.weights, header_words, coalesce)
        built = self._plans.get(key)
        if built is None:  # the stages, and the read-only occupancy after each
            pairs = list(zip(vpt.weights, vpt.weights[1:]))
            built = self._plans[key] = (
                tuple(self._stage(w0, w1, header_words, coalesce) for w0, w1 in pairs),
                read_only(np.array([self._occupancy_row(w1) for _, w1 in pairs]))[0],
            )
        stages, occupancy = built
        return CommPlan(
            vpt=vpt,
            pattern=self.pattern,
            stages=stages,
            header_words=header_words,
            forward_occupancy=occupancy,
        )


def repair_plan(plan: CommPlan, delta: PatternDelta) -> CommPlan:
    """Incrementally repair a coalesced plan for one drift step.

    A coalesced plan's stage arrays are already the canonical
    key-sorted aggregation the full build produces, so the repair works
    directly from the plan: it computes holder routes for the
    *changed* edges only, folds their contributions into each stage's
    arrays, and adjusts the forward-occupancy rows — O(changes * n)
    work plus array copies, with none of the full build's
    sort-and-unique over every message.  The result is byte-identical
    to ``build_plan(plan.pattern.apply_delta(delta), plan.vpt,
    header_words=plan.header_words)`` (the test suite and the drift
    driver's ``--validate`` cross-check pin this).

    Raises :class:`~repro.errors.PlanError` for plans built with
    ``coalesce=False`` (their per-submessage row order cannot be
    repaired in place — rebuild instead) and for deltas that do not
    apply to the plan's pattern.  Each repaired stage goes through the
    :class:`StageSchedule` constructor's checks; ``members`` is not
    carried but derived on first use (:meth:`CommPlan.stage_members`),
    so the repair stays O(changes) in the pattern's rows.
    """
    for st in plan.stages:
        st.require_coalesced("repair_plan")
    vpt = plan.vpt
    K = vpt.K
    rows = _DeltaRows(plan.pattern, delta)
    new_pattern = plan.pattern.apply_delta(delta, _rows=(rows.rem_rows, rows.rw_rows))
    stages: list[StageSchedule] = []
    for st in plan.stages:
        sender, receiver, nsub, payload = _merge_stage_arrays(st, *rows.stage_delta(K, *st.stage))
        stages.append(replace(st, sender=sender, receiver=receiver, nsub=nsub,
                              payload_words=payload, members=None))
    occupancy = plan.forward_occupancy.copy()
    for d in range(vpt.n):
        occupancy[d] += rows.occupancy_delta(K, vpt.weights[d + 1])
    return CommPlan(
        vpt=vpt,
        pattern=new_pattern,
        stages=stages,
        header_words=plan.header_words,
        forward_occupancy=occupancy,
    )


def build_plan(
    pattern: CommPattern,
    vpt: VirtualProcessTopology,
    *,
    header_words: int = 0,
    coalesce: bool = True,
) -> CommPlan:
    """Simulate Algorithm 1 for an entire pattern at plan level.

    Parameters
    ----------
    pattern:
        The original point-to-point messages.
    vpt:
        Topology; ``vpt.K`` must equal ``pattern.K``.
    header_words:
        Words of metadata charged per submessage inside each physical
        message (the ``(dst, words)`` two-tuple of the paper's
        submessage framing).  The paper's volume metric counts pure
        payload, so the default is 0; set to 2 for a byte-accurate
        wire format.
    coalesce:
        When False (the coalescing ablation), every submessage travels
        as its own physical message — forfeiting the ``k_d - 1``
        per-stage bound and showing why Algorithm 1's merging is the
        load-bearing piece of the design.

    Returns
    -------
    CommPlan
        Stage-by-stage physical message schedule plus occupancy.

    Plans are memoized per pattern (:meth:`PlanBuilder.of`): the first
    build of a stage sorts and coalesces, every later build of a plan
    of the same pattern that shares the stage's weights, for this or
    another topology, only assembles the read-only stage arrays kept
    from it.  The memo lives exactly as long as the pattern and goes
    when the pattern is mutated in place.
    """
    return PlanBuilder.of(pattern).plan(vpt, header_words=header_words, coalesce=coalesce)


def build_direct_plan(pattern: CommPattern, *, header_words: int = 0) -> CommPlan:
    """The baseline (BL) plan: one stage of direct sends over ``T_1``.

    Exactly ``build_plan(pattern, VirtualProcessTopology((K,)))``, for
    every ``K >= 1``: a one-process pattern plans over ``T_1(1)``, an
    empty schedule with ``plan.K == 1``.
    """
    return build_plan(pattern, VirtualProcessTopology((pattern.K,)), header_words=header_words)


def plans_for_dimensions(
    pattern: CommPattern,
    dimensions: Sequence[int],
    *,
    header_words: int = 0,
) -> dict[int, CommPlan]:
    """Build one plan per requested VPT dimension.

    Convenience used throughout the experiment harness: dimension 1 is
    the baseline, dimensions >= 2 use the Section 5 balanced
    factorization.
    """
    from .dimensioning import make_vpt

    return {
        n: build_plan(pattern, make_vpt(pattern.K, n), header_words=header_words)
        for n in dimensions
    }


def plans_identical(p: CommPlan, q: CommPlan) -> bool:
    """True iff two plans are byte-identical (values **and** dtypes).

    Covers every stored array of every stage (``route_key`` and
    ``total_words`` follow from them) and its weight pair, the
    forward-occupancy matrix and the pattern arrays; ``members`` is not
    compared (a repaired plan derives it).  The
    canonical cross-check used wherever an incrementally repaired plan
    is validated against a from-scratch rebuild.
    """

    def same(a: np.ndarray, b: np.ndarray) -> bool:
        return a.dtype == b.dtype and a.shape == b.shape and bool((a == b).all())

    if p.vpt.dim_sizes != q.vpt.dim_sizes or p.header_words != q.header_words:
        return False
    if len(p.stages) != len(q.stages):
        return False
    if not same(p.forward_occupancy, q.forward_occupancy):
        return False
    for a, b in zip(p.stages, q.stages):
        if a.stage != b.stage or not all(same(getattr(a, n), getattr(b, n)) for n in _STAGE_ARRAYS):
            return False
    return (
        same(p.pattern.src, q.pattern.src)
        and same(p.pattern.dst, q.pattern.dst)
        and same(p.pattern.size, q.pattern.size)
    )
