"""Executable Algorithm 1 — the store-and-forward exchange, per process.

This module runs the paper's Algorithm 1 *as written* — per-process
forward buffers, stage loop, submessage scattering — on the simulated
MPI runtime (:mod:`repro.simmpi`).  It exists for two reasons:

1. **Fidelity**: it demonstrates the algorithm exactly as an MPI code
   would implement it (the plan-level simulator computes the same
   schedule analytically).
2. **Cross-validation**: the test suite checks that the messages it
   actually sends equal, stage by stage, the physical messages of the
   :class:`~repro.core.plan.CommPlan` — and that every payload arrives
   intact at its destination.

Two receive modes are supported:

* ``planned`` — per-stage receive counts are precomputed from the
  ``CommPlan`` (the amortized setup a persistent-pattern SpMV performs
  once and reuses for its 100 timed iterations, matching the paper's
  methodology);
* ``dynamic`` — each stage is preceded by a count exchange with all
  ``k_d - 1`` dimension-``d`` neighbors, so no global knowledge is
  needed (the cold-start path).

Fault tolerance
---------------
STFW concentrates risk that the direct scheme does not have: one dead
forwarder in stage ``d`` strands the coalesced submessages of many
(source, destination) pairs.  ``run_exchange(...,
on_fault=FaultPolicy(...))`` (or ``on_fault="tolerate"`` for the
default :class:`FaultPolicy`) runs the fault-tolerant variant, built on
the reliable delivery layer
(:class:`~repro.simmpi.reliable.ReliableComm`):

* every hop is acked, retried with exponential backoff, and
  deduplicated; a neighbor that exhausts the retry budget is marked
  *suspected dead*;
* submessages bound for a dead forwarder are **detoured**: the e-cube
  dimension order is locally permuted (fix an alternate dimension
  first), or the bundle is rerouted through an alternate digit of the
  same dimension with that dimension deferred, falling back to a
  direct send to the final destination when a dimension's forwarders
  are exhausted;
* delivery is confirmed **end-to-end**: the final destination sends an
  ``END`` receipt to the origin, which re-sends unconfirmed payloads
  directly after a quiesce timeout (bounded recovery rounds);
* each rank reports delivered vs. lost payloads
  (:class:`FTRankReport`), so degradation is measurable instead of a
  silent hang.

The non-tolerant :func:`stfw_process` under the same
:class:`~repro.simmpi.faults.FaultPlan` deadlocks; pass
``on_fault="partial"`` to :func:`run_exchange` to turn the structured
:class:`~repro.errors.DeadlockError` into a partial
:class:`ExchangeResult` that names the stranded pairs.

:func:`run_exchange` is the single whole-system driver — topology
(a ``vpt``, ``dims`` or a held plan; the direct baseline is the flat
``T_1``, the default) and fault policy (``on_fault`` of ``"raise"`` /
``"partial"`` / ``"tolerate"`` / a :class:`FaultPolicy`) are orthogonal
arguments.  The plain and the tolerant process bodies are separate
protocols — staged receive counts versus quiesce-terminated reliable
hops — behind one engine call.  The plain exchange is Algorithm 1's
stage loop over every topology, ``T_1`` included; only the tolerant
protocol keeps a direct form over ``T_1``, where a hop ack already is
the end-to-end receipt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Mapping, Sequence

import numpy as np

from ..arrayops import read_only
from ..errors import DeadlockError, PendingOp, PlanError
from ..simmpi.batch import EdgePayloads
from ..simmpi.engine import resolve_engine
from ..simmpi.faults import FaultPlan
from ..simmpi.integrity import corrupt_draw, flip_payload, payload_checksum
from ..simmpi.message import TIMEOUT, RunResult
from ..simmpi.reliable import ReliableComm
from ..simmpi.runtime import Comm, run_spmd
from .pattern import CommPattern, PatternDelta
from .plan import CommPlan, build_plan
from .vpt import VirtualProcessTopology

__all__ = [
    "stfw_process",
    "FaultPolicy",
    "recv_counts_from_plan",
    "SideTables",
    "side_tables_from_plan",
    "repair_side_tables",
    "run_exchange",
    "ExchangeResult",
    "FTRankReport",
]

#: tag offset separating per-stage count messages from data messages
_COUNT_TAG_BASE = 1 << 20

#: logical (reliable-layer) tags of the fault-tolerant exchange
_FT_BUNDLE_TAG = 0
_FT_END_TAG = 1


@dataclass
class ExchangeResult:
    """Outcome of a full exchange on the emulator (any scheme).

    ``delivered[i]`` lists ``(source, payload)`` pairs received by rank
    ``i`` (in arrival order) — a ``Sequence``: a list of lists from the
    event engines, a :class:`~repro.simmpi.batch.Deliveries` (the same
    lists, built on first read, over ``ptr``/``src``/``rows`` columns)
    from the batch engine; ``run`` carries clocks and the optional
    trace; ``plan`` is present when the exchange ran in planned mode.
    ``completed`` is False when the run was cut short by injected
    faults (``on_fault="partial"``); ``pending`` then holds the
    machine-readable blocked-rank dump and ``crashed`` the dead ranks.

    Fault-tolerant exchanges (``on_fault="tolerate"`` or a
    :class:`FaultPolicy`) additionally
    fill ``reports``: ``reports[i]`` is rank ``i``'s
    :class:`FTRankReport` (``None`` for a crashed rank), and
    ``delivered`` mirrors the reports' delivered lists.  ``reports`` is
    ``None`` for non-tolerant runs.
    """

    delivered: Sequence[Sequence[tuple[int, Any]]]
    run: RunResult
    plan: CommPlan | None = None
    completed: bool = True
    pending: tuple[PendingOp, ...] = ()
    crashed: tuple[int, ...] = ()
    reports: list["FTRankReport | None"] | None = None

    @property
    def makespan_us(self) -> float:
        """Virtual wall time of the exchange."""
        return self.run.makespan_us

    @property
    def lost(self) -> list[tuple[int, int]]:
        """All ``(origin, destination)`` pairs reported lost (FT runs).

        Empty for non-tolerant runs (which either deliver everything or
        fail another way).
        """
        if self.reports is None:
            return []
        out: set[tuple[int, int]] = set()
        for rep in self.reports:
            if rep is not None:
                out.update(rep.lost)
        return sorted(out)


def _payload_words(payload: Any) -> int:
    try:
        return len(payload)
    except TypeError as exc:
        raise PlanError("payloads must be sized (len()-able) objects") from exc


def recv_counts_from_plan(plan: CommPlan) -> np.ndarray:
    """Per-stage receive counts, shape ``(n_stages, K)``.

    Entry ``[d, i]`` is the number of physical messages rank ``i`` must
    receive in stage ``d`` — the persistent-pattern setup data.
    """
    out = np.zeros((plan.n_stages, plan.K), dtype=np.int64)
    for d, st in enumerate(plan.stages):
        out[d] = st.recv_counts()
    return out


@dataclass
class SideTables:
    """The persistent exchange's amortized per-pattern lookup tables.

    ``recv_counts`` is the planned-mode table of
    :func:`recv_counts_from_plan` (shape ``(n_stages, K)``): physical
    messages each rank must receive per stage.  ``origin_counts`` is
    the fault-tolerance accounting table (shape ``(K,)``): how many
    end-to-end payloads each rank expects — what the degraded-mode
    accounting of the self-healing service measures delivery against.

    Both are maintained *incrementally* across pattern drift by
    :func:`repair_side_tables`, byte-identical to recomputation.
    """

    recv_counts: np.ndarray
    origin_counts: np.ndarray

    def copy(self) -> "SideTables":
        """An independent copy (repair never mutates its input)."""
        return SideTables(self.recv_counts.copy(), self.origin_counts.copy())


def side_tables_from_plan(plan: CommPlan) -> SideTables:
    """Build the side tables of a plan from scratch (the cold path)."""
    return SideTables(
        recv_counts=recv_counts_from_plan(plan),
        origin_counts=np.bincount(
            plan.pattern.dst, minlength=plan.K
        ).astype(np.int64),
    )


def _sorted_only_in(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elements of sorted-unique ``a`` absent from sorted-unique ``b``."""
    if a.size == 0:
        return a
    if b.size == 0:
        return a
    pos = np.minimum(np.searchsorted(b, a), b.size - 1)
    return a[b[pos] != a]


def repair_side_tables(
    tables: SideTables,
    plan: CommPlan,
    repaired: CommPlan,
    delta: PatternDelta,
) -> SideTables:
    """Incrementally repair the side tables across one drift step.

    ``plan`` is the pre-drift plan, ``repaired`` its
    :func:`~repro.core.plan.repair_plan` output for ``delta``, and
    ``tables`` the pre-drift side tables.  Only the *routes the delta
    actually touched* are reconciled: per stage, the route keys that
    appeared or disappeared between the two plans adjust the affected
    receivers' counts, and the delta's removed/added edges adjust the
    end-to-end origin counts.  The result is byte-identical — values
    and dtypes — to ``side_tables_from_plan(repaired)`` (the chaos
    driver cross-checks this every epoch).

    Raises :class:`~repro.errors.PlanError` when the inputs do not
    belong together (shape/K/stage-count mismatch) or a count would go
    negative (the delta does not apply to this plan).
    """
    K = plan.K
    if repaired.K != K or delta.K != K:
        raise PlanError(
            f"side-table repair needs matching K: plan {K}, "
            f"repaired {repaired.K}, delta {delta.K}"
        )
    if len(repaired.stages) != len(plan.stages):
        raise PlanError(
            f"repaired plan has {len(repaired.stages)} stages, "
            f"original has {len(plan.stages)}"
        )
    if tables.recv_counts.shape != (len(plan.stages), K):
        raise PlanError(
            f"recv_counts shape {tables.recv_counts.shape} does not match "
            f"plan ({len(plan.stages)}, {K})"
        )
    if tables.origin_counts.shape != (K,):
        raise PlanError(
            f"origin_counts shape {tables.origin_counts.shape} does not "
            f"match K={K}"
        )
    recv = tables.recv_counts.copy()
    for d, (old_st, new_st) in enumerate(zip(plan.stages, repaired.stages)):
        old_key, new_key = old_st.route_key, new_st.route_key
        gone, born = _sorted_only_in(old_key, new_key), _sorted_only_in(new_key, old_key)
        if gone.size:
            recv[d] -= np.bincount(gone % K, minlength=K)
        if born.size:
            recv[d] += np.bincount(born % K, minlength=K)
    origin = tables.origin_counts.copy()
    if delta.remove_dst.size:
        np.subtract.at(origin, delta.remove_dst, 1)
    if delta.add_dst.size:
        np.add.at(origin, delta.add_dst, 1)
    if (recv.min(initial=0) < 0) or (origin.min(initial=0) < 0):
        raise PlanError(
            "side-table repair drove a receive count negative; "
            "the delta does not apply to this plan"
        )
    return SideTables(recv_counts=recv, origin_counts=origin)


def stfw_process(
    comm: Comm,
    vpt: VirtualProcessTopology,
    send_data: Mapping[int, Any],
    recv_counts: Sequence[int] | None = None,
    *,
    header_words: int = 0,
    out: list | None = None,
    corrupt_forwarders: Mapping[int, float] | None = None,
    flip_seed: int = 0,
    tracer=None,
) -> Generator:
    """Algorithm 1 for one rank; run under :func:`repro.simmpi.run_spmd`.

    Parameters
    ----------
    comm:
        The rank's communicator.
    vpt:
        The virtual process topology all ranks agree on.
    send_data:
        ``{destination: payload}`` — the rank's SendSet with payloads;
        payload sizes (``len``) are the charged words.
    recv_counts:
        ``recv_counts[d]`` = messages to expect in stage ``d``
        (planned mode); ``None`` selects dynamic count exchange.
    header_words:
        Extra words charged per submessage for its framing.
    out:
        Optional external delivery sink.  Deliveries are appended to it
        as they happen, so a caller injecting faults can still read the
        partial deliveries of a run that ends in a deadlock.
    corrupt_forwarders / flip_seed:
        Silent-data-corruption injection (from a
        :class:`~repro.simmpi.faults.FaultPlan`): when this rank's
        entry fires — a pure :func:`~repro.simmpi.integrity.corrupt_draw`
        keyed by ``flip_seed`` — a submessage it *relays* is forwarded
        with one bit flipped.  The plain exchange carries no checksums,
        so the corruption travels undetected to the destination; only
        an end-to-end payload verification (the persistent service's)
        can catch it.
    tracer:
        Optional :class:`repro.obs.Tracer`; records one virtual-time
        span per stage on this rank's track plus ``stfw.*`` counters
        (per-stage message/word totals, origin vs forwarded words).

    Returns
    -------
    list[tuple[int, Any]]
        ``(source, payload)`` pairs delivered to this rank.
    """
    rank = comm.rank
    n = vpt.n
    obs = tracer if (tracer is not None and tracer.enabled) else None
    weights = vpt.weights
    dim_sizes = vpt.dim_sizes
    corrupt_p = (corrupt_forwarders or {}).get(rank, 0.0)

    # fwbuf[d][digit] = submessages to forward in stage d to the
    # neighbor whose dimension-d coordinate is `digit`; only occupied
    # buckets have an entry, so a stage costs O(occupied buckets), not
    # O(k_d).  A bucket is the bare (dst, src, payload) tuple while it
    # holds one submessage (the common case), a list from the second on
    fwbuf: list[dict[int, Any]] = [{} for _ in range(n)]
    delivered: list[tuple[int, Any]] = [] if out is None else out

    # Algorithm 1 lines 4-6: bucket my own SendSet; the routing digit
    # math is inlined (first_diff_dim + digit) — this loop runs once per
    # origin payload on every rank
    for dst, payload in send_data.items():
        if dst == rank:
            raise PlanError(f"rank {rank} has a self message in its SendSet")
        delta = rank - dst
        d = 0
        while delta % weights[d + 1] == 0:
            d += 1
        digit = (dst // weights[d]) % dim_sizes[d]
        row = fwbuf[d]
        bucket = row.get(digit)
        if bucket is None:
            row[digit] = (dst, rank, payload)
        elif bucket.__class__ is list:
            bucket.append((dst, rank, payload))
        else:
            row[digit] = [bucket, (dst, rank, payload)]

    # Algorithm 1 lines 7-17: the stage loop
    for d in range(n):
        stage_t0 = comm.time
        stage_buf = fwbuf[d]
        if recv_counts is None:
            expect = yield from _exchange_counts(comm, vpt, d, stage_buf)
        else:
            expect = int(recv_counts[d])

        # send one coalesced message per non-empty buffer (lines 9-12):
        # a tuple of submessage tuples, which the collector stops tracking
        w = weights[d]
        w_next = weights[d + 1]
        own_base = rank - ((rank // w) % dim_sizes[d]) * w
        for digit, subs in sorted(stage_buf.items()):
            subs = tuple(subs) if subs.__class__ is list else (subs,)
            words = header_words * len(subs)
            try:
                for sub in subs:
                    words += len(sub[2])
            except TypeError as exc:
                raise PlanError(
                    "payloads must be sized (len()-able) objects"
                ) from exc
            comm.send(own_base + digit * w, subs, tag=d, words=words)
            if obs is not None:
                obs.count("stfw.stage_messages", 1, stage=d)
                obs.count("stfw.stage_words", words, stage=d)
                for _, src, payload in subs:
                    pw = len(payload)
                    if src == rank:
                        obs.count("stfw.origin_words", pw, track=rank)
                    else:
                        obs.count("stfw.forwarded_words", pw, track=rank)
        stage_buf.clear()  # sent; no later stage files into stage d

        # receive and scatter (lines 13-17); the wildcard-source recv
        # delivers stage-d messages in virtual arrival order.  Received
        # submessage tuples are rebucketed as-is, never rebuilt.
        recv = comm.recv(tag=d)  # untimed: no per-use state, so re-yielded
        for _ in range(expect):
            _, _, subs = yield recv
            for sub in subs:
                dst = sub[0]
                if dst == rank:
                    delivered.append((sub[1], sub[2]))
                    continue
                delta = rank - dst
                if delta % w_next:  # pragma: no cover - routing invariant
                    c = 0
                    while delta % weights[c + 1] == 0:
                        c += 1
                    raise PlanError(
                        f"rank {rank} received a stage-{d} submessage "
                        f"needing earlier stage {c}"
                    )
                c = d + 1
                while delta % weights[c + 1] == 0:
                    c += 1
                digit = (dst // weights[c]) % dim_sizes[c]
                if corrupt_p > 0.0 and corrupt_draw(
                    flip_seed, rank, sub[1], dst, d
                ) < corrupt_p:
                    # store-and-forward buffer corruption: the relayed
                    # payload silently loses a bit before re-bucketing
                    flipped, changed = flip_payload(
                        sub[2], flip_seed, rank, sub[1], dst, d
                    )
                    if changed:
                        sub = (sub[0], sub[1], flipped)
                        if obs is not None:
                            obs.count("integrity.forwarder_flips", 1, track=rank)
                row = fwbuf[c]
                bucket = row.get(digit)
                if bucket is None:
                    row[digit] = sub
                elif bucket.__class__ is list:
                    bucket.append(sub)
                else:
                    row[digit] = [bucket, sub]
        if obs is not None:
            obs.add_span(
                f"stfw.stage{d}", stage_t0, comm.time, track=rank,
                cat="stage", stage=d, expected=expect,
            )

    return delivered


def _neighbor_with_digit(vpt: VirtualProcessTopology, rank: int, d: int, digit: int) -> int:
    """The unique dimension-``d`` neighbor of ``rank`` with coordinate ``digit``."""
    w = vpt.weights[d]
    own = vpt.digit(rank, d)
    return rank + (digit - own) * w


def _exchange_counts(
    comm: Comm,
    vpt: VirtualProcessTopology,
    d: int,
    stage_buf: Mapping[int, Any],
) -> Generator:
    """Dynamic mode: tell every dimension-``d`` neighbor whether to expect data.

    ``stage_buf`` maps a neighbor's dimension-``d`` digit to its bucket;
    only occupied buckets have an entry.
    """
    rank = comm.rank
    for nb in vpt.neighbors(rank, d):
        has_data = 1 if vpt.digit(nb, d) in stage_buf else 0
        comm.send(nb, has_data, tag=_COUNT_TAG_BASE + d, words=1)
    expect = 0
    for _ in vpt.neighbors(rank, d):
        _, _, flag = yield comm.recv(tag=_COUNT_TAG_BASE + d)
        expect += flag
    return expect


# ----------------------------------------------------------------------
# Fault-tolerant exchange (reliable hops, e-cube detours, end-to-end
# receipts)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPolicy:
    """The fault-tolerant protocol's knobs: ``on_fault=FaultPolicy(...)``.

    ``timeout_us``/``max_retries``/``backoff`` bound each reliable hop,
    ``jitter``/``seed`` stretch its backoff deterministically (see
    :func:`~repro.simmpi.reliable.retry_jitter`).  ``suspected`` ranks
    are presumed dead from hop one and ``quarantined`` ranks are never
    chosen as forwarders while staying valid destinations
    (corrupt-forwarder containment).  ``quiesce_us`` and
    ``end_wait_us`` default (``None``) to three retry cycles and one
    (see :meth:`windows`); an origin re-sends unconfirmed payloads
    directly for at most ``max_recovery_rounds`` rounds.
    """

    timeout_us: float = 150.0
    max_retries: int = 3
    backoff: float = 2.0
    jitter: float = 0.0
    seed: int = 0
    suspected: tuple[int, ...] = ()
    quarantined: tuple[int, ...] = ()
    quiesce_us: float | None = None
    end_wait_us: float | None = None
    max_recovery_rounds: int = 2

    def __post_init__(self) -> None:
        for name in ("suspected", "quarantined"):
            ranks = tuple(sorted(int(r) for r in getattr(self, name)))
            object.__setattr__(self, name, ranks)

    def reliable_comm(self, comm: Comm, tracer=None) -> ReliableComm:
        """The rank's reliable layer, with ``suspected`` already dead.

        Peers suspected by, say, the escalation policy of a long-lived
        service are detoured around from hop one instead of being
        rediscovered through a full retry cycle each.
        """
        rc = ReliableComm(
            comm, timeout_us=self.timeout_us, max_retries=self.max_retries,
            backoff=self.backoff, jitter=self.jitter, seed=self.seed,
            tracer=tracer,
        )
        rc.dead.update(r for r in self.suspected if r != comm.rank)
        return rc

    def windows(self) -> tuple[float, float]:
        """``(quiesce_us, end_wait_us)`` with the defaults resolved.

        Quiesce defaults to three full retry cycles, enough to sit out
        a neighbor discovering a dead rank; the end-wait to **one**, so
        recovery re-sends land while their receivers are still inside
        their own quiesce windows.
        """
        cycle = self.timeout_us * sum(
            self.backoff**k for k in range(self.max_retries + 1)
        )
        quiesce = 3.0 * cycle if self.quiesce_us is None else self.quiesce_us
        end_wait = cycle if self.end_wait_us is None else self.end_wait_us
        return quiesce, end_wait


@dataclass
class FTRankReport:
    """One rank's outcome of a fault-tolerant exchange.

    ``delivered`` lists ``(origin, payload)`` pairs that reached this
    rank; ``lost`` lists ``(origin, destination)`` pairs this rank gave
    up on — as their origin (no end-to-end receipt after recovery) or
    as a forwarder (destination or every route to it dead, or the hop
    budget exhausted); ``dead_peers`` are ranks this rank's reliable
    layer presumes crashed.

    ``corrupt_dropped`` lists ``(origin, destination)`` pairs this rank
    discarded because the submessage's origin checksum no longer
    matched its payload (the origin recovers them via the END-receipt
    machinery); ``implicated`` names the previous hop of each dropped
    submessage, one entry per drop — the wire checksum of the reliable
    layer clears the link itself, so the corruption happened in (or
    upstream of) that hop's store-and-forward buffer.
    """

    delivered: list[tuple[int, Any]] = field(default_factory=list)
    lost: list[tuple[int, int]] = field(default_factory=list)
    dead_peers: list[int] = field(default_factory=list)
    corrupt_dropped: list[tuple[int, int]] = field(default_factory=list)
    implicated: list[int] = field(default_factory=list)


def _ft_next_hop(
    vpt: VirtualProcessTopology,
    rank: int,
    dst: int,
    skip: tuple[int, ...],
    dead: set[int],
    avoid: frozenset[int] = frozenset(),
) -> tuple[int, tuple[int, ...]] | None:
    """Choose the next hop for a submessage under suspected-dead ranks.

    Dimension-ordered (e-cube) routing, locally adapted: fix the lowest
    differing dimension whose forwarder is alive, preferring dimensions
    not deferred by an earlier detour (``skip``).  When a dimension's
    target forwarder is dead, try an **alternate digit in the same
    dimension** — the bundle detours through a live group member and
    the dimension is deferred, to be re-fixed later from a different
    group.  When every alternative is exhausted, fall back to a direct
    send to ``dst``.  Returns ``(next_hop, new_skip)``, or ``None``
    when ``dst`` itself is presumed dead (the submessage is lost).

    ``avoid`` holds *quarantined* ranks: alive — still valid as a final
    destination — but never chosen as an intermediate forwarder (the
    corrupt-forwarder containment of the escalation policy).
    """
    diffs = [d for d in range(vpt.n) if vpt.digit(rank, d) != vpt.digit(dst, d)]
    ordered = [d for d in diffs if d not in skip] + [d for d in diffs if d in skip]
    for d in ordered:
        target_digit = vpt.digit(dst, d)
        q = _neighbor_with_digit(vpt, rank, d, target_digit)
        if q == dst:
            # last differing dimension: the forwarder IS the destination
            if dst in dead:
                return None
            return dst, ()
        if q not in dead and q not in avoid:
            return q, skip
        # e-cube detour: alternate digit in the same dimension, with
        # the dimension deferred so the detour rank does not bounce the
        # bundle straight back toward the dead forwarder
        for g in vpt.neighbors(rank, d):
            if g in dead or g in avoid or vpt.digit(g, d) == target_digit:
                continue
            new_skip = skip if d in skip else skip + (d,)
            return g, new_skip
        # dimension exhausted; try the next differing dimension
    # every forwarding option is dead: send directly to the destination
    if dst in dead:
        return None
    return dst, ()


def _ft_ship(
    rc: ReliableComm,
    vpt: VirtualProcessTopology,
    lost: list[tuple[int, int]],
    subs: list[tuple[int, int, Any, int, tuple[int, ...], int]],
    *,
    header_words: int,
    avoid: frozenset[int] = frozenset(),
) -> Generator:
    """Route and reliably send submessages, re-routing around failures.

    ``subs`` entries are ``(dst, origin, payload, ttl, skip, checksum)``
    with ``checksum`` stamped once at the origin.  Bundles are coalesced
    per chosen next hop; a hop whose ack never arrives marks the peer
    dead and the affected submessages are re-routed under the updated
    suspicion set, until everything is shipped or recorded in ``lost``.
    ``avoid`` ranks (quarantined) are never chosen as forwarders.
    """
    rank = rc.comm.rank
    remaining = list(subs)
    while remaining:
        bundles: dict[int, list] = {}
        for dst, origin, payload, ttl, skip, ck in remaining:
            hop = _ft_next_hop(vpt, rank, dst, skip, rc.dead, avoid)
            if hop is None:
                lost.append((origin, dst))
                continue
            nxt, new_skip = hop
            bundles.setdefault(nxt, []).append(
                (dst, origin, payload, ttl, new_skip, ck)
            )
        remaining = []
        for nxt, bundle in sorted(bundles.items()):
            words = sum(_payload_words(p) for _, _, p, _, _, _ in bundle)
            words += header_words * len(bundle)
            ok = yield from rc.try_send(nxt, bundle, tag=_FT_BUNDLE_TAG, words=words)
            if not ok:
                # peer newly suspected dead: re-route this bundle
                remaining.extend(bundle)


def _stfw_ft_process(
    comm: Comm,
    vpt: VirtualProcessTopology,
    send_data: Mapping[int, Any],
    policy: FaultPolicy,
    *,
    header_words: int = 0,
    corrupt_forwarders: Mapping[int, float] | None = None,
    flip_seed: int = 0,
    tracer=None,
) -> Generator:
    """Fault-tolerant Algorithm 1 for one rank.

    Store-and-forward exchange over the reliable delivery layer: every
    hop is acked/retried/deduplicated, dead forwarders are routed
    around (see :func:`_ft_next_hop`), and each delivery is confirmed
    end-to-end with an ``END`` receipt from the final destination to
    the origin.  An origin whose receipts stop arriving for the
    policy's end-wait re-sends unconfirmed payloads directly (up to
    ``policy.max_recovery_rounds`` rounds — the case where a forwarder
    acked a bundle and then died holding it), then reports anything
    still unconfirmed as lost.

    Termination is quiesce-based — per-stage receive counts would be
    wrong in both directions under faults (a dead forwarder strands
    planned messages; detours create unplanned ones), so no global
    knowledge is assumed at all (see :meth:`FaultPolicy.windows`).

    **Integrity.**  Every submessage carries a content checksum stamped
    at its origin and verified at *every* hop.  The reliable layer's
    wire checksum clears each link, so a mismatch here means the
    previous hop relayed data its own buffer had corrupted: the
    submessage is dropped (never forwarded onward, never delivered),
    the previous hop is recorded in ``implicated``, and the origin's
    END-receipt machinery re-sends the payload directly — around the
    poisoner.  ``quarantined`` ranks (persistent corruptors, per the
    escalation policy) are e-cube-detoured around as forwarders while
    remaining reachable as destinations.  ``corrupt_forwarders`` /
    ``flip_seed`` inject that corruption deterministically (from a
    :class:`~repro.simmpi.faults.FaultPlan`).

    Returns an :class:`FTRankReport`.
    """
    rank = comm.rank
    obs = tracer if (tracer is not None and tracer.enabled) else None
    rc = policy.reliable_comm(comm, tracer)
    avoid = frozenset(r for r in policy.quarantined if r != rank)
    corrupt_p = (corrupt_forwarders or {}).get(rank, 0.0)
    quiesce_us, end_wait_us = policy.windows()
    max_recovery_rounds = policy.max_recovery_rounds
    ttl0 = 2 * vpt.n + 4  # hop budget: detours add at most one hop per dimension

    delivered: list[tuple[int, Any]] = []
    delivered_origins: set[int] = set()
    lost: list[tuple[int, int]] = []
    corrupt_dropped: list[tuple[int, int]] = []
    implicated: list[int] = []
    #: payloads this rank originated, keyed by destination, until their
    #: END receipt arrives
    outstanding: dict[int, Any] = {}
    #: origin checksums of the outstanding payloads (stamped once here)
    out_ck: dict[int, int] = {}

    subs = []
    for dst in sorted(send_data):
        if dst == rank:
            raise PlanError(f"rank {rank} has a self message in its SendSet")
        outstanding[dst] = send_data[dst]
        out_ck[dst] = payload_checksum(send_data[dst])
        subs.append((dst, rank, send_data[dst], ttl0, (), out_ck[dst]))
    yield from _ft_ship(rc, vpt, lost, subs, header_words=header_words, avoid=avoid)

    recovery_rounds = 0
    while True:
        # an origin still missing END receipts polls on the short
        # end-wait so its recovery re-send arrives while the receiver
        # is still inside its own (long) quiesce window
        recovering = bool(outstanding) and recovery_rounds < max_recovery_rounds
        wait = min(quiesce_us, end_wait_us) if recovering else quiesce_us
        got = yield from rc.recv(timeout_us=wait)
        if got is TIMEOUT:
            dropped = [dst for dst in outstanding if dst in rc.dead]
            for dst in dropped:
                lost.append((rank, dst))
                del outstanding[dst]
            if outstanding and recovery_rounds < max_recovery_rounds:
                recovery_rounds += 1
                if obs is not None:
                    obs.count("stfw_ft.recovery_rounds", 1, track=rank)
                    obs.instant(
                        "stfw_ft.recovery", comm.time, track=rank, cat="fault",
                        outstanding=len(outstanding),
                    )
                # recovery: bypass forwarding, re-send straight to the
                # destination (duplicates are suppressed there)
                for dst in sorted(outstanding):
                    payload = outstanding[dst]
                    bundle = [(dst, rank, payload, 1, (), out_ck[dst])]
                    words = _payload_words(payload) + header_words
                    ok = yield from rc.try_send(
                        dst, bundle, tag=_FT_BUNDLE_TAG, words=words
                    )
                    if not ok:
                        lost.append((rank, dst))
                        del outstanding[dst]
                continue
            if wait < quiesce_us:
                # the short end-wait poll expired, not the quiesce:
                # stay alive a full quiesce window so that a peer's
                # recovery re-send still finds this rank receiving
                continue
            break
        src, ltag, body = got
        if ltag == _FT_END_TAG:
            outstanding.pop(body, None)
            continue
        forwards = []
        for dst, origin, payload, ttl, skip, ck in body:
            if payload_checksum(payload) != ck:
                # the wire checksum cleared the link, so this payload
                # was already corrupt inside the previous hop's buffer:
                # drop it (the origin's END machinery re-sends direct)
                # and implicate that hop
                corrupt_dropped.append((origin, dst))
                implicated.append(src)
                if obs is not None:
                    obs.count("integrity.hop_corrupt", 1, track=rank)
                    obs.instant(
                        "integrity.corrupt_sub", comm.time, track=rank,
                        cat="fault", origin=origin, dest=dst, implicated=src,
                    )
                continue
            if dst == rank:
                if origin not in delivered_origins:
                    delivered_origins.add(origin)
                    delivered.append((origin, payload))
                # end-to-end receipt to the origin (re-sent for a
                # duplicate too: the origin is clearly still waiting)
                yield from rc.try_send(origin, dst, tag=_FT_END_TAG, words=1)
            elif ttl <= 1:
                lost.append((origin, dst))
            else:
                sub = (dst, origin, payload, ttl - 1, skip, ck)
                if corrupt_p > 0.0 and corrupt_draw(
                    flip_seed, rank, origin, dst, ttl
                ) < corrupt_p:
                    # store-and-forward buffer corruption: the payload
                    # loses a bit while parked here; the origin checksum
                    # stays, so the *next* hop catches it
                    flipped, changed = flip_payload(
                        payload, flip_seed, rank, origin, dst, ttl
                    )
                    if changed:
                        sub = (dst, origin, flipped, ttl - 1, skip, ck)
                        if obs is not None:
                            obs.count(
                                "integrity.forwarder_flips", 1, track=rank
                            )
                forwards.append(sub)
        if forwards:
            yield from _ft_ship(
                rc, vpt, lost, forwards, header_words=header_words, avoid=avoid
            )

    for dst in sorted(outstanding):
        lost.append((rank, dst))
    # a pair can be recorded twice (once when shipping fails, once when
    # its END receipt never arrives); report each loss exactly once
    return FTRankReport(
        delivered=delivered,
        lost=sorted(set(lost)),
        dead_peers=sorted(rc.dead),
        corrupt_dropped=sorted(set(corrupt_dropped)),
        implicated=sorted(implicated),
    )


def _direct_ft_process(
    comm: Comm,
    send_data: Mapping[int, Any],
    policy: FaultPolicy,
    *,
    header_words: int = 0,
    tracer=None,
) -> Generator:
    """Fault-tolerant baseline: direct reliable sends, quiesce receive.

    The ``T_1`` counterpart of :func:`_stfw_ft_process` — no forwarding, so
    a hop-level ack already is an end-to-end receipt, and the policy's
    quarantine, end-wait and recovery rounds do not apply.  Returns an
    :class:`FTRankReport`.
    """
    rank = comm.rank
    rc = policy.reliable_comm(comm, tracer)
    quiesce_us, _ = policy.windows()

    delivered: list[tuple[int, Any]] = []
    lost: list[tuple[int, int]] = []
    for dst in sorted(send_data):
        if dst == rank:
            raise PlanError(f"rank {rank} has a self message in its SendSet")
        payload = send_data[dst]
        ok = yield from rc.try_send(
            dst, payload, tag=_FT_BUNDLE_TAG,
            words=_payload_words(payload) + header_words,
        )
        if not ok:
            lost.append((rank, dst))
    while True:
        got = yield from rc.recv(timeout_us=quiesce_us)
        if got is TIMEOUT:
            break
        src, _, payload = got
        delivered.append((src, payload))
    return FTRankReport(
        delivered=delivered, lost=sorted(set(lost)), dead_peers=sorted(rc.dead)
    )


# ----------------------------------------------------------------------
# Whole-system drivers
# ----------------------------------------------------------------------


def _default_payloads(pattern: CommPattern) -> EdgePayloads:
    """Per-rank SendSets with synthetic verifiable payloads, by columns.

    Message ``m_ij`` carries the words ``[i * K + j] * size`` so that a
    delivered payload identifies its (source, destination) pair.  The
    table indexes like the list of ``{dst: payload}`` dicts an event
    engine reads (built on first use); the batch engine reads its
    columns and builds none.  The table stores one int64 key per
    message, not per word, made when a payload is first read; a payload
    is a read-only view that repeats its key, and no two share memory:
    copy one before mutating it.  The table is cut from the pattern's
    own columns and says so, so the batch engine pairs it with the
    pattern's plan without sorting it (until an in-place
    ``apply_delta`` replaces those columns).
    """
    return EdgePayloads.synthetic(
        pattern.K, pattern.src, pattern.dst, pattern.size, pattern.grouped_by_source
    )


def _resolve_vpt(
    pattern: CommPattern,
    vpt: VirtualProcessTopology | None,
    dims: int | None,
    plan: CommPlan | None,
    mode: str,
    tolerant: bool,
) -> VirtualProcessTopology:
    """The topology of :func:`run_exchange`.

    ``vpt``, else ``make_vpt(K, dims)``, else the held plan's, else the
    flat ``T_1`` of the baseline.  Refuses by name the arguments the
    chosen protocol would silently ignore: ``mode="dynamic"`` with a
    tolerant policy or over ``T_1``.
    """
    if mode not in ("planned", "dynamic"):
        raise PlanError(f"unknown mode {mode!r}")
    if mode == "dynamic" and tolerant:
        raise PlanError(
            "mode='dynamic' does not apply with a tolerant on_fault: the "
            "fault-tolerant protocol terminates by quiescence, not by "
            "receive counts"
        )
    if vpt is None:
        from .dimensioning import make_vpt

        if dims is not None:
            vpt = make_vpt(pattern.K, dims)
        elif plan is not None:
            vpt = plan.vpt
        else:
            vpt = VirtualProcessTopology((pattern.K,))
    elif dims is not None and vpt.n != dims:
        raise PlanError(f"vpt has {vpt.n} dimensions but dims={dims} was given")
    if pattern.K != vpt.K:
        raise PlanError(f"pattern K={pattern.K} != vpt K={vpt.K}")
    if mode == "dynamic" and vpt.is_flat():
        raise PlanError(
            "mode='dynamic' does not apply to the flat topology T_1 (BL): "
            "its count exchange would send K - 1 count messages per rank; "
            "use mode='planned'"
        )
    return vpt


def _vet_plan(
    plan: CommPlan,
    pattern: CommPattern,
    vpt: VirtualProcessTopology,
    mode: str,
    header_words: int,
    tolerant: bool,
) -> None:
    """Refuse by name a ``plan=`` that :func:`run_exchange` would not run.

    The plan must be a coalesced plan built for this very pattern
    object, this VPT and these ``header_words``, and the exchange must
    be one that reads a plan: planned and not tolerant.  Its stages
    were checked when made: only their coalesced bit is read here.
    """
    if mode == "dynamic":
        raise PlanError("plan= does not apply with mode='dynamic': it counts without a plan")
    if tolerant:
        raise PlanError("plan= does not apply with a tolerant on_fault: its protocol runs no plan")
    if plan.pattern is not pattern:
        raise PlanError("plan= was built for another pattern; build one for this pattern")
    if plan.vpt.dim_sizes != vpt.dim_sizes:
        raise PlanError(f"plan= was built for the VPT {plan.vpt.dim_sizes}, not {vpt.dim_sizes}")
    if plan.header_words != header_words:
        raise PlanError(f"plan= was built with header_words={plan.header_words}")
    for st in plan.stages:
        st.require_coalesced("plan=")


def run_exchange(
    pattern: CommPattern,
    vpt: VirtualProcessTopology | None = None,
    *,
    dims: int | None = None,
    payloads: Sequence[Mapping[int, Any]] | None = None,
    machine=None,
    mapping=None,
    mode: str = "planned",
    header_words: int = 0,
    trace: bool = False,
    tracer=None,
    fault_plan: FaultPlan | None = None,
    on_fault: str | FaultPolicy = "raise",
    engine: str = "event",
    plan: CommPlan | None = None,
    **engine_kwargs,
) -> ExchangeResult:
    """Execute one full exchange for ``pattern`` on the emulator.

    The single entry point for every exchange variant; the topology and
    the fault-handling policy are orthogonal axes:

    * **topology** — a ``vpt``, or ``dims=n`` for the balanced ``T_n``
      formation, or the VPT of a held ``plan``; with none of them, the
      flat ``T_1``.  The baseline (BL) *is* ``T_1``: no topology,
      ``dims=1``, a flat ``vpt`` or a
      :func:`~repro.core.plan.build_direct_plan` plan all run
      Algorithm 1 over its one stage, as every topology does
      (:func:`stfw_process`, or ``BatchSimMPI.run_planned_stfw``): each
      rank sends in ascending destination order, whatever order its
      payload dict was filled in, charged ``header_words`` once per
      message as the ``T_1`` plan does.  ``mode="dynamic"`` over
      ``T_1`` is refused by name.
    * **on_fault** — what to do when a ``fault_plan`` bites:
      ``"raise"`` propagates the :class:`~repro.errors.DeadlockError`
      a non-tolerant exchange produces; ``"partial"`` converts it into
      an incomplete :class:`ExchangeResult` naming the stranded pairs;
      a :class:`FaultPolicy` runs the fault-tolerant protocol (reliable
      hops, e-cube detours, END receipts) under that policy's knobs and
      always terminates, filling ``reports`` with per-rank
      :class:`FTRankReport` accounting.  ``"tolerate"`` means
      ``FaultPolicy()``.

    ``plan`` is a :class:`~repro.core.plan.CommPlan` the caller already
    holds, for this pattern object, VPT and ``header_words``; the
    exchange then runs on it instead of calling
    :func:`~repro.core.plan.build_plan` (which memoizes per pattern, so
    a repeat build is cheap but not free).  It is refused by name for
    another pattern, VPT or ``header_words``, a ``coalesce=False``
    plan, ``mode="dynamic"`` and a tolerant ``on_fault``; its stages,
    checked when made, are not checked again.  A plan stays valid as
    long as its pattern is not mutated in place.

    ``payloads`` is one ``{dst: payload}`` dict per rank, or an
    :class:`~repro.simmpi.batch.EdgePayloads` table; it defaults to the
    table of synthetic verifiable arrays sized by the pattern, which the
    batch engine reads by columns without building a dict.  ``mode`` is
    ``"planned"`` (receive counts precomputed from the plan; the
    amortized-setup path the paper times) or ``"dynamic"`` (per-stage
    count exchange; no global knowledge).  A ``fault_plan`` with
    ``corrupt_forwarders`` entries additionally arms the
    application-layer store-and-forward corruption in both the plain
    and the tolerant STFW processes.  ``tracer`` is an optional
    :class:`repro.obs.Tracer` receiving engine events plus per-stage
    spans and ``stfw.*`` counters.

    ``engine`` selects the simulation backend (``"event"`` or
    ``"batch"``; see :mod:`repro.simmpi.engine`): the first runs
    through :func:`~repro.simmpi.runtime.run_spmd`, while ``"batch"``
    executes the planned schedule as whole-stage sweeps, bit-identical
    to the event engine, and refuses by name what it cannot (no
    ``machine``, ``mode="dynamic"``, a tolerant ``on_fault``, fault
    plans, jitter).  ``on_fault="partial"`` requires the event engine:
    the salvage path reads deliveries out of per-rank sinks that only
    it fills as it goes.  Extra keyword arguments (``jitter``,
    ``jitter_seed``, ...) forward to the
    :class:`~repro.simmpi.runtime.SimMPI` engine.
    """
    policy = FaultPolicy() if on_fault == "tolerate" else on_fault
    tolerant = isinstance(policy, FaultPolicy)
    if not tolerant and policy not in ("raise", "partial"):
        raise PlanError(
            f"unknown on_fault {on_fault!r}; use 'raise', 'partial', "
            "'tolerate' or a FaultPolicy"
        )
    vpt = _resolve_vpt(pattern, vpt, dims, plan, mode, tolerant)
    if plan is not None:
        _vet_plan(plan, pattern, vpt, mode, header_words, tolerant)
    engine_cls = resolve_engine(engine)
    if on_fault == "partial" and engine_cls.planned_only:
        raise PlanError(
            f"on_fault='partial' requires engine='event' (got engine={engine!r}): "
            "partial salvage reads per-rank sinks that only the in-process "
            "event engine fills as it goes"
        )
    if engine_cls.planned_only:
        # the batch engine executes the static schedule as whole-stage
        # sweeps; everything decided message by message is refused by
        # name before any work happens
        if mode == "dynamic":
            raise PlanError(
                f"mode='dynamic' is refused by engine={engine!r}: NBX-style "
                "count discovery decides receive counts message by message; "
                "use mode='planned' or engine='event'"
            )
        if tolerant:
            raise PlanError(
                f"on_fault='tolerate' is refused by engine={engine!r}: the "
                "fault-tolerant protocol's timeouts, retries and detours are "
                "per-event control flow; use engine='event'"
            )
    if payloads is None:
        payloads = _default_payloads(pattern)
    # application-layer corruption sites travel with the fault plan, not
    # as user-facing knobs: the exchange consults them via pure draws
    corrupt_fw = None
    flip_seed = 0
    if fault_plan is not None and fault_plan.corrupt_forwarders:
        corrupt_fw = dict(fault_plan.corrupt_forwarders)
        flip_seed = fault_plan.seed
    if plan is None and mode == "planned" and not tolerant:
        plan = build_plan(pattern, vpt, header_words=header_words)

    if engine_cls.planned_only:
        sim = engine_cls(
            pattern.K,
            machine=machine,
            mapping=mapping,
            trace=trace,
            fault_plan=fault_plan,
            tracer=tracer,
            **engine_kwargs,
        )
        run = sim.run_planned_stfw(vpt, plan, payloads)
        return ExchangeResult(delivered=run.returns, run=run, plan=plan)

    # per-rank delivery sinks the plain bodies fill as they go: what a
    # salvaged deadlock's partial result is read from
    sinks: list[list[tuple[int, Any]]] = [[] for _ in range(pattern.K)]
    if tolerant and vpt.is_flat():
        factory = lambda comm: _direct_ft_process(  # noqa: E731
            comm, payloads[comm.rank], policy, header_words=header_words, tracer=tracer
        )
    elif tolerant:
        factory = lambda comm: _stfw_ft_process(  # noqa: E731
            comm,
            vpt,
            payloads[comm.rank],
            policy,
            header_words=header_words,
            corrupt_forwarders=corrupt_fw,
            flip_seed=flip_seed,
            tracer=tracer,
        )
    else:
        counts = None if plan is None else recv_counts_from_plan(plan)

        def factory(comm: Comm):
            rc = None if counts is None else counts[:, comm.rank]
            return stfw_process(
                comm,
                vpt,
                payloads[comm.rank],
                rc,
                header_words=header_words,
                out=sinks[comm.rank],
                corrupt_forwarders=corrupt_fw,
                flip_seed=flip_seed,
                tracer=tracer,
            )

    try:
        result = run_spmd(
            pattern.K,
            factory,
            machine=machine,
            mapping=mapping,
            trace=trace,
            fault_plan=fault_plan,
            tracer=tracer,
            **engine_kwargs,
        )
    except DeadlockError as exc:
        if on_fault != "partial":
            raise
        (clocks,) = read_only(np.array(exc.clocks or (0.0,) * pattern.K, dtype=np.float64))
        run = RunResult(
            returns=[None] * pattern.K,
            clocks=clocks,
            makespan_us=float(clocks.max()),
            crashed=list(exc.crashed),
        )
        return ExchangeResult(
            delivered=[list(s) for s in sinks],
            run=run,
            plan=plan,
            completed=False,
            pending=exc.pending,
            crashed=exc.crashed,
        )
    if tolerant:
        reports = _ft_reports(result)
        return ExchangeResult(
            delivered=[[] if r is None else list(r.delivered) for r in reports],
            run=result,
            plan=None,
            crashed=tuple(result.crashed),
            reports=reports,
        )
    return ExchangeResult(
        delivered=result.returns,
        run=result,
        plan=plan,
        crashed=tuple(result.crashed),
    )


def _ft_reports(result: RunResult) -> list[FTRankReport | None]:
    """Harvest rank reports, leaving ``None`` for crashed ranks."""
    return [r if isinstance(r, FTRankReport) else None for r in result.returns]
