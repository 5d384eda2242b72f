"""NBX-style sparse pattern discovery: recv-sets from send-sets alone.

A dynamic sparse exchange starts from asymmetric knowledge: every rank
knows who *it* must send to (its ``SendSet``), but nobody knows who
will send to *them*.  MPI applications classically solve this with a
dense ``MPI_Alltoall`` over K counts — O(K) memory and time per rank
regardless of how sparse the pattern is.  The NBX algorithm (Hoefler et
al., *Scalable Communication Protocols for Dynamic Sparse Data
Exchange*) replaces that with speculative sends plus a nonblocking
consensus: each rank fires one small frame per destination, keeps
probing for incoming frames, and participates in a consensus that
terminates exactly when every frame in flight has been drained.

:func:`nbx_discover` is that protocol expressed on the emulator's
primitives.  The engine has no ``Issend``/``Ibarrier``, so the
consensus is **counter driven**: each round a rank drains every frame
currently arrivable (timed receives on a reserved tag) and then joins
an ``allreduce`` of the global *outstanding frame count* — frames sent
minus unique frames delivered.  The reduction doubles as NBX's
barrier: when it yields zero every speculative frame has landed, so
each rank's accumulated ``{source: words}`` map is its complete
recv-set and the loop exits on all ranks in the same round.  Late
arrivals cannot be missed: a frame whose virtual arrival time is still
in the future fails the timed receive (it stays queued — see
``Mailbox.match``'s arrival bound), the round's reduction reports it
outstanding, and the clock alignment of the reduction itself guarantees
a later round drains it.

Duplicate frames (fault injection) are suppressed per source so the
counter converges on the unique-delivery total.  Distinct discovery
epochs cannot bleed into each other: no rank leaves the consensus
until every frame of the epoch is drained, so a later epoch's frames
are always sent after the earlier epoch's were consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Generator

from ..errors import SimMPIError
from .message import TIMEOUT
from .runtime import Comm

__all__ = ["DISCOVERY_TAG", "DiscoveryStats", "nbx_discover"]

#: the reserved engine tag discovery frames travel on (distinct from
#: the reliable layer's ``WIRE_TAG = 1 << 24``)
DISCOVERY_TAG = 1 << 23

#: charged size of one discovery frame: (source, words) as two words
FRAME_WORDS = 2


@dataclass
class DiscoveryStats:
    """Counters of one rank's part in a discovery consensus."""

    frames_sent: int = 0
    frames_received: int = 0
    duplicates_suppressed: int = 0
    rounds: int = 0
    #: sendset entries masked because their destination is known dead
    frames_skipped_dead: int = 0
    #: speculative frames from a now-dead source, dropped not trusted
    frames_ignored_dead: int = 0


def nbx_discover(
    comm: Comm,
    sendset: dict[int, int],
    *,
    tag: int = DISCOVERY_TAG,
    probe_timeout_us: float = 50.0,
    dead: Collection[int] = (),
    tracer=None,
    stats: DiscoveryStats | None = None,
) -> Generator[object, object, dict[int, int]]:
    """Learn this rank's recv-set from every rank's send-set.

    A collective: every rank must call it in the same epoch, passing
    its own ``sendset`` (a ``{dest: words}`` map, e.g.
    ``CommPattern.sendset(rank)``).  Returns the rank's recv-set as a
    ``{source: words}`` map.  Use as::

        recvset = yield from nbx_discover(comm, pattern.sendset(comm.rank))

    Parameters
    ----------
    comm:
        The rank's raw communicator.
    sendset:
        Destinations and payload words this rank will send.
    tag:
        Engine tag for discovery frames; all ranks must agree on it
        and nothing else may use it during the consensus.
    probe_timeout_us:
        Virtual time a drain receive waits before declaring the round's
        mailbox dry.  Smaller values poll the consensus counter more
        often; correctness does not depend on the choice.
    dead:
        Ranks every caller agrees are crashed (e.g. the result of
        ``yield comm.shrink()``).  Sendset entries addressed to them
        are masked out of the speculative sends *and* the consensus
        accounting — a frame to a dead rank is dropped by the engine
        and would otherwise keep the outstanding count positive
        forever, wedging the consensus.  Speculative frames *from* a
        dead rank (sent before it crashed) are likewise ignored rather
        than trusted, so the returned recv-set names only live
        sources.  All callers must pass the same set.
    tracer:
        Optional :class:`repro.obs.Tracer`; activity is mirrored into
        ``discovery.*`` counters on this rank's track.
    stats:
        Optional :class:`DiscoveryStats` to fill in.
    """
    if probe_timeout_us <= 0:
        raise SimMPIError("discovery probe_timeout_us must be positive")
    st = stats if stats is not None else DiscoveryStats()
    obs = tracer if (tracer is not None and tracer.enabled) else None
    rank = comm.rank
    gone = frozenset(dead)
    if rank in gone:
        raise SimMPIError(f"rank {rank}: cannot discover as a dead rank")
    live = 0
    for dest, words in sendset.items():
        if words < 0:
            raise SimMPIError(
                f"rank {rank}: discovery sendset words must be non-negative"
            )
        if dest in gone:
            st.frames_skipped_dead += 1
            continue
        comm.send(dest, (rank, int(words)), tag=tag, words=FRAME_WORDS)
        live += 1
    st.frames_sent = live
    if obs is not None:
        obs.count("discovery.frames_sent", live, track=rank)
        if st.frames_skipped_dead:
            obs.count(
                "discovery.frames_skipped_dead", st.frames_skipped_dead, track=rank
            )

    recvset: dict[int, int] = {}
    delivered = 0
    while True:
        st.rounds += 1
        # drain everything currently arrivable on the discovery tag
        while True:
            got = yield comm.recv(tag=tag, timeout_us=probe_timeout_us)
            if got is TIMEOUT:
                break
            src, _tag, frame = got
            fsrc, words = frame
            if fsrc in gone:
                # a speculative frame the source fired before crashing:
                # rediscovered state must not trust the dead
                st.frames_ignored_dead += 1
                if obs is not None:
                    obs.count("discovery.frames_ignored_dead", 1, track=rank)
                continue
            if fsrc in recvset:
                st.duplicates_suppressed += 1
                if obs is not None:
                    obs.count("discovery.duplicates_suppressed", 1, track=rank)
                continue
            recvset[fsrc] = words
            delivered += 1
            st.frames_received += 1
            if obs is not None:
                obs.count("discovery.frames_received", 1, track=rank)
        # the consensus counter: globally, live frames sent minus
        # unique frames delivered.  Zero means no frame is still in
        # flight anywhere, so every rank's recvset is complete.
        outstanding = yield comm.allreduce(st.frames_sent - delivered, words=1)
        if outstanding <= 0:
            break
    if obs is not None:
        obs.count("discovery.consensus_rounds", st.rounds, track=rank)
    return recvset
