"""The event engine does work only for events that can occur.

Everything here is asserted on exact counts (``RunResult.engine_stats``)
or on recorded digests, never on wall time, so it cannot flake on a slow
runner.  The recorded values (quiescent rounds, fault-run digests) were
taken at the commit *before* the engine stopped waking receivers that
cannot match: they pin that the cheaper engine simulates the same run.
"""

import gc
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CommPattern, run_exchange
from repro.network import BGQ, MACHINES
from repro.simmpi import ANY_SOURCE, ANY_TAG, TIMEOUT, FaultPlan, SimMPI, run_spmd
from repro.simmpi.faults import LinkOutage
from repro.simmpi.message import Envelope, Mailbox
from repro.simmpi.runtime import ENGINE_STATS


def bench_pattern(K):
    """The benchmark's pattern family: degree 8, 16-word messages."""
    return CommPattern.random(K, 8, words=16, seed=0)


@pytest.fixture
def engines(monkeypatch):
    """Every event engine ``run_exchange`` constructs, for a look inside."""
    seen = []
    run = SimMPI.run

    def recording_run(self, proc_factory):
        seen.append(self)
        return run(self, proc_factory)

    monkeypatch.setattr(SimMPI, "run", recording_run)
    return seen


def holds_nothing(mb):
    """No envelope is counted or held by any of the mailbox's heaps."""
    return len(mb) == 0 and not any(mb._heaps.values())


def assert_mailboxes_empty(engine):
    for rank, proc in enumerate(engine._procs):
        assert holds_nothing(proc.mailbox), f"rank {rank} still holds mail"


class TestPlannedExchangeCounts:
    # (K, dims, quiescent rounds recorded at the parent commit); on the
    # benchmark's own inputs the same count is 33 at K=1024, 43 at K=8192
    CASES = [(256, 2, 25), (180, 3, 21)]

    @pytest.mark.parametrize("K,dims,rounds", CASES)
    def test_no_work_for_events_that_cannot_happen(self, engines, K, dims, rounds):
        res = run_exchange(bench_pattern(K), dims=dims, machine=BGQ)
        stats = res.run.engine_stats
        assert tuple(stats) == ENGINE_STATS
        assert stats["quiescent_rounds"] == rounds
        assert stats["stale_wakes"] == 0
        # no collectives or timers here, so every wake ends one blocked
        # receive: a receive is matched once where it is posted and at
        # most once more where it is woken
        assert stats["wakes"] == stats["held_released"]
        assert stats["match_attempts"] <= stats["deliveries"] + stats["wakes"]
        assert stats["deliveries"] == res.plan.num_physical_messages
        assert 0 < stats["mailbox_peak_live"] <= stats["deliveries"]
        assert_mailboxes_empty(engines[-1])

    def test_stats_do_not_take_part_in_equality(self):
        def worker(comm):
            comm.send(1 - comm.rank, comm.rank, words=1)
            return (yield comm.recv())

        timed = SimMPI(2, machine=BGQ).run(worker)
        again = replace(timed, engine_stats={})
        assert timed.engine_stats != again.engine_stats
        assert timed == again
        batch = run_exchange(bench_pattern(64), dims=2, machine=BGQ, engine="batch").run
        assert batch.engine_stats == {}  # no event loop to count


def env(source, tag, arrive, seq=0, payload=None):
    return Envelope(source, 0, tag, payload, 1, 0.0, arrive, seq)


class TestMailbox:
    def test_wildcard_then_specific_on_one_channel_is_fifo(self):
        mb = Mailbox()
        first, second = env(3, 7, 1.0, seq=0), env(3, 7, 2.0, seq=1)
        mb.post(first)
        mb.post(second)
        assert mb.match(ANY_SOURCE, 7) is first
        assert mb.match(3, 7) is second
        assert holds_nothing(mb)
        assert mb.match(ANY_SOURCE, 7) is None

    def test_specific_then_every_wildcard_flavour(self):
        mb = Mailbox()
        envs = [env(1, 5, 4.0), env(2, 5, 3.0), env(2, 6, 2.0), env(4, 9, 1.0)]
        for e in envs:
            mb.post(e)
        assert mb.match(ANY_SOURCE, 5) is envs[1]  # the top of tag 5's heap
        assert mb.match(2, ANY_TAG) is envs[2]  # a scan over every heap
        assert mb.match(1, 5) is envs[0]  # a scan of tag 5's heap
        assert mb.peek_arrival(ANY_SOURCE, 5) is None
        assert mb.match(ANY_SOURCE, ANY_TAG) is envs[3]
        assert holds_nothing(mb)

    def test_two_envelopes_on_one_key_then_one(self):
        mb = Mailbox()
        a, b, c = env(0, 0, 1.0, 0), env(0, 0, 1.0, 1), env(0, 0, 5.0, 2)
        mb.post(a)
        mb.post(b)
        assert mb.match(0, 0) is a
        mb.post(c)
        assert [mb.match(0, 0), mb.match(0, 0), mb.match(0, 0)] == [b, c, None]
        assert holds_nothing(mb)

    @pytest.mark.parametrize("source,tag", [(2, 1), (ANY_SOURCE, 1), (ANY_SOURCE, ANY_TAG)])
    def test_bounds_leave_the_head_in_place(self, source, tag):
        mb = Mailbox()
        head = env(2, 1, 10.0)
        mb.post(head)
        assert mb.match(source, tag, before=9.0) is None
        assert mb.match(source, tag, horizon=10.0) is None  # strict at the horizon
        assert mb.peek_arrival(source, tag, before=9.0) is None
        assert mb.peek_arrival(source, tag) == 10.0
        assert len(mb) == 1
        assert mb.match(source, tag, before=10.0, horizon=10.5) is head
        assert len(mb) == 0

    def test_purge_drops_everything_and_resets_the_indexes(self):
        mb = Mailbox()
        for seq in range(3):
            mb.post(env(1, 2, float(seq), seq))
        mb.post(env(5, 2, 0.5))
        assert mb.match(ANY_SOURCE, 2)[1] == 1  # the source
        assert mb.purge() == 3
        assert holds_nothing(mb)
        assert mb.match(ANY_SOURCE, 2) is None and mb.match(1, 2) is None
        late = env(1, 2, 9.0, 7)
        mb.post(late)
        assert mb.match(ANY_SOURCE, 2) is late


# three sources x three tags keep the channels few and the flavours colliding;
# most receives are unbounded so that they consume, and a purge is rare
PEER = st.sampled_from([ANY_SOURCE, 0, 1, 2])
BOUND = st.sampled_from([None, None, None, 0.0, 1.0, 2.5])
# a sender's clock is monotone: its arrivals advance by dt >= 0
POST = st.tuples(st.just("post"), st.integers(0, 2), st.integers(0, 2),
                 st.sampled_from([0.0, 0.0, 1.0, 1.5]))
MATCH = st.tuples(st.just("match"), PEER, PEER, BOUND, BOUND)
PEEK = st.tuples(st.just("peek"), PEER, PEER, BOUND)
MAILBOX_OPS = st.lists(
    st.one_of(*[POST] * 5, *[MATCH] * 6, PEEK, PEEK, st.tuples(st.just("purge"))),
    min_size=10,
    max_size=40,
)


class TestMailboxAgainstAScan:
    """The tag heaps and their scans, against a list that is scanned for
    the earliest ``(arrive, source, seq)`` match."""

    @staticmethod
    def earliest(live, source, tag):
        return min(
            (e for e in live if source in (ANY_SOURCE, e[1]) and tag in (ANY_TAG, e[3])),
            key=lambda e: e[:3],
            default=None,
        )

    @given(MAILBOX_OPS)
    @settings(max_examples=500, deadline=None)
    def test_same_envelope_by_identity(self, ops):
        mb, live = Mailbox(), []
        clock, seq = [0.0, 0.0, 0.0], [0, 0, 0]
        for op, *args in ops:
            if op == "post":
                source, tag, dt = args
                clock[source] += dt
                # an array payload: a comparison that reached it would raise
                e = Envelope(source, 9, tag, np.arange(3), 1, 0.0, clock[source], seq[source])
                seq[source] += 1
                mb.post(e)
                live.append(e)
            elif op == "purge":
                assert mb.purge() == len(live)
                live.clear()
            else:
                source, tag, before, *horizon = args
                want = self.earliest(live, source, tag)
                if want is not None and before is not None and want[0] > before:
                    want = None
                if op == "peek":
                    assert mb.peek_arrival(source, tag, before) == (want and want[0])
                    continue
                if want is not None and horizon[0] is not None and want[0] >= horizon[0]:
                    want = None
                assert mb.match(source, tag, before, horizon[0]) is want
                if want is not None:
                    live.remove(want)
            assert len(mb) == len(live)
        live.sort(key=lambda e: e[:3])
        assert all(mb.match(ANY_SOURCE, ANY_TAG) is e for e in live)
        assert holds_nothing(mb)


class TestInFlightIsInvisibleToTheCollector:
    """A waiting message is exact tuples over untracked leaves, so the cyclic
    collector stops tracking it: its population does not grow with the mail.
    A pass visits a container before what only it refers to, so it untracks
    one level of nesting: envelope, payload, submessage take three passes."""

    @staticmethod
    def waiting(n):
        sim = SimMPI(2)  # machine-less: rank 0 runs to completion first

        def program(comm):
            if comm.rank == 0:
                for i in range(n):
                    comm.send(1, ((1, 0, np.arange(4)),), tag=i % 3, words=4)
                return None
            for _ in range(3):
                gc.collect()
            tracked = len(gc.get_objects())
            envs = [e for heap in sim._procs[1].mailbox._heaps.values() for e in heap]
            loose = [e for e in envs if any(map(gc.is_tracked, (e, e[6], e[6][0], e[6][0][2])))]
            recv = [comm.recv(tag=t) for t in range(3)]
            for i in range(n):
                yield recv[i % 3]
            return len(envs), len(loose), tracked

        return sim.run(program).returns[1]

    def test_tracked_population_does_not_grow_with_the_mail(self):
        self.waiting(10)  # warm caches that allocate on first use
        few, loose_few, tracked_few = self.waiting(10)
        many, loose_many, tracked_many = self.waiting(2010)
        assert (few, many) == (10, 2010)
        assert loose_few == loose_many == 0
        # three tag heaps either way; a tracked NamedTuple envelope,
        # one per message, made this difference >= 2000
        assert abs(tracked_many - tracked_few) < 50


def mixed_receives(seed):
    """(K, program): every rank sends first, then drains its mail with
    receives of each flavour, a third of them timed.

    A rank knows what it is owed and only posts a receive that some owed
    message matches; all sends precede all receives, so no run deadlocks.
    """
    rng = np.random.default_rng(seed)
    K = int(rng.integers(3, 9))
    sends = []
    for r in range(K):
        n = int(rng.integers(0, 7))
        dst = rng.integers(0, K - 1, n)
        dst += dst >= r  # never r itself
        sends.append(list(zip(dst.tolist(), rng.integers(0, 3, n).tolist(),
                              rng.integers(1, 40, n).tolist())))
    owed = [[(r, t) for r in range(K) for d, t, _ in sends[r] if d == rank] for rank in range(K)]

    def program(comm):
        rank = comm.rank
        for dst, tag, words in sends[rank]:
            comm.send(dst, (rank, tag, words), tag=tag, words=words)
        pick = np.random.default_rng([seed, rank])
        waiting, got = list(owed[rank]), []
        while waiting:
            s, t = waiting[pick.integers(len(waiting))]
            kind = int(pick.integers(4))  # specific, tag only, source only, any
            timeout = float(pick.choice([0.5, 2.0, 8.0])) if pick.random() < 0.3 else None
            m = yield comm.recv(s if kind in (0, 2) else ANY_SOURCE,
                                t if kind in (0, 1) else ANY_TAG, timeout_us=timeout)
            if m is TIMEOUT:
                got.append("timeout")
                continue
            got.append(m)
            waiting.remove(m[:2])
        return got

    return K, program


class TestMixedReceivesPin:
    """Twenty generated programs over BGQ mixing every receive flavour with
    timeouts: clocks and each rank's delivery order, hashed, are the ones
    recorded when the mailbox kept a channel index beside its heaps."""

    DIGEST = "9b26b93d1407ea61ef52e00f0bd0be1162e4f32cd83ea31aebb2d35f78f3f2fa"

    def test_clocks_and_delivery_order_are_the_recorded_ones(self, engines):
        doc = []
        for seed in range(20):
            K, program = mixed_receives(seed)
            run = run_spmd(K, program, machine=BGQ)
            assert_mailboxes_empty(engines[-1])
            doc.append([run.clocks.tolist(), run.returns])
        assert "timeout" in str(doc)  # some timed receive did time out
        assert hashlib.sha256(json.dumps(canon(doc)).encode()).hexdigest() == self.DIGEST


@st.composite
def exchanges(draw):
    """(pattern, dims, machine): K need not be a power of two."""
    K, max_dims = draw(st.sampled_from([(16, 4), (24, 3), (36, 4), (60, 3), (64, 3)]))
    m = draw(st.integers(0, 4 * K))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, K - 1), st.integers(0, K - 1), st.integers(1, 12)),
            min_size=m, max_size=m, unique_by=lambda p: p[:2],
        )
    )
    pairs = [p for p in pairs if p[0] != p[1]]
    pattern = CommPattern.from_arrays(K, *(zip(*pairs) if pairs else ([], [], [])))
    return pattern, draw(st.integers(2, max_dims)), draw(st.sampled_from(sorted(MACHINES)))


class TestEventEqualsBatch:
    @given(exchanges())
    @settings(max_examples=40, deadline=None)
    def test_delivered_clocks_makespan(self, case):
        pattern, dims, machine = case
        kw = dict(dims=dims, machine=MACHINES[machine])
        event = run_exchange(pattern, engine="event", **kw)
        batch = run_exchange(pattern, engine="batch", **kw)
        assert np.array_equal(event.run.clocks, batch.run.clocks)
        assert event.makespan_us == batch.makespan_us
        assert len(event.delivered) == len(batch.delivered)
        for got, want in zip(batch.delivered, event.delivered):
            assert [s for s, _ in got] == [s for s, _ in want]
            assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(got, want))
        assert event.run.engine_stats["stale_wakes"] == 0


# ----------------------------------------------------------------------
# Fault-plan goldens: the whole RunResult, recorded at the parent commit
# ----------------------------------------------------------------------

def canon(x):
    """A JSON form that keeps type, dtype and every float bit."""
    if isinstance(x, np.ndarray):
        return ["ndarray", str(x.dtype), list(x.shape), x.tolist()]
    if isinstance(x, (list, tuple)):
        return [type(x).__name__, *map(canon, x)]
    if isinstance(x, float):
        return ["float", x.hex()]
    if x is TIMEOUT:
        return "TIMEOUT"
    if hasattr(x, "__dataclass_fields__"):
        return [type(x).__name__, *([n, canon(getattr(x, n))] for n in x.__dataclass_fields__)]
    if x is None or isinstance(x, (bool, int, str)):
        return x
    raise TypeError(f"no canonical form for {type(x).__name__}")


def run_digest(run):
    doc = canon([run.returns, run.clocks.tolist(), run.fault_events, run.crashed])
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _timeouts_then_shrink(comm):
    """Timed receives (hit and missed), a wildcard drain, shrink, allreduce."""
    K, rank = comm.size, comm.rank
    for j in (1, 3):
        comm.send((rank + j) % K, (rank, j), tag=j, words=3 + rank % 4)
    first = yield comm.recv((rank - 1) % K, 1, timeout_us=25.0)
    got = []
    while True:
        m = yield comm.recv(ANY_SOURCE, ANY_TAG, timeout_us=60.0)
        if m is TIMEOUT:
            break
        got.append(m)
    dead = yield comm.shrink()
    total = yield comm.allreduce(len(got))
    return (first, got, dead, total)


def ft_exchange(plan, **kw):
    return run_exchange(
        bench_pattern(128), dims=2, machine=BGQ, on_fault="tolerate", fault_plan=plan, **kw
    ).run


DROPS = FaultPlan(default_drop=0.02, stragglers={3: 4.0}, crashes={64: 40.0}, seed=0)
OUTAGES = FaultPlan(
    stragglers={3: 4.0, 17: 0.75},
    crashes={64: 40.0},
    outages=(LinkOutage(-1, 9, 0.0, 30.0), LinkOutage(40, -1, 10.0, 45.0)),
    seed=0,
)
SHRINK = FaultPlan(crashes={5: 20.0, 11: 70.0}, stragglers={2: 1.5}, seed=3)

SCENARIOS = {
    "drops": lambda: ft_exchange(DROPS),
    "outages": lambda: ft_exchange(OUTAGES),
    "shrink": lambda: SimMPI(24, machine=BGQ, fault_plan=SHRINK).run(_timeouts_then_shrink),
}

#: sha256 of run_digest's document, (crashed, fault events) beside it for a
#: readable first line of a failure
GOLDEN = {
    "drops": ("27964391c2bba43821d6793231427a8c4518b34db2379e0b02fa1b9108cb5173", [64], 198),
    "outages": ("a7f89c64cac924bf44a292eecb8ac2cb2d7a9df72a5f5bec056bb07315aabf29", [64], 83),
    "shrink": ("29a802e940663ba1a45a6e1c186a0cc771f445292ebb61171079fdebfe932e70", [5, 11], 2),
}

class TestFaultGoldens:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_run_result_is_byte_identical_to_the_parent(self, name):
        run = SCENARIOS[name]()
        digest, crashed, events = GOLDEN[name]
        assert (run.crashed, len(run.fault_events)) == (crashed, events)
        assert run_digest(run) == digest

    def test_fault_run_wakes_nobody_in_vain(self, engines):
        run = ft_exchange(DROPS)
        stats = run.engine_stats
        assert stats["stale_wakes"] == 0
        assert stats["timer_fires"] > 0 and stats["held_released"] > 0
        # every wake is a released receiver or a fired receive deadline
        # (a crash timer fires without waking anybody)
        fired = stats["wakes"] - stats["held_released"]
        assert 0 <= stats["timer_fires"] - fired <= len(run.crashed)
        assert_mailboxes_empty(engines[-1])
