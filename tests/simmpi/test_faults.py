"""Unit tests for the fault-injection subsystem."""

import pytest

from repro.errors import DeadlockError, PendingOp, SimMPIError
from repro.network import BGQ
from repro.simmpi import (
    TIMEOUT,
    FaultEvent,
    FaultPlan,
    LinkOutage,
    run_spmd,
)


def ping(comm):
    """Rank 0 sends one word to rank 1."""
    if comm.rank == 0:
        comm.send(1, "hello", words=1)
        return "sent"
    src, _, payload = yield comm.recv(timeout_us=1e6)
    return (src, payload)


class TestTrivialPlan:
    def test_no_plan_equals_trivial_plan(self):
        """A fault-free FaultPlan yields a byte-identical RunResult."""

        def worker(comm):
            other = 1 - comm.rank
            comm.send(other, comm.rank, words=4)
            _, _, v = yield comm.recv(source=other)
            ack = yield comm.allreduce(v, words=1)
            return (v, ack)

        bare = run_spmd(2, worker, machine=BGQ, trace=True)
        trivial = run_spmd(
            2, worker, machine=BGQ, trace=True, fault_plan=FaultPlan()
        )
        assert bare == trivial

    def test_is_trivial(self):
        assert FaultPlan().is_trivial
        assert FaultPlan(stragglers={0: 1.0}, link_drop={(0, 1): 0.0}).is_trivial
        assert not FaultPlan(crashes={0: 5.0}).is_trivial
        assert not FaultPlan(default_drop=0.1).is_trivial
        assert not FaultPlan(stragglers={0: 2.0}).is_trivial
        assert not FaultPlan(outages=(LinkOutage(0, 1, 0.0, 1.0),)).is_trivial


class TestValidation:
    def test_crash_rank_out_of_range(self):
        with pytest.raises(SimMPIError, match="outside"):
            run_spmd(2, ping, fault_plan=FaultPlan(crashes={5: 1.0}))

    def test_negative_crash_time(self):
        with pytest.raises(SimMPIError, match="negative"):
            run_spmd(2, ping, fault_plan=FaultPlan(crashes={0: -1.0}))

    def test_bad_probability(self):
        with pytest.raises(SimMPIError, match=r"outside \[0, 1\]"):
            run_spmd(2, ping, fault_plan=FaultPlan(default_drop=1.5))
        with pytest.raises(SimMPIError, match=r"outside \[0, 1\]"):
            run_spmd(2, ping, fault_plan=FaultPlan(link_drop={(0, 1): -0.1}))

    def test_bad_straggler(self):
        with pytest.raises(SimMPIError, match="positive"):
            run_spmd(2, ping, fault_plan=FaultPlan(stragglers={0: 0.0}))

    def test_reversed_outage_window(self):
        with pytest.raises(SimMPIError, match="reversed"):
            run_spmd(
                2, ping, fault_plan=FaultPlan(outages=(LinkOutage(0, 1, 5.0, 1.0),))
            )


class TestEagerValidation:
    """Satellite: invalid values fail at construction, naming the field."""

    def test_bad_probability_at_construction(self):
        with pytest.raises(SimMPIError, match=r"default_drop=1.5 outside \[0, 1\]"):
            FaultPlan(default_drop=1.5)
        with pytest.raises(SimMPIError, match=r"link_drop\[0,1\]=-0.1"):
            FaultPlan(link_drop={(0, 1): -0.1})
        with pytest.raises(SimMPIError, match=r"link_duplicate\[2,3\]=2\.0"):
            FaultPlan(link_duplicate={(2, 3): 2.0})
        with pytest.raises(SimMPIError, match="default_duplicate"):
            FaultPlan(default_duplicate=-0.5)

    def test_bad_times_at_construction(self):
        with pytest.raises(SimMPIError, match="negative"):
            FaultPlan(crashes={0: -1.0})
        with pytest.raises(SimMPIError, match="positive"):
            FaultPlan(stragglers={0: 0.0})
        with pytest.raises(SimMPIError, match="reversed"):
            FaultPlan(outages=(LinkOutage(0, 1, 5.0, 1.0),))

    def test_rank_range_checks_still_deferred_to_validate(self):
        """Rank bounds need K, so they only fire on validate(K)."""
        plan = FaultPlan(crashes={5: 1.0})  # constructs fine
        with pytest.raises(SimMPIError, match="outside"):
            plan.validate(2)


class TestJsonRoundTrip:
    """Satellite: to_json/from_json reproduce the plan exactly."""

    def test_full_plan_round_trips(self):
        plan = FaultPlan(
            crashes={3: 12.5, 0: 0.0},
            link_drop={(0, 1): 0.25, (2, 0): 1.0},
            link_duplicate={(1, 2): 0.5},
            default_drop=0.01,
            default_duplicate=0.02,
            stragglers={1: 2.5},
            outages=(LinkOutage(0, 1, 5.0, 10.0), LinkOutage(-1, 2, 0.0, 3.0)),
            seed=42,
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_empty_plan_round_trips(self):
        plan = FaultPlan()
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan and again.is_trivial

    def test_json_is_canonical(self):
        """Same plan, same string — dict insertion order is irrelevant."""
        a = FaultPlan(crashes={2: 1.0, 1: 5.0}, link_drop={(1, 0): 0.5, (0, 1): 0.5})
        b = FaultPlan(crashes={1: 5.0, 2: 1.0}, link_drop={(0, 1): 0.5, (1, 0): 0.5})
        assert a.to_json() == b.to_json()

    def test_from_json_tolerates_missing_fields(self):
        plan = FaultPlan.from_json('{"crashes": {"4": 7.0}}')
        assert plan.crashes == {4: 7.0}
        assert plan.seed == 0 and plan.outages == ()

    def test_from_json_validates_eagerly(self):
        with pytest.raises(SimMPIError, match=r"outside \[0, 1\]"):
            FaultPlan.from_json('{"default_drop": 3.0}')


class TestCrashes:
    def test_crash_before_send_kills_message(self):
        """A rank crashed at t=0 sends nothing; the receiver times out."""

        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "x", words=1)
                return "sent"
            got = yield comm.recv(timeout_us=100.0)
            return got

        res = run_spmd(2, worker, machine=BGQ, fault_plan=FaultPlan(crashes={0: 0.0}))
        assert res.crashed == [0]
        assert res.returns[0] is None
        assert res.returns[1] is TIMEOUT
        assert any(e.kind == "crash" and e.rank == 0 for e in res.fault_events)

    def test_crash_while_blocked(self):
        """A rank blocked on recv past its crash time dies there."""

        def worker(comm):
            if comm.rank == 0:
                yield comm.recv()  # nobody sends: blocks forever
                return "never"
            got = yield comm.recv(timeout_us=50.0)
            return got

        res = run_spmd(2, worker, machine=BGQ, fault_plan=FaultPlan(crashes={0: 10.0}))
        assert res.crashed == [0]
        assert res.returns == [None, TIMEOUT]

    def test_crash_causes_structured_deadlock(self):
        """A receive depending on a crashed sender raises DeadlockError
        with machine-readable pending state naming the blocked rank."""

        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "x", tag=3, words=1)
                return "sent"
            src, _, v = yield comm.recv(source=0, tag=3)
            return (src, v)

        with pytest.raises(DeadlockError) as ei:
            run_spmd(2, worker, machine=BGQ, fault_plan=FaultPlan(crashes={0: 0.0}))
        exc = ei.value
        assert exc.crashed == (0,)
        assert len(exc.clocks) == 2
        assert exc.pending == (
            PendingOp(rank=1, kind="recv", source=0, tag=3, mailbox=0),
        )
        assert "crashed" in str(exc)

    def test_send_to_dead_rank_is_dropped(self):
        """Messages to an already-dead rank vanish with reason dest-dead."""

        def worker(comm):
            if comm.rank == 0:
                yield comm.recv(timeout_us=100.0)  # outlive rank 1's crash
                comm.send(1, "late", words=1)
                return "done"
            got = yield comm.recv(timeout_us=500.0)
            return got

        res = run_spmd(2, worker, machine=BGQ, fault_plan=FaultPlan(crashes={1: 10.0}))
        assert res.crashed == [1]
        drops = [e for e in res.fault_events if e.kind == "drop"]
        assert drops and drops[0].reason == "dest-dead"
        assert drops[0].dest == 1


class TestDropsAndDuplicates:
    def test_certain_drop(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "x", words=1)
                return None
            return (yield comm.recv(timeout_us=100.0))

        res = run_spmd(
            2, worker, machine=BGQ, fault_plan=FaultPlan(link_drop={(0, 1): 1.0})
        )
        assert res.returns[1] is TIMEOUT
        assert [e.kind for e in res.fault_events] == ["drop"]
        assert res.fault_events[0].reason == "link"

    def test_certain_duplicate_delivered_twice(self):
        """The engine posts a duplicated envelope twice; satellite
        dedup (ReliableComm) is tested separately."""

        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "x", words=1)
                return None
            first = yield comm.recv(timeout_us=100.0)
            second = yield comm.recv(timeout_us=100.0)
            return (first, second)

        res = run_spmd(
            2, worker, machine=BGQ, fault_plan=FaultPlan(link_duplicate={(0, 1): 1.0})
        )
        first, second = res.returns[1]
        assert first == (0, 0, "x") and second == (0, 0, "x")
        assert [e.kind for e in res.fault_events] == ["duplicate"]

    def test_drop_only_on_configured_link(self):
        def worker(comm):
            if comm.rank in (0, 1):
                comm.send(2, comm.rank, words=1)
                return None
            got = []
            for _ in range(2):
                m = yield comm.recv(timeout_us=100.0)
                if m is not TIMEOUT:
                    got.append(m[0])
            return sorted(got)

        res = run_spmd(
            3, worker, machine=BGQ, fault_plan=FaultPlan(link_drop={(0, 2): 1.0})
        )
        assert res.returns[2] == [1]

    def test_seed_determinism(self):
        def worker(comm):
            if comm.rank == 0:
                for i in range(40):
                    comm.send(1, i, words=1)
                return None
            got = []
            while True:
                m = yield comm.recv(timeout_us=200.0)
                if m is TIMEOUT:
                    return got
                got.append(m[2])

        plan = FaultPlan(default_drop=0.3, seed=42)
        a = run_spmd(2, worker, machine=BGQ, fault_plan=plan)
        b = run_spmd(2, worker, machine=BGQ, fault_plan=plan)
        assert a == b
        c = run_spmd(2, worker, machine=BGQ, fault_plan=FaultPlan(default_drop=0.3, seed=43))
        assert c.returns[1] != a.returns[1]  # different seed, different fate


class TestStragglersAndOutages:
    def test_straggler_inflates_makespan(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "x", words=1000)
                return None
            return (yield comm.recv())

        base = run_spmd(2, worker, machine=BGQ)
        slow = run_spmd(
            2, worker, machine=BGQ, fault_plan=FaultPlan(stragglers={0: 4.0})
        )
        assert slow.makespan_us > 2.0 * base.makespan_us
        assert slow.returns[1] == base.returns[1]  # payload still arrives

    def test_outage_window_drops_then_recovers(self):
        """Only sends starting inside [start, end) are dropped."""

        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "early", words=1)  # t = 0: inside the window
                yield comm.recv(timeout_us=100.0)  # advance past the outage
                comm.send(1, "late", words=1)
                return None
            got = []
            while True:
                m = yield comm.recv(timeout_us=300.0)
                if m is TIMEOUT:
                    return got
                got.append(m[2])

        plan = FaultPlan(outages=(LinkOutage(0, 1, 0.0, 50.0),))
        res = run_spmd(2, worker, machine=BGQ, fault_plan=plan)
        assert res.returns[1] == ["late"]
        assert [e.reason for e in res.fault_events] == ["outage"]


class TestRecvTimeout:
    def test_timeout_fires_without_sender(self):
        def worker(comm):
            got = yield comm.recv(timeout_us=25.0)
            return (got, comm.time)

        res = run_spmd(1, worker, machine=BGQ)
        got, t = res.returns[0]
        assert got is TIMEOUT
        assert t == pytest.approx(25.0)

    def test_message_beats_timeout(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "fast", words=1)
                return None
            got = yield comm.recv(timeout_us=1e6)
            return got[2]

        res = run_spmd(2, worker, machine=BGQ)
        assert res.returns[1] == "fast"

    def test_nonpositive_timeout_rejected(self):
        def worker(comm):
            yield comm.recv(timeout_us=0.0)

        with pytest.raises(SimMPIError, match="timeout_us"):
            run_spmd(1, worker)


class TestSendValidation:
    """Satellite: eager argument validation naming the offending rank."""

    def test_dest_out_of_range(self):
        def worker(comm):
            comm.send(7, "x", words=1)
            return None
            yield  # pragma: no cover

        with pytest.raises(SimMPIError, match=r"rank 0: send to rank 7"):
            run_spmd(2, worker)

    def test_negative_dest(self):
        def worker(comm):
            comm.send(-1, "x", words=1)
            return None
            yield  # pragma: no cover

        with pytest.raises(SimMPIError, match=r"rank 0: send to rank -1"):
            run_spmd(2, worker)

    def test_negative_words(self):
        def worker(comm):
            comm.send(1, "x", words=-3)
            return None
            yield  # pragma: no cover

        with pytest.raises(
            SimMPIError, match=r"rank 0: message words must be non-negative"
        ):
            run_spmd(2, worker)

    def test_negative_tag(self):
        def worker(comm):
            comm.send(1, "x", tag=-2, words=1)
            return None
            yield  # pragma: no cover

        with pytest.raises(SimMPIError, match=r"rank 0: .*negative tag"):
            run_spmd(2, worker)


class TestFaultEventLog:
    def test_events_carry_link_and_size(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "x", tag=5, words=17)
                return None
            return (yield comm.recv(timeout_us=100.0))

        res = run_spmd(
            2, worker, machine=BGQ, fault_plan=FaultPlan(link_drop={(0, 1): 1.0})
        )
        (e,) = res.fault_events
        assert isinstance(e, FaultEvent)
        assert (e.rank, e.dest, e.tag, e.words) == (0, 1, 5, 17)


class TestBitflipValidation:
    """Satellite: every rejection names the offending field and key."""

    def test_link_flip_bad_probability_names_link(self):
        with pytest.raises(SimMPIError, match=r"link_flip\[0,1\]=1\.5"):
            FaultPlan(link_flip={(0, 1): 1.5})

    def test_default_flip_bad_probability(self):
        with pytest.raises(SimMPIError, match=r"default_flip=-0\.1"):
            FaultPlan(default_flip=-0.1)

    def test_corrupt_forwarder_bad_probability_names_rank(self):
        with pytest.raises(SimMPIError, match=r"corrupt_forwarders\[3\]=2"):
            FaultPlan(corrupt_forwarders={3: 2.0})

    def test_compute_flip_bad_probability_names_rank(self):
        with pytest.raises(SimMPIError, match=r"compute_flips\[1\]=-1"):
            FaultPlan(compute_flips={1: -1.0})

    def test_corrupt_forwarder_rank_range_checked_at_validate(self):
        plan = FaultPlan(corrupt_forwarders={9: 0.5})
        with pytest.raises(SimMPIError, match=r"corrupt_forwarders\[9\].*outside \[0, 4\)"):
            plan.validate(4)

    def test_compute_flip_rank_range_checked_at_validate(self):
        plan = FaultPlan(compute_flips={7: 0.5})
        with pytest.raises(SimMPIError, match=r"compute_flips\[7\].*outside \[0, 4\)"):
            plan.validate(4)

    def test_link_flip_rank_range_checked_at_validate(self):
        plan = FaultPlan(link_flip={(0, 6): 0.5})
        with pytest.raises(SimMPIError, match=r"link_flip link \(0, 6\)"):
            plan.validate(4)

    def test_outage_rejection_names_event_index(self):
        from repro.simmpi import LinkOutage

        with pytest.raises(SimMPIError, match=r"outages\[1\]"):
            FaultPlan(
                outages=(
                    LinkOutage(0, 1, 0.0, 1.0),
                    LinkOutage(0, 1, 5.0, 2.0),
                )
            )


class TestBitflipTriviality:
    def test_zero_probability_flips_are_trivial(self):
        assert FaultPlan(
            link_flip={(0, 1): 0.0},
            default_flip=0.0,
            corrupt_forwarders={2: 0.0},
            compute_flips={1: 0.0},
        ).is_trivial

    def test_nonzero_flips_are_not_trivial(self):
        assert not FaultPlan(default_flip=0.1).is_trivial
        assert not FaultPlan(link_flip={(0, 1): 0.1}).is_trivial
        assert not FaultPlan(corrupt_forwarders={0: 0.1}).is_trivial
        assert not FaultPlan(compute_flips={0: 0.1}).is_trivial

    def test_trivial_flip_plan_byte_identical_to_no_plan(self):
        """Acceptance: a bitflip plan with all-zero probabilities yields
        a byte-identical RunResult to running with no plan at all."""

        def worker(comm):
            other = 1 - comm.rank
            comm.send(other, comm.rank, words=4)
            _, _, v = yield comm.recv(source=other)
            ack = yield comm.allreduce(v, words=1)
            return (v, ack)

        bare = run_spmd(2, worker, machine=BGQ, trace=True)
        trivial = run_spmd(
            2,
            worker,
            machine=BGQ,
            trace=True,
            fault_plan=FaultPlan(
                link_flip={(0, 1): 0.0},
                default_flip=0.0,
                corrupt_forwarders={0: 0.0},
                compute_flips={1: 0.0},
            ),
        )
        assert bare == trivial


class TestBitflipRoundTrip:
    def test_flip_fields_round_trip(self):
        plan = FaultPlan(
            link_flip={(0, 1): 0.25, (2, 0): 1.0},
            default_flip=0.05,
            corrupt_forwarders={3: 1.0, 1: 0.5},
            compute_flips={0: 0.25},
            seed=17,
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_flip_json_validates_eagerly(self):
        with pytest.raises(SimMPIError, match=r"default_flip=2\.0"):
            FaultPlan.from_json('{"default_flip": 2.0}')


class TestInTransitFlips:
    def test_certain_link_flip_corrupts_payload(self):
        """A raw (non-reliable) send over a flipping link delivers a
        payload that differs from the original in exactly one bit."""
        import numpy as np

        sent = np.arange(8, dtype=np.int64)

        def worker(comm):
            if comm.rank == 0:
                comm.send(1, sent, words=8)
                return None
            _, _, payload = yield comm.recv(timeout_us=1000.0)
            return np.asarray(payload)

        plan = FaultPlan(link_flip={(0, 1): 1.0}, seed=3)
        res = run_spmd(2, worker, machine=BGQ, fault_plan=plan)
        got = res.returns[1]
        assert got.tobytes() != sent.tobytes()
        xor = np.bitwise_xor(got, sent)
        assert sum(int(x).bit_count() for x in xor) == 1

    def test_flip_is_seed_deterministic(self):
        import numpy as np

        def worker(comm):
            if comm.rank == 0:
                comm.send(1, np.arange(8, dtype=np.int64), words=8)
                return None
            _, _, payload = yield comm.recv(timeout_us=1000.0)
            return np.asarray(payload).tobytes()

        plan = FaultPlan(default_flip=1.0, seed=9)
        a = run_spmd(2, worker, machine=BGQ, fault_plan=plan)
        b = run_spmd(2, worker, machine=BGQ, fault_plan=plan)
        assert a.returns[1] == b.returns[1]

    def test_flip_leaves_unconfigured_link_clean(self):
        import numpy as np

        def worker(comm):
            if comm.rank == 0:
                comm.send(1, np.arange(4, dtype=np.int64), words=4)
                return None
            _, _, payload = yield comm.recv(timeout_us=1000.0)
            return np.asarray(payload)

        plan = FaultPlan(link_flip={(1, 0): 1.0}, seed=3)  # other direction
        res = run_spmd(2, worker, machine=BGQ, fault_plan=plan)
        assert (res.returns[1] == np.arange(4)).all()
