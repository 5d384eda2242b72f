"""Unit tests for the simulated MPI runtime."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import DeadlockError, NetworkModelError, SimMPIError
from repro.network import BGQ, DragonflyTopology, FlatTopology, TorusTopology
from repro.simmpi import ANY_SOURCE, ANY_TAG, SimMPI, run_spmd
from repro.simmpi.batch import BatchSimMPI


class TestBasicSendRecv:
    def test_ping(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "hello", words=1)
                return "sent"
            else:
                src, tag, payload = yield comm.recv()
                return (src, payload)

        res = run_spmd(2, worker)
        assert res.returns == ["sent", (0, "hello")]

    def test_ping_pong(self):
        def worker(comm):
            other = 1 - comm.rank
            if comm.rank == 0:
                comm.send(other, 41, words=1)
                _, _, v = yield comm.recv(source=other)
                return v
            else:
                _, _, v = yield comm.recv(source=other)
                comm.send(other, v + 1, words=1)
                return v

        res = run_spmd(2, worker)
        assert res.returns == [42, 41]

    def test_recv_by_source_filter(self):
        def worker(comm):
            if comm.rank in (0, 1):
                comm.send(2, comm.rank * 100, words=1)
                return None
            got = []
            # explicitly receive rank 1 first even if 0's arrived earlier
            src, _, v = yield comm.recv(source=1)
            got.append((src, v))
            src, _, v = yield comm.recv(source=0)
            got.append((src, v))
            return got

        res = run_spmd(3, worker)
        assert res.returns[2] == [(1, 100), (0, 0)]

    def test_recv_by_tag_filter(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "a", tag=7, words=1)
                comm.send(1, "b", tag=9, words=1)
                return None
            _, tag, v = yield comm.recv(tag=9)
            assert (tag, v) == (9, "b")
            _, tag, v = yield comm.recv(tag=ANY_TAG)
            return (tag, v)

        res = run_spmd(2, worker)
        assert res.returns[1] == (7, "a")

    def test_fifo_per_source(self):
        def worker(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(1, i, words=1)
                return None
            out = []
            for _ in range(5):
                _, _, v = yield comm.recv(source=0)
                out.append(v)
            return out

        res = run_spmd(2, worker)
        assert res.returns[1] == [0, 1, 2, 3, 4]

    def test_any_source(self):
        def worker(comm):
            if comm.rank:
                comm.send(0, comm.rank, words=1)
                return None
            seen = set()
            for _ in range(comm.size - 1):
                src, _, v = yield comm.recv(source=ANY_SOURCE)
                assert src == v
                seen.add(v)
            return seen

        res = run_spmd(8, worker)
        assert res.returns[0] == set(range(1, 8))

    def test_any_source_matches_earliest_arrival(self):
        # Two senders whose virtual arrival order inverts their engine
        # posting order: rank 1 runs first (posting "late" first) but
        # has a huge clock from earlier sends, while rank 2 posts
        # "early" afterwards with a near-zero clock.  A wildcard recv
        # must deliver "early" (earliest arrive_time), not the first
        # posted envelope.
        def worker(comm):
            if comm.rank == 1:
                for _ in range(8):
                    comm.send(3, "spam", words=500)  # inflate rank 1's clock
                comm.send(0, "late", words=1)
                return None
            if comm.rank == 2:
                comm.send(0, "early", words=1)
                return None
            if comm.rank == 3:
                for _ in range(8):
                    yield comm.recv(source=1)
                return None
            got = []
            for _ in range(2):
                src, _, v = yield comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                got.append((src, v))
            return got

        res = run_spmd(4, worker, machine=BGQ, trace=True)
        assert res.returns[0] == [(2, "early"), (1, "late")]
        # sanity: the arrival order really was inverted vs posting order
        arrivals = {rec.source: rec.arrive_time for rec in res.trace if rec.dest == 0}
        assert arrivals[2] < arrivals[1]

    def test_any_tag_from_source_is_fifo(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "first", tag=5, words=1)
                comm.send(1, "second", tag=3, words=1)
                return None
            out = []
            for _ in range(2):
                _, tag, v = yield comm.recv(source=0, tag=ANY_TAG)
                out.append((tag, v))
            return out

        res = run_spmd(2, worker, machine=BGQ)
        assert res.returns[1] == [(5, "first"), (3, "second")]

    def test_wildcard_ties_break_by_posting_order(self):
        # without a machine all arrivals are at t=0: ties must fall
        # back to engine posting order (deterministic, rank order here)
        def worker(comm):
            if comm.rank:
                comm.send(0, comm.rank, words=1)
                return None
            out = []
            for _ in range(comm.size - 1):
                src, _, _ = yield comm.recv()
                out.append(src)
            return out

        res = run_spmd(5, worker)
        assert res.returns[0] == [1, 2, 3, 4]

    def test_plain_return_rank(self):
        # ranks that do no blocking communication may return a value
        def worker(comm):
            return comm.rank * 2

        res = run_spmd(4, worker)
        assert res.returns == [0, 2, 4, 6]

    def test_send_to_invalid_rank(self):
        def worker(comm):
            comm.send(99, "x", words=1)
            return None

        with pytest.raises(SimMPIError):
            run_spmd(2, worker)

    def test_unsized_payload_needs_words(self):
        def worker(comm):
            comm.send(0, 123)  # int has no len()
            return None

        with pytest.raises(SimMPIError):
            run_spmd(2, worker)

    @pytest.mark.parametrize("words", [2.5, True, "3", np.float64(4.0)])
    @pytest.mark.parametrize("call", ["send", "allreduce"])
    def test_non_integer_words_rejected_at_the_call_site(self, call, words):
        def worker(comm):
            if comm.rank == 1:
                if call == "send":
                    comm.send(0, "x", words=words)
                else:
                    comm.allreduce(0, words=words)
            return None

        with pytest.raises(
            SimMPIError, match=rf"rank 1: {call} words= must be an int, got {type(words).__name__}"
        ):
            run_spmd(2, worker)

    def test_negative_words_names_the_rank(self):
        def worker(comm):
            comm.send(0, "x", words=np.int64(-2))
            return None

        with pytest.raises(SimMPIError, match="rank 0: send words= must be non-negative, got -2"):
            run_spmd(2, worker)

    def test_numpy_integer_words_charged_as_int(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "x", words=np.int32(5))
                return None
            return (yield comm.recv(0))

        res = run_spmd(2, worker, machine=BGQ, trace=True)
        assert res.trace[0].words == 5 and type(res.trace[0].words) is int

    def test_invalid_yield_rejected(self):
        def worker(comm):
            yield "not an op"

        with pytest.raises(SimMPIError):
            run_spmd(1, worker)

    def test_K_must_be_positive(self):
        with pytest.raises(SimMPIError):
            SimMPI(0)


class TestDeadlockDetection:
    def test_recv_with_no_sender(self):
        def worker(comm):
            yield comm.recv()

        with pytest.raises(DeadlockError) as err:
            run_spmd(2, worker)
        assert "blocked on recv" in str(err.value)

    def test_mismatched_tag_deadlocks(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "x", tag=1, words=1)
                return None
            yield comm.recv(tag=2)

        with pytest.raises(DeadlockError):
            run_spmd(2, worker)

    def test_partial_allreduce_deadlocks(self):
        def worker(comm):
            if comm.rank == 0:
                return None  # exits without the allreduce
            yield comm.allreduce(1)

        with pytest.raises(DeadlockError) as err:
            run_spmd(2, worker)
        assert "exited" in str(err.value)

    def test_mixed_collectives_deadlock(self):
        def worker(comm):
            if comm.rank == 0:
                yield comm.allreduce(1)
            else:
                yield comm.shrink()

        with pytest.raises(DeadlockError):
            run_spmd(2, worker)

    def test_deadlock_dump_names_allreduce_and_shrink(self):
        def worker(comm):
            if comm.rank == 0:
                yield comm.allreduce(1, words=3)
            else:
                yield comm.shrink()

        with pytest.raises(DeadlockError) as err:
            run_spmd(2, worker)
        text = str(err.value)
        assert "rank 0: blocked on allreduce(words=3)" in text
        assert "rank 1: blocked on shrink" in text
        assert [p.kind for p in err.value.pending] == ["allreduce", "shrink"]

    def test_deadlock_dump_recv_shows_wildcards(self):
        def worker(comm):
            yield comm.recv()

        with pytest.raises(DeadlockError) as err:
            run_spmd(1, worker)
        assert "recv(source=ANY_SOURCE, tag=ANY_TAG), mailbox=0" in str(err.value)


class TestCollectives:
    def test_allreduce_then_messages(self):
        def worker(comm):
            yield comm.allreduce(0)
            if comm.rank == 0:
                comm.send(1, "after", words=1)
                return None
            _, _, v = yield comm.recv()
            return v

        res = run_spmd(2, worker)
        assert res.returns[1] == "after"


class TestVirtualTime:
    def test_no_machine_zero_clocks(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "x", words=100)
                return None
            yield comm.recv()
            return None

        res = run_spmd(2, worker)
        assert res.makespan_us == 0.0

    def test_send_charges_alpha_beta(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "x", words=100)
                return None
            yield comm.recv()
            return None

        res = run_spmd(2, worker, machine=BGQ)
        # sender paid alpha + 100*beta; same-node so no hop cost
        expected_send = BGQ.alpha_us + 100 * BGQ.beta_us_per_word
        assert res.clocks[0] == pytest.approx(expected_send)
        assert res.clocks[1] > res.clocks[0]  # receiver waited + recv cost

    def test_serial_sends_accumulate(self):
        def worker(comm):
            if comm.rank == 0:
                for d in range(1, comm.size):
                    comm.send(d, "x", words=1)
                return None
            yield comm.recv()
            return None

        res = run_spmd(8, worker, machine=BGQ)
        assert res.clocks[0] >= 7 * BGQ.alpha_us

    def test_receiver_waits_for_arrival(self):
        def worker(comm):
            if comm.rank == 0:
                # rank 0 does lots of work first (many self-charged sends)
                for _ in range(10):
                    comm.send(1, "spam", words=1)
                comm.send(1, "last", words=1)
                return None
            out = None
            for _ in range(11):
                _, _, out = yield comm.recv()
            return out

        res = run_spmd(2, worker, machine=BGQ)
        assert res.returns[1] == "last"
        assert res.clocks[1] >= res.clocks[0]

    def test_allreduce_aligns_clocks_and_charges_its_cost(self):
        def worker(comm):
            if comm.rank == 0:
                for _ in range(5):
                    comm.send(1, "x", words=1)
            if comm.rank == 1:
                for _ in range(5):
                    yield comm.recv()
            before = comm.time
            yield comm.allreduce(1, words=3)
            return before

        res = run_spmd(4, worker, machine=BGQ)
        # a tree of 2 * ceil(lg 4) rounds on top of the latest clock
        cost = 2 * 2 * (BGQ.alpha_us + BGQ.beta_us_per_word * 3)
        assert res.clocks.tolist() == [max(res.returns) + cost] * 4

    def test_makespan_is_max_clock(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "x", words=10_000)
                return None
            if comm.rank == 1:
                yield comm.recv()
            return None

        res = run_spmd(4, worker, machine=BGQ)
        assert res.makespan_us == pytest.approx(max(res.clocks))


class TestTracing:
    def test_trace_records_messages(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "x", tag=3, words=5)
                return None
            yield comm.recv()
            return None

        res = run_spmd(2, worker, trace=True)
        assert len(res.trace) == 1
        rec = res.trace[0]
        assert (rec.source, rec.dest, rec.tag, rec.words) == (0, 1, 3, 5)

    def test_trace_off_by_default(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "x", words=1)
                return None
            yield comm.recv()
            return None

        assert run_spmd(2, worker).trace == []

    def test_mapping_without_machine_rejected(self):
        with pytest.raises(SimMPIError):
            SimMPI(4, mapping=[0, 0, 0, 0])

    @pytest.mark.parametrize("engine", [SimMPI, BatchSimMPI])
    def test_a_mapping_outside_the_nodes_is_refused_after_the_default_is_kept(self, engine):
        engine(64, machine=BGQ)  # the default placement of (BGQ, 64), made once and kept
        nodes = BGQ.topology(64).num_nodes
        for bad in (nodes, -1):
            mapping = np.zeros(64, dtype=np.int64)
            mapping[5] = bad
            with pytest.raises(NetworkModelError, match=rf"outside \[0, {nodes}\)"):
                engine(64, machine=BGQ, mapping=mapping)
        engine(64, machine=BGQ, mapping=np.full(64, nodes - 1))


class TestDeterminism:
    def test_identical_runs(self):
        def worker(comm):
            rotated = (comm.rank + 1) % comm.size
            comm.send(rotated, comm.rank, words=1)
            _, _, v = yield comm.recv()
            for dest in range(comm.size):
                comm.send(dest, v, words=1)
            vals = []
            for _ in range(comm.size):
                _, _, w = yield comm.recv()
                vals.append(w)
            return tuple(vals)

        a = run_spmd(16, worker, machine=BGQ, trace=True)
        b = run_spmd(16, worker, machine=BGQ, trace=True)
        assert a.returns == b.returns
        assert np.array_equal(a.clocks, b.clocks)
        assert a.trace == b.trace
        # results compare by value, clocks as arrays, and one changed clock tells them apart
        assert a == b and a.clocks is not b.clocks
        clocks = b.clocks.copy()
        clocks[3] += 1.0
        assert replace(b, clocks=clocks) != a
        assert replace(b, clocks=clocks[:-1]) != a  # another length: unequal, no error
        assert replace(b, makespan_us=0.0) != a and replace(b, engine_stats={}) == a
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


class TestRecvDeadline:
    """Regressions: a timed recv must not deliver past its deadline.

    A message whose virtual arrival time lies beyond the receiver's
    deadline is not arrivable within the wait — the recv must return
    TIMEOUT *at the deadline* and leave the envelope queued for a later
    receive.
    """

    def test_late_arrival_times_out_and_stays_queued(self):
        from repro.simmpi import TIMEOUT

        def worker(comm):
            if comm.rank == 0:
                # huge message -> arrival far beyond the 5us deadline
                comm.send(1, "big", tag=1, words=10_000_000)
                return True
            got = yield comm.recv(tag=1, timeout_us=5.0)
            t_timeout = comm.time
            src, tag, late = yield comm.recv(tag=1)
            return (got, t_timeout, late, comm.time)

        res = run_spmd(2, worker, machine=BGQ)
        got, t_timeout, late, t_deliver = res.returns[1]
        assert got is TIMEOUT
        assert t_timeout == pytest.approx(5.0)  # woke at the deadline
        assert late == "big"
        assert t_deliver > t_timeout

    def test_message_inside_deadline_still_delivers(self):
        from repro.simmpi import TIMEOUT

        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "small", tag=1, words=1)
                return True
            got = yield comm.recv(tag=1, timeout_us=1e6)
            return got

        res = run_spmd(2, worker, machine=BGQ)
        assert res.returns[1][2] == "small"

    def test_deadline_respected_for_already_queued_message(self):
        """The bound applies on the posting path too: a frame already in
        the mailbox but arriving after the deadline must not match."""
        from repro.simmpi import TIMEOUT

        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "slow", tag=3, words=10_000_000)
                return True
            # long idle first, so the envelope is queued (not in flight)
            # when the timed recv is posted — still not arrivable
            yield comm.recv(tag=99, timeout_us=1.0)
            got = yield comm.recv(tag=3, timeout_us=2.0)
            src, tag, late = yield comm.recv(tag=3)
            return (got, late)

        res = run_spmd(2, worker, machine=BGQ)
        got, late = res.returns[1]
        assert got is TIMEOUT
        assert late == "slow"

    def test_wildcard_timed_recv_honors_deadline(self):
        from repro.simmpi import TIMEOUT

        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "bulk", words=10_000_000)
                return True
            got = yield comm.recv(source=ANY_SOURCE, tag=ANY_TAG, timeout_us=4.0)
            src, tag, late = yield comm.recv()
            return (got, late)

        res = run_spmd(2, worker, machine=BGQ)
        got, late = res.returns[1]
        assert got is TIMEOUT
        assert late == "bulk"


class TestHopCostMemo:
    """``_send_cost`` memoizes one row of hop counts per source node."""

    def test_cache_is_instance_scoped(self):
        a = SimMPI(8, machine=BGQ)
        b = SimMPI(8, machine=BGQ)
        a._send_cost(0, 7, 4)
        assert a._hop_rows and not b._hop_rows

    def test_cache_is_bounded(self, monkeypatch):
        from repro.simmpi import runtime

        mpi = SimMPI(64, machine=BGQ)  # 16 cores per node: 4 sending nodes
        n = mpi._topology.num_nodes
        monkeypatch.setattr(runtime, "_HOP_ROWS_MAX_ENTRIES", 2 * n)
        want = [mpi._send_cost(src, 63 - src, 4) for src in range(64)]
        assert mpi._stats["hop_memo_misses"] == 4  # one row per sending node
        assert len(mpi._hop_rows) * n <= 2 * n  # ... two of them kept
        # a cleared row is rebuilt with the same costs
        assert [mpi._send_cost(src, 63 - src, 4) for src in range(64)] == want
        assert len(mpi._hop_rows) * n <= 2 * n

    @pytest.mark.parametrize(
        "topology",
        [
            TorusTopology((3, 4, 2)),
            DragonflyTopology(3, 2, 2),
            FlatTopology(7),
            TorusTopology((600,)),  # diameter 300: does not fit a byte row
        ],
        ids=["torus", "dragonfly", "flat", "ring600"],
    )
    def test_row_equals_the_scalar_hops(self, topology):
        machine = replace(BGQ, cores_per_node=1, topology_factory=lambda nodes: topology)
        mpi = SimMPI(topology.num_nodes, machine=machine)
        for src in range(0, topology.num_nodes, 1 if topology.num_nodes < 100 else 97):
            cost = mpi._send_cost(src, topology.num_nodes - 1, 5)
            row = mpi._hop_rows[src]
            want = [topology.hops(src, dst) for dst in range(topology.num_nodes)]
            assert list(row) == want
            assert all(type(h) is int for h in (row[0], row[-1]))
            assert cost == machine.send_cost(want[-1], 5)
