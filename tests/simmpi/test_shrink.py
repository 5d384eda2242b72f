"""Unit tests for the shrink (revoke + agree) recovery primitive."""

import pytest

from repro.errors import DeadlockError
from repro.network import BGQ
from repro.simmpi import TIMEOUT, FaultPlan, run_spmd


class TestFaultFree:
    def test_agrees_on_empty_dead_set(self):
        def worker(comm):
            dead = yield comm.shrink()
            return dead

        res = run_spmd(4, worker, machine=BGQ)
        assert res.returns == [()] * 4

    def test_aligns_clocks(self):
        """Survivors leave the agreement with identical clocks."""

        def worker(comm):
            if comm.rank == 0:
                yield comm.recv(timeout_us=100.0)  # skew rank 0 forward
            yield comm.shrink()
            return comm.time

        res = run_spmd(3, worker, machine=BGQ)
        assert len(set(res.returns)) == 1
        assert res.returns[0] >= 100.0

    def test_costs_revoke_plus_agreement_rounds(self):
        def worker(comm):
            yield comm.shrink()
            return comm.time

        res = run_spmd(4, worker, machine=BGQ)
        # one revoke round + two tree sweeps over 4 survivors
        expected = (1 + 2 * 2) * BGQ.alpha_us
        assert res.returns[0] == pytest.approx(expected)


class TestWithCrashes:
    def test_agrees_on_crashed_rank(self):
        def worker(comm):
            got = yield comm.recv(timeout_us=50.0)
            assert got is TIMEOUT
            dead = yield comm.shrink()
            return dead

        res = run_spmd(3, worker, machine=BGQ, fault_plan=FaultPlan(crashes={1: 0.0}))
        assert res.crashed == [1]
        for r in (0, 2):
            assert res.returns[r] == (1,)

    def test_crash_due_by_agreement_fires_first(self):
        """A rank whose crash time has passed cannot join the agreement
        even if it reaches the shrink call before its timer fired."""

        def worker(comm):
            if comm.rank != 1:
                yield comm.recv(timeout_us=100.0)  # move survivors past t=50
            dead = yield comm.shrink()
            return dead

        res = run_spmd(3, worker, machine=BGQ, fault_plan=FaultPlan(crashes={1: 50.0}))
        assert res.crashed == [1]
        assert res.returns[0] == (1,)

    def test_future_crash_not_pulled_into_agreement(self):
        """The agreement never warps time forward: a crash scheduled
        after it stays pending and fires later."""

        def worker(comm):
            first = yield comm.shrink()
            assert comm.time < 1e6
            yield comm.recv(timeout_us=2e6)  # block past the crash time
            return (first, "survived")

        res = run_spmd(
            3, worker, machine=BGQ, fault_plan=FaultPlan(crashes={0: 1e6})
        )
        assert res.crashed == [0]  # fired eventually, after the agreement
        assert res.returns[0] is None
        assert res.returns[1] == ((), "survived")
        assert res.returns[2] == ((), "survived")

    def test_purges_inflight_messages(self):
        """Mail posted before the agreement is revoked by it."""

        def worker(comm):
            if comm.rank == 0:
                comm.send(1, "stale", words=1)
                yield comm.shrink()
                return None
            yield comm.shrink()
            got = yield comm.recv(timeout_us=100.0)
            return got

        res = run_spmd(2, worker, machine=BGQ)
        # the pre-shrink message was revoked by the agreement
        assert res.returns[1] is TIMEOUT

    def test_collectives_complete_over_survivors_after_shrink(self):
        def worker(comm):
            yield comm.recv(timeout_us=50.0)
            dead = yield comm.shrink()
            total = yield comm.allreduce(comm.rank, words=1)
            again = yield comm.allreduce(total, words=1)
            return (dead, total, again)

        res = run_spmd(4, worker, machine=BGQ, fault_plan=FaultPlan(crashes={2: 0.0}))
        for r in (0, 1, 3):
            assert res.returns[r] == ((2,), 0 + 1 + 3, 3 * (0 + 1 + 3))

    def test_repeated_shrink_is_idempotent(self):
        def worker(comm):
            yield comm.recv(timeout_us=50.0)
            first = yield comm.shrink()
            second = yield comm.shrink()
            return (first, second)

        res = run_spmd(3, worker, machine=BGQ, fault_plan=FaultPlan(crashes={1: 0.0}))
        assert res.returns[0] == ((1,), (1,))
        assert res.returns[2] == ((1,), (1,))


class TestMisuse:
    def test_partial_participation_deadlocks_with_shrink_detail(self):
        """A survivor that never calls shrink wedges the agreement; the
        deadlock dump names the shrink-blocked ranks."""

        def worker(comm):
            if comm.rank == 0:
                yield comm.recv()  # never joins the shrink, never receives
                return None
            yield comm.shrink()
            return None

        with pytest.raises(DeadlockError) as ei:
            run_spmd(3, worker, machine=BGQ)
        assert "shrink" in str(ei.value)
