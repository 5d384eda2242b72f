"""Unit tests for the emulator's collectives: ``allreduce`` and ``shrink``."""

import pytest

from repro.errors import DeadlockError
from repro.network import BGQ
from repro.simmpi import run_spmd


class TestAllReduce:
    def test_sum(self):
        def worker(comm):
            return (yield comm.allreduce(comm.rank + 1))

        assert run_spmd(4, worker).returns == [10] * 4

    def test_unknown_op(self):
        # allreduce always sums: an op= is refused at the call site
        # instead of being summed silently
        def worker(comm):
            yield comm.allreduce(1, op="max")

        with pytest.raises(TypeError, match="op"):
            run_spmd(2, worker)

    def test_costs_time(self):
        def worker(comm):
            yield comm.allreduce(1.0, words=100)
            return None

        res = run_spmd(4, worker, machine=BGQ)
        assert res.makespan_us > 0


class TestMixedPrograms:
    def test_pipeline_of_collectives_and_p2p(self):
        def worker(comm):
            total = yield comm.allreduce(comm.rank)
            if comm.rank == 0:
                comm.send(comm.size - 1, total * 2, words=1)
            yield comm.allreduce(0)
            if comm.rank == comm.size - 1:
                _, _, v = yield comm.recv(source=0)
                return v
            return total

        res = run_spmd(4, worker)
        assert res.returns == [6, 6, 6, 12]

    def test_collective_mismatch_is_deadlock(self):
        # one rank in the allreduce, the other waiting for a message
        def worker(comm):
            if comm.rank == 0:
                yield comm.allreduce(1)
            else:
                yield comm.recv(source=0)

        with pytest.raises(DeadlockError):
            run_spmd(2, worker)

    def test_clocks_aligned_after_collective(self):
        def worker(comm):
            if comm.rank == 0:
                for _ in range(10):
                    comm.send(1, "x", words=50)
            if comm.rank == 1:
                for _ in range(10):
                    yield comm.recv()
            v = yield comm.allreduce(1.0)
            return v

        res = run_spmd(4, worker, machine=BGQ)
        assert len({round(c, 9) for c in res.clocks}) == 1
