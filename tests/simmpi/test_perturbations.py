"""Unit tests for jitter (straggler noise)."""

import numpy as np
import pytest

from repro.core import CommPattern, make_vpt, run_exchange
from repro.errors import SimMPIError
from repro.network import BGQ
from repro.simmpi import SimMPI, run_spmd


def pingpong(comm):
    if comm.rank == 0:
        comm.send(1, "x", words=100)
        return None
    yield comm.recv()
    return None


class TestJitter:
    def test_zero_jitter_is_baseline(self):
        a = run_spmd(2, pingpong, machine=BGQ)
        b = run_spmd(2, pingpong, machine=BGQ, jitter=0.0)
        assert np.array_equal(a.clocks, b.clocks)

    def test_jitter_slows_but_preserves_semantics(self):
        base = run_spmd(2, pingpong, machine=BGQ)
        noisy = run_spmd(2, pingpong, machine=BGQ, jitter=0.5, jitter_seed=1)
        assert noisy.makespan_us > base.makespan_us
        assert noisy.makespan_us < base.makespan_us * 1.5 + 1e-9

    def test_jitter_deterministic_per_seed(self):
        a = run_spmd(2, pingpong, machine=BGQ, jitter=0.3, jitter_seed=7)
        b = run_spmd(2, pingpong, machine=BGQ, jitter=0.3, jitter_seed=7)
        c = run_spmd(2, pingpong, machine=BGQ, jitter=0.3, jitter_seed=8)
        assert np.array_equal(a.clocks, b.clocks)
        assert not np.array_equal(a.clocks, c.clocks)

    def test_repeated_runs_on_one_engine_are_identically_seeded(self):
        sim = SimMPI(2, machine=BGQ, jitter=0.5, jitter_seed=3)
        first, second = sim.run(pingpong), sim.run(pingpong)
        fresh = SimMPI(2, machine=BGQ, jitter=0.5, jitter_seed=3).run(pingpong)
        assert first == second == fresh
        assert first.makespan_us > run_spmd(2, pingpong, machine=BGQ).makespan_us

    def test_negative_jitter_rejected(self):
        with pytest.raises(SimMPIError):
            SimMPI(2, machine=BGQ, jitter=-0.1)

    def test_exchange_correct_under_jitter(self):
        p = CommPattern.random(16, avg_degree=4, seed=0, words=3)
        res = run_exchange(p, make_vpt(16, 2), machine=BGQ)
        noisy = run_exchange(p, make_vpt(16, 2), machine=BGQ, jitter=0.5, jitter_seed=1)
        assert noisy.run.makespan_us > res.run.makespan_us
        # noise may reorder arrivals, but every rank receives the same payloads
        norm = lambda d: [
            sorted((s, tuple(np.asarray(v))) for s, v in items) for items in d
        ]
        assert norm(res.delivered) == norm(noisy.delivered)

    def test_jitter_flows_through_stfw_exchange(self):
        p = CommPattern.random(16, avg_degree=3, seed=4, words=10)
        vpt = make_vpt(16, 2)
        calm = run_exchange(p, vpt, machine=BGQ).run.makespan_us
        noisy = run_exchange(
            p, vpt, machine=BGQ, jitter=0.4, jitter_seed=2
        ).run.makespan_us
        assert noisy > calm
