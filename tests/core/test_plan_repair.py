"""Property sweep: incremental plan repair vs from-scratch rebuild.

``repair_plan`` must be **byte-identical** to applying the delta and
rebuilding: same values and same dtypes on every schedule array of
every stage, the occupancy matrix, and the pattern arrays.  The sweep drives chained random delta
streams over the two reference topologies T_2(4,4) and T_3(2,3,4) and
additionally pins the executed exchange: the message trace of a run on
the repair-maintained pattern must equal the trace of a run on the
rebuilt pattern (golden traces).
"""

import numpy as np
import pytest

from repro.core import CommPattern, PatternDelta, build_plan, repair_plan
from repro.core.dimensioning import VirtualProcessTopology
from repro.core.stfw import run_exchange
from repro.errors import PlanError
from repro.network import BGQ


def assert_plans_byte_identical(p, q):
    """Values AND dtypes on every array, the route keys included."""
    assert p.vpt.dim_sizes == q.vpt.dim_sizes
    assert p.header_words == q.header_words
    assert len(p.stages) == len(q.stages)

    def same(a, b, what):
        assert a.dtype == b.dtype, f"{what}: dtype {a.dtype} != {b.dtype}"
        np.testing.assert_array_equal(a, b, err_msg=what)

    same(p.forward_occupancy, q.forward_occupancy, "forward_occupancy")
    for d, (a, b) in enumerate(zip(p.stages, q.stages)):
        for name in ("sender", "receiver", "nsub", "payload_words", "total_words", "route_key"):
            same(getattr(a, name), getattr(b, name), f"stage {d} {name}")
    same(p.pattern.src, q.pattern.src, "pattern.src")
    same(p.pattern.dst, q.pattern.dst, "pattern.dst")
    same(p.pattern.size, q.pattern.size, "pattern.size")


TOPOLOGIES = ((4, 4), (2, 3, 4))
RATES = (0.05, 0.25, 0.5)


class TestRepairEqualsRebuild:
    @pytest.mark.parametrize("dim_sizes", TOPOLOGIES)
    @pytest.mark.parametrize("header", (0, 2))
    @pytest.mark.parametrize("seed", range(5))
    def test_chained_drift_stream(self, dim_sizes, header, seed):
        K = int(np.prod(dim_sizes))
        vpt = VirtualProcessTopology(dim_sizes)
        pattern = CommPattern.random(K, avg_degree=3, seed=seed)
        plan = build_plan(pattern, vpt, header_words=header)
        for epoch, rate in enumerate(RATES):
            delta = PatternDelta.random(plan.pattern, rate, seed=100 * seed + epoch)
            repaired = repair_plan(plan, delta)
            rebuilt = build_plan(
                plan.pattern.apply_delta(delta), vpt, header_words=header
            )
            assert_plans_byte_identical(repaired, rebuilt)
            plan = repaired

    def test_empty_delta_is_identity(self):
        vpt = VirtualProcessTopology((4, 4))
        pattern = CommPattern.random(16, avg_degree=3, seed=0)
        plan = build_plan(pattern, vpt)
        repaired = repair_plan(plan, PatternDelta(16))
        assert_plans_byte_identical(repaired, plan)

    def test_repair_preserves_header_words(self):
        vpt = VirtualProcessTopology((2, 3, 4))
        pattern = CommPattern.random(24, avg_degree=3, seed=1)
        plan = build_plan(pattern, vpt, header_words=3)
        delta = PatternDelta.random(pattern, 0.2, seed=9)
        repaired = repair_plan(plan, delta)
        assert repaired.header_words == 3
        for a, b in zip(repaired.stages, plan.stages):
            assert a.total_words.dtype == b.total_words.dtype


class TestGoldenTraces:
    @pytest.mark.parametrize("dim_sizes", TOPOLOGIES)
    def test_exchange_trace_identical_after_repair(self, dim_sizes):
        """The executed exchange, not just the plan, must agree."""
        K = int(np.prod(dim_sizes))
        vpt = VirtualProcessTopology(dim_sizes)
        pattern = CommPattern.random(K, avg_degree=3, seed=4)
        plan = build_plan(pattern, vpt)
        for epoch in range(2):
            delta = PatternDelta.random(plan.pattern, 0.25, seed=50 + epoch)
            repaired = repair_plan(plan, delta)
            rebuilt_pattern = plan.pattern.apply_delta(delta)
            rep = run_exchange(repaired.pattern, vpt, machine=BGQ, trace=True)
            ref = run_exchange(rebuilt_pattern, vpt, machine=BGQ, trace=True)
            assert rep.run.trace == ref.run.trace
            assert rep.run.makespan_us == ref.run.makespan_us
            plan = repaired


class TestRepairErrors:
    def test_repair_requires_coalesced_plan(self):
        """A plan whose stage repeats a route cannot be repaired."""
        from dataclasses import replace

        vpt = VirtualProcessTopology((4, 4))
        pattern = CommPattern.random(16, avg_degree=3, seed=0)
        plan = build_plan(pattern, vpt)
        st = plan.stages[0]
        if st.sender.size < 1:
            pytest.skip("empty stage")
        # forge a non-coalesced stage: duplicate the first route
        dup = {
            name: np.repeat(getattr(st, name)[:1], 2)
            for name in ("sender", "receiver", "nsub", "payload_words")
        }
        forged = replace(plan, stages=[replace(st, members=None, **dup), *plan.stages[1:]])
        assert not forged.stages[0].coalesced
        for uncoalesced in (forged, build_plan(pattern, vpt, coalesce=False)):
            with pytest.raises(PlanError, match="repair_plan requires a coalesced plan"):
                repair_plan(uncoalesced, PatternDelta(16))

    def test_repair_rejects_K_mismatch(self):
        vpt = VirtualProcessTopology((4, 4))
        pattern = CommPattern.random(16, avg_degree=3, seed=0)
        plan = build_plan(pattern, vpt)
        with pytest.raises(PlanError):
            repair_plan(plan, PatternDelta(8))
