"""Unit tests for persistent-exchange side tables and their repair."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import CommPattern, PatternDelta, build_plan, repair_plan
from repro.core.dimensioning import make_vpt
from repro.core.stfw import (
    SideTables,
    recv_counts_from_plan,
    repair_side_tables,
    side_tables_from_plan,
)
from repro.errors import PlanError


def assert_tables_identical(got: SideTables, ref: SideTables):
    """Byte-identity — values AND dtypes, the service's own check."""
    assert got.recv_counts.dtype == ref.recv_counts.dtype
    assert got.recv_counts.shape == ref.recv_counts.shape
    assert got.recv_counts.tobytes() == ref.recv_counts.tobytes()
    assert got.origin_counts.dtype == ref.origin_counts.dtype
    assert got.origin_counts.shape == ref.origin_counts.shape
    assert got.origin_counts.tobytes() == ref.origin_counts.tobytes()


class TestFromPlan:
    def test_matches_recv_counts_and_pattern(self):
        pattern = CommPattern.random(16, avg_degree=4, seed=3)
        plan = build_plan(pattern, make_vpt(16, 2))
        tables = side_tables_from_plan(plan)
        assert tables.recv_counts.tobytes() == recv_counts_from_plan(plan).tobytes()
        expected_origin = np.bincount(pattern.dst, minlength=16)
        assert (tables.origin_counts == expected_origin).all()
        assert tables.recv_counts.dtype == np.int64
        assert tables.origin_counts.dtype == np.int64

    def test_copy_is_independent(self):
        pattern = CommPattern.random(8, avg_degree=3, seed=1)
        plan = build_plan(pattern, make_vpt(8, 2))
        tables = side_tables_from_plan(plan)
        dup = tables.copy()
        dup.recv_counts[0, 0] += 7
        dup.origin_counts[0] += 7
        assert_tables_identical(tables, side_tables_from_plan(plan))


class TestRepair:
    @pytest.mark.parametrize("dims", [2, 3])
    def test_chained_drift_byte_identical(self, dims):
        """Eight chained 10% drift steps on T_2 and T_3, repaired vs rebuilt."""
        pattern = CommPattern.random(64, avg_degree=5, seed=11)
        vpt = make_vpt(64, dims)
        plan = build_plan(pattern, vpt)
        tables = side_tables_from_plan(plan)
        for step in range(8):
            delta = PatternDelta.random(plan.pattern, 0.10, seed=100 + step)
            repaired = repair_plan(plan, delta)
            tables = repair_side_tables(tables, plan, repaired, delta)
            assert_tables_identical(tables, side_tables_from_plan(repaired))
            plan = repaired

    def test_route_key_less_plans_cannot_be_made(self):
        """A stage's keys are ``sender * K + receiver``, derived, so none can be left out."""
        pattern = CommPattern.random(32, avg_degree=4, seed=5)
        vpt = make_vpt(32, 2)
        plan = build_plan(pattern, vpt)
        delta = PatternDelta.random(pattern, 0.10, seed=6)
        repaired = repair_plan(plan, delta)
        for p in (plan, repaired):
            with pytest.raises(TypeError, match="unexpected keyword argument 'route_key'"):
                replace(p, stages=[replace(st, route_key=None) for st in p.stages])
        got = repair_side_tables(side_tables_from_plan(plan), plan, repaired, delta)
        assert_tables_identical(got, side_tables_from_plan(repaired))

    def test_input_tables_never_mutated(self):
        pattern = CommPattern.random(16, avg_degree=4, seed=2)
        plan = build_plan(pattern, make_vpt(16, 2))
        tables = side_tables_from_plan(plan)
        before = (tables.recv_counts.copy(), tables.origin_counts.copy())
        delta = PatternDelta.random(pattern, 0.10, seed=9)
        repair_side_tables(tables, plan, repair_plan(plan, delta), delta)
        assert (tables.recv_counts == before[0]).all()
        assert (tables.origin_counts == before[1]).all()


class TestRepairErrors:
    def _setup(self, K=16, seed=4):
        pattern = CommPattern.random(K, avg_degree=4, seed=seed)
        plan = build_plan(pattern, make_vpt(K, 2))
        delta = PatternDelta.random(pattern, 0.10, seed=seed + 1)
        return plan, repair_plan(plan, delta), delta

    def test_k_mismatch(self):
        plan, repaired, delta = self._setup()
        other = build_plan(
            CommPattern.random(8, avg_degree=3, seed=0), make_vpt(8, 2)
        )
        with pytest.raises(PlanError, match="matching K"):
            repair_side_tables(
                side_tables_from_plan(plan), plan, other, delta
            )

    def test_stage_count_mismatch(self):
        plan, repaired, delta = self._setup()
        other = build_plan(plan.pattern, make_vpt(16, 4))
        with pytest.raises(PlanError, match="stages"):
            repair_side_tables(
                side_tables_from_plan(plan), plan, other, delta
            )

    def test_wrong_shape_tables(self):
        plan, repaired, delta = self._setup()
        bad = SideTables(
            recv_counts=np.zeros((1, plan.K), dtype=np.int64),
            origin_counts=np.zeros(plan.K, dtype=np.int64),
        )
        with pytest.raises(PlanError, match="recv_counts shape"):
            repair_side_tables(bad, plan, repaired, delta)

    def test_foreign_delta_goes_negative(self):
        """A delta that does not apply drives a count negative."""
        plan, repaired, delta = self._setup()
        empty = SideTables(
            recv_counts=np.zeros(
                (len(plan.stages), plan.K), dtype=np.int64
            ),
            origin_counts=np.zeros(plan.K, dtype=np.int64),
        )
        if delta.remove_dst.size == 0:
            pytest.skip("delta removed nothing; no negative path to hit")
        with pytest.raises(PlanError, match="negative"):
            repair_side_tables(empty, plan, repaired, delta)
