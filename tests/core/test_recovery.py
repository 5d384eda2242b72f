"""Unit tests for the post-shrink topology rebuild."""

import numpy as np
import pytest

from repro.core import VirtualProcessTopology, build_recovery, shrink_dim_sizes
from repro.errors import PartitionError, TopologyError
from repro.partition import Partition, block_partition, reassign_parts


class TestShrinkDimSizes:
    def test_power_of_two_stays_balanced(self):
        assert shrink_dim_sizes(64, 2) == (8, 8)
        assert shrink_dim_sizes(64, 3) == (4, 4, 4)

    def test_shrunk_count_redimensions(self):
        # 62 = 2 * 31: two prime factors support exactly two dimensions
        assert shrink_dim_sizes(62, 2) == (31, 2)
        assert shrink_dim_sizes(62, 3) == (31, 2)

    def test_prime_forces_direct_fallback(self):
        # the direct baseline is the flat T_1
        assert shrink_dim_sizes(61, 2) == (61,)
        assert shrink_dim_sizes(7, 3) == (7,)

    def test_degenerate_counts(self):
        assert shrink_dim_sizes(1, 2) == (1,)
        assert shrink_dim_sizes(8, 1) == (8,)
        with pytest.raises(TopologyError, match="0 survivors"):
            shrink_dim_sizes(0, 2)


class TestReassignParts:
    def test_no_dead_returns_same_partition(self):
        p = block_partition(20, 4)
        assert reassign_parts(p, ()) is p

    def test_dead_rows_go_to_least_loaded_survivor(self):
        parts = np.array([0, 0, 0, 1, 2, 2])  # loads: 3, 1, 2
        p = Partition(parts, 3)
        out = reassign_parts(p, (0,))
        assert out.rows_of(0).size == 0
        # part 1 was lightest, so it absorbs part 0's three rows
        assert sorted(out.rows_of(1)) == [0, 1, 2, 3]
        assert sorted(out.rows_of(2)) == [4, 5]

    def test_sequential_folding_tracks_updated_loads(self):
        parts = np.array([0, 1, 1, 2, 3, 3, 3])
        p = Partition(parts, 4)
        out = reassign_parts(p, (0, 1))
        # part 0's row goes to part 2 (load 1 < 3); then part 1's two
        # rows go to part 2 as well (load 2 < 3)
        assert sorted(out.rows_of(2)) == [0, 1, 2, 3]
        assert sorted(out.rows_of(3)) == [4, 5, 6]

    def test_all_dead_rejected(self):
        p = block_partition(6, 2)
        with pytest.raises(PartitionError, match="no surviving"):
            reassign_parts(p, (0, 1))

    def test_dead_out_of_range_rejected(self):
        p = block_partition(6, 2)
        with pytest.raises(PartitionError, match="outside"):
            reassign_parts(p, (5,))


class TestBuildRecovery:
    def test_empty_dead_is_identity(self):
        p = block_partition(32, 8)
        plan = build_recovery(p, (), 2)
        assert plan.survivors == tuple(range(8))
        assert plan.new_K == 8
        assert plan.partition == p
        assert plan.vpt.dim_sizes == (4, 2)
        for r in range(8):
            assert plan.vid_of(r) == r and plan.rank_of(r) == r

    def test_survivors_renumbered_densely(self):
        p = block_partition(40, 8)
        plan = build_recovery(p, (2, 5), 2)
        assert plan.survivors == (0, 1, 3, 4, 6, 7)
        assert plan.vid_of(3) == 2
        assert plan.rank_of(2) == 3
        with pytest.raises(TopologyError, match="not a survivor"):
            plan.vid_of(5)

    def test_rows_conserved_and_vid_space_dense(self):
        p = block_partition(40, 8)
        plan = build_recovery(p, (0, 7), 2)
        assert plan.partition.K == 6
        counts = plan.partition.row_counts()
        assert counts.sum() == 40
        assert (counts > 0).all()

    def test_vpt_matches_shrunk_dim_sizes(self):
        p = block_partition(64, 64)
        plan = build_recovery(p, (9, 41), 2)
        assert plan.new_K == 62
        assert plan.vpt == VirtualProcessTopology((31, 2))
        assert plan.message_bound() == 31

    def test_prime_survivor_count_falls_back_to_direct(self):
        p = block_partition(32, 8)
        plan = build_recovery(p, (3,), 2)  # K' = 7, prime
        assert plan.vpt.dim_sizes == (7,) and plan.vpt.is_flat()
        assert plan.message_bound() == 6  # flat-topology bound K' - 1

    def test_single_survivor_is_one_process_t1(self):
        plan = build_recovery(block_partition(32, 8), (0, 1, 2, 3, 4, 5, 6), 3)
        assert plan.survivors == (7,)
        assert plan.vpt.dim_sizes == (1,) and plan.message_bound() == 0

    def test_dead_deduplicated_and_sorted(self):
        p = block_partition(24, 6)
        plan = build_recovery(p, [4, 1, 4], 2)
        assert plan.dead == (1, 4)

    def test_dead_out_of_range_rejected(self):
        p = block_partition(24, 6)
        with pytest.raises(TopologyError, match="outside"):
            build_recovery(p, (6,), 2)

    def test_no_survivors_rejected(self):
        p = block_partition(4, 2)
        with pytest.raises(TopologyError, match="no survivors"):
            build_recovery(p, (0, 1), 2)
