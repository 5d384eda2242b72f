"""Unit tests for plan timing, machine presets and mappings."""

import numpy as np
import pytest

from repro.core import CommPattern, build_direct_plan, build_plan, make_vpt
from repro.errors import NetworkModelError
from repro.network import (
    BGQ,
    CRAY_XC40,
    CRAY_XK7,
    MACHINES,
    block_mapping,
    random_mapping,
    round_robin_mapping,
    spmv_compute_time,
    time_plan,
    validate_mapping,
)


class TestMappings:
    def test_block(self):
        m = block_mapping(8, 4)
        assert list(m) == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_round_robin(self):
        m = round_robin_mapping(8, 4)
        assert list(m) == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_random_is_balanced(self):
        m = random_mapping(64, 16, seed=0)
        counts = np.bincount(m)
        assert counts.max() <= 16

    def test_random_reproducible(self):
        assert np.array_equal(random_mapping(32, 8, seed=3), random_mapping(32, 8, seed=3))

    def test_validate_rejects_bad_shape(self):
        with pytest.raises(NetworkModelError):
            validate_mapping(np.zeros(3, dtype=np.int64), 4, 2)

    def test_validate_rejects_bad_nodes(self):
        with pytest.raises(NetworkModelError):
            validate_mapping(np.array([0, 5]), 2, 2)

    def test_invalid_args(self):
        with pytest.raises(NetworkModelError):
            block_mapping(0, 4)
        with pytest.raises(NetworkModelError):
            round_robin_mapping(4, 0)


class TestMachinePresets:
    def test_registry(self):
        assert set(MACHINES) == {"bgq", "xc40", "xk7"}

    def test_xc40_is_most_latency_bound(self):
        # the paper's Section 6.4 premise
        assert CRAY_XC40.latency_bandwidth_ratio > CRAY_XK7.latency_bandwidth_ratio
        assert CRAY_XC40.latency_bandwidth_ratio > BGQ.latency_bandwidth_ratio

    def test_num_nodes(self):
        assert BGQ.num_nodes(512) == 32
        assert CRAY_XC40.num_nodes(512) == 16

    def test_topology_capacity(self):
        for m in MACHINES.values():
            topo = m.topology(256)
            assert topo.num_nodes >= m.num_nodes(256)

    def test_with_params(self):
        m = BGQ.with_params(alpha_us=10.0)
        assert m.alpha_us == 10.0
        assert m.name == BGQ.name


class TestTimePlan:
    def test_empty_plan_zero_time(self):
        p = CommPattern.from_arrays(32, [], [], [])
        t = time_plan(build_direct_plan(p), BGQ)
        assert t.total_us == 0.0

    def test_single_message_cost(self):
        # both ranks on node 0: cost = alpha + beta*words (sync term off)
        p = CommPattern.from_arrays(32, [0], [1], [100])
        t = time_plan(build_direct_plan(p), BGQ, stage_sync=False)
        assert t.total_us == pytest.approx(BGQ.alpha_us + 100 * BGQ.beta_us_per_word)

    def test_stage_sync_term(self):
        import math

        p = CommPattern.from_arrays(32, [0], [1], [100])
        plan = build_direct_plan(p)
        plain = time_plan(plan, BGQ, stage_sync=False).total_us
        synced = time_plan(plan, BGQ).total_us
        nodes = BGQ.num_nodes(32)
        assert synced == pytest.approx(plain + BGQ.alpha_us * math.log2(nodes))

    def test_stage_sync_penalizes_many_stages(self):
        # same pattern: a deep hypercube plan pays one sync per stage
        p = CommPattern.all_to_all(64, words=1)
        deep = build_plan(p, make_vpt(64, 6))
        shallow = build_plan(p, make_vpt(64, 2))
        d_delta = (
            time_plan(deep, BGQ).total_us - time_plan(deep, BGQ, stage_sync=False).total_us
        )
        s_delta = (
            time_plan(shallow, BGQ).total_us
            - time_plan(shallow, BGQ, stage_sync=False).total_us
        )
        assert d_delta == pytest.approx(3 * s_delta)

    def test_hop_latency_charged(self):
        p = CommPattern.from_arrays(32, [0], [31], [0])
        t = time_plan(build_direct_plan(p), BGQ)
        assert t.total_us > BGQ.alpha_us  # ranks 0 and 31 on different nodes

    def test_total_is_sum_of_stages(self):
        p = CommPattern.random(64, avg_degree=6, seed=1, words=8)
        t = time_plan(build_plan(p, make_vpt(64, 3)), BGQ)
        assert t.total_us == pytest.approx(sum(s.time_us for s in t.stages))
        assert t.n_stages == 3

    def test_latency_bound_pattern_prefers_stfw(self):
        # a hot process sending tiny messages to everyone: BL pays
        # mmax alphas, STFW spreads them
        p = CommPattern.random(256, avg_degree=3, hot_processes=4, seed=7, words=4)
        bl = time_plan(build_direct_plan(p), BGQ).total_us
        stfw = time_plan(build_plan(p, make_vpt(256, 4)), BGQ).total_us
        assert stfw < bl

    def test_bandwidth_bound_pattern_prefers_bl(self):
        # few huge messages: forwarding only adds volume
        p = CommPattern.random(64, avg_degree=2, seed=3, words=2_000_000)
        bl = time_plan(build_direct_plan(p), BGQ).total_us
        stfw = time_plan(build_plan(p, make_vpt(64, 6)), BGQ).total_us
        assert bl < stfw

    def test_custom_mapping_changes_time(self):
        # pairs r <-> r ^ 1 share a node under block placement and sit on
        # two neighbouring nodes under round-robin: one alpha_hop apart
        K = 64
        src = np.arange(K)
        p = CommPattern.from_arrays(K, src, src ^ 1, np.ones(K, dtype=np.int64))
        plan = build_direct_plan(p)
        t_block = time_plan(plan, BGQ).total_us
        t_rr = time_plan(plan, BGQ, mapping=round_robin_mapping(K, 16)).total_us
        assert t_rr - t_block == pytest.approx(BGQ.alpha_hop_us)

    def test_bottleneck_rank_identified(self):
        p = CommPattern.random(64, avg_degree=1, hot_processes=1, seed=0, words=4)
        t = time_plan(build_direct_plan(p), BGQ)
        assert t.stages[0].bottleneck_rank == 0  # the hot process


class TestSpmvComputeTime:
    def test_basic(self):
        t = spmv_compute_time(np.array([1000, 2000]), BGQ)
        assert t == pytest.approx(2 * 2000 / BGQ.flops_per_us)

    def test_empty_rejected(self):
        with pytest.raises(NetworkModelError):
            spmv_compute_time(np.array([]), BGQ)

    def test_negative_rejected(self):
        with pytest.raises(NetworkModelError):
            spmv_compute_time(np.array([-1]), BGQ)
