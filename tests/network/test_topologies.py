"""Unit tests for physical topologies (torus, dragonfly, flat)."""

import numpy as np
import pytest

from repro.errors import NetworkModelError
from repro.network import (
    BGQ,
    CRAY_XC40,
    DragonflyTopology,
    FlatTopology,
    TorusTopology,
    block_mapping,
    fit_torus_dims,
    placement,
)


class TestFlatTopology:
    def test_hops(self):
        t = FlatTopology(8)
        assert t.hops(3, 3) == 0
        assert t.hops(0, 7) == 1

    def test_hops_array(self):
        t = FlatTopology(4)
        a = np.array([0, 1, 2])
        b = np.array([0, 2, 2])
        assert list(t.hops_array(a, b)) == [0, 1, 0]

    def test_bounds(self):
        t = FlatTopology(4)
        with pytest.raises(NetworkModelError):
            t.hops(0, 4)
        with pytest.raises(NetworkModelError):
            t.hops_array(np.array([5]), np.array([0]))

    def test_invalid_size(self):
        with pytest.raises(NetworkModelError):
            FlatTopology(0)

    def test_diameter(self):
        assert FlatTopology(5).diameter() == 1


class TestTorusTopology:
    def test_num_nodes(self):
        assert TorusTopology((4, 4, 4)).num_nodes == 64

    def test_wraparound_distance(self):
        t = TorusTopology((8,))
        assert t.hops(0, 7) == 1  # wrap link
        assert t.hops(0, 4) == 4
        assert t.hops(2, 6) == 4

    def test_multidim_hops_add(self):
        t = TorusTopology((4, 4))
        # (0,0) to (2,3): 2 + 1(wrap) = 3
        assert t.hops(0, 2 + 3 * 4) == 3

    def test_hops_symmetric(self):
        t = TorusTopology((3, 5, 2))
        rng = np.random.default_rng(0)
        for _ in range(30):
            a, b = (int(x) for x in rng.integers(0, t.num_nodes, 2))
            assert t.hops(a, b) == t.hops(b, a)

    def test_hops_array_matches_scalar(self):
        t = TorusTopology((4, 2, 8))
        rng = np.random.default_rng(1)
        a = rng.integers(0, t.num_nodes, 100)
        b = rng.integers(0, t.num_nodes, 100)
        arr = t.hops_array(a, b)
        for x, y, h in zip(a, b, arr):
            assert h == t.hops(int(x), int(y))

    @pytest.mark.parametrize("dims", [(3, 5, 2), (2, 3, 1, 4, 5)])
    def test_hops_array_matches_scalar_on_every_pair(self, dims):
        t = TorusTopology(dims)
        nodes = np.arange(t.num_nodes)
        arr = t.hops_array(nodes[:, None], nodes[None, :])
        assert arr.dtype == np.int64 and arr.shape == (t.num_nodes, t.num_nodes)
        assert arr.tolist() == [[t.hops(a, b) for b in nodes.tolist()] for a in nodes.tolist()]
        # one node against all: the event engine's hop rows
        assert np.array_equal(t.hops_array(7, nodes), arr[7])

    def test_diameter_closed_form(self):
        t = TorusTopology((4, 5))
        brute = max(
            t.hops(a, b) for a in range(t.num_nodes) for b in range(t.num_nodes)
        )
        assert t.diameter() == brute == 4

    def test_coords_roundtrip(self):
        t = TorusTopology((3, 4))
        assert t.coords(7) == (1, 2)

    def test_bounds(self):
        t = TorusTopology((4, 4))
        with pytest.raises(NetworkModelError):
            t.hops(0, 16)
        with pytest.raises(NetworkModelError):
            t.hops_array(np.array([16]), np.array([0]))

    def test_invalid_dims(self):
        with pytest.raises(NetworkModelError):
            TorusTopology(())
        with pytest.raises(NetworkModelError):
            TorusTopology((4, 0))


class TestFitTorusDims:
    def test_power_of_two_exact(self):
        dims = fit_torus_dims(64, 3)
        assert np.prod(dims) == 64

    def test_covers_non_power(self):
        dims = fit_torus_dims(100, 3)
        assert np.prod(dims) >= 100

    def test_five_dims_bgq_style(self):
        dims = fit_torus_dims(1024, 5)
        assert len(dims) == 5
        assert np.prod(dims) >= 1024

    def test_invalid(self):
        with pytest.raises(NetworkModelError):
            fit_torus_dims(0, 3)


class TestDragonflyTopology:
    def test_hop_tiers(self):
        t = DragonflyTopology(groups=2, routers_per_group=2, nodes_per_router=2)
        assert t.hops(0, 0) == 0
        assert t.hops(0, 1) == 1  # same router
        assert t.hops(0, 2) == 2  # same group, other router
        assert t.hops(0, 4) == 3  # other group

    def test_hops_array_matches_scalar(self):
        t = DragonflyTopology(groups=3, routers_per_group=4, nodes_per_router=2)
        rng = np.random.default_rng(2)
        a = rng.integers(0, t.num_nodes, 200)
        b = rng.integers(0, t.num_nodes, 200)
        arr = t.hops_array(a, b)
        for x, y, h in zip(a, b, arr):
            assert h == t.hops(int(x), int(y))

    def test_fit_covers(self):
        t = DragonflyTopology.fit(100, routers_per_group=16, nodes_per_router=4)
        assert t.num_nodes >= 100
        assert t.groups == 2

    def test_group_router_of(self):
        t = DragonflyTopology(groups=2, routers_per_group=2, nodes_per_router=2)
        assert t.router_of(5) == 2
        assert t.group_of(5) == 1

    def test_diameter(self):
        assert DragonflyTopology(2, 2, 2).diameter() == 3
        assert DragonflyTopology(1, 2, 2).diameter() == 2
        assert DragonflyTopology(1, 1, 2).diameter() == 1
        assert DragonflyTopology(1, 1, 1).diameter() == 0

    def test_invalid(self):
        with pytest.raises(NetworkModelError):
            DragonflyTopology(0, 2, 2)


class TestPlacement:
    def test_the_default_is_made_once_per_machine_and_K_and_is_read_only(self):
        topology, mapping = placement(BGQ, 100)
        again = placement(BGQ, 100)
        assert again[0] is topology and again[1] is mapping
        assert np.array_equal(mapping, block_mapping(100, BGQ.cores_per_node))
        assert topology.num_nodes >= BGQ.num_nodes(100)
        with pytest.raises(ValueError, match="read-only"):
            mapping[0] = 1
        assert placement(CRAY_XC40, 100)[1] is not mapping

    def test_a_caller_mapping_is_validated_on_every_call(self):
        topology, _ = placement(BGQ, 32)
        mine = np.arange(32) % topology.num_nodes
        got_topology, got = placement(BGQ, 32, mine)
        assert got_topology is topology and np.array_equal(got, mine)
        mine[3] = topology.num_nodes
        with pytest.raises(NetworkModelError, match="outside"):
            placement(BGQ, 32, mine)
        with pytest.raises(NetworkModelError, match="shape"):
            placement(BGQ, 32, mine[:-1])
