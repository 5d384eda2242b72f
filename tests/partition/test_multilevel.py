"""Unit tests for the multilevel k-way partitioner."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import PartitionError
from repro.matrices import generate_matrix
from repro.partition import (
    coarsen_graph,
    multilevel_partition,
    random_partition,
    rcm_partition,
    refine_partition,
)

from .oracles import edge_cut


def structured(n=800, seed=0):
    return generate_matrix(n, n * 8, n // 10, 0.8, locality=0.92, seed=seed)


class TestCoarsening:
    def graph(self, n=400, seed=1):
        A = structured(n, seed)
        G = sp.csr_matrix(A + A.T)
        G.data = np.ones_like(G.data)
        G.setdiag(0)
        G.eliminate_zeros()
        return G

    def test_contraction_shrinks(self):
        G = self.graph()
        rng = np.random.default_rng(0)
        Gc, wc, mapping = coarsen_graph(G, np.ones(G.shape[0]), rng)
        assert Gc.shape[0] < G.shape[0]
        assert Gc.shape[0] >= G.shape[0] // 2

    def test_weights_conserved(self):
        G = self.graph()
        rng = np.random.default_rng(1)
        w = np.random.default_rng(2).uniform(1, 5, G.shape[0])
        _, wc, mapping = coarsen_graph(G, w, rng)
        assert wc.sum() == pytest.approx(w.sum())

    def test_mapping_is_total_and_dense(self):
        G = self.graph()
        rng = np.random.default_rng(3)
        Gc, _, mapping = coarsen_graph(G, np.ones(G.shape[0]), rng)
        assert mapping.min() == 0
        assert mapping.max() == Gc.shape[0] - 1
        # every coarse vertex hosts 1 or 2 fine vertices
        counts = np.bincount(mapping)
        assert counts.max() <= 2

    def test_hubs_stay_unmatched_alone_or_single(self):
        # a star graph: center must not be matched away into the rim
        n = 101
        rows = np.zeros(n - 1, dtype=int)
        cols = np.arange(1, n)
        G = sp.csr_matrix((np.ones(n - 1), (rows, cols)), shape=(n, n))
        G = sp.csr_matrix(G + G.T)
        rng = np.random.default_rng(0)
        Gc, _, mapping = coarsen_graph(G, np.ones(n), rng)
        center_group = mapping[0]
        assert (mapping == center_group).sum() == 1


class TestRefinement:
    def test_refine_reduces_cut(self):
        A = structured(300, seed=4)
        G = sp.csr_matrix(A + A.T)
        G.data = np.ones_like(G.data)
        G.setdiag(0)
        G.eliminate_zeros()
        n = G.shape[0]
        rng = np.random.default_rng(5)
        side = rng.random(n) < 0.5
        w = np.ones(n)

        def cut(s):
            coo = G.tocoo()
            m = coo.row < coo.col
            return int((s[coo.row[m]] != s[coo.col[m]]).sum())

        before = cut(side)
        refine_partition(G, side, w, 0.5 * n)
        assert cut(side) < before


class TestMultilevelPartition:
    def test_valid(self):
        A = structured()
        p = multilevel_partition(A, 8, seed=0)
        assert p.K == 8
        assert p.row_counts().min() >= 1
        assert p.row_counts().sum() == A.shape[0]

    def test_beats_rcm_and_random_on_structure(self):
        A = structured(seed=2)
        cut_ml = edge_cut(A, multilevel_partition(A, 8, seed=0))
        cut_rcm = edge_cut(A, rcm_partition(A, 8))
        cut_rand = edge_cut(A, random_partition(A.shape[0], 8, seed=0))
        assert cut_ml < cut_rcm
        assert cut_ml < cut_rand / 2

    def test_balance(self):
        A = structured()
        p = multilevel_partition(A, 8, seed=1)
        nnz_w = np.diff(sp.csr_matrix(A).indptr).astype(float)
        assert p.imbalance(nnz_w) < 1.8

    def test_non_power_of_two_K(self):
        A = structured(300, seed=6)
        p = multilevel_partition(A, 5, seed=0)
        assert p.K == 5 and p.row_counts().min() >= 1

    def test_reproducible(self):
        A = structured(300, seed=7)
        assert multilevel_partition(A, 4, seed=9) == multilevel_partition(A, 4, seed=9)

    def test_K_exceeds_n(self):
        with pytest.raises(PartitionError):
            multilevel_partition(structured(100, seed=0), 200)

    def test_rectangular_rejected(self):
        with pytest.raises(PartitionError):
            multilevel_partition(sp.random(4, 6, format="csr"), 2)

    def test_unknown_balance(self):
        with pytest.raises(PartitionError):
            multilevel_partition(structured(100, seed=0), 2, balance="bogus")

    def test_registered_in_partitioners(self):
        from repro.partition import PARTITIONERS

        assert "multilevel" in PARTITIONERS

    def test_dense_rows_tolerated(self):
        # the latency-bound instances have near-full rows; the
        # partitioner must survive and stay balanced
        A = generate_matrix(600, 7200, 300, 2.5, dense_rows=2, seed=8)
        p = multilevel_partition(A, 8, seed=0)
        assert p.row_counts().min() >= 1
