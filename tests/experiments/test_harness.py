"""Unit tests for the experiment harness (cache, specs, dim selection)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import ExperimentConfig, InstanceCache, effective_spec, paper_dim_selection


CFG = ExperimentConfig(scale=0.05, nnz_budget=500_000)


class TestEffectiveSpec:
    def test_scale_applied(self):
        s = effective_spec("cbuckle", 64, CFG)
        assert s.n == pytest.approx(13681 * 0.05, rel=0.02)

    def test_upscale_for_large_K(self):
        # human_gene2 has 14340 rows; at 16K processes with
        # min_rows_per_part=2 it must grow to >= 32768 rows
        s = effective_spec("human_gene2", 16384, CFG)
        assert s.n >= 2 * 16384

    def test_nnz_budget_caps_avg_degree(self):
        cfg = ExperimentConfig(scale=1.0, nnz_budget=1_000_000)
        s = effective_spec("human_gene2", 64, cfg)
        assert s.nnz <= 1_100_000
        assert s.n == 14340  # rows untouched by the budget

    def test_unknown_instance(self):
        with pytest.raises(ExperimentError):
            effective_spec("bogus", 64, CFG)


class TestInstanceCache:
    def test_matrix_cached(self):
        cache = InstanceCache(CFG)
        a = cache.matrix("cbuckle", 64)
        b = cache.matrix("cbuckle", 64)
        assert a is b

    def test_same_effective_spec_shares_matrix(self):
        cache = InstanceCache(CFG)
        # different K but same effective spec -> same generated matrix
        a = cache.matrix("cbuckle", 32)
        b = cache.matrix("cbuckle", 64)
        assert a is b

    def test_a_raised_locality_is_a_different_matrix(self):
        # the spread_blocks cap raises locality with K; a cache that has
        # built K=32 must hand K=64 the matrix a fresh cache builds
        cfg = ExperimentConfig(scale=0.02, spread_blocks=2)
        assert effective_spec("cbuckle", 32, cfg) != effective_spec("cbuckle", 64, cfg)
        shared = InstanceCache(cfg)
        shared.matrix("cbuckle", 32)
        a = shared.matrix("cbuckle", 64)
        b = InstanceCache(cfg).matrix("cbuckle", 64)
        assert (a != b).nnz == 0
        assert shared.spec("cbuckle", 64) == effective_spec("cbuckle", 64, cfg)

    def test_partition_per_K(self):
        cache = InstanceCache(CFG)
        p32 = cache.partition("cbuckle", 32)
        p64 = cache.partition("cbuckle", 64)
        assert p32.K == 32 and p64.K == 64

    def test_pattern_matches_partition(self):
        cache = InstanceCache(CFG)
        pat = cache.pattern("sparsine", 64)
        assert pat.K == 64

    def test_cell_runs_all_schemes(self):
        from repro.network import BGQ

        cache = InstanceCache(CFG)
        exp = cache.cell("sparsine", 32, BGQ)
        assert exp.schemes == ["BL", "STFW2", "STFW3", "STFW4", "STFW5"]

    def test_block_partitioner_config(self):
        cache = InstanceCache(ExperimentConfig(scale=0.05, partitioner="block"))
        p = cache.partition("cbuckle", 16)
        assert (p.parts[:-1] <= p.parts[1:]).all()  # contiguous blocks


#: (makespan us, max messages of a process, physical messages, volume in words) per scheme on
#: BlueGene/Q, recorded before the generator and ``spmv_pattern`` were rewritten around
#: value sorts: the whole cell path, matrix generation to makespan, has to keep them.
CELL_GOLDEN = {
    ("human_gene2", 16): {
        "BL": (63.734400000000015, 15, 240, 9385),
        "STFW2": (46.176, 6, 96, 14959),
        "STFW3": (48.903999999999996, 5, 80, 17385),
        "STFW4": (52.42400000000001, 4, 64, 19820),
    },
    ("F1", 32): {
        "BL": (118.71839999999999, 20, 400, 71383),
        "STFW2": (141.9712, 10, 255, 104826),
        "STFW3": (203.3648, 7, 198, 129575),
        "STFW4": (209.03200000000004, 6, 175, 143157),
        "STFW5": (231.45440000000002, 5, 143, 163608),
    },
    ("coPapersCiteseer", 64): {
        "BL": (169.64, 39, 1826, 136809),
        "STFW2": (150.35040000000004, 12, 667, 225637),
        "STFW3": (182.12320000000003, 9, 482, 277269),
        "STFW4": (224.4144, 8, 481, 293566),
        "STFW5": (248.3408, 7, 417, 328170),
        "STFW6": (268.2896, 6, 353, 363264),
    },
}


def test_cell_path_golden():
    from repro.network import BGQ

    cache = InstanceCache(ExperimentConfig(seed=0, scale=0.05))
    cells = cache.cells([(name, K, BGQ) for name, K in CELL_GOLDEN], jobs=1)
    for exp, want in zip(cells, CELL_GOLDEN.values()):
        got = {
            scheme: (r.stats.comm_time_us, r.plan.max_message_count,
                     r.plan.num_physical_messages, r.plan.total_volume)
            for scheme, r in exp.results.items()
        }
        assert list(got) == list(want)
        for scheme in want:
            assert got[scheme][1:] == want[scheme][1:], scheme
            assert got[scheme][0] == pytest.approx(want[scheme][0], rel=1e-12), scheme


class TestPaperDimSelection:
    def test_16k(self):
        # lg2(16384) = 14 -> {2,3,4} + {8,9} + {13,14}
        assert paper_dim_selection(16384) == [2, 3, 4, 8, 9, 13, 14]

    def test_8k(self):
        # lg2(8192) = 13 -> {2,3,4} + {7,8} + {12,13}
        assert paper_dim_selection(8192) == [2, 3, 4, 7, 8, 12, 13]

    def test_4k(self):
        # lg2(4096) = 12 -> {2,3,4} + {7,8} + {11,12}
        assert paper_dim_selection(4096) == [2, 3, 4, 7, 8, 11, 12]

    def test_small_K_dedupes(self):
        dims = paper_dim_selection(64)
        assert dims == sorted(set(dims))
        assert all(2 <= d <= 6 for d in dims)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ExperimentError):
            paper_dim_selection(1000)
