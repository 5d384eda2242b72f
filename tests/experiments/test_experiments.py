"""Shape tests for every table/figure module (small scale, fast).

These assert the *findings* each paper artifact carries, not absolute
numbers: message-count reductions, volume increases, time orderings,
cross-network and cross-dimension relationships.
"""

import math

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    InstanceCache,
    figure1,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    table2,
    table3,
)
from repro.network import BGQ, CRAY_XC40, CRAY_XK7

CFG = ExperimentConfig(scale=0.05, nnz_budget=400_000)


@pytest.fixture(scope="module")
def cache():
    return InstanceCache(CFG)


class TestFigure1:
    def test_hotspots_stand_out(self, cache):
        rows = figure1.run(CFG, K=128, cache=cache)
        by_name = {r.name: r for r in rows}
        # pattern1 and pkustk04 are the paper's dense-row exemplars
        assert by_name["pattern1"].irregularity > 2.5
        assert by_name["pkustk04"].irregularity > 2.5

    def test_counts_cover_all_processes(self, cache):
        rows = figure1.run(CFG, K=128, cache=cache)
        for r in rows:
            assert r.counts.shape == (128,)
            assert r.mmax == r.counts.max()

    def test_format_contains_lines(self, cache):
        text = figure1.format_result(figure1.run(CFG, K=128, cache=cache))
        assert "max=" in text and "avg=" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def cells(self, cache):
        return table2.run(CFG, k_values=(64, 128), cache=cache)

    def rows_for(self, cells, K):
        return {c.scheme: c.metrics for c in cells if c.K == K}

    def test_all_schemes_present(self, cells):
        rows = self.rows_for(cells, 64)
        assert set(rows) == {"BL", "STFW2", "STFW3", "STFW4", "STFW5", "STFW6"}

    def test_mmax_monotone_in_dimension(self, cells):
        rows = self.rows_for(cells, 64)
        seq = [rows[s]["mmax"] for s in ("BL", "STFW2", "STFW3", "STFW4", "STFW5", "STFW6")]
        assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_vavg_grows_with_dimension(self, cells):
        rows = self.rows_for(cells, 64)
        assert rows["STFW6"]["vavg"] > rows["STFW2"]["vavg"] > rows["BL"]["vavg"]

    def test_stfw_improves_comm_time(self, cells):
        for K in (64, 128):
            rows = self.rows_for(cells, K)
            best = min(v["comm"] for s, v in rows.items() if s != "BL")
            assert best < rows["BL"]["comm"]

    def test_improvement_grows_with_K(self, cells):
        # the paper: STFW gets better with more processes
        r64 = self.rows_for(cells, 64)
        r128 = self.rows_for(cells, 128)
        gain64 = r64["BL"]["comm"] / min(v["comm"] for s, v in r64.items() if s != "BL")
        gain128 = r128["BL"]["comm"] / min(v["comm"] for s, v in r128.items() if s != "BL")
        assert gain128 > gain64

    def test_buffer_less_than_twice_bl(self, cells):
        rows = self.rows_for(cells, 64)
        for s, v in rows.items():
            if s != "BL":
                assert v["buffer_kb"] < 2.2 * rows["BL"]["buffer_kb"]

    def test_format(self, cells):
        text = table2.format_result(cells)
        assert "STFW2" in text and "mmax" in text


class TestFigure6:
    def test_normalization_convention(self, cache):
        norm = figure6.run(CFG, K=64, cache=cache)
        assert norm["BL"] == {k: 1.0 for k in norm["BL"]}
        for s, m in norm.items():
            if s == "BL":
                continue
            assert m["mmax"] < 1.0  # STFW always improves message counts
            assert m["vavg"] > 1.0  # and always pays volume

    def test_format(self, cache):
        text = figure6.format_result(figure6.run(CFG, K=64, cache=cache))
        assert "normalized" in text


class TestFigure7:
    def test_panels(self, cache):
        panels = figure7.run(CFG, K=64, cache=cache)
        assert [p.metric for p in panels] == ["vavg", "mavg", "mmax", "total"]
        for p in panels:
            assert set(p.values) == {"GaAsH6", "coAuthorsDBLP"}
            for series in p.values.values():
                assert len(series) == len(p.schemes)

    def test_format(self, cache):
        text = figure7.format_result(figure7.run(CFG, K=64, cache=cache))
        assert "GaAsH6" in text


class TestFigure8:
    @pytest.fixture(scope="class")
    def series(self, cache):
        return figure8.run(
            CFG,
            matrices=("gupta2", "sparsine"),
            k_values=(32, 64, 128),
            scheme_dims=(1, 2, 4, 6),
            cache=cache,
        )

    def test_missing_points_are_nan(self, series):
        s = series[0]
        # STFW6 needs K >= 64: absent at K=32
        assert math.isnan(s.times["STFW6"][0])
        assert not math.isnan(s.times["STFW6"][1])

    def test_latency_bound_instance_scales_better_with_stfw(self, series):
        gupta = next(s for s in series if s.name == "gupta2")
        assert gupta.speedup_at(128, "STFW4") > 1.0

    def test_format(self, series):
        text = figure8.format_result(series)
        assert "gupta2" in text and "K=128" in text


class TestFigure9:
    @pytest.fixture(scope="class")
    def blocks(self, cache):
        return figure9.run(
            CFG, matrices=("gupta2", "pattern1", "GaAsH6"), k_values=(128,), cache=cache
        )

    def test_both_networks_present(self, blocks):
        assert set(blocks[0].comm_us) == {BGQ.name, CRAY_XC40.name}

    def test_stfw_improves_both_networks(self, blocks):
        b = blocks[0]
        for machine in b.comm_us:
            best = min(
                b.improvement(machine, s) for s in b.schemes if s != "BL"
            )
            best_gain = max(
                b.improvement(machine, s) for s in b.schemes if s != "BL"
            )
            assert best_gain > 1.0
            del best

    def test_xc40_gains_more(self, blocks):
        b = blocks[0]
        gain = lambda m: max(b.improvement(m, s) for s in b.schemes if s != "BL")
        assert gain(CRAY_XC40.name) > gain(BGQ.name)

    def test_format(self, blocks):
        assert "128 processes" in figure9.format_result(blocks)


class TestTable3:
    @pytest.fixture(scope="class")
    def blocks(self, cache):
        # reduced instance set and K values, same structure
        return table3.run(
            CFG,
            matrices=("human_gene2", "mip1", "TSOPF_FS_b300_c3"),
            runs=((CRAY_XK7, 512), (CRAY_XK7, 1024), (CRAY_XC40, 512)),
            cache=cache,
        )

    def test_blocks_shape(self, blocks):
        assert [(b.machine, b.K) for b in blocks] == [
            (CRAY_XK7.name, 512),
            (CRAY_XK7.name, 1024),
            (CRAY_XC40.name, 512),
        ]

    def test_drastic_improvement(self, blocks):
        for b in blocks:
            assert b.improvement(b.best_scheme()) > 2.0

    def test_bl_degrades_faster_with_K(self, blocks):
        xk7_small, xk7_big = blocks[0], blocks[1]
        bl_growth = xk7_big.rows["BL"]["comm"] / xk7_small.rows["BL"]["comm"]
        s4_growth = xk7_big.rows["STFW4"]["comm"] / xk7_small.rows["STFW4"]["comm"]
        assert bl_growth > s4_growth

    def test_format(self, blocks):
        text = table3.format_result(blocks)
        assert "best:" in text


class TestFigure10:
    def test_rows(self, cache):
        rows = figure10.run(
            CFG, matrices=("human_gene2", "mip1"), K=1024, cache=cache
        )
        assert len(rows) == 2
        for r in rows:
            assert r.best_improvement > 1.0
            assert r.bl_comm_us > 0
            assert np.isfinite(list(r.stfw_comm_us.values())).all()

    def test_format(self, cache):
        rows = figure10.run(CFG, matrices=("mip1",), K=1024, cache=cache)
        text = figure10.format_result(rows)
        assert "mip1" in text and "gain" in text


class TestFaults:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import faults

        return faults.run(CFG, K=16, drop_rates=(0.0, 0.05))

    def test_row_structure(self, result):
        from repro.experiments import faults

        # 2 drop rates x 2 schemes + crash scenario x 3 schemes
        assert len(result.rows) == 2 * 2 + 3
        schemes = {s.scheme for _, s in result.rows}
        assert schemes == {"BL-FT", "STFW-FT", "STFW"}
        assert result.K == 16

    def test_fault_tolerant_schemes_complete_clean_sweep(self, result):
        for scenario, s in result.rows:
            if scenario == "drop 0%":
                assert s.completion_rate == 1.0
                assert s.makespan_inflation == 1.0

    def test_crash_strands_plain_stfw_only(self, result):
        crash_rows = {
            s.scheme: s for scenario, s in result.rows if scenario.startswith("crash")
        }
        assert not crash_rows["STFW"].completed
        assert crash_rows["STFW"].stranded
        assert crash_rows["STFW-FT"].completed
        assert crash_rows["STFW-FT"].completion_rate == 1.0

    def test_format(self, result):
        from repro.experiments import faults

        text = faults.format_result(result)
        assert "Resilience" in text
        assert "STFW-FT" in text and "deadlock" in text

    def test_printed_table_is_pinned(self, result):
        import hashlib

        from repro.experiments import faults

        text = faults.format_result(result)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "07078a1bd62d603adc1e108e445fe972295555b8853a599be2c7599be7162550"
        )


class TestRecover:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import recover

        return recover.run(ExperimentConfig())  # what ``repro recover`` runs

    def test_printed_table_is_pinned(self, result):
        """BL and a prime survivor count run the one exchange body over
        ``T_1``; the table ``repro recover`` prints must not move."""
        import hashlib

        from repro.experiments import recover

        text = recover.format_result(result)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c775f9305daf8c2862b1e7b917ea490206fc228d62e37f73f5e08d4e22cd3ec1"
        )


#: sha256 of ``python -m repro <command> --scale 0.03``'s stdout
PAPER_PINS = {
    "figure1": "d49d32dd530806ca374019672df300fadd83d0b30e0f4683213b439ee6ddabcc",
    "table2": "37bdc65236048feda2df6a8315364f3f12af6f683a73915729881ad83de78a0d",
    "figure6": "8fe81b35d743aea67f37e3765e580f98677fb9e568d6bda3caf3d4d8c22fbeba",
    "figure7": "621fa1a79a47709121922d34bc3605d1300124619f0e6d554ca991a257e9cb00",
    "figure8": "a96a6343ddf6435c3c6082a580aac9a23d00030c72c667a78988e885465f860d",
    "figure9": "c81ff96f6609deb823ce8f99b18d055c0e3c5622ce153e6aeb2491d8d610ecb5",
}


class TestPaperPins:
    """The paper subcommands print exactly the pinned bytes.

    In-process runs print what ``python -m repro <command> --scale
    0.03 | sha256sum`` hashes, under any ``PYTHONHASHSEED``.
    ``table3`` and ``figure10`` run at the default scale, a minute each,
    and are pinned in CI instead.
    """

    @pytest.mark.parametrize("command", PAPER_PINS)
    def test_printed_output_is_pinned(self, command, capsys):
        import hashlib

        from repro.cli import main

        assert main([command, "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PAPER_PINS[command]
