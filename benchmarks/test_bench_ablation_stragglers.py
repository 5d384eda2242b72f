"""Ablation: straggler (jitter) sensitivity of BL vs STFW.

The store-and-forward exchange is stage-synchronous — every stage waits
for the slowest participant — so OS noise could, in principle, hurt it
more than the single-phase baseline.  This bench injects multiplicative
per-message jitter into the emulator and measures the slowdown of each
scheme, at several noise levels, on a latency-bound pattern.

Asserted findings: both schemes degrade gracefully (slowdown bounded by
1 + jitter); and STFW's *absolute* advantage survives heavy noise —
regularization does not buy latency at the price of fragility.
"""

from conftest import emit

from repro.core import CommPattern, make_vpt, run_exchange
from repro.metrics import Table
from repro.network import BGQ

K = 64
JITTERS = (0.0, 0.25, 0.5, 1.0)


def test_bench_ablation_stragglers(benchmark, bench_config):
    pattern = CommPattern.random(
        K, avg_degree=3, hot_processes=3, seed=5, words=16
    )
    vpt = make_vpt(K, 3)

    def run():
        rows = []
        for jitter in JITTERS:
            bl = run_exchange(
                pattern, machine=BGQ, jitter=jitter, jitter_seed=1
            ).run.makespan_us
            stfw = run_exchange(
                pattern, vpt, machine=BGQ, jitter=jitter, jitter_seed=1
            ).run.makespan_us
            rows.append((jitter, bl, stfw, bl / stfw))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    t = Table(
        columns=("jitter", "BL (us)", "STFW3 (us)", "STFW advantage"),
        title=f"straggler-sensitivity ablation — K={K}, BlueGene/Q emulator",
    )
    for r in rows:
        t.add_row(*r)
    emit(benchmark, t.render(float_fmt="{:.2f}"))

    base_bl, base_stfw = rows[0][1], rows[0][2]
    for jitter, bl, stfw, advantage in rows:
        # graceful degradation: slowdown bounded by the noise envelope
        assert bl <= base_bl * (1 + jitter) * 1.01
        assert stfw <= base_stfw * (1 + jitter) * 1.01
        # the regularization advantage survives every noise level
        assert advantage > 1.5, jitter
