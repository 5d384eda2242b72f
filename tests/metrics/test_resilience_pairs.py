"""Pair accounting on key columns against the set comprehensions it replaced."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import CommPattern
from repro.metrics import delivered_pairs, expected_pairs, resilience_stats
from repro.metrics.resilience import delivered_keys, expected_keys, key_pairs


def reference_expected(pattern, crashed=()):
    dead = set(int(r) for r in crashed)
    return {
        (int(s), int(t))
        for s, t in zip(pattern.src, pattern.dst)
        if int(s) not in dead and int(t) not in dead
    }


def reference_delivered(delivered):
    return {(int(src), dst) for dst, msgs in enumerate(delivered) if msgs for src, _ in msgs}


@settings(max_examples=60, deadline=None)
@given(
    K=st.sampled_from([2, 7, 16]),
    seed=st.integers(0, 10_000),
    crashed=st.lists(st.integers(0, 1), max_size=2),
    lost=st.integers(0, 4),
)
def test_pairs_and_stats_match_the_set_formulation(K, seed, crashed, lost):
    rng = np.random.default_rng(seed)
    pattern = CommPattern.random(K, avg_degree=2, seed=seed)
    delivered = [[] for _ in range(K)]
    for s, t in list(zip(pattern.src.tolist(), pattern.dst.tolist()))[lost:]:
        delivered[t].append((np.int64(s), "payload"))
        if rng.random() < 0.2:
            delivered[t].append((s, "again"))  # a duplicate counts once
    delivered[int(rng.integers(K))] = None  # a crashed rank returned nothing

    expected, got = reference_expected(pattern, crashed), reference_delivered(delivered)
    assert expected_pairs(pattern, crashed) == expected
    assert expected_pairs(pattern, iter(crashed)) == expected
    assert delivered_pairs(delivered) == got
    keys = expected_keys(pattern, crashed)
    assert keys.dtype == np.int64 and key_pairs(keys, K) == tuple(sorted(expected))
    assert key_pairs(delivered_keys(delivered), K) == tuple(sorted(got))

    stats = resilience_stats("BL", pattern, delivered, crashed=crashed, makespan_us=3.0,
                             reference_makespan_us=2.0)
    assert stats.expected == len(expected) and stats.delivered == len(expected & got)
    assert stats.stranded == tuple(sorted(expected - got))
    assert stats.crashed == tuple(sorted(set(crashed))) and stats.makespan_inflation == 1.5
