"""Cross-validation of the event-driven engine against the seed engine.

The golden values below were recorded by running the *seed* round-robin
scheduler (commit 7e7c611) on a fixed pattern before the event-driven
rewrite:

* ``SEED_DELIVERED`` — per-rank delivered ``(source, payload)`` sets,
* ``SEED_CLOCKS_*`` — per-rank final virtual clocks,
* ``SEED_TRACE_LEN_*`` — delivered-message counts.

The new engine must deliver exactly the same messages with exactly as
many physical transfers.  Clocks are *not* required to be identical:
the rewrite (and the later conservative-matching change that made
wildcard delivery a pure function of virtual time) fixed the seed's
wildcard-matching fidelity bug (``ANY_SOURCE`` receives matched in
engine posting order instead of earliest virtual arrival), which the
seed paid for as spurious waiting — so every per-rank clock must come
out **at most** the seed's.  The
new engine's own clocks are pinned exactly (``NEW_CLOCKS_*``) so any
future scheduler change that shifts virtual time fails loudly here.

The seed sent BL (``direct``) in SendSet order; BL now runs Algorithm 1
over ``T_1`` and sends in ascending destination order, a different
schedule, so its per-rank seed clocks bound nothing and only its
makespan is held to the seed's.
"""

import numpy as np
import pytest

from repro.core import CommPattern, make_vpt, run_exchange
from repro.network import BGQ


def fixed_pattern():
    return CommPattern.random(16, avg_degree=4, seed=3, words=2)


def normalize(delivered):
    return [
        sorted((int(s), tuple(int(x) for x in np.asarray(v).ravel())) for s, v in items)
        for items in delivered
    ]


# fmt: off
SEED_DELIVERED = [
    [(3, (48, 48)), (4, (64, 64)), (9, (144, 144)), (10, (160, 160)), (11, (176, 176)), (13, (208, 208))],
    [(5, (81, 81)), (7, (113, 113)), (9, (145, 145)), (11, (177, 177))],
    [(1, (18, 18)), (6, (98, 98)), (9, (146, 146)), (14, (226, 226))],
    [(5, (83, 83))],
    [(0, (4, 4)), (11, (180, 180)), (15, (244, 244))],
    [(4, (69, 69)), (9, (149, 149)), (10, (165, 165)), (11, (181, 181)), (14, (229, 229))],
    [(2, (38, 38)), (7, (118, 118)), (8, (134, 134)), (14, (230, 230))],
    [(1, (23, 23)), (3, (55, 55)), (8, (135, 135)), (12, (199, 199))],
    [(2, (40, 40)), (5, (88, 88)), (15, (248, 248))],
    [(3, (57, 57)), (7, (121, 121))],
    [(3, (58, 58)), (5, (90, 90)), (6, (106, 106)), (8, (138, 138)), (12, (202, 202)), (13, (218, 218))],
    [(0, (11, 11)), (4, (75, 75)), (8, (139, 139)), (9, (155, 155)), (12, (203, 203)), (13, (219, 219)), (14, (235, 235))],
    [(1, (28, 28)), (3, (60, 60)), (13, (220, 220)), (14, (236, 236))],
    [(3, (61, 61)), (5, (93, 93)), (14, (237, 237))],
    [(8, (142, 142)), (10, (174, 174))],
    [(5, (95, 95)), (9, (159, 159)), (10, (175, 175)), (13, (223, 223))],
]

SEED_CLOCKS_PLANNED = [
    19.6928, 18.9872, 20.1872, 18.9872, 18.528, 23.328, 21.4224, 23.2576,
    20.2224, 20.2928, 24.5632, 21.528, 20.2576, 22.0224, 22.0576, 22.0224,
]
SEED_CLOCKS_DYNAMIC = [
    45.1392, 44.3984, 46.8336, 44.3984, 45.0688, 48.7392, 46.8336, 48.6688,
    48.104, 45.704, 49.9744, 47.0096, 45.6688, 47.4336, 47.4688, 47.4336,
]
SEED_CLOCKS_DIRECT = [
    13.4816, 14.6112, 20.6816, 19.4464, 12.8112, 24.3872, 17.6464, 21.9168,
    18.8816, 20.6816, 24.3872, 20.7872, 15.8464, 18.8816, 20.6816, 14.0464,
]
SEED_TRACE_LEN = {"planned": 71, "dynamic": 167, "direct": 62}

NEW_CLOCKS_PLANNED = [
    19.6928, 18.9872, 20.1872, 18.9872, 18.4224, 23.328, 20.152, 23.2576,
    20.2224, 20.2928, 24.5632, 21.4928, 20.2576, 22.0224, 22.0576, 20.752,
]
NEW_CLOCKS_DYNAMIC = [
    45.104, 44.3984, 45.5984, 44.3984, 43.8336, 48.7392, 45.5632, 48.6688,
    45.6336, 45.704, 49.9744, 46.904, 45.6688, 47.4336, 47.4688, 46.1632,
]
NEW_CLOCKS_DIRECT = [
    13.4816, 14.0464, 11.0112, 19.4464, 12.8112, 24.3872, 11.0112, 14.0464,
    18.8816, 20.6816, 19.552, 20.7872, 17.6464, 20.6816, 20.6816, 20.6816,
]
# fmt: on

CASES = {
    "planned": (SEED_CLOCKS_PLANNED, NEW_CLOCKS_PLANNED),
    "dynamic": (SEED_CLOCKS_DYNAMIC, NEW_CLOCKS_DYNAMIC),
    "direct": (SEED_CLOCKS_DIRECT, NEW_CLOCKS_DIRECT),
}


def run_case(label, engine="event"):
    p = fixed_pattern()
    if label == "direct":
        return run_exchange(
            p, machine=BGQ, trace=True, engine=engine
        )
    return run_exchange(
        p, make_vpt(16, 2), machine=BGQ, mode=label, trace=True, engine=engine
    )


class TestEngineCrossValidation:
    @pytest.mark.parametrize("label", ["planned", "dynamic", "direct"])
    def test_delivered_sets_match_seed(self, label):
        res = run_case(label)
        assert normalize(res.delivered) == SEED_DELIVERED

    @pytest.mark.parametrize("label", ["planned", "dynamic", "direct"])
    def test_trace_length_matches_seed(self, label):
        res = run_case(label)
        assert len(res.run.trace) == SEED_TRACE_LEN[label]

    @pytest.mark.parametrize("label", ["planned", "dynamic", "direct"])
    def test_clocks_never_exceed_seed(self, label):
        # arrival-ordered wildcard matching can only remove the seed's
        # spurious waiting, never add to it
        seed, _ = CASES[label]
        res = run_case(label)
        if label == "direct":  # another send order: only the makespan compares
            assert res.run.makespan_us <= max(seed) + 1e-9
            return
        for r, (new_c, seed_c) in enumerate(zip(res.run.clocks, seed)):
            assert new_c <= seed_c + 1e-9, f"rank {r} slower than seed"

    @pytest.mark.parametrize("label", ["planned", "dynamic", "direct"])
    def test_clocks_pinned_exactly(self, label):
        _, new = CASES[label]
        res = run_case(label)
        assert res.run.clocks == pytest.approx(new, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("label", ["planned", "dynamic", "direct"])
    def test_clocks_are_a_read_only_float64_array(self, label):
        _, new = CASES[label]
        clocks = run_case(label).run.clocks
        assert isinstance(clocks, np.ndarray) and clocks.dtype == np.float64
        assert clocks.shape == (16,) and not clocks.flags.writeable
        assert clocks.tolist() == pytest.approx(new, rel=1e-12, abs=1e-9)

    def test_planned_and_dynamic_agree_on_deliveries(self):
        assert normalize(run_case("planned").delivered) == normalize(
            run_case("dynamic").delivered
        )


class TestBatchEngineCrossValidation:
    """The batch engine lands on the same golden pins as the event engine.

    Only the planned and direct labels run here — dynamic discovery is
    refused by the batch engine by design.
    """

    @pytest.mark.parametrize("label", ["planned", "direct"])
    def test_delivered_sets_match_seed(self, label):
        res = run_case(label, engine="batch")
        assert normalize(res.delivered) == SEED_DELIVERED

    @pytest.mark.parametrize("label", ["planned", "direct"])
    def test_trace_length_matches_seed(self, label):
        res = run_case(label, engine="batch")
        assert len(res.run.trace) == SEED_TRACE_LEN[label]

    @pytest.mark.parametrize("label", ["planned", "direct"])
    def test_clocks_pinned_exactly(self, label):
        _, new = CASES[label]
        res = run_case(label, engine="batch")
        assert res.run.clocks == pytest.approx(new, rel=1e-12, abs=1e-9)
