"""Executable Algorithm 1: delivery correctness and plan cross-validation."""

import numpy as np
import pytest

from repro.core import (
    CommPattern,
    FaultPolicy,
    VirtualProcessTopology,
    build_plan,
    make_vpt,
    recv_counts_from_plan,
    run_exchange,
)
from repro.core.stfw import _default_payloads, _exchange_counts, stfw_process
from repro.errors import PlanError
from repro.network import BGQ
from repro.simmpi import run_spmd
from repro.simmpi.integrity import corrupt_draw, flip_payload


def expected_deliveries(pattern):
    """{dest: set of (src, first_word)} ground truth for default payloads."""
    out = {i: set() for i in range(pattern.K)}
    for s, t, w in zip(pattern.src, pattern.dst, pattern.size):
        out[int(t)].add((int(s), int(s) * pattern.K + int(t), int(w)))
    return out


def check_delivery(pattern, result):
    want = expected_deliveries(pattern)
    for rank, items in enumerate(result.delivered):
        got = set()
        for src, payload in items:
            arr = np.asarray(payload)
            assert (arr == arr[0]).all() if arr.size else True
            got.add((src, int(arr[0]) if arr.size else -1, arr.size))
        want_rank = {x for x in want[rank] if x[2] > 0}
        got = {x for x in got if x[2] > 0}
        assert got == want_rank, f"rank {rank} deliveries differ"


class TestDeliveryCorrectness:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_random_pattern_planned(self, n):
        p = CommPattern.random(32, avg_degree=5, hot_processes=2, seed=n, words=3)
        res = run_exchange(p, make_vpt(32, n))
        check_delivery(p, res)

    @pytest.mark.parametrize("n", [2, 4])
    def test_random_pattern_dynamic(self, n):
        p = CommPattern.random(16, avg_degree=4, seed=n, words=2)
        res = run_exchange(p, make_vpt(16, n), mode="dynamic")
        check_delivery(p, res)

    def test_all_to_all(self):
        p = CommPattern.all_to_all(16, words=2)
        res = run_exchange(p, make_vpt(16, 2))
        check_delivery(p, res)
        for items in res.delivered:
            assert len(items) == 15

    def test_hypercube(self):
        p = CommPattern.random(32, avg_degree=6, seed=1, words=1)
        res = run_exchange(p, make_vpt(32, 5))
        check_delivery(p, res)

    def test_empty_pattern(self):
        p = CommPattern.from_arrays(8, [], [], [])
        res = run_exchange(p, make_vpt(8, 3))
        assert all(items == [] for items in res.delivered)

    def test_direct_exchange(self):
        p = CommPattern.random(32, avg_degree=5, hot_processes=1, seed=9, words=4)
        res = run_exchange(p)
        check_delivery(p, res)

    def test_nonuniform_vpt(self):
        p = CommPattern.random(64, avg_degree=6, seed=3, words=2)
        res = run_exchange(p, VirtualProcessTopology((8, 2, 4)))
        check_delivery(p, res)

    def test_payload_objects_pass_through(self):
        # arbitrary sized payloads (lists) survive forwarding untouched
        p = CommPattern.from_arrays(8, [0, 7], [7, 1], [3, 2])
        payloads = [dict() for _ in range(8)]
        payloads[0][7] = ["a", "b", "c"]
        payloads[7][1] = ["x", "y"]
        res = run_exchange(p, make_vpt(8, 3), payloads=payloads)
        assert res.delivered[7] == [(0, ["a", "b", "c"])]
        assert res.delivered[1] == [(7, ["x", "y"])]

    def test_mismatched_vpt_rejected(self):
        p = CommPattern.all_to_all(8)
        with pytest.raises(PlanError):
            run_exchange(p, make_vpt(16, 2))

    def test_unknown_mode_rejected(self):
        p = CommPattern.all_to_all(8)
        with pytest.raises(PlanError):
            run_exchange(p, make_vpt(8, 2), mode="bogus")


class TestPlanCrossValidation:
    """The executable algorithm must reproduce the plan's physical messages."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_traced_messages_equal_plan(self, n):
        K = 16
        p = CommPattern.random(K, avg_degree=4, hot_processes=2, seed=n + 10, words=2)
        vpt = make_vpt(K, n)
        plan = build_plan(p, vpt)
        res = run_exchange(p, vpt, trace=True)

        for d, st in enumerate(plan.stages):
            plan_msgs = {
                (int(s), int(r)): int(w)
                for s, r, w in zip(st.sender, st.receiver, st.total_words)
            }
            traced = {}
            for rec in res.run.trace:
                if rec.tag == d:
                    key = (rec.source, rec.dest)
                    assert key not in traced, "duplicate physical message"
                    traced[key] = rec.words
            assert traced == plan_msgs, f"stage {d} differs"

    def test_recv_counts_from_plan(self):
        p = CommPattern.all_to_all(16)
        plan = build_plan(p, make_vpt(16, 2))
        counts = recv_counts_from_plan(plan)
        assert counts.shape == (2, 16)
        # all-to-all on T2(4,4): every rank receives 3 messages per stage
        assert (counts == 3).all()

    def test_dynamic_matches_planned_deliveries(self):
        p = CommPattern.random(16, avg_degree=5, seed=5, words=2)
        vpt = make_vpt(16, 4)
        a = run_exchange(p, vpt, mode="planned")
        b = run_exchange(p, vpt, mode="dynamic")
        norm = lambda items: sorted((s, tuple(np.asarray(x))) for s, x in items)
        for ra, rb in zip(a.delivered, b.delivered):
            assert norm(ra) == norm(rb)


class TestTiming:
    def test_stfw_beats_bl_on_hotspot_pattern(self):
        p = CommPattern.random(64, avg_degree=2, hot_processes=3, seed=2, words=2)
        bl = run_exchange(p, machine=BGQ)
        stfw = run_exchange(p, make_vpt(64, 3), machine=BGQ)
        assert stfw.makespan_us < bl.makespan_us

    def test_makespan_positive_with_machine(self):
        p = CommPattern.random(16, avg_degree=3, seed=0, words=1)
        res = run_exchange(p, make_vpt(16, 2), machine=BGQ)
        assert res.makespan_us > 0

    def test_self_message_rejected(self):
        vpt = make_vpt(8, 2)
        p = CommPattern.from_arrays(8, [0], [1], [1])
        payloads = [dict() for _ in range(8)]
        payloads[0] = {0: [1]}  # illegal self message smuggled into payloads
        with pytest.raises(PlanError):
            run_exchange(p, vpt, payloads=payloads)


def stfw_process_with_list_buckets(
    comm, vpt, send_data, recv_counts=None, *, header_words=0, corrupt_p=0.0, flip_seed=0
):
    """Algorithm 1 as it was before the bare-slot buckets: a list per bucket,
    a list as the message payload, one receive request per message."""
    rank, n, weights, dim_sizes = comm.rank, vpt.n, vpt.weights, vpt.dim_sizes
    fwbuf = [[None] * dim_sizes[d] for d in range(n)]
    delivered = []

    def bucket(first_dim, sub):
        d = first_dim
        while (rank - sub[0]) % weights[d + 1] == 0:
            d += 1
        digit = (sub[0] // weights[d]) % dim_sizes[d]
        if fwbuf[d][digit] is None:
            fwbuf[d][digit] = []
        fwbuf[d][digit].append(sub)

    for dst, payload in send_data.items():
        bucket(0, (dst, rank, payload))
    for d in range(n):
        if recv_counts is None:
            occupied = {digit: b for digit, b in enumerate(fwbuf[d]) if b}
            expect = yield from _exchange_counts(comm, vpt, d, occupied)
        else:
            expect = int(recv_counts[d])
        w = weights[d]
        own_base = rank - ((rank // w) % dim_sizes[d]) * w
        for digit in range(dim_sizes[d]):
            subs, fwbuf[d][digit] = fwbuf[d][digit], None
            if subs:
                words = sum(len(p) for _, _, p in subs) + header_words * len(subs)
                comm.send(own_base + digit * w, subs, tag=d, words=words)
        for _ in range(expect):
            _, _, subs = yield comm.recv(tag=d)
            for sub in subs:
                if sub[0] == rank:
                    delivered.append((sub[1], sub[2]))
                    continue
                if corrupt_p > 0.0 and corrupt_draw(flip_seed, rank, sub[1], sub[0], d) < corrupt_p:
                    flipped, changed = flip_payload(sub[2], flip_seed, rank, sub[1], sub[0], d)
                    if changed:
                        sub = (sub[0], sub[1], flipped)
                bucket(d + 1, sub)
    return delivered


class TestBucketSlots:
    """A forward-buffer slot is None, one bare submessage or a list; a message's
    payload is a tuple.  Same run as with a list per bucket, count for count."""

    CASES = {
        "sparse": (CommPattern.random(64, 2, words=3, seed=1), {}),
        "dense": (CommPattern.random(16, 6, words=2, seed=2), {}),
        "all_to_all": (CommPattern.all_to_all(16, words=1), {}),
        "header_words": (CommPattern.random(16, 6, words=2, seed=3), dict(header_words=2)),
        "dynamic": (CommPattern.random(16, 5, words=2, seed=4), dict(dynamic=True)),
        "corrupt_forwarders": (
            CommPattern.random(16, 6, words=4, seed=5),
            dict(corrupt={3: 1.0, 6: 0.5, 9: 1.0}, flip_seed=11),
        ),
    }

    def test_cases_cover_one_two_and_many_submessages_per_bucket(self):
        plans = [build_plan(p, make_vpt(p.K, 2)) for p, _ in self.CASES.values()]
        nsub = np.concatenate([st.nsub for plan in plans for st in plan.stages])
        assert (nsub == 1).any() and (nsub == 2).any() and (nsub > 2).any()

    @pytest.mark.parametrize("case", CASES)
    def test_same_run_as_a_list_per_bucket(self, case):
        pattern, opts = self.CASES[case]
        K, vpt = pattern.K, make_vpt(pattern.K, 2)
        payloads = _default_payloads(pattern)
        header, corrupt = opts.get("header_words", 0), opts.get("corrupt", {})
        counts = None
        if not opts.get("dynamic"):
            counts = recv_counts_from_plan(build_plan(pattern, vpt, header_words=header))

        def rc(comm):
            return None if counts is None else counts[:, comm.rank]

        def now(comm):
            return stfw_process(
                comm, vpt, payloads[comm.rank], rc(comm), header_words=header,
                corrupt_forwarders=corrupt, flip_seed=opts.get("flip_seed", 0),
            )

        def before(comm):
            return stfw_process_with_list_buckets(
                comm, vpt, payloads[comm.rank], rc(comm), header_words=header,
                corrupt_p=corrupt.get(comm.rank, 0.0), flip_seed=opts.get("flip_seed", 0),
            )

        got = run_spmd(K, now, machine=BGQ, trace=True)
        want = run_spmd(K, before, machine=BGQ, trace=True)
        assert np.array_equal(got.clocks, want.clocks)
        for part in ("makespan_us", "trace", "engine_stats"):
            assert getattr(got, part) == getattr(want, part), part
        flips = 0
        for rank, (a, b) in enumerate(zip(got.returns, want.returns)):
            assert [s for s, _ in a] == [s for s, _ in b], f"rank {rank}"
            assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a, b)), f"rank {rank}"
            flips += sum(not np.array_equal(x, payloads[s][rank]) for s, x in a)
        assert (flips > 0) == bool(corrupt)


class TestRunExchangeValidation:
    @pytest.fixture
    def pattern(self):
        return CommPattern.random(16, avg_degree=3, seed=5)

    @pytest.fixture
    def vpt(self):
        return make_vpt(16, 2)

    def test_no_topology_is_t1(self, pattern):
        res = run_exchange(pattern, machine=BGQ)
        assert res.plan.vpt.dim_sizes == (16,)
        assert np.array_equal(res.run.clocks, run_exchange(pattern, dims=1, machine=BGQ).run.clocks)

    def test_dims_selects_the_balanced_vpt(self, pattern, vpt):
        via_dims = run_exchange(pattern, dims=2, machine=BGQ)
        via_vpt = run_exchange(pattern, vpt, machine=BGQ)
        assert via_dims.makespan_us == via_vpt.makespan_us

    def test_conflicting_dims_rejected(self, pattern, vpt):
        with pytest.raises(PlanError):
            run_exchange(pattern, vpt, dims=3)

    def test_unknown_scheme_rejected(self, pattern):
        """Scheme labels are gone: the topology is the scheme."""
        with pytest.raises(TypeError, match="scheme"):
            run_exchange(pattern, scheme="STFWx")

    def test_ft_knob_needs_tolerate(self, pattern, vpt):
        """A retry knob lives in ``on_fault=FaultPolicy(...)``; as a
        keyword of its own it is refused by name."""
        with pytest.raises(TypeError, match="max_retries"):
            run_exchange(pattern, vpt, max_retries=7)

    def test_flat_charges_header_words_once_per_message(self, pattern):
        res = run_exchange(pattern, machine=BGQ, header_words=2, trace=True)
        assert sum(rec.words for rec in res.run.trace) == (
            int(pattern.size.sum()) + 2 * pattern.num_messages
        )

    def test_direct_refuses_dynamic_mode(self, pattern):
        with pytest.raises(PlanError, match="mode='dynamic'"):
            run_exchange(pattern, machine=BGQ, mode="dynamic")

    @pytest.mark.parametrize("on_fault", ["tolerate", FaultPolicy(max_retries=1)])
    def test_tolerant_policy_refuses_dynamic_mode(self, pattern, vpt, on_fault):
        with pytest.raises(PlanError, match="mode='dynamic'"):
            run_exchange(pattern, vpt, machine=BGQ, mode="dynamic", on_fault=on_fault)

    def test_bad_on_fault_rejected(self, pattern, vpt):
        with pytest.raises(PlanError):
            run_exchange(pattern, vpt, on_fault="explode")
