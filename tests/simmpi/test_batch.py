"""Cross-engine equivalence and API tests for the batch backend.

The contract under test: ``BatchSimMPI`` (``engine="batch"``) is
**bit-identical** to the default event engine — same ``RunResult``
(returns, clocks, makespan, canonical trace), same chrome-trace bytes,
same obs counters — for every *supported* scenario: planned STFW and
direct (BL) exchanges with a machine model.  Everything else (wildcard
programs, dynamic discovery, faults, jitter, machine-less runs) is
refused eagerly by name, never silently mis-simulated.
"""

import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core import (
    CommPattern, PatternDelta, build_direct_plan, build_plan, make_vpt, repair_plan, run_exchange,
)
from repro.errors import PlanError, SimMPIError
from repro.experiments import drift, faults
from repro.network import BGQ, CRAY_XC40, CRAY_XK7
from repro.obs import Tracer, chrome_trace
from repro.partition import block_partition
from repro.simmpi import FaultPlan, SimMPI, engine_names, resolve_engine, run_spmd
from repro.core.stfw import _default_payloads
from repro.simmpi.batch import BatchSimMPI, Deliveries, EdgePayloads, digits16, rounds
from repro.spmv.persistent import PersistentSpMV


def deep_eq(x, y):
    """Semantic equality: exact types, exact dtypes, exact values."""
    if type(x) is not type(y):
        return False
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(deep_eq(p, q) for p, q in zip(x, y))
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(deep_eq(v, y[k]) for k, v in x.items())
    return x == y


def assert_same_result(base, got, context=""):
    # deep_eq compares by exact type, so a Deliveries is read as the lists it stands for
    assert deep_eq(list(base.returns), list(got.returns)), f"returns diverge {context}"
    if isinstance(got.returns, Deliveries):
        assert_columns_flatten(base.returns, got.returns, context)
    assert np.array_equal(base.clocks, got.clocks), f"clocks diverge {context}"
    assert base.makespan_us == got.makespan_us, f"makespan diverges {context}"
    assert base.trace == got.trace, f"trace diverges {context}"
    assert base.crashed == got.crashed, f"crashed diverges {context}"
    assert base.fault_events == got.fault_events, f"fault events diverge {context}"


def assert_columns_flatten(lists, deliveries, context=""):
    """The ``Deliveries`` columns themselves — not only the list view built from
    them — are what an event engine's per-rank lists flatten to."""
    K = len(lists)
    assert len(deliveries) == K
    counts = [len(msgs) for msgs in lists]
    ptr, src, rows, table = deliveries.ptr, deliveries.src, deliveries.rows, deliveries.table
    assert ptr.dtype == src.dtype == np.int64
    assert ptr.tolist() == [0] + np.cumsum(counts).tolist(), f"ptr {context}"
    assert src.tolist() == [s for msgs in lists for s, _ in msgs], f"src {context}"
    # a row is the message (src -> receiving rank) of the payload table
    assert np.array_equal(table.src[rows], src), f"rows {context}"
    assert table.dst[rows].tolist() == np.repeat(np.arange(K), counts).tolist(), f"rows {context}"
    assert np.array_equal(deliveries.dst, table.dst[rows])
    assert deep_eq(list(table.take(rows)), [p for msgs in lists for _, p in msgs]), (
        f"row payloads {context}"
    )


def span_key(s):
    args = tuple(sorted(s.args.items())) if isinstance(s.args, dict) else s.args
    return (s.name, s.t0_us, s.t1_us, s.track, s.cat, args)


def counter_keys(tracer):
    return sorted(
        (name, track if track is not None else -1,
         tuple(sorted(labels.items())) if labels else (), value)
        for name, track, labels, value in tracer.counter_rows()
    )


def edge_triples(pattern):
    """``(src, dst, words)`` of every message, as Python ints, in pattern order."""
    return zip(pattern.src.tolist(), pattern.dst.tolist(), pattern.size.tolist())


MACHINES = {"bgq": BGQ, "xc40": CRAY_XC40, "xk7": CRAY_XK7}


class TestExchangeEquivalence:
    """Planned STFW / direct exchanges match across engines, bytes and all."""

    @pytest.fixture(scope="class")
    def pattern(self):
        return CommPattern.random(64, avg_degree=6, hot_processes=3, seed=3, words=4)

    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("mname", sorted(MACHINES))
    def test_planned_stfw_bit_identical(self, pattern, dims, mname):
        machine = MACHINES[mname]
        vpt = make_vpt(64, dims)
        base_tr, got_tr = Tracer("eq.event"), Tracer("eq.batch")
        base = run_exchange(pattern, vpt, machine=machine, trace=True, tracer=base_tr)
        got = run_exchange(
            pattern, vpt, machine=machine, trace=True, tracer=got_tr, engine="batch"
        )
        assert_same_result(base.run, got.run, f"(T_{dims}, {mname})")
        assert deep_eq(base.delivered, list(got.delivered))
        assert chrome_trace(run=base.run) == chrome_trace(run=got.run)
        assert counter_keys(base_tr) == counter_keys(got_tr)
        assert sorted(map(span_key, base_tr.spans)) == sorted(
            map(span_key, got_tr.spans)
        )

    def test_direct_bit_identical(self, pattern):
        base_tr, got_tr = Tracer("eq.event"), Tracer("eq.batch")
        base = run_exchange(
            pattern, machine=BGQ, trace=True, tracer=base_tr
        )
        got = run_exchange(
            pattern, machine=BGQ, trace=True, tracer=got_tr,
            engine="batch",
        )
        assert_same_result(base.run, got.run, "(direct)")
        assert deep_eq(base.delivered, list(got.delivered))
        assert chrome_trace(run=base.run) == chrome_trace(run=got.run)
        assert counter_keys(base_tr) == counter_keys(got_tr)
        assert sorted(map(span_key, base_tr.spans)) == sorted(
            map(span_key, got_tr.spans)
        )

    def test_run_planned_direct_is_the_t1_exchange(self, pattern):
        plan = build_direct_plan(pattern, header_words=1)
        payloads = _default_payloads(pattern)
        got = BatchSimMPI(64, machine=BGQ, trace=True).run_planned_direct(payloads, plan)
        want = run_exchange(
            pattern, dims=1, machine=BGQ, trace=True, header_words=1, engine="batch"
        ).run
        assert_same_result(want, got, "(run_planned_direct)")
        for column in ("rows", "ptr", "src"):
            assert np.array_equal(getattr(got.returns, column), getattr(want.returns, column))
        with pytest.raises(SimMPIError, match="runs a T_1 plan.*VPT \\(8, 8\\)"):
            BatchSimMPI(64, machine=BGQ).run_planned_direct(
                payloads, build_plan(pattern, make_vpt(64, 2))
            )

    def test_header_words_bit_identical(self, pattern):
        vpt = make_vpt(64, 2)
        base = run_exchange(pattern, vpt, machine=BGQ, trace=True, header_words=2)
        got = run_exchange(
            pattern, vpt, machine=BGQ, trace=True, header_words=2, engine="batch"
        )
        assert_same_result(base.run, got.run, "(header_words=2)")

    def test_non_power_of_two_K(self):
        pattern = CommPattern.random(96, avg_degree=5, seed=9, words=3)
        vpt = make_vpt(96, 2)
        base = run_exchange(pattern, vpt, machine=CRAY_XK7, trace=True)
        got = run_exchange(
            pattern, vpt, machine=CRAY_XK7, trace=True, engine="batch"
        )
        assert_same_result(base.run, got.run, "(K=96)")

    @pytest.mark.parametrize("kind", ["list", "tuple", "ndarray"])
    def test_non_power_of_two_K_user_payloads(self, kind):
        pattern = CommPattern.random(96, avg_degree=5, seed=9, words=3)
        vpt = make_vpt(96, 2)
        make = {
            "list": lambda s, t, w: [s, t] * (w // 2) + [w] * (w % 2),
            "tuple": lambda s, t, w: (float(s - t),) * w,
            "ndarray": lambda s, t, w: np.arange(w, dtype=np.float32) + s,
        }[kind]
        payloads = [{} for _ in range(96)]
        for s, t, w in edge_triples(pattern):
            payloads[s][t] = make(s, t, w)
        base = run_exchange(
            pattern, vpt, machine=CRAY_XK7, trace=True, payloads=payloads
        )
        got = run_exchange(
            pattern, vpt, machine=CRAY_XK7, trace=True, payloads=payloads,
            engine="batch",
        )
        assert_same_result(base.run, got.run, f"(K=96, {kind} payloads)")
        # user payloads are delivered as the objects that were passed
        for r, msgs in enumerate(got.delivered):
            assert all(p is payloads[s][r] for s, p in msgs)

    def test_K_above_65536_takes_the_two_digit_receiver_path(self):
        K = 66000
        assert len(digits16(np.arange(3), K)) == 2
        # degree 1 keeps the event engine's side of this to ~10 s
        pattern = CommPattern.random(K, avg_degree=1, seed=4, words=2)
        base = run_exchange(pattern, dims=2, machine=BGQ, trace=True)
        got = run_exchange(pattern, dims=2, machine=BGQ, trace=True, engine="batch")
        assert_same_result(base.run, got.run, f"(K={K})")

    @settings(max_examples=25, deadline=None)
    @given(
        K=st.sampled_from([12, 16, 27, 36]),
        degree=st.integers(1, 6),
        dims=st.sampled_from([None, 2, 3]),
        seed=st.integers(0, 10_000),
    )
    def test_uniform_sizes_tie_many_arrivals(self, K, degree, dims, seed):
        # equal words on a small torus: most arrival times collide, so
        # the delivery order (and through it every bundle order) rests
        # on the tie-breaks — stability in the receiver sort, unique
        # arrival keys in the routing sort
        pattern = CommPattern.random(K, avg_degree=degree, seed=seed, words=3)
        kw = {} if dims is None else {"dims": dims}
        base = run_exchange(pattern, machine=BGQ, trace=True, **kw)
        got = run_exchange(pattern, machine=BGQ, trace=True, engine="batch", **kw)
        assert_same_result(base.run, got.run, f"(K={K}, {kw}, seed={seed})")

    def test_rerun_is_deterministic(self, pattern):
        vpt = make_vpt(64, 2)
        runs = [
            run_exchange(pattern, vpt, machine=BGQ, trace=True, engine="batch")
            for _ in range(2)
        ]
        assert_same_result(runs[0].run, runs[1].run, "(repeat)")


class TestRoutingByThePlan:
    """A plan without ``members`` (repaired, hand-built) runs like a fresh build."""

    @staticmethod
    def run(plan, tracer=None):
        K, pattern = plan.K, plan.pattern
        sim = BatchSimMPI(K, machine=BGQ, trace=True, tracer=tracer)
        table = EdgePayloads.synthetic(K, pattern.src, pattern.dst, pattern.size,
                                       pattern.grouped_by_source)
        return sim.run_planned_stfw(plan.vpt, plan, table)

    def assert_same_run(self, base, got):
        assert np.array_equal(base.clocks, got.clocks) and base.makespan_us == got.makespan_us
        assert base.trace == got.trace
        for column in ("ptr", "src", "rows"):
            assert np.array_equal(getattr(base.returns, column), getattr(got.returns, column))

    @pytest.mark.parametrize("K, dims", [(1000, 3), (180, 2)])
    def test_repair_equals_rebuild_through_the_engine(self, K, dims):
        vpt = make_vpt(K, dims)
        plan = build_plan(CommPattern.random(K, 6, hot_processes=2, seed=5, words=3), vpt)
        for epoch in range(2):
            delta = PatternDelta.random(plan.pattern, 0.1, seed=epoch)
            repaired = repair_plan(plan, delta)
            assert all(st.members is None for st in repaired.stages)
            rebuilt = build_plan(plan.pattern.apply_delta(delta), vpt)
            self.assert_same_run(self.run(rebuilt), self.run(repaired))
            plan = repaired

    def test_deserialized_plan_runs_like_the_built_one(self):
        """A plan whose stages lack ``members`` (made by code that keeps
        only the schedule) derives it; its route keys are derived from
        the senders and receivers, so none can be left out."""
        from dataclasses import replace

        plan = build_plan(CommPattern.random(96, 5, seed=9, words=3), make_vpt(96, 2))
        with pytest.raises(TypeError, match="unexpected keyword argument 'route_key'"):
            replace(plan.stages[0], route_key=None, members=None)
        bare = replace(plan, stages=[replace(st, members=None) for st in plan.stages])
        assert all(st.members is not None for st in plan.stages)
        base_tr, got_tr = Tracer("built"), Tracer("bare")
        self.assert_same_run(self.run(plan, base_tr), self.run(bare, got_tr))
        assert counter_keys(base_tr) == counter_keys(got_tr)

    def test_stage_messages_must_carry_what_the_plan_counts(self):
        from dataclasses import replace

        pattern = CommPattern.random(64, 6, seed=1, words=2)
        plan = build_plan(pattern, make_vpt(64, 2))
        st0 = plan.stages[0]
        # a stage that carries members is refused when made; one without
        # (as repair makes them) when the run derives its members
        with pytest.raises(PlanError, match="stage 1->8: nsub disagrees with members"):
            replace(st0, nsub=st0.nsub + 1)
        forged = replace(
            plan, stages=[replace(st0, nsub=st0.nsub + 1, members=None), *plan.stages[1:]]
        )
        with pytest.raises(PlanError, match="stage 0 do not carry the submessages"):
            self.run(forged)


class TestConsumersReadDeliveries:
    """Code written for per-rank lists reads a ``Deliveries`` to the same answer."""

    @pytest.fixture(scope="class")
    def results(self):
        from repro.core.regularizer import Regularizer

        pattern = CommPattern.random(32, avg_degree=5, hot_processes=2, seed=11, words=3)
        reg = Regularizer(pattern, dimension=2, remap=True)
        assert not np.array_equal(reg.position, np.arange(32))
        event, batch = (
            run_exchange(reg.pattern, reg.vpt, machine=BGQ, engine=engine)
            for engine in ("event", "batch")
        )
        assert isinstance(batch.delivered, Deliveries)
        return reg, event, batch

    def test_regularizer_untranslate(self, results):
        reg, event, batch = results
        base, got = reg._untranslate(event), reg._untranslate(batch)
        assert deep_eq(base.delivered, got.delivered)
        original = reg.original_pattern
        sent = set(zip(original.src.tolist(), original.dst.tolist()))
        assert {(s, r) for r, msgs in enumerate(got.delivered) for s, _ in msgs} == sent

    def test_soak_oracles(self, results):
        from repro.experiments import chaos, corrupt

        reg, event, batch = results
        K, pat = reg.K, reg.pattern
        assert all(
            chaos._delivery_key(batch.delivered[r]) == chaos._delivery_key(event.delivered[r])
            for r in range(K)
        )
        assert chaos.check_payloads(batch, K, pat)[1] == pat.num_messages
        assert chaos.check_payloads(batch, K, pat, ()) == ((), pat.num_messages)

    def test_resilience_accounting(self, results):
        from repro.metrics import delivered_pairs, expected_pairs, resilience_stats

        reg, event, batch = results
        assert delivered_pairs(batch.delivered) == delivered_pairs(event.delivered)
        assert delivered_pairs(batch.delivered) == expected_pairs(reg.pattern)
        stats = [
            resilience_stats("STFW2", reg.pattern, r.delivered, makespan_us=r.makespan_us)
            for r in (event, batch)
        ]
        assert stats[0] == stats[1] and stats[1].stranded == ()
        assert stats[1].delivered == stats[1].expected == reg.pattern.num_messages


class TestSpMVEquivalence:
    """Both SpMV drivers produce identical numerics and timing on batch."""

    @pytest.fixture(scope="class")
    def problem(self):
        import scipy.sparse as sp

        from repro.spmv.driver import partition_matrix

        n, K = 400, 16
        rng = np.random.default_rng(5)
        A = (
            sp.random(n, n, density=0.03, random_state=rng, format="csr")
            + sp.eye(n, format="csr")
        ).tocsr()
        x = rng.standard_normal(n)
        return A, partition_matrix(A, K), x

    @pytest.mark.parametrize("dims", [None, 2, 3])
    def test_spmv_bit_identical(self, problem, dims):
        from repro.spmv.distributed import distributed_spmv

        A, part, x = problem
        vpt = None if dims is None else make_vpt(16, dims)
        base = distributed_spmv(A, part, x, vpt=vpt, machine=BGQ, engine="event")
        got = distributed_spmv(A, part, x, vpt=vpt, machine=BGQ, engine="batch")
        assert np.array_equal(base.y, got.y)
        assert base.makespan_us == got.makespan_us
        assert np.array_equal(base.clocks, got.clocks)


class TestEagerRefusals:
    """Everything unsupported is refused by name before any simulation."""

    def test_dispatch_returns_backend_instance(self):
        mpi = resolve_engine("batch")(8, machine=BGQ)
        assert isinstance(mpi, BatchSimMPI)
        assert mpi.planned_only is True
        assert resolve_engine("event") is SimMPI
        assert SimMPI(8, machine=BGQ).planned_only is False

    def test_requires_machine(self):
        with pytest.raises(SimMPIError, match="requires a machine"):
            BatchSimMPI(8)

    def test_rejects_jitter(self):
        with pytest.raises(SimMPIError, match="jitter"):
            BatchSimMPI(8, machine=BGQ, jitter=0.1)

    def test_rejects_fault_plan(self):
        plan = FaultPlan(crashes={3: 10.0}, seed=2)
        with pytest.raises(SimMPIError, match="fault_plan is refused"):
            BatchSimMPI(8, machine=BGQ, fault_plan=plan)

    def test_rejects_zero_lookahead_machine(self):
        flat = BGQ.with_params(alpha_us=0.0)
        with pytest.raises(SimMPIError, match="lookahead"):
            BatchSimMPI(8, machine=flat)

    def test_run_refused_by_name(self):
        mpi = BatchSimMPI(8, machine=BGQ)
        with pytest.raises(SimMPIError, match="wildcard"):
            mpi.run(lambda comm: iter(()))

    def test_dynamic_mode_refused(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=2)
        with pytest.raises(PlanError, match="mode='dynamic'"):
            run_exchange(
                pattern, make_vpt(16, 2), machine=BGQ, mode="dynamic",
                engine="batch",
            )

    def test_partial_exchange_requires_event_engine(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=2)
        plan = FaultPlan(crashes={3: 10.0}, seed=2)
        with pytest.raises(PlanError, match="on_fault='partial'"):
            run_exchange(
                pattern, make_vpt(16, 2), machine=BGQ,
                fault_plan=plan, on_fault="partial", engine="batch",
            )

    def test_tolerate_refused(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=2)
        with pytest.raises(PlanError, match="on_fault='tolerate'"):
            run_exchange(
                pattern, make_vpt(16, 2), machine=BGQ, on_fault="tolerate",
                engine="batch",
            )

    def test_payload_mismatch_refused(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=2, words=2)
        payloads = [dict() for _ in range(16)]  # sends nothing anywhere
        with pytest.raises(SimMPIError, match="disagree with the planned pattern"):
            run_exchange(
                pattern, make_vpt(16, 2), machine=BGQ, payloads=payloads,
                engine="batch",
            )


    def test_uncoalesced_plan_refused(self):
        # duplicate routes used to run and file every hop under the
        # first message of its route: makespan 94.84 us against 55.94
        pattern = CommPattern.random(64, 8, words=4, seed=1)
        vpt = make_vpt(64, 2)
        sim = BatchSimMPI(64, machine=BGQ)
        with pytest.raises(PlanError, match="stage 1->8 repeats a .*coalesce=True"):
            sim.run_planned_stfw(
                vpt, build_plan(pattern, vpt, coalesce=False), _default_payloads(pattern)
            )
        assert run_exchange(pattern, vpt, machine=BGQ, engine="batch").makespan_us == (
            run_exchange(pattern, vpt, machine=BGQ).makespan_us
        )

    @pytest.mark.parametrize("dim_sizes", [(4, 16), (16, 4), (4, 4, 4)])
    def test_plan_for_another_vpt_refused_by_name(self, dim_sizes):
        from repro.core.dimensioning import VirtualProcessTopology as VPT

        pattern = CommPattern.random(64, 6, words=2, seed=1)
        sim = BatchSimMPI(64, machine=BGQ)
        with pytest.raises(SimMPIError, match=re.escape(f"VPT (8, 8), not for {dim_sizes}")):
            sim.run_planned_stfw(
                VPT(dim_sizes), build_plan(pattern, VPT((8, 8))), _default_payloads(pattern)
            )

    @pytest.mark.parametrize("scheme", [{}, {"dims": 2}])
    @pytest.mark.parametrize("beta", [float("inf"), float("nan"), -10.0])
    def test_arrival_times_that_do_not_sort_by_bit_pattern_refused(self, scheme, beta):
        pattern = CommPattern.random(16, avg_degree=3, seed=2, words=2)
        machine = BGQ.with_params(beta_us_per_word=beta)
        with pytest.raises(SimMPIError, match="not a positive finite float"):
            run_exchange(pattern, machine=machine, engine="batch", **scheme)

    @pytest.mark.parametrize("scheme", [{}, {"dims": 2}])
    @pytest.mark.parametrize("bad", [16, -1])
    def test_destination_outside_ranks_refused(self, scheme, bad):
        pattern = CommPattern.random(16, avg_degree=3, seed=2, words=2)
        payloads = [dict(d) for d in _default_payloads(pattern)]
        payloads[5][bad] = np.zeros(2)
        with pytest.raises(SimMPIError, match=rf"rank 5: send to rank {bad} outside \[0, 16\)"):
            run_exchange(pattern, machine=BGQ, payloads=payloads, engine="batch", **scheme)


class TestPayloadContract:
    """Default payloads and the payload-dict flattening of the batch path."""

    @pytest.fixture(scope="class")
    def pattern(self):
        # shuffled so per-rank dict order is not destination order
        base = CommPattern.random(24, avg_degree=4, seed=5, words=3)
        src, dst, size = base.src, base.dst, base.size
        order = np.random.default_rng(0).permutation(src.size)
        return CommPattern(24, src[order], dst[order], size[order] + order % 3)

    def test_default_payloads_match_per_message_fill(self, pattern):
        K = pattern.K
        want = [{} for _ in range(K)]
        for s, t, w in edge_triples(pattern):
            want[s][t] = np.full(w, s * K + t, dtype=np.int64)
        got = _default_payloads(pattern)
        assert [list(d) for d in got] == [list(d) for d in want]
        assert deep_eq(list(got), want)

    def test_delivered_default_payloads_do_not_overlap(self, pattern):
        K = pattern.K
        out = run_exchange(pattern, dims=2, machine=BGQ, engine="batch")
        pairs = [(s, r, p) for r, msgs in enumerate(out.delivered) for s, p in msgs]
        for s, r, p in pairs:
            want = np.full(pattern.size[pattern.edge_rows([s], [r])[0]], s * K + r, dtype=np.int64)
            assert p.dtype == np.int64 and np.array_equal(p, want)
            assert not p.flags.writeable
        for i, (_, _, p) in enumerate(pairs):
            assert not any(np.shares_memory(p, q) for _, _, q in pairs[i + 1:])

    def test_table_reads_as_the_same_dicts_before_and_after_a_batch_run(self, pattern):
        table = _default_payloads(pattern)
        before = [dict(d) for d in table]
        out = run_exchange(pattern, dims=2, machine=BGQ, engine="batch", payloads=table)
        assert EdgePayloads.from_dicts(table, pattern.K) is table
        assert deep_eq([dict(d) for d in table], before)
        # and the delivered views carry what the dicts hold
        for r, msgs in enumerate(out.delivered):
            assert all(np.array_equal(p, table[s][r]) for s, p in msgs)

    @pytest.mark.parametrize("shuffled", [True, False])
    def test_a_table_of_sorted_or_shuffled_rows_is_the_sorted_build(self, pattern, shuffled):
        K = pattern.K
        # rows grouped by source, as CommPattern.random draws them, or not
        order = np.argsort(pattern.src, kind="stable")
        if shuffled:
            order = np.arange(pattern.num_messages)
        pattern = CommPattern(K, pattern.src[order], pattern.dst[order], pattern.size[order])
        by_src = np.argsort(pattern.src, kind="stable")
        columns = [a[by_src] for a in (pattern.src, pattern.dst, pattern.size)]
        want = [*columns, columns[0] * K + columns[1]]
        table = _default_payloads(pattern)
        got = [table.src, table.dst, table.size, table._key]
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
        assert np.shares_memory(table.src, pattern.src) is not shuffled  # sorted: kept, not copied
        kept = [a.copy() for a in got]
        pattern.apply_delta(PatternDelta.random(pattern, 0.5, seed=2), inplace=True)
        assert not np.array_equal(pattern.src, kept[0]) or not np.array_equal(pattern.dst, kept[1])
        assert all(np.array_equal(a, b) for a, b in zip(got, kept))

    def test_table_of_user_dicts_hands_back_the_users_objects(self):
        payloads = [{2: "ab", 1: (7,)}, {}, {0: [1, 2, 3]}]
        table = EdgePayloads.from_dicts(payloads, 3)
        assert all(table[r] is payloads[r] for r in range(3)) and len(table) == 3
        assert all(p is q for p, q in zip(table.take([2, 0]), (payloads[2][0], payloads[0][2])))

    def test_flattening_keeps_rank_and_dict_order(self):
        payloads = [{2: "ab", 1: (7,)}, {}, {0: [1, 2, 3]}]
        table = EdgePayloads.from_dicts(payloads, 3)
        esrc, edst, words = table.src, table.dst, table.size
        epay = table.take(np.arange(3))
        assert esrc.tolist() == [0, 0, 2] and edst.tolist() == [2, 1, 0]
        assert epay.tolist() == ["ab", (7,), [1, 2, 3]]
        assert words.tolist() == [2, 1, 3] and words.dtype == np.int64

    def test_wrong_dict_count_refused(self):
        with pytest.raises(SimMPIError, match="2 payload dicts for K=3"):
            EdgePayloads.from_dicts([{}, {}], 3)

    def test_unsized_payload_refused(self):
        with pytest.raises(PlanError, match="sized"):
            EdgePayloads.from_dicts([{1: 3.5}, {}], 2)


class TestSortHelpers:
    """The radix digits, the rounds generator and the two stage orders, each
    against the formulation it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        bound=st.sampled_from(
            [1, 2, 255, 2**16 - 1, 2**16, 2**16 + 1, 70000, 2**32 - 1, 2**32, 2**32 + 1, 2**40]
        ),
        n=st.integers(0, 300),
        seed=st.integers(0, 10_000),
    )
    def test_lexsort_of_digits_is_the_stable_argsort(self, bound, n, seed):
        rng = np.random.default_rng(seed)
        # few distinct values near both ends of the range: ties and the top digit
        pool = np.unique(np.concatenate([rng.integers(0, bound, 8), [0, bound - 1]]))
        x = rng.choice(pool, size=n).astype(np.int64)
        digits = digits16(x, bound)
        assert len(digits) == max(1, -(-(bound - 1).bit_length() // 16))
        assert all(d.dtype == np.uint16 for d in digits)
        assert np.array_equal(np.lexsort(digits), np.argsort(x, kind="stable"))

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.one_of(
            st.lists(st.integers(0, 6), min_size=0, max_size=40),
            st.lists(st.just(0), min_size=1, max_size=10),
            st.tuples(st.lists(st.integers(0, 3), max_size=20), st.integers(50, 400)).map(
                lambda t: t[0] + [t[1]] + t[0]  # one giant rank
            ),
        )
    )
    def test_rounds_visit_every_slot_once_in_ascending_j(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        off = np.cumsum(counts) - counts
        ranks, slots, sizes = rounds(counts)
        assert len(sizes) == counts.max(initial=0) and sum(sizes) == slots.size
        lo = 0
        for j, n in enumerate(sizes):
            live = ranks[:n]  # round j is a prefix of the ranks
            assert np.unique(live).size == n > 0  # each rank at most once per round
            assert (counts[live] > j).all() and (counts[ranks[n:]] <= j).all()
            assert np.array_equal(slots[lo : lo + n], off[live] + j)  # a rank's slots in ascending j
            lo += n
        assert np.array_equal(np.sort(slots), np.arange(counts.sum()))

    @settings(max_examples=40, deadline=None)
    @given(K=st.sampled_from([8, 30, 300]), nm=st.integers(1, 400), seed=st.integers(0, 10_000))
    def test_receiver_order_is_the_four_key_lexsort(self, K, nm, seed):
        rng = np.random.default_rng(seed)
        # a stage as the engine gets it: sorted by (sender, send order), one
        # message per route, arrival times drawn from a handful of values
        routes = np.sort(rng.choice(K * K, size=min(nm, K * K), replace=False))
        snd, rcv = routes // K, routes % K
        words = rng.integers(0, 5, size=snd.size)
        # neighbours in the last bit, a subnormal and the largest double: the
        # order is taken from the bit patterns
        times = np.array([5e-324, 1.5, 2.25, 2.25 + 2**-40, 7.0, np.finfo(np.float64).max])
        arrive = rng.choice(times, size=snd.size)
        seq = rng.integers(0, 9, size=K)[snd] + np.arange(snd.size)  # grows with send order
        sim = BatchSimMPI(K, machine=BGQ)
        dord, cnt_r = sim._sweep_recvs(np.zeros(K), rcv, words, arrive)
        assert np.array_equal(dord, np.lexsort((seq, snd, arrive, rcv)))
        assert np.array_equal(cnt_r, np.bincount(rcv, minlength=K))
        for bad in (0.0, -0.0, -1.5, np.inf, np.nan):
            arrive[-1] = bad
            with pytest.raises(SimMPIError, match="not a positive finite float"):
                sim._sweep_recvs(np.zeros(K), rcv, words, arrive)

    @settings(max_examples=40, deadline=None)
    @given(nm=st.integers(1, 60), nhops=st.integers(0, 500), seed=st.integers(0, 10_000))
    def test_packed_bundle_order_is_the_two_key_lexsort(self, nm, nhops, seed):
        rng = np.random.default_rng(seed)
        span = 3 * nhops + 5
        pos_of_hop = rng.integers(0, nm, size=nhops)  # many hops per delivered message
        hop_key = rng.choice(span, size=nhops, replace=False)  # arrival keys are unique
        assert np.array_equal(
            np.argsort(pos_of_hop * span + hop_key), np.lexsort((hop_key, pos_of_hop))
        )


class TestEngineRegistry:
    """Engine names: a fixed two-entry map, and named error paths."""

    def test_names_are_sorted_and_complete(self):
        assert engine_names() == ("batch", "event")

    def test_removed_engine_and_options_are_plain_errors(self, capsys):
        from repro.cli import build_parser

        removed = "shard" "ed"  # spelled so a word grep for the old name stays empty
        pattern = CommPattern.random(4, avg_degree=2, seed=0)
        with pytest.raises(SimMPIError, match="known engines: batch, event"):
            run_exchange(pattern, dims=2, machine=BGQ, engine=removed)
        with pytest.raises(TypeError, match="workers"):
            SimMPI(4, workers=2)
        with pytest.raises(TypeError, match="workers"):
            run_exchange(CommPattern.random(4, avg_degree=2, seed=0), dims=2, workers=2)
        for argv, why in (
            (["bench", "--sweep", "engine"], "invalid choice: 'bench'"),
            (["drift", "--workers", "2"], "unrecognized arguments"),
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert why in capsys.readouterr().err

    def test_unknown_engine_error_lists_available(self, monkeypatch):
        import repro.core.stfw as stfw

        def no_plan(*args, **kwargs):
            raise AssertionError("a plan was built before the engine name was checked")

        monkeypatch.setattr(stfw, "build_plan", no_plan)
        pattern = CommPattern.random(16, avg_degree=3, seed=2)
        with pytest.raises(SimMPIError, match="unknown engine 'warp'") as exc:
            run_exchange(pattern, dims=2, machine=BGQ, engine="warp")
        msg = str(exc.value)
        for name in engine_names():
            assert name in msg

    @pytest.mark.parametrize(
        "call",
        [
            lambda: faults.run(K=16, engine="event"),
            lambda: drift.run(K=16, epochs=1, engine="event"),
            lambda: PersistentSpMV(
                sp.identity(8, format="csr"), block_partition(8, 2), engine="event"
            ),
            lambda: run_spmd(4, lambda comm: iter(()), engine="event"),
            lambda: SimMPI(4, engine="batch"),
        ],
        ids=["faults.run", "drift.run", "PersistentSpMV", "run_spmd", "SimMPI"],
    )
    def test_engine_keyword_left_the_event_only_surfaces(self, call):
        with pytest.raises(TypeError, match="engine"):
            call()
