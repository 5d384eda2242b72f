"""The batch engine's ``Deliveries``: its list view against the formulation
it replaced, its flattening constructor, a repeat run that reuses the
schedule of the first (and pairs a default table with the pattern it was
cut from without a sort), and the columns made only when first read.

``reference_delivery_lists`` is the eager builder every batch run used to
end with.  The view a ``Deliveries`` builds on first read must be that
structure: the same origins, and the caller's own payload objects or, for
default payloads, read-only runs of each row's key with the same words.
Each generated exchange runs twice, and the second run, which may reuse
the first one's schedule, must equal it bit for bit.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CommPattern,
    PatternDelta,
    PlanBuilder,
    build_plan,
    make_vpt,
    repair_plan,
    run_exchange,
)
from repro.core.plan import CommPlan
from repro.core.stfw import _default_payloads
from repro.errors import PlanError, SimMPIError
from repro.network import BGQ
from repro.obs import Tracer, chrome_trace
from repro.simmpi.batch import BatchSimMPI, Deliveries, EdgePayloads


def reference_delivery_lists(table, order, counts):
    """Per-rank ``(origin, payload)`` lists from table rows in delivery order."""
    pairs = list(zip(table.src[order].tolist(), table.take(order)))
    ends = np.cumsum(counts).tolist()
    return [pairs[a:b] for a, b in zip([0] + ends, ends)]


def scenario(K, degree, seed, silent=0.25, uniform=False):
    """A pattern with sizes 0-39 (or all 7), shuffled rows, and ranks that send or
    receive nothing."""
    rng = np.random.default_rng(seed)
    base = CommPattern.random(K, avg_degree=degree, seed=seed)
    quiet = rng.random(K) < silent
    keep = ~(quiet[base.src] & (rng.random(base.src.size) < 0.5)) & ~quiet[base.dst]
    order = rng.permutation(np.flatnonzero(keep))
    size = np.full(order.size, 7) if uniform else rng.integers(0, 40, order.size)
    return CommPattern(K, base.src[order], base.dst[order], size)


def user_payloads(pattern, kind):
    make = {
        "list": lambda s, t, w: [s, t, w][:w] + [7] * max(w - 3, 0),
        "ndarray": lambda s, t, w: np.arange(w, dtype=np.float32) + s,
    }[kind]
    payloads = [{} for _ in range(pattern.K)]
    for s, t, w in zip(pattern.src.tolist(), pattern.dst.tolist(), pattern.size.tolist()):
        payloads[s][t] = make(s, t, w)
    return payloads


def address(a):
    return a.__array_interface__["data"][0]


def assert_view_is_reference(pattern, out, payloads):
    d = out.delivered
    assert isinstance(d, Deliveries) and out.run.returns is d
    assert len(d) == pattern.K and d.ptr[-1] == d.rows.size == pattern.num_messages
    want = reference_delivery_lists(d.table, d.rows, np.diff(d.ptr))
    got = list(d)
    assert len(got) == len(want) == pattern.K
    for r, (ref, msgs) in enumerate(zip(want, got)):
        assert type(msgs) is list and len(msgs) == len(ref)
        for (s, p), (t, q) in zip(ref, msgs):
            assert type(t) is int and s == t
            if payloads is None:
                # the row's key, repeated with stride 0 and read-only
                assert q.dtype == p.dtype == np.int64 and q.strides == (0,)
                assert not q.flags.writeable
                assert np.array_equal(q, np.full(p.size, s * pattern.K + r, dtype=np.int64))
                assert np.array_equal(q, p)
            else:
                assert q is p and q is payloads[s][r]
    if payloads is None:
        # one word of memory per payload, none shared: distinct addresses are disjoint
        views = [q for msgs in got for _, q in msgs if q.size]
        assert len({address(q) for q in views}) == len(views)
        assert not any(np.shares_memory(a, b) for a, b in zip(views, views[1:]))
    # built once: reading again, by index or by iteration, hands out the same lists
    assert all(a is b for a, b in zip(got, d)) and all(d[r] is got[r] for r in range(len(d)))
    assert d[-1] is got[-1] and d[1:3] == got[1:3]
    received = sorted((s, r) for r, msgs in enumerate(got) for s, _ in msgs)
    assert received == sorted(zip(pattern.src.tolist(), pattern.dst.tolist()))


def counters(tracer):
    return sorted(
        (name, -1 if track is None else track, sorted(labels.items()) if labels else [], value)
        for name, track, labels, value in tracer.counter_rows()
    )


def run_twice(pattern, trace=False, **kw):
    """One batch exchange run twice on one pattern, each run with its own tracer.

    The first run computes its schedule and the second may reuse it: the
    two must agree on the ``RunResult``, the ``Deliveries`` columns, the
    obs counters and the chrome-trace bytes.  Returns the second run.
    """
    runs = []
    for _ in range(2):
        tracer = Tracer("twice")
        out = run_exchange(pattern, machine=BGQ, engine="batch", trace=trace, tracer=tracer, **kw)
        runs.append((out, counters(tracer), chrome_trace(tracer, run=out.run)))
    (first, c1, doc1), (second, c2, doc2) = runs
    a, b = first.run, second.run
    assert np.array_equal(b.clocks, a.clocks) and b.makespan_us == a.makespan_us
    assert b.trace == a.trace and b.crashed == a.crashed == [] and b.fault_events == []
    for column in ("rows", "ptr", "src"):
        x, y = getattr(a.returns, column), getattr(b.returns, column)
        assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)
    for msgs, again in zip(a.returns, b.returns):
        assert len(msgs) == len(again)
        assert all(s == t and np.array_equal(p, q) for (s, p), (t, q) in zip(msgs, again))
    assert c2 == c1 and doc2 == doc1
    return second


class TestListViewIsTheReferenceFormulation:
    @settings(max_examples=40, deadline=None)
    @given(
        K=st.sampled_from([12, 16, 27, 36, 96]),
        degree=st.integers(0, 5),
        scheme=st.sampled_from([{}, {"dims": 2}, {"dims": 3}]),
        kind=st.sampled_from(["default", "list", "ndarray"]),
        seed=st.integers(0, 10_000),
        trace=st.booleans(),
        uniform=st.booleans(),
    )
    def test_generated_scenarios(self, K, degree, scheme, kind, seed, trace, uniform):
        pattern = scenario(K, degree, seed, uniform=uniform)
        payloads = None if kind == "default" else user_payloads(pattern, kind)
        out = run_twice(pattern, trace, payloads=payloads, **scheme)
        assert_view_is_reference(pattern, out, payloads)

    @pytest.mark.parametrize("scheme", [{}, {"dims": 2}])
    def test_no_message_at_all(self, scheme):
        empty = np.empty(0, dtype=np.int64)
        pattern = CommPattern(9, empty, empty, empty)
        out = run_exchange(pattern, machine=BGQ, engine="batch", **scheme)
        assert_view_is_reference(pattern, out, None)
        assert list(out.delivered) == [[] for _ in range(9)]
        assert len({id(msgs) for msgs in out.delivered}) == 9  # nine lists, not one nine times

    @pytest.mark.parametrize("scheme", [{}, {"dims": 2}])
    def test_K_above_65536(self, scheme):
        K = 66000
        rng = np.random.default_rng(8)
        src = rng.choice(K, size=3000, replace=False)
        dst = (src + rng.integers(1, K, size=src.size)) % K
        pattern = CommPattern(K, src, dst, rng.integers(0, 40, src.size))
        out = run_twice(pattern, **scheme)
        assert_view_is_reference(pattern, out, None)

    def test_a_view_is_read_only_until_copied(self):
        pattern = scenario(16, 4, seed=3, silent=0.0)
        out = run_exchange(pattern, dims=2, machine=BGQ, engine="batch")
        r = int(pattern.dst[np.flatnonzero(pattern.size > 1)[0]])
        s, view = next((s, v) for s, v in out.delivered[r] if v.size > 1)
        with pytest.raises(ValueError, match="read-only"):
            view[0] = -1
        kept = view.copy()
        assert kept.flags.writeable and kept.dtype == np.int64
        assert np.array_equal(kept, view) and (kept == s * 16 + r).all()
        kept[0] = -1  # one word of the copy, not the whole payload
        assert kept[1:].tolist() == view[1:].tolist() and (view == s * 16 + r).all()

    def test_deliveries_from_one_origin_share_one_int(self):
        pattern = scenario(600, 5, seed=4, silent=0.0)  # ranks past CPython's cached small ints
        origins = {}
        for msgs in run_exchange(pattern, dims=2, machine=BGQ, engine="batch").delivered:
            for s, _ in msgs:
                assert type(s) is int
                assert origins.setdefault(s, s) is s
        assert max(origins) > 256


class TestFlatteningConstructor:
    def test_a_deliveries_passes_through(self):
        pattern = scenario(16, 3, seed=1)
        d = run_exchange(pattern, dims=2, machine=BGQ, engine="batch").delivered
        assert Deliveries.from_lists(d) is d

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_lists_flatten_to_the_columns_they_came_from(self, engine):
        pattern = scenario(27, 4, seed=6)
        d = run_exchange(pattern, dims=3, machine=BGQ, engine=engine).delivered
        lists = list(d)
        flat = Deliveries.from_lists(lists)
        assert flat.ptr.tolist() == [0] + np.cumsum([len(m) for m in lists]).tolist()
        assert flat.src.tolist() == [s for msgs in lists for s, _ in msgs]
        assert flat.dst.tolist() == [r for r, msgs in enumerate(lists) for _ in msgs]
        assert all(p is q for p, (_, q) in zip(
            flat.table.take(flat.rows), (pair for msgs in lists for pair in msgs)))
        assert all(a is b for a, b in zip(flat, lists))  # the view is the lists given

    def test_none_slots_count_as_no_deliveries(self):
        flat = Deliveries.from_lists([[(2, "ab")], None, [], [(0, "c"), (1, "d")]])
        assert flat.ptr.tolist() == [0, 1, 1, 1, 3] and len(flat) == 4
        assert flat.src.tolist() == [2, 0, 1] and flat.dst.tolist() == [0, 3, 3]

    def test_payload_columns_of_caller_objects(self):
        payloads = [
            np.array([5, 6], dtype=np.int64),  # well formed
            [7, 8, 9],  # a list of ints reads as int64
            np.array([1.0]),  # wrong dtype
            np.zeros((2, 2), dtype=np.int64),  # not one-dimensional
            None,
            np.empty(0, dtype=np.int64),
        ]
        flat = Deliveries.from_lists([[(i, p) for i, p in enumerate(payloads)]])
        length, is_int64, words = flat.table.columns(flat.rows)
        assert length.tolist() == [2, 3, 1, -1, -1, 0]
        assert is_int64.tolist() == [True, True, False, True, False, True]
        assert words.tolist() == [5, 6, 7, 8, 9] and words.dtype == np.int64

    def test_a_synthetic_table_holds_one_key_per_message(self):
        pattern = CommPattern.random(256, 6, words=16, seed=2)
        table = _default_payloads(pattern)
        arrays = [a for a in vars(table).values() if isinstance(a, np.ndarray)]
        words = int(pattern.size.sum())
        assert words > 6 * pattern.num_messages  # so a column of words would show
        assert all(a.size <= pattern.num_messages for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 6 * 8 * pattern.num_messages

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 40))
    def test_payload_columns_of_a_synthetic_table(self, seed, n):
        rng = np.random.default_rng(seed)
        K = 50
        keys = rng.choice(K * K, size=n, replace=False)
        keys = keys[keys // K != keys % K]
        src = keys // K
        table = EdgePayloads.synthetic(K, src, keys % K, rng.integers(0, 9, keys.size),
                                       grouped=bool((np.diff(src) >= 0).all()))
        rows = rng.integers(0, max(keys.size, 1), size=rng.integers(0, 60) if keys.size else 0)
        length, is_int64, words = table.columns(rows)
        views = table.take(rows)
        assert length.tolist() == [v.size for v in views] and is_int64.all()
        assert words.dtype == np.int64
        assert words.tolist() == [int(x) for v in views for x in v]


@pytest.fixture
def sweeps(monkeypatch):
    """The names of the batch engine's stage sweeps, once per call."""
    calls = []
    for name in ("_sweep_sends", "_sweep_recvs"):
        def counted(self, *args, _sweep=getattr(BatchSimMPI, name), _name=name):
            calls.append(_name)
            return _sweep(self, *args)

        monkeypatch.setattr(BatchSimMPI, name, counted)
    return calls


def reversed_dicts(pattern):
    return pattern, {"payloads": [dict(reversed(d.items())) for d in _default_payloads(pattern)]}


def slower_start(pattern):
    return pattern, {"machine": BGQ.with_params(alpha_us=2 * BGQ.alpha_us)}


def round_robin(pattern):
    return pattern, {"mapping": np.arange(pattern.K) % 3}


def headers(pattern):
    return pattern, {"header_words": 2}


def three_dims(pattern):
    return pattern, {"dims": 3}


def fresh_builder(pattern):
    return pattern, {"plan": PlanBuilder(pattern).plan(make_vpt(pattern.K, 2))}


def drifted_in_place(pattern):
    return pattern.apply_delta(PatternDelta.random(pattern, 0.2, seed=1), inplace=True), {}


def unpickled(pattern):
    return pickle.loads(pickle.dumps(pattern)), {}


@pytest.fixture
def key_sorts(monkeypatch):
    """The sizes of the arrays ``np.argsort(..., kind="stable")`` sorts, once per call."""
    sizes = []
    argsort = np.argsort

    def counted(a, *args, **kw):
        if kw.get("kind") == "stable":
            sizes.append(np.size(a))
        return argsort(a, *args, **kw)

    monkeypatch.setattr(np, "argsort", counted)
    return sizes


class TestScheduleOnce:
    """A repeat run of one plan reuses its schedule, and every per-run check still runs."""

    @staticmethod
    def pattern():
        return scenario(36, 4, seed=7, silent=0.0)

    @staticmethod
    def grouped():
        pattern = CommPattern.random(36, 4, seed=7)
        assert (np.diff(pattern.src) >= 0).all()  # rows grouped by source: the table's own order
        return pattern

    @staticmethod
    def run(pattern, **kw):
        kw = {"dims": 2, "machine": BGQ, **kw}
        return run_exchange(pattern, engine="batch", **kw)

    def test_a_repeat_run_sweeps_nothing(self, sweeps):
        pattern = self.pattern()
        first = self.run(pattern)
        assert sweeps.count("_sweep_sends") == sweeps.count("_sweep_recvs") == 2
        sweeps.clear()
        again = self.run(pattern)
        assert sweeps == []
        assert np.array_equal(again.run.clocks, first.run.clocks)
        assert np.array_equal(again.delivered.rows, first.delivered.rows)
        assert again.delivered.rows is first.delivered.rows  # the one memo entry's
        assert len(PlanBuilder.of(pattern).schedules) == 1

    def test_a_repeat_run_shares_read_only_clocks_and_ptr(self):
        pattern = self.pattern()
        first = self.run(pattern)
        again = self.run(pattern)
        assert again.run.clocks is first.run.clocks
        assert again.delivered.ptr is first.delivered.ptr
        for array in (again.run.clocks, again.delivered.ptr):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_a_repeat_run_places_no_rank(self, monkeypatch):
        from repro.network import machines, mapping

        pattern = self.pattern()
        first = self.run(pattern)
        calls = []
        topology, block_mapping = machines.Machine.topology, mapping.block_mapping

        def counted_topology(machine, K):
            calls.append("topology")
            return topology(machine, K)

        def counted_block_mapping(K, cores_per_node):
            calls.append("block_mapping")
            return block_mapping(K, cores_per_node)

        monkeypatch.setattr(machines.Machine, "topology", counted_topology)
        monkeypatch.setattr(mapping, "block_mapping", counted_block_mapping)
        again = self.run(pattern)
        assert calls == [] and again.run.clocks is first.run.clocks
        # a machine not placed before (no other test names it) is placed once
        unseen = BGQ.with_params(name="a machine placed once")
        for _ in range(2):
            BatchSimMPI(pattern.K, machine=unseen)
        assert calls == ["topology", "block_mapping"]

    def test_a_traced_repaired_plan_derives_each_stage_once(self, monkeypatch):
        calls = []
        derive = CommPlan._derive_members

        def counted(plan, d):
            calls.append(d)
            return derive(plan, d)

        monkeypatch.setattr(CommPlan, "_derive_members", counted)
        pattern = CommPattern.random(256, 6, seed=4)
        built = build_plan(pattern, make_vpt(256, 3))
        plan = repair_plan(built, PatternDelta.random(pattern, 0.1, seed=5))
        assert all(st.members is None for st in plan.stages)
        runs = [
            self.run(plan.pattern, plan=plan, dims=3, trace=True, tracer=Tracer("repaired"))
            for _ in range(3)
        ]
        assert sorted(calls) == [0, 1, 2]
        assert all(np.array_equal(r.run.clocks, runs[0].run.clocks) for r in runs)
        want = run_exchange(plan.pattern, dims=3, machine=BGQ, trace=True).run
        assert np.array_equal(runs[0].run.clocks, want.clocks) and runs[0].run.trace == want.trace

    def test_a_repeat_run_checks_no_stage_again(self, monkeypatch):
        calls = []
        stage_routes = BatchSimMPI._stage_routes

        def counted(self, plan, d):
            calls.append(d)
            return stage_routes(self, plan, d)

        monkeypatch.setattr(BatchSimMPI, "_stage_routes", counted)
        pattern = self.pattern()
        first = self.run(pattern)
        assert calls == [0, 1]
        calls.clear()
        again = self.run(pattern)
        assert calls == [] and np.array_equal(again.run.clocks, first.run.clocks)
        # the memo holds an entry for this key, yet a plan with other stage
        # arrays computes its schedule and meets the refusals on its first run
        vpt = make_vpt(pattern.K, 2)
        uncoalesced = build_plan(pattern, vpt, coalesce=False)
        with pytest.raises(PlanError, match="stage 1->6 repeats a .*coalesce=True"):
            BatchSimMPI(pattern.K, machine=BGQ).run_planned_stfw(
                vpt, uncoalesced, _default_payloads(pattern)
            )
        assert calls == [0]

    def test_a_repeat_run_still_refuses_payloads_that_disagree(self, sweeps):
        pattern = self.pattern()
        self.run(pattern)
        s, t = int(pattern.src[0]), int(pattern.dst[0])
        resized = [dict(d) for d in _default_payloads(pattern)]
        resized[s][t] = np.zeros(int(pattern.size[0]) + 1, dtype=np.int64)
        elsewhere = [dict(d) for d in _default_payloads(pattern)]
        u = next(u for u in range(pattern.K) if u != s and u not in elsewhere[s])
        elsewhere[s][u] = elsewhere[s].pop(t)
        for payloads in (resized, elsewhere):
            with pytest.raises(SimMPIError, match="disagree with the planned pattern"):
                self.run(pattern, payloads=payloads)
        sweeps.clear()
        self.run(pattern)
        assert sweeps == []  # a refused run leaves the entry as it was

    def test_a_repeat_run_still_refuses_a_plan_that_miscounts(self):
        from dataclasses import replace

        pattern = self.pattern()
        plan = PlanBuilder.of(pattern).plan(make_vpt(pattern.K, 2))
        self.run(pattern, plan=plan)
        st0 = plan.stages[0]
        # refused when made if the stage carries members, else when a run derives them
        with pytest.raises(PlanError, match="stage 1->6: nsub disagrees with members"):
            replace(st0, nsub=st0.nsub + 1)
        forged = replace(
            plan, stages=[replace(st0, nsub=st0.nsub + 1, members=None), *plan.stages[1:]]
        )
        with pytest.raises(PlanError, match="stage 0 do not carry the submessages"):
            self.run(pattern, plan=forged)

    def test_a_stage_charged_other_words_misses(self, sweeps):
        from dataclasses import replace

        pattern = self.pattern()
        plan = PlanBuilder.of(pattern).plan(make_vpt(pattern.K, 2))
        first = self.run(pattern, plan=plan)
        st0 = plan.stages[0]
        with pytest.raises(TypeError, match="unexpected keyword argument 'total_words'"):
            replace(st0, total_words=st0.total_words + 5)
        # other words come only with other header_words, which the entry's key holds
        heavier = replace(plan, header_words=5, stages=[
            replace(st, header_words=5) for st in plan.stages
        ])
        sweeps.clear()
        got = self.run(pattern, plan=heavier, header_words=5)
        assert sweeps and got.makespan_us > first.makespan_us
        sweeps.clear()
        built = self.run(pattern, header_words=5)  # the builder's own stages: other objects
        assert sweeps and np.array_equal(built.run.clocks, got.run.clocks)

    @pytest.mark.parametrize("change, entries", [
        (reversed_dicts, 1), (slower_start, 2), (round_robin, 2), (headers, 2),
        (three_dims, 2), (fresh_builder, 1), (drifted_in_place, 1), (unpickled, 1),
    ])
    def test_another_key_or_pattern_misses_and_matches_the_event_engine(
        self, change, entries, sweeps
    ):
        pattern = self.pattern()
        self.run(pattern)
        pattern, kw = change(pattern)
        sweeps.clear()
        got = self.run(pattern, **kw)
        assert sweeps, "the run reused a schedule computed for another key"
        want = run_exchange(pattern, **{"dims": 2, "machine": BGQ, **kw})
        assert np.array_equal(got.run.clocks, want.run.clocks)
        assert got.makespan_us == want.makespan_us
        for msgs, ref in zip(got.delivered, want.delivered):
            assert [s for s, _ in msgs] == [s for s, _ in ref]
            assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(msgs, ref))
        assert len(PlanBuilder.of(pattern).schedules) == entries
        sweeps.clear()
        again = self.run(pattern, **kw)
        assert sweeps == [] and np.array_equal(again.run.clocks, got.run.clocks)

    @pytest.mark.parametrize("repeat", [False, True])
    def test_delivery_columns_are_read_only(self, repeat):
        pattern = self.pattern()
        first = self.run(pattern)
        out = self.run(pattern) if repeat else first
        for column in ("rows", "ptr", "src"):
            array = getattr(out.delivered, column)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = -1
        again = self.run(pattern)
        assert np.array_equal(again.delivered.rows, first.delivered.rows)
        assert np.array_equal(again.run.clocks, first.run.clocks)

    def test_a_repeat_run_with_default_payloads_sorts_no_table(self, key_sorts, sweeps):
        pattern = self.grouped()
        first = self.run(pattern)
        key_sorts.clear()
        sweeps.clear()
        again = self.run(pattern)
        assert key_sorts == [] and sweeps == []
        assert np.array_equal(again.run.clocks, first.run.clocks)
        # the same payloads as caller dicts take the sort, and land on the same entry
        dicts = self.run(pattern, payloads=[dict(d) for d in _default_payloads(pattern)])
        assert pattern.num_messages in key_sorts and sweeps == []
        assert np.array_equal(dicts.run.clocks, first.run.clocks)
        assert np.array_equal(dicts.delivered.rows, first.delivered.rows)

    def test_a_lexsorted_table_hits_without_a_sort(self, key_sorts, sweeps):
        pattern = self.pattern()
        assert (np.diff(pattern.src) < 0).any()  # not grouped: the table sorts its rows
        first = self.run(pattern)
        key_sorts.clear()
        sweeps.clear()
        again = self.run(pattern)
        assert key_sorts == [] and sweeps == []
        want = run_exchange(pattern, dims=2, machine=BGQ)
        for got in (first, again):
            assert np.array_equal(got.run.clocks, want.run.clocks)
            assert got.makespan_us == want.makespan_us
            for msgs, ref in zip(got.delivered, want.delivered):
                assert [s for s, _ in msgs] == [s for s, _ in ref]
                assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(msgs, ref))
        dicts = self.run(pattern, payloads=[dict(d) for d in _default_payloads(pattern)])
        assert np.array_equal(dicts.delivered.rows, again.delivered.rows)
        assert np.array_equal(dicts.run.clocks, again.run.clocks)

    def test_a_default_table_of_another_pattern_is_refused(self, key_sorts):
        pattern = self.grouped()
        self.run(pattern)
        # same K, same size column, other pairs
        transposed = CommPattern(pattern.K, pattern.dst, pattern.src, pattern.size)
        assert set(zip(transposed.src.tolist(), transposed.dst.tolist())) != set(
            zip(pattern.src.tolist(), pattern.dst.tolist()))
        with pytest.raises(SimMPIError, match="disagree with the planned pattern"):
            self.run(pattern, payloads=_default_payloads(transposed))
        # a copy holds the same messages in other arrays: it agrees, by the sort
        copy = CommPattern(pattern.K, pattern.src.copy(), pattern.dst.copy(), pattern.size.copy())
        key_sorts.clear()
        got = self.run(pattern, payloads=_default_payloads(copy))
        assert pattern.num_messages in key_sorts
        assert np.array_equal(got.run.clocks, self.run(pattern).run.clocks)

    def test_a_table_taken_before_an_in_place_delta_is_refused(self):
        pattern = self.grouped()
        stale = _default_payloads(pattern)
        self.run(pattern, payloads=stale)
        old = set(zip(pattern.src.tolist(), pattern.dst.tolist()))
        pattern.apply_delta(PatternDelta.random(pattern, 0.2, seed=1), inplace=True)
        assert set(zip(pattern.src.tolist(), pattern.dst.tolist())) != old
        plan = build_plan(pattern, make_vpt(pattern.K, 2))
        with pytest.raises(SimMPIError, match="disagree with the planned pattern"):
            self.run(pattern, plan=plan, payloads=stale)
        fresh = self.run(pattern, plan=plan)
        want = run_exchange(pattern, dims=2, machine=BGQ)
        assert np.array_equal(fresh.run.clocks, want.run.clocks)

    def test_a_stage_with_its_own_total_words_object_misses(self, sweeps):
        from dataclasses import replace

        pattern = self.grouped()
        plan = PlanBuilder.of(pattern).plan(make_vpt(pattern.K, 2))
        again = PlanBuilder.of(pattern).plan(plan.vpt)
        assert all(a.total_words is b.total_words for a, b in zip(plan.stages, again.stages))
        self.run(pattern, plan=plan)
        st0 = plan.stages[0]
        # at header_words=0 a stage's total_words is its payload_words
        same_words = replace(plan, stages=[replace(st0, payload_words=st0.payload_words.copy()),
                                           *plan.stages[1:]])
        sweeps.clear()
        got = self.run(pattern, plan=same_words)
        assert sweeps
        want = run_exchange(pattern, dims=2, machine=BGQ)
        assert np.array_equal(got.run.clocks, want.run.clocks)
        assert got.makespan_us == want.makespan_us


class TestResultsCompareAcrossEngines:
    """``RunResult ==`` compares delivery sequences per rank and pair, payloads as arrays."""

    def test_event_and_batch_runs_compare_by_value(self):
        from dataclasses import replace

        pattern = CommPattern.random(16, 3, seed=1, words=4)
        one, two = (run_exchange(pattern, dims=2, machine=BGQ).run for _ in range(2))
        batch = run_exchange(pattern, dims=2, machine=BGQ, engine="batch").run
        assert isinstance(batch.returns, Deliveries) and isinstance(one.returns, list)
        assert one == two and one == batch and batch == one
        rank = next(r for r, msgs in enumerate(one.returns) if msgs)
        origin, payload = one.returns[rank][0]
        changed = payload.copy()
        changed[-1] += 1
        for other in (changed, payload.astype(np.int32), payload.tolist()):
            returns = [list(msgs) for msgs in one.returns]
            returns[rank][0] = (origin, other)
            damaged = replace(one, returns=returns)
            assert damaged != two and damaged != batch and batch != damaged
        returns = [list(msgs) for msgs in one.returns]
        returns[rank] = returns[rank][1:]
        assert replace(one, returns=returns) != batch


class TestLazyColumns:
    """Columns nobody reads are not made: ``Deliveries.src`` and a synthetic table's keys."""

    def test_src_is_gathered_when_first_read(self):
        pattern = scenario(36, 4, seed=7, silent=0.0)
        run_exchange(pattern, dims=2, machine=BGQ, engine="batch")
        d = run_exchange(pattern, dims=2, machine=BGQ, engine="batch").delivered  # a hit
        assert "src" not in vars(d) and "_key" not in vars(d.table)
        assert np.array_equal(d.src, d.table.src[d.rows]) and not d.src.flags.writeable
        assert d.src is d.src
        assert "_key" not in vars(d.table)  # origins read no payload
        assert [s for msgs in d for s, _ in msgs] == d.src.tolist()

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_event_engine_dicts_hold_the_keyed_fill(self, shuffle):
        pattern = CommPattern.random(40, 5, words=4, seed=3)
        if shuffle:
            order = np.random.default_rng(1).permutation(pattern.num_messages)
            pattern = CommPattern(pattern.K, pattern.src[order], pattern.dst[order],
                                  pattern.size[order])
        K = pattern.K
        table = _default_payloads(pattern)
        assert "_key" not in vars(table)
        for s in range(K):
            assert list(table[s]) == list(pattern.sendset(s))  # the rank's own row order
            for t, p in table[s].items():
                assert np.array_equal(p, np.full(pattern.sendset(s)[t], s * K + t))
        out = run_exchange(pattern, dims=2, machine=BGQ, payloads=table)
        for r, msgs in enumerate(out.delivered):
            assert all(np.array_equal(p, np.full(p.size, s * K + r)) for s, p in msgs)


class _CountingLess(np.ndarray):
    """An int64 column that counts the ``<`` comparisons made on it."""

    calls = 0

    def __lt__(self, other):
        type(self).calls += 1
        return super().__lt__(other)


class TestSourceGrouping:
    """Whether a pattern's rows are grouped by source is a fact the pattern keeps."""

    def test_a_repeat_default_run_scans_no_column(self):
        base = CommPattern.random(36, 4, seed=7)
        pattern = CommPattern._trusted(base.K, base.src.copy().view(_CountingLess),
                                       base.dst.copy(), base.size.copy())
        first = run_exchange(pattern, dims=2, machine=BGQ, engine="batch")
        _CountingLess.calls = 0
        again = run_exchange(pattern, dims=2, machine=BGQ, engine="batch")
        assert _CountingLess.calls == 0
        assert np.array_equal(again.run.clocks, first.run.clocks)
        assert np.array_equal(again.delivered.rows, first.delivered.rows)

    def test_an_in_place_delta_that_ungroups_src_sorts_the_table(self):
        pattern = CommPattern.random(36, 4, seed=7)
        run_exchange(pattern, dims=2, machine=BGQ, engine="batch")
        assert pattern.grouped_by_source
        t = next(t for t in range(1, pattern.K) if t not in pattern.sendset(0))
        # the added row of rank 0 lands after every other rank's rows
        pattern.apply_delta(PatternDelta(pattern.K, add_src=[0], add_dst=[t], add_size=[3]),
                            inplace=True)
        assert not pattern.grouped_by_source and (np.diff(pattern.src) < 0).any()
        table = _default_payloads(pattern)
        assert (np.diff(table.src) >= 0).all()  # the lexsort's row order
        got = run_exchange(pattern, dims=2, machine=BGQ, engine="batch", payloads=table)
        want = run_exchange(pattern, dims=2, machine=BGQ)
        assert np.array_equal(got.run.clocks, want.run.clocks)
        for msgs, ref in zip(got.delivered, want.delivered):
            assert [s for s, _ in msgs] == [s for s, _ in ref]
            assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(msgs, ref))
