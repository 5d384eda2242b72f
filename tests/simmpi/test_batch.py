"""Cross-engine equivalence and API tests for the batch backend.

The contract under test: ``SimMPI(K, engine="batch")`` is
**bit-identical** to the default event engine — same ``RunResult``
(returns, clocks, makespan, canonical trace), same chrome-trace bytes,
same obs counters — for every *supported* scenario: planned STFW and
direct (BL) exchanges with a machine model.  Everything else (wildcard
programs, dynamic discovery, faults, jitter, machine-less runs) is
refused eagerly by name, never silently mis-simulated.
"""

import numpy as np
import pytest

from repro.core import CommPattern, make_vpt, run_exchange
from repro.errors import EngineConfigError, PlanError, SimMPIError
from repro.network import BGQ, CRAY_XC40, CRAY_XK7
from repro.obs import Tracer
from repro.simmpi import FaultPlan, SimMPI, engine_names, run_spmd
from repro.simmpi.analysis import to_chrome_trace
from repro.core.stfw import _default_payloads
from repro.simmpi.batch import BatchSimMPI, _edges_from_payloads


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
    assert deep_eq(base.returns, got.returns), f"returns diverge {context}"
    assert base.clocks == got.clocks, f"clocks diverge {context}"
    assert base.makespan_us == got.makespan_us, f"makespan diverges {context}"
    assert base.trace == got.trace, f"trace diverges {context}"
    assert base.crashed == got.crashed, f"crashed diverges {context}"
    assert base.fault_events == got.fault_events, f"fault events diverge {context}"


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
        assert deep_eq(base.delivered, got.delivered)
        assert to_chrome_trace(base.run) == to_chrome_trace(got.run)
        assert counter_keys(base_tr) == counter_keys(got_tr)
        assert sorted(map(span_key, base_tr.spans)) == sorted(
            map(span_key, got_tr.spans)
        )

    def test_direct_bit_identical(self, pattern):
        base_tr, got_tr = Tracer("eq.event"), Tracer("eq.batch")
        base = run_exchange(
            pattern, machine=BGQ, scheme="direct", trace=True, tracer=base_tr
        )
        got = run_exchange(
            pattern, machine=BGQ, scheme="direct", trace=True, tracer=got_tr,
            engine="batch",
        )
        assert_same_result(base.run, got.run, "(direct)")
        assert deep_eq(base.delivered, got.delivered)
        assert to_chrome_trace(base.run) == to_chrome_trace(got.run)
        assert counter_keys(base_tr) == counter_keys(got_tr)
        assert sorted(map(span_key, base_tr.spans)) == sorted(
            map(span_key, got_tr.spans)
        )

    def test_header_words_bit_identical(self, pattern):
        vpt = make_vpt(64, 2)
        base = run_exchange(pattern, vpt, machine=BGQ, trace=True, header_words=2)
        got = run_exchange(
            pattern, vpt, machine=BGQ, trace=True, header_words=2, engine="batch"
        )
        assert_same_result(base.run, got.run, "(header_words=2)")

    def test_rendezvous_threshold_bit_identical(self, pattern):
        vpt = make_vpt(64, 2)
        base = run_exchange(
            pattern, vpt, machine=BGQ, trace=True, rendezvous_threshold_words=8
        )
        got = run_exchange(
            pattern, vpt, machine=BGQ, trace=True, rendezvous_threshold_words=8,
            engine="batch",
        )
        assert_same_result(base.run, got.run, "(rendezvous)")

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

    def test_rerun_is_deterministic(self, pattern):
        vpt = make_vpt(64, 2)
        runs = [
            run_exchange(pattern, vpt, machine=BGQ, trace=True, engine="batch")
            for _ in range(2)
        ]
        assert_same_result(runs[0].run, runs[1].run, "(repeat)")


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

    @pytest.mark.parametrize("layout", ["row", "column"])
    @pytest.mark.parametrize("dims", [None, 2, 3])
    def test_spmv_bit_identical(self, problem, layout, dims):
        from repro.spmv.distributed import distributed_spmv

        A, part, x = problem
        vpt = None if dims is None else make_vpt(16, dims)
        base = distributed_spmv(
            A, part, x, vpt=vpt, machine=BGQ, layout=layout, engine="event"
        )
        got = distributed_spmv(
            A, part, x, vpt=vpt, machine=BGQ, layout=layout, engine="batch"
        )
        assert np.array_equal(base.y, got.y)
        assert base.makespan_us == got.makespan_us
        if layout == "row":
            assert base.clocks == got.clocks

    def test_run_spmd_refused_for_batch(self):
        def proc(comm):
            return comm.rank
            yield

        with pytest.raises(SimMPIError, match="arbitrary process functions"):
            run_spmd(8, proc, machine=BGQ, engine="batch")


class TestEagerRefusals:
    """Everything unsupported is refused by name before any simulation."""

    def test_dispatch_returns_backend_instance(self):
        mpi = SimMPI(8, machine=BGQ, engine="batch")
        assert isinstance(mpi, BatchSimMPI)
        assert mpi.engine_name == "batch"
        assert mpi.planned_only is True

    def test_requires_machine(self):
        with pytest.raises(SimMPIError, match="requires a machine"):
            SimMPI(8, engine="batch")

    def test_rejects_jitter(self):
        with pytest.raises(SimMPIError, match="jitter"):
            SimMPI(8, machine=BGQ, engine="batch", jitter=0.1)

    def test_rejects_fault_plan(self):
        plan = FaultPlan(crashes={3: 10.0}, seed=2)
        with pytest.raises(SimMPIError, match="fault_plan is refused"):
            SimMPI(8, machine=BGQ, engine="batch", fault_plan=plan)

    def test_rejects_workers(self):
        with pytest.raises(EngineConfigError, match="workers=4 requires engine='sharded'"):
            SimMPI(8, machine=BGQ, engine="batch", workers=4)

    def test_rejects_zero_lookahead_machine(self):
        flat = BGQ.with_params(alpha_us=0.0)
        with pytest.raises(SimMPIError, match="lookahead"):
            SimMPI(8, machine=flat, engine="batch")

    def test_run_refused_by_name(self):
        mpi = SimMPI(8, machine=BGQ, engine="batch")
        with pytest.raises(SimMPIError, match="wildcard"):
            mpi.run(lambda comm: iter(()))

    def test_chaos_soak_refused_eagerly(self):
        from repro.errors import ExperimentError
        from repro.experiments import chaos

        with pytest.raises(ExperimentError, match="fault-capable"):
            chaos.run(K=16, epochs=20, engine="batch")

    def test_drift_service_refused_eagerly(self):
        from repro.errors import ExperimentError
        from repro.experiments import drift

        with pytest.raises(ExperimentError, match="NBX rediscovery"):
            drift.run(K=16, epochs=1, service=True, engine="batch")

    def test_dynamic_mode_refused(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=2)
        with pytest.raises(PlanError, match="mode='dynamic'"):
            run_exchange(
                pattern, make_vpt(16, 2), machine=BGQ, mode="dynamic",
                engine="batch",
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
        assert deep_eq(got, want)

    def test_delivered_default_payloads_do_not_overlap(self, pattern):
        out = run_exchange(pattern, dims=2, machine=BGQ, engine="batch")
        pairs = [(s, r, p) for r, msgs in enumerate(out.delivered) for s, p in msgs]
        for i, (_, _, p) in enumerate(pairs):
            p[:] = -1 - i
        for i, (s, r, p) in enumerate(pairs):
            assert p.size == pattern.size[pattern.edge_rows([s], [r])[0]]
            assert (p == -1 - i).all()

    def test_flattening_keeps_rank_and_dict_order(self):
        payloads = [{2: "ab", 1: (7,)}, {}, {0: [1, 2, 3]}]
        esrc, edst, epay, words = _edges_from_payloads(payloads, 3)
        assert esrc.tolist() == [0, 0, 2] and edst.tolist() == [2, 1, 0]
        assert epay.tolist() == ["ab", (7,), [1, 2, 3]]
        assert words.tolist() == [2, 1, 3] and words.dtype == np.int64

    def test_wrong_dict_count_refused(self):
        with pytest.raises(SimMPIError, match="2 payload dicts for K=3"):
            _edges_from_payloads([{}, {}], 3)

    def test_unsized_payload_refused(self):
        with pytest.raises(PlanError, match="sized"):
            _edges_from_payloads([{1: 3.5}, {}], 2)


class TestEngineRegistry:
    """Registry API: deterministic ordering and named error paths."""

    def test_names_are_sorted_and_complete(self):
        names = engine_names()
        assert list(names) == sorted(names)
        assert set(names) >= {"batch", "event", "sharded"}

    def test_unknown_engine_error_lists_available(self):
        with pytest.raises(SimMPIError, match="unknown engine 'warp'") as exc:
            SimMPI(8, machine=BGQ, engine="warp")
        msg = str(exc.value)
        for name in engine_names():
            assert name in msg

    def test_duplicate_register_engine_refused(self):
        from repro.simmpi.engine import _EXTRA, register_engine

        class _Fake(SimMPI):
            pass

        class _Other(SimMPI):
            pass

        try:
            register_engine("fake-dup", _Fake)
            register_engine("fake-dup", _Fake)  # same class: idempotent
            with pytest.raises(SimMPIError, match="already registered"):
                register_engine("fake-dup", _Other)
        finally:
            _EXTRA.pop("fake-dup", None)

    def test_builtin_name_collision_refused(self):
        from repro.simmpi.engine import register_engine

        class _Fake(SimMPI):
            pass

        with pytest.raises(SimMPIError, match="built in"):
            register_engine("batch", _Fake)

    @pytest.mark.parametrize(
        "engine,kwargs,match",
        [
            ("event", {"workers": 4}, "workers=4 requires engine='sharded'"),
            ("batch", {"machine": BGQ, "workers": 4},
             "workers=4 requires engine='sharded'"),
            ("batch", {}, "requires a machine"),
            ("batch", {"machine": BGQ, "jitter": 0.5}, "jitter"),
            ("sharded", {"machine": BGQ, "workers": 2, "jitter": 0.5}, "jitter"),
            ("sharded", {}, "requires a machine"),
        ],
    )
    def test_backend_refusals_are_eager_and_named(self, engine, kwargs, match):
        with pytest.raises(SimMPIError, match=match):
            SimMPI(8, engine=engine, **kwargs)

    def test_workers_error_is_a_value_error(self):
        # the API raises the same eager, named error the CLI enforces
        with pytest.raises(ValueError, match="single-process"):
            SimMPI(8, machine=BGQ, workers=4)
        with pytest.raises(ValueError, match="single-process"):
            SimMPI(8, machine=BGQ, engine="batch", workers=4)


class TestEngineBenchDocument:
    @pytest.fixture(scope="class")
    def doc(self):
        from repro.bench import run_engine_bench

        return run_engine_bench(K=64, workers=2)

    def test_document_validates_with_batch_row(self, doc):
        from repro.bench import ENGINE_SCHEMA, validate_bench_json

        assert doc["schema"] == ENGINE_SCHEMA
        assert validate_bench_json(doc) == []
        assert "batch" in doc["rows"]
        assert "batch_speedup" in doc

    def test_backends_did_the_same_work(self, doc):
        events = {b: row["events"] for b, row in doc["rows"].items()}
        assert len(set(events.values())) == 1
        assert doc["rows"]["batch"]["events"] > 0

    def test_missing_batch_row_fails_validation(self, doc):
        import copy

        from repro.bench import validate_bench_json

        bad = copy.deepcopy(doc)
        del bad["rows"]["batch"]
        assert any("batch" in p for p in validate_bench_json(bad))

    def test_batch_metrics_gate_only_on_same_K(self, doc):
        from repro.bench import compare_bench

        assert compare_bench(doc, doc) == []
        slower = {
            **doc,
            "rows": {
                **doc["rows"],
                "batch": {
                    **doc["rows"]["batch"],
                    "events_per_sec": doc["rows"]["batch"]["events_per_sec"] / 100,
                },
            },
            "batch_speedup": doc["batch_speedup"] / 100,
        }
        assert any("batch" in r for r in compare_bench(slower, doc))
        # a baseline recorded at a different K: batch throughput scales
        # with K, so the batch gates are skipped (and warned about)
        other_k = {**slower, "K": doc["K"] * 4}
        assert compare_bench(other_k, doc) == []

    def test_check_notes_warn_about_skipped_gates(self, doc):
        from repro.bench import bench_check_notes

        assert bench_check_notes(doc, doc) == []
        notes = bench_check_notes({**doc, "K": doc["K"] * 4}, doc)
        assert any("batch" in n and "NOT checked" in n for n in notes)
        notes = bench_check_notes({**doc, "cpus": doc["cpus"] + 7}, doc)
        assert any("sharded" in n and "NOT checked" in n for n in notes)

    def test_format_mentions_core_count_next_to_parallel_metrics(self, doc):
        from repro.bench import format_result

        text = format_result(doc)
        assert f"{doc['cpus']} core(s)" in text
        assert "batch" in text
