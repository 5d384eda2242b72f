"""Cross-engine equivalence and API tests for the sharded backend.

The contract under test: ``SimMPI(K, engine="sharded", workers=N)``
is **bit-identical** to the default event engine — same ``RunResult``
(returns, clocks, trace, crashed, fault events), same chrome-trace
bytes — for every supported scenario, at every worker count.  Payload
equality is checked semantically (type, dtype, shape, values) rather
than by pickling whole structures: the worker pipe breaks payload
object sharing, so whole-structure pickle bytes legitimately differ
while every individual value is identical.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import CommPattern, make_vpt, run_exchange
from repro.errors import ExperimentError, PlanError, SimMPIError
from repro.network import BGQ, DragonflyTopology, FlatTopology, TorusTopology
from repro.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    TIMEOUT,
    FaultPlan,
    SimMPI,
    engine_names,
    run_spmd,
)
from repro.simmpi.analysis import to_chrome_trace
from repro.simmpi.sharded import ShardedSimMPI

WORKER_COUNTS = (1, 2, 4)


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


# ----------------------------------------------------------------------
# Scenario process functions (module level: workers fork and re-run them)
# ----------------------------------------------------------------------

def _ring_allreduce(comm):
    K, rank = comm.size, comm.rank
    comm.send((rank + 1) % K, rank, tag=0, words=8)
    _, _, v = yield comm.recv((rank - 1) % K, 0)
    s = yield comm.allreduce(v, op="sum")
    return (v, s)


def _staged_wildcard(comm):
    K, rank = comm.size, comm.rank
    out = []
    for stage in range(3):
        peers = [(rank + d) % K for d in (1, 5, 11)]
        for p in peers:
            comm.send(p, (rank, stage), tag=stage, words=4 + (rank % 3))
        for _ in peers:
            src, _, v = yield comm.recv(ANY_SOURCE, stage)
            out.append((src, v))
        yield comm.barrier()
    return out


def _nbx_timeout(comm):
    K, rank = comm.size, comm.rank
    for j in range(2):
        comm.send((rank * 3 + j + 1) % K, rank, tag=7, words=2)
    got, misses = [], 0
    while misses < 3:
        m = yield comm.recv(ANY_SOURCE, ANY_TAG, timeout_us=50.0)
        if m is TIMEOUT:
            misses += 1
        else:
            got.append(m)
    yield comm.barrier()
    return sorted(got)


def _crash_shrink(comm):
    K, rank = comm.size, comm.rank
    comm.send((rank + 1) % K, rank, tag=1, words=4)
    v = yield comm.recv((rank - 1) % K, 1, timeout_us=20.0)
    # park on a never-matched tag so the scheduled crashes fire while
    # every rank is blocked here, before the shrink
    m = yield comm.recv(ANY_SOURCE, 99, timeout_us=100.0)
    dead = yield comm.shrink()
    s = yield comm.allreduce(1, op="sum")
    return (v is not TIMEOUT, m is TIMEOUT, dead, s)


def _straggler_pipeline(comm):
    K, rank = comm.size, comm.rank
    for r in range(3):
        comm.send((rank + 2) % K, (rank, r), tag=r, words=6)
        m = yield comm.recv((rank - 2) % K, r)
        yield comm.barrier()
    return m


SCENARIOS = {
    "ring_allreduce": (_ring_allreduce, 16, None),
    "staged_wildcard": (_staged_wildcard, 32, None),
    "nbx_timeout": (_nbx_timeout, 24, None),
    "crash_shrink": (_crash_shrink, 16, FaultPlan(crashes={3: 30.0, 9: 55.0}, seed=11)),
    "stragglers": (_straggler_pipeline, 16, FaultPlan(stragglers={2: 1.5, 7: 0.8}, seed=5)),
}


class TestScenarioEquivalence:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_to_event_engine(self, name, workers):
        factory, K, plan = SCENARIOS[name]
        base = SimMPI(K, machine=BGQ, trace=True, fault_plan=plan).run(factory)
        got = SimMPI(
            K, machine=BGQ, trace=True, fault_plan=plan,
            engine="sharded", workers=workers,
        ).run(factory)
        assert_same_result(base, got, f"({name}, workers={workers})")

    def test_run_spmd_engine_keyword(self):
        base = run_spmd(16, _ring_allreduce, machine=BGQ, trace=True)
        got = run_spmd(
            16, _ring_allreduce, machine=BGQ, trace=True,
            engine="sharded", workers=2,
        )
        assert_same_result(base, got, "(run_spmd)")

    def test_rerun_is_deterministic(self):
        runs = [
            SimMPI(16, machine=BGQ, trace=True, engine="sharded", workers=2).run(
                _staged_wildcard
            )
            for _ in range(2)
        ]
        assert_same_result(runs[0], runs[1], "(repeat)")


class TestExchangeEquivalence:
    """Full STFW / direct exchanges match across engines, bytes and all."""

    @pytest.fixture(scope="class")
    def pattern(self):
        return CommPattern.random(64, avg_degree=6, hot_processes=3, seed=3, words=4)

    @pytest.mark.parametrize("scheme", ["stfw", "direct"])
    def test_exchange_bit_identical(self, pattern, scheme):
        kw = {"scheme": "direct"} if scheme == "direct" else {}
        vpt = None if scheme == "direct" else make_vpt(64, 2)
        base = run_exchange(pattern, vpt, machine=BGQ, trace=True, **kw)
        got = run_exchange(
            pattern, vpt, machine=BGQ, trace=True,
            engine="sharded", workers=4, **kw,
        )
        assert_same_result(base.run, got.run, f"({scheme})")
        assert deep_eq(base.delivered, got.delivered)
        # the rendered timeline depends only on the RunResult, so the
        # chrome-trace JSON must agree byte for byte
        assert to_chrome_trace(base.run) == to_chrome_trace(got.run)

    def test_dynamic_mode_matches(self, pattern):
        vpt = make_vpt(64, 2)
        base = run_exchange(pattern, vpt, machine=BGQ, trace=True, mode="dynamic")
        got = run_exchange(
            pattern, vpt, machine=BGQ, trace=True, mode="dynamic",
            engine="sharded", workers=2,
        )
        assert_same_result(base.run, got.run, "(dynamic)")


class TestEngineSelectionAPI:
    def test_registry_names(self):
        assert set(engine_names()) >= {"event", "sharded"}

    def test_dispatch_returns_backend_instance(self):
        mpi = SimMPI(8, machine=BGQ, engine="sharded", workers=2)
        assert isinstance(mpi, ShardedSimMPI)
        assert mpi.engine_name == "sharded"
        assert SimMPI(8, machine=BGQ).engine_name == "event"

    def test_unknown_engine_named_in_error(self):
        with pytest.raises(SimMPIError, match="unknown engine 'warp'"):
            SimMPI(8, machine=BGQ, engine="warp")

    def test_workers_requires_sharded(self):
        with pytest.raises(SimMPIError, match="workers=4 requires engine='sharded'"):
            SimMPI(8, machine=BGQ, workers=4)

    def test_sharded_requires_machine(self):
        with pytest.raises(SimMPIError, match="requires a machine"):
            SimMPI(8, engine="sharded", workers=2)

    def test_sharded_rejects_jitter(self):
        with pytest.raises(SimMPIError, match="jitter"):
            SimMPI(8, machine=BGQ, engine="sharded", workers=2, jitter=0.1)

    def test_sharded_rejects_probabilistic_faults_by_name(self):
        plan = FaultPlan(default_drop=0.05, link_flip={(0, 1): 0.5}, seed=1)
        with pytest.raises(SimMPIError) as exc:
            SimMPI(8, machine=BGQ, engine="sharded", workers=2, fault_plan=plan)
        msg = str(exc.value)
        assert "default_drop=0.05" in msg
        assert "link_flip" in msg

    def test_partial_exchange_requires_event_engine(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=2)
        plan = FaultPlan(crashes={3: 10.0}, seed=2)
        with pytest.raises(PlanError, match="on_fault='partial'"):
            run_exchange(
                pattern, make_vpt(16, 2), machine=BGQ,
                fault_plan=plan, on_fault="partial",
                engine="sharded", workers=2,
            )

    def test_experiment_drivers_refuse_sharded_eagerly(self):
        from repro.experiments import faults, recover

        with pytest.raises(ExperimentError, match="engine='event'"):
            faults.run(K=16, engine="sharded")
        with pytest.raises(ExperimentError, match="engine='event'"):
            recover.run(K=16, engine="sharded")


class TestHopCostMemo:
    """``_send_cost`` memoizes one row of hop counts per source node."""

    def test_cache_is_instance_scoped(self):
        a = SimMPI(8, machine=BGQ)
        b = SimMPI(8, machine=BGQ)
        a._send_cost(0, 7, 4)
        assert a._hop_rows and not b._hop_rows

    def test_cache_is_bounded(self, monkeypatch):
        from repro.simmpi import runtime

        mpi = SimMPI(64, machine=BGQ)  # 16 cores per node: 4 sending nodes
        n = mpi._topology.num_nodes
        monkeypatch.setattr(runtime, "_HOP_ROWS_MAX_ENTRIES", 2 * n)
        want = [mpi._send_cost(src, 63 - src, 4) for src in range(64)]
        assert mpi._stats["hop_memo_misses"] == 4  # one row per sending node
        assert len(mpi._hop_rows) * n <= 2 * n  # ... two of them kept
        # a cleared row is rebuilt with the same costs
        assert [mpi._send_cost(src, 63 - src, 4) for src in range(64)] == want
        assert len(mpi._hop_rows) * n <= 2 * n

    @pytest.mark.parametrize(
        "topology",
        [
            TorusTopology((3, 4, 2)),
            DragonflyTopology(3, 2, 2),
            FlatTopology(7),
            TorusTopology((600,)),  # diameter 300: does not fit a byte row
        ],
        ids=["torus", "dragonfly", "flat", "ring600"],
    )
    def test_row_equals_the_scalar_hops(self, topology):
        machine = replace(BGQ, cores_per_node=1, topology_factory=lambda nodes: topology)
        mpi = SimMPI(topology.num_nodes, machine=machine)
        for src in range(0, topology.num_nodes, 1 if topology.num_nodes < 100 else 97):
            cost = mpi._send_cost(src, topology.num_nodes - 1, 5)
            row = mpi._hop_rows[src]
            want = [topology.hops(src, dst) for dst in range(topology.num_nodes)]
            assert list(row) == want
            assert all(type(h) is int for h in (row[0], row[-1]))
            assert cost == (
                machine.alpha_us + machine.alpha_hop_us * want[-1] + machine.beta_us_per_word * 5
            )


class TestEngineBenchDocument:
    @pytest.fixture(scope="class")
    def doc(self):
        from repro.bench import run_engine_bench

        return run_engine_bench(K=64, workers=2)

    def test_document_validates(self, doc):
        from repro.bench import ENGINE_SCHEMA, validate_bench_json

        assert doc["schema"] == ENGINE_SCHEMA
        assert doc["sweep"] == "engine"
        assert validate_bench_json(doc) == []

    def test_backends_did_the_same_work(self, doc):
        assert doc["rows"]["event"]["events"] == doc["rows"]["sharded"]["events"]
        assert doc["rows"]["event"]["events"] > 0

    def test_mismatched_event_counts_fail_validation(self, doc):
        import copy

        from repro.bench import validate_bench_json

        bad = copy.deepcopy(doc)
        bad["rows"]["sharded"]["events"] += 1
        assert any("same exchange" in p for p in validate_bench_json(bad))

    def test_compare_gates_relative_to_baseline(self, doc):
        from repro.bench import compare_bench

        assert compare_bench(doc, doc) == []
        slower = {
            **doc,
            "rows": {
                **doc["rows"],
                "event": {
                    **doc["rows"]["event"],
                    "events_per_sec": doc["rows"]["event"]["events_per_sec"] / 10,
                },
            },
        }
        assert any("event events/s" in r for r in compare_bench(slower, doc))

    def test_parallel_metrics_gate_only_on_same_core_count(self, doc):
        from repro.bench import compare_bench

        bigger_box = {**doc, "cpus": doc["cpus"] + 15, "speedup": doc["speedup"] * 8}
        # a baseline from a different host: sharded rate and speedup are
        # hardware properties, so only the serial event rate gates
        assert compare_bench(doc, bigger_box) == []

    def test_merge_and_load_roundtrip(self, doc, tmp_path):
        from repro.bench import load_baseline, merge_baseline

        path = str(tmp_path / "baseline.json")
        merged = merge_baseline(path, doc)
        assert "engine" in merged
        assert load_baseline(path, "engine")["K"] == doc["K"]


class TestColumnParallelShim:
    def test_shim_warns_and_matches(self):
        import scipy.sparse as sp

        from repro.spmv.columnparallel import distributed_spmv_colparallel
        from repro.spmv.distributed import distributed_spmv
        from repro.spmv.driver import partition_matrix

        n = 96
        A = (
            sp.random(n, n, density=0.05, random_state=7, format="csr")
            + sp.eye(n, format="csr")
        ).tocsr()
        x = np.arange(n, dtype=float)
        part = partition_matrix(A, 8)
        with pytest.warns(DeprecationWarning, match="layout='column'"):
            old = distributed_spmv_colparallel(A, part, x, machine=BGQ)
        new = distributed_spmv(A, part, x, machine=BGQ, layout="column")
        assert np.array_equal(old.y, new.y)
        assert old.makespan_us == new.makespan_us
