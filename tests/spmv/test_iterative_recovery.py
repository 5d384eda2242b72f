"""Acceptance tests: iterative SpMV that survives rank crashes.

The issue's headline scenario: >= 50 iterations at K = 64 with two
scheduled crashes must complete via shrink-recovery and produce a final
vector **bit-identical** to the fault-free host reference — crashes
move ownership of rows, never their values.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ExperimentError, RecoveryError
from repro.metrics import recovery_stats, recovery_table
from repro.network import BGQ
from repro.simmpi import FaultPlan
from repro.spmv import partition_matrix, run_iterative_with_recovery

K = 64
ITERATIONS = 56
INTERVAL = 8
SEED = 5


def iterative_reference(A, x0, iterations, *, seed=0, noise_scale=0.01):
    """Host-side reference of the recoverable iteration.

    One step is ``x <- s * (A @ x) + noise_scale * q_t`` with
    ``s = 1 / max(1, ||A||_inf)`` (keeping the iteration bounded) and
    ``q_t`` the stateless per-iteration noise stream seeded by
    ``(seed, t)``, so a restarted run replays it from any iteration.
    The distributed driver is bit-identical to this loop because a CSR
    row slice computes the exact same per-row dot products.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    norm = float(np.abs(A).sum(axis=1).max()) if A.nnz else 0.0
    s = 1.0 / max(1.0, norm)
    x = np.asarray(x0, dtype=np.float64).copy()
    for t in range(int(iterations)):
        q = np.random.default_rng((seed, t)).standard_normal(n)
        x = s * (A @ x) + noise_scale * q
    return x


def make_matrix(n=640, nnz_per_row=5, seed=11):
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), nnz_per_row)
    cols = rng.integers(0, n, size=nnz_per_row * n)
    vals = rng.standard_normal(nnz_per_row * n)
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return (A + sp.eye(n)).tocsr()


@pytest.fixture(scope="module")
def A():
    return make_matrix()


@pytest.fixture(scope="module")
def reference(A):
    x0 = np.random.default_rng(SEED).standard_normal(A.shape[0])
    return iterative_reference(A, x0, ITERATIONS, seed=SEED)


@pytest.fixture(scope="module")
def fault_free(A):
    return run_iterative_with_recovery(
        A,
        K,
        iterations=ITERATIONS,
        n_dims=2,
        checkpoint_interval=INTERVAL,
        seed=SEED,
        machine=BGQ,
        partitioner="block",
    )


def two_crash_plan(fault_free):
    return FaultPlan(
        crashes={9: 0.3 * fault_free.makespan_us, 41: 0.6 * fault_free.makespan_us}
    )


@pytest.fixture(scope="module")
def crashed(A, fault_free):
    return run_iterative_with_recovery(
        A,
        K,
        iterations=ITERATIONS,
        n_dims=2,
        checkpoint_interval=INTERVAL,
        seed=SEED,
        machine=BGQ,
        partitioner="block",
        fault_plan=two_crash_plan(fault_free),
    )


class TestFaultFree:
    def test_matches_host_reference_bitwise(self, fault_free, reference):
        assert np.array_equal(fault_free.x, reference)

    def test_no_recoveries(self, fault_free):
        assert fault_free.events == []
        assert fault_free.dead == ()
        assert fault_free.final_K == K
        assert fault_free.scheme == "STFW2"


class TestTwoCrashAcceptance:
    def test_final_vector_bitwise_equal_to_reference(self, crashed, reference):
        assert np.array_equal(crashed.x, reference)

    def test_both_crashes_recovered_separately(self, crashed):
        assert crashed.dead == (9, 41)
        assert crashed.final_K == 62
        assert len(crashed.events) == 2
        assert crashed.events[0].new_dead == (9,)
        assert crashed.events[1].new_dead == (9, 41)

    def test_rollbacks_land_on_checkpoint_boundaries(self, crashed):
        for e in crashed.events:
            assert e.rollback_iteration % INTERVAL == 0
            assert e.rollback_iteration <= e.detected_iteration
            assert e.recovery_latency_us >= 0.0

    def test_post_shrink_plan_respects_message_bound(self, crashed):
        # 62 = 2 * 31 re-dimensions to T_2(31, 2): bound 31 + 1 - 2
        assert crashed.message_bound == 31
        assert crashed.final_mmax <= crashed.message_bound

    def test_recovery_costs_wall_time(self, crashed, fault_free):
        assert crashed.makespan_us > fault_free.makespan_us

    def test_checkpoint_restore_is_bit_identical_to_replay(self, A, crashed):
        """Determinism: any complete checkpoint equals the uninterrupted
        host iteration stopped at the same iteration."""
        store = crashed.store
        n = A.shape[0]
        x0 = np.random.default_rng(SEED).standard_normal(n)
        its = sorted(
            it for it in range(0, ITERATIONS + 1, INTERVAL) if store.is_complete(it)
        )
        assert len(its) >= 3
        for it in its:
            assert np.array_equal(
                store.restore_vector(it, n),
                iterative_reference(A, x0, it, seed=SEED),
            )

    def test_run_is_deterministic(self, A, fault_free, crashed):
        again = run_iterative_with_recovery(
            A,
            K,
            iterations=ITERATIONS,
            n_dims=2,
            checkpoint_interval=INTERVAL,
            seed=SEED,
            machine=BGQ,
            partitioner="block",
            fault_plan=two_crash_plan(fault_free),
        )
        assert np.array_equal(again.x, crashed.x)
        assert again.makespan_us == crashed.makespan_us
        assert [
            (e.detected_iteration, e.rollback_iteration, e.new_dead)
            for e in again.events
        ] == [
            (e.detected_iteration, e.rollback_iteration, e.new_dead)
            for e in crashed.events
        ]


class TestOtherSchemes:
    def test_three_dimensional_topology(self, A, fault_free, reference):
        res = run_iterative_with_recovery(
            A,
            K,
            iterations=ITERATIONS,
            n_dims=3,
            checkpoint_interval=INTERVAL,
            seed=SEED,
            machine=BGQ,
            partitioner="block",
            fault_plan=two_crash_plan(fault_free),
        )
        assert res.scheme == "STFW3"
        assert np.array_equal(res.x, reference)
        # 62 supports only two dimensions: the rebuild re-dimensions down
        assert res.final_K == 62 and res.message_bound == 31

    def test_baseline_direct_scheme(self, A):
        n = A.shape[0]
        res = run_iterative_with_recovery(
            A,
            8,
            iterations=20,
            n_dims=1,
            checkpoint_interval=4,
            seed=SEED,
            machine=BGQ,
            partitioner="block",
            fault_plan=FaultPlan(crashes={3: 500.0}),
        )
        x0 = np.random.default_rng(SEED).standard_normal(n)
        assert res.scheme == "BL"
        assert res.dead == (3,)
        assert np.array_equal(res.x, iterative_reference(A, x0, 20, seed=SEED))

    def test_shrink_to_prime_survivor_count_falls_back_to_direct(self, A):
        """8 - 1 = 7 survivors is prime: the rebuilt epoch runs direct
        exchange, and the bound becomes the flat K' - 1."""
        n = A.shape[0]
        res = run_iterative_with_recovery(
            A,
            8,
            iterations=16,
            n_dims=2,
            checkpoint_interval=4,
            seed=SEED,
            machine=BGQ,
            partitioner="block",
            fault_plan=FaultPlan(crashes={2: 400.0}),
        )
        x0 = np.random.default_rng(SEED).standard_normal(n)
        assert res.final_K == 7
        assert res.message_bound == 6
        assert np.array_equal(res.x, iterative_reference(A, x0, 16, seed=SEED))


class TestMetricsIntegration:
    def test_recovery_stats_and_table(self, crashed):
        s = recovery_stats(crashed)
        assert s.recoveries == 2
        assert s.lost_iterations == sum(e.lost_iterations for e in crashed.events)
        assert s.bound_ok
        text = recovery_table([("2 crashes", s)])
        assert "STFW2" in text and "62" in text and "<=31" in text


class TestValidation:
    def test_bad_iterations_rejected(self, A):
        with pytest.raises(ExperimentError, match="iterations"):
            run_iterative_with_recovery(A, 8, iterations=0)

    def test_bad_interval_rejected(self, A):
        with pytest.raises(ExperimentError, match="checkpoint_interval"):
            run_iterative_with_recovery(A, 8, iterations=4, checkpoint_interval=0)

    def test_partition_k_mismatch_rejected(self, A):
        part = partition_matrix(A, 4, partitioner="block")
        with pytest.raises(ExperimentError, match="K="):
            run_iterative_with_recovery(A, 8, iterations=4, partition=part)

    def test_unrecoverable_run_raises_recovery_error(self, A):
        """Every rank dead before the first agreement: nothing survives
        to assemble the final vector."""
        plan = FaultPlan(crashes={r: 0.0 for r in range(4)})
        with pytest.raises(RecoveryError):
            run_iterative_with_recovery(
                A, 4, iterations=4, machine=BGQ, fault_plan=plan, n_dims=2
            )
