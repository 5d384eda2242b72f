"""Distributed SpMV on the emulator: numerics must match the sequential product."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import make_vpt
from repro.errors import PlanError
from repro.matrices import generate_matrix
from repro.network import BGQ
from repro.partition import block_partition, random_partition, rcm_partition
from repro.spmv import distributed_spmv, local_spmv, split_matrix


def make_case(n=128, K=8, seed=0):
    A = generate_matrix(n, n * 10, n // 4, 1.0, seed=seed, values="random")
    x = np.random.default_rng(seed).normal(size=n)
    return A, x


class TestSplitMatrix:
    def test_rows_partitioned(self):
        A, x = make_case()
        p = block_partition(128, 8)
        blocks = split_matrix(A, p, x)
        total_rows = sum(b.rows.size for b in blocks)
        assert total_rows == 128
        assert sum(b.nnz for b in blocks) == sp.csr_matrix(A).nnz

    def test_x_conformal(self):
        A, x = make_case()
        p = random_partition(128, 4, seed=1)
        for b in split_matrix(A, p, x):
            assert np.array_equal(b.x_own, x[b.rows])

    def test_local_spmv_matches_rows(self):
        A, x = make_case()
        p = block_partition(128, 4)
        blocks = split_matrix(A, p, x)
        y_ref = sp.csr_matrix(A) @ x
        for b in blocks:
            y_local = local_spmv(b, x)
            assert np.allclose(y_local, y_ref[b.rows])

    def test_bad_x_shape(self):
        A, x = make_case()
        with pytest.raises(PlanError):
            split_matrix(A, block_partition(128, 4), x[:-1])


class TestDistributedSpmvBL:
    def test_matches_sequential(self):
        A, x = make_case()
        p = rcm_partition(A, 8)
        res = distributed_spmv(A, p, x)  # verify=True raises on mismatch
        assert np.allclose(res.y, sp.csr_matrix(A) @ x)

    def test_random_partition_still_correct(self):
        A, x = make_case(seed=3)
        p = random_partition(128, 8, seed=3)
        res = distributed_spmv(A, p, x)
        assert np.allclose(res.y, sp.csr_matrix(A) @ x)

    def test_single_part(self):
        A, x = make_case()
        res = distributed_spmv(A, block_partition(128, 1), x)
        assert np.allclose(res.y, sp.csr_matrix(A) @ x)


class TestDistributedSpmvSTFW:
    @pytest.mark.parametrize("n_dims", [2, 3])
    def test_matches_sequential(self, n_dims):
        A, x = make_case(K=8)
        p = rcm_partition(A, 8)
        res = distributed_spmv(A, p, x, vpt=make_vpt(8, n_dims))
        assert np.allclose(res.y, sp.csr_matrix(A) @ x)

    def test_bl_and_stfw_same_result(self):
        A, x = make_case(seed=5)
        p = rcm_partition(A, 8)
        bl = distributed_spmv(A, p, x)
        stfw = distributed_spmv(A, p, x, vpt=make_vpt(8, 3))
        assert np.allclose(bl.y, stfw.y)

    def test_hypercube_16(self):
        A, x = make_case(n=160, K=16, seed=7)
        p = rcm_partition(A, 16)
        res = distributed_spmv(A, p, x, vpt=make_vpt(16, 4))
        assert np.allclose(res.y, sp.csr_matrix(A) @ x)

    def test_with_machine_timed(self):
        A, x = make_case()
        p = rcm_partition(A, 8)
        res = distributed_spmv(A, p, x, vpt=make_vpt(8, 2), machine=BGQ)
        assert res.makespan_us > 0

    def test_vpt_K_mismatch(self):
        A, x = make_case()
        with pytest.raises(PlanError):
            distributed_spmv(A, block_partition(128, 8), x, vpt=make_vpt(16, 2))


class TestABFT:
    """Tentpole: the checksum-vector cross-check catches injected
    compute flips and recovers by local recomputation."""

    def _blocks(self):
        A, x = make_case()
        p = block_partition(128, 4)
        return A, x, split_matrix(A, p, x)

    def test_checksum_vector_is_column_sum(self):
        from repro.spmv import abft_checksum

        A, x, blocks = self._blocks()
        for b in blocks:
            u = abft_checksum(b)
            ref = np.asarray(
                sp.csr_matrix(A)[b.rows, :].sum(axis=0), dtype=np.float64
            ).ravel()
            assert np.allclose(u, ref)

    def test_clean_multiply_passes_unflagged(self):
        from repro.spmv import checked_spmv

        A, x, blocks = self._blocks()
        y_ref = sp.csr_matrix(A) @ x
        for b in blocks:
            y, caught = checked_spmv(b, x)
            assert caught == 0
            assert np.allclose(y, y_ref[b.rows])

    def test_injected_flip_caught_and_recovered(self):
        from repro.spmv import checked_spmv

        A, x, blocks = self._blocks()
        y_ref = sp.csr_matrix(A) @ x
        total = 0
        for b in blocks:
            y, caught = checked_spmv(
                b, x, flip_prob=1.0, flip_seed=5, iteration=0
            )
            total += caught
            # recovery: the returned product is the *clean* one
            assert np.allclose(y, y_ref[b.rows])
        assert total == len(blocks)  # p=1: every rank flipped, all caught

    def test_injection_is_deterministic_in_the_key(self):
        from repro.spmv import checked_spmv

        A, x, blocks = self._blocks()
        b = blocks[0]
        y1, c1 = checked_spmv(b, x, flip_prob=0.5, flip_seed=7, iteration=3)
        y2, c2 = checked_spmv(b, x, flip_prob=0.5, flip_seed=7, iteration=3)
        assert c1 == c2 and np.allclose(y1, y2)

    def test_persistent_spmv_abft_counter(self):
        """End to end through PersistentSpMV.multiply: every injected
        high-exponent flip is caught and the product stays correct."""
        from repro.simmpi import FaultPlan
        from repro.spmv import PersistentSpMV

        A, x = make_case()
        p = block_partition(128, 4)
        spmv = PersistentSpMV(A, p, abft=True, verify=False)
        plan = FaultPlan(compute_flips={r: 1.0 for r in range(4)}, seed=9)
        y, _ = spmv.multiply(x, fault_plan=plan, iteration=0)
        assert spmv.abft_flips_caught == 4
        assert np.allclose(y, sp.csr_matrix(A) @ x)

    def test_abft_off_without_flips_uses_plain_kernel(self):
        from repro.spmv import PersistentSpMV

        A, x = make_case()
        p = block_partition(128, 4)
        spmv = PersistentSpMV(A, p, verify=False)
        y, _ = spmv.multiply(x)
        assert spmv.abft_flips_caught == 0
        assert np.allclose(y, sp.csr_matrix(A) @ x)


def _kernels(A, x, vpt=None):
    """Every SpMV kernel as ``partition -> one multiply``."""
    from repro.spmv import PersistentSpMV

    return {
        "row": lambda p: distributed_spmv(A, p, x, vpt=vpt),
        "persistent": lambda p: PersistentSpMV(A, p, vpt=vpt).multiply(x),
    }


class TestPartitionSize:
    """A partition over more or fewer rows than the matrix is refused by
    name on every kernel (an oversized one used to reach SciPy's row
    indexing in ``split_matrix`` and fail there)."""

    @pytest.mark.parametrize("kernel", ["row", "persistent"])
    @pytest.mark.parametrize("rows", [200, 120])
    def test_refused_by_name(self, kernel, rows):
        A = generate_matrix(160, 1800, 40, 1.0, seed=4)
        run = _kernels(A, np.ones(160))[kernel]
        with pytest.raises(PlanError, match="partition covers"):
            run(block_partition(rows, 8))

    def test_split_matrix_checks_it(self):
        A, x = make_case()
        with pytest.raises(PlanError, match="partition covers 200 rows"):
            split_matrix(A, block_partition(200, 8), x)


class TestOneExchangePerMultiply:
    """The communication phase of each kernel is one ``run_exchange``."""

    @pytest.mark.parametrize("kernel", ["row", "persistent"])
    @pytest.mark.parametrize("dims", [None, 2])
    def test_one_call(self, monkeypatch, kernel, dims):
        import repro.spmv.distributed as row_mod
        import repro.spmv.persistent as persistent_mod

        calls = []
        for mod in (row_mod, persistent_mod):
            real = mod.run_exchange

            def counting(*args, _real=real, **kwargs):
                result = _real(*args, **kwargs)
                calls.append(result.plan.vpt.dim_sizes)
                return result

            monkeypatch.setattr(mod, "run_exchange", counting)
        A, x = make_case()
        vpt = None if dims is None else make_vpt(8, dims)
        _kernels(A, x, vpt)[kernel](block_partition(128, 8))
        # the baseline is the flat T_1 over the 8 ranks
        assert calls == [(8,) if dims is None else make_vpt(8, dims).dim_sizes]

    def test_persistent_one_call_each_iteration(self, monkeypatch):
        import repro.spmv.persistent as persistent_mod

        calls = []
        real = persistent_mod.run_exchange

        def counting(*args, **kwargs):
            calls.append(kwargs.get("plan"))
            return real(*args, **kwargs)

        monkeypatch.setattr(persistent_mod, "run_exchange", counting)
        A, x = make_case()
        spmv = persistent_mod.PersistentSpMV(
            A, block_partition(128, 8), vpt=make_vpt(8, 3)
        )
        for _ in range(3):
            spmv.multiply(x)
        assert len(calls) == 3
        assert all(plan is spmv.plan for plan in calls)


class TestRowKernelsAgree:
    """``PersistentSpMV.multiply`` and ``distributed_spmv`` are one kernel."""

    @pytest.mark.parametrize("dims", [None, 2, 3])
    def test_same_bytes_and_makespan(self, dims):
        from repro.spmv import PersistentSpMV

        A, x = make_case(n=160, seed=2)
        p = rcm_partition(A, 8)
        vpt = None if dims is None else make_vpt(8, dims)
        ref = distributed_spmv(A, p, x, vpt=vpt, machine=BGQ)
        y, makespan = PersistentSpMV(A, p, vpt=vpt, machine=BGQ).multiply(x)
        assert y.tobytes() == ref.y.tobytes()
        assert makespan == ref.makespan_us
