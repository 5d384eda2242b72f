"""Unit tests for the persistent-pattern SpMV."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import make_vpt
from repro.errors import PlanError
from repro.matrices import generate_matrix
from repro.network import BGQ
from repro.partition import block_partition, rcm_partition
from repro.spmv import PersistentSpMV


@pytest.fixture(scope="module")
def case():
    A = generate_matrix(160, 1800, 40, 1.0, seed=4, values="random")
    part = rcm_partition(A, 16)
    x = np.random.default_rng(1).normal(size=160)
    return A, part, x


class TestMultiply:
    def test_bl_correct(self, case):
        A, part, x = case
        spmv = PersistentSpMV(A, part)
        y, t = spmv.multiply(x)
        assert np.allclose(y, sp.csr_matrix(A) @ x)

    def test_stfw_correct(self, case):
        A, part, x = case
        spmv = PersistentSpMV(A, part, vpt=make_vpt(16, 3))
        y, _ = spmv.multiply(x)
        assert np.allclose(y, sp.csr_matrix(A) @ x)

    def test_repeated_iterations_stay_correct(self, case):
        A, part, x = case
        spmv = PersistentSpMV(A, part, vpt=make_vpt(16, 4))
        y = x
        for _ in range(3):
            y, _ = spmv.multiply(y)  # verify=True checks internally
        assert np.isfinite(y).all()

    def test_timed_iterations(self, case):
        A, part, x = case
        spmv = PersistentSpMV(A, part, vpt=make_vpt(16, 2), machine=BGQ)
        _, t = spmv.multiply(x)
        assert t > 0

    def test_setup_is_amortized(self, case):
        A, part, x = case
        spmv = PersistentSpMV(A, part, vpt=make_vpt(16, 3))
        plan_before = spmv.plan
        spmv.multiply(x)
        assert spmv.plan is plan_before  # no rebuild per iteration


class TestValidation:
    def test_partition_mismatch(self, case):
        A, _, _ = case
        with pytest.raises(PlanError):
            PersistentSpMV(A, block_partition(80, 8))

    def test_vpt_mismatch(self, case):
        A, part, _ = case
        with pytest.raises(PlanError):
            PersistentSpMV(A, part, vpt=make_vpt(32, 2))

    def test_bad_x_shape(self, case):
        A, part, _ = case
        spmv = PersistentSpMV(A, part)
        with pytest.raises(PlanError):
            spmv.multiply(np.zeros(3))

    def test_rectangular_rejected(self):
        with pytest.raises(PlanError):
            PersistentSpMV(sp.random(4, 6, format="csr"), block_partition(4, 2))
