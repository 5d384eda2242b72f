"""The generator against its earlier formulation, byte for byte.

``reference_*`` below is how the matrices were built before the data path was
rewritten around one value sort per array: a stable argsort of the float
keys, ``lo * n + hi`` edge keys unpacked with ``divmod``, COO -> CSR assembly
and ``setdiff1d`` for the absent columns of a dense row.  Goldens,
EXPERIMENTS tables and warm ``ArtifactCache`` entries were all made with it,
so ``generate_matrix`` must return the same arrays, dtypes and flags from the
same RNG stream.  No hashes are pinned: ``lognormal`` goes through libm.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from repro.errors import MatrixGenerationError
from repro.matrices import configuration_matrix, generate_matrix, lognormal_degree_sequence
from repro.matrices.generators import _key_bits

from .test_properties import gen_params


def reference_configuration_matrix(degrees, *, locality=0.0, rng, global_rows=None):
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    if stubs.size % 2 == 1:
        stubs = stubs[:-1]
    if stubs.size == 0:
        return sp.identity(n, format="csr", dtype=np.float64)
    keys = rng.uniform(0.0, max((1.0 - locality) * n, 2.0), size=stubs.size)
    keys += stubs
    if global_rows is not None and len(global_rows) > 0:
        is_global = np.isin(stubs, np.asarray(global_rows, dtype=np.int64))
        keys[is_global] = rng.uniform(0.0, float(n), size=int(is_global.sum()))
    stubs = stubs[np.argsort(keys, kind="stable")]
    u, v = stubs[0::2], stubs[1::2]
    keep = u != v
    u, v = u[keep], v[keep]
    lo, hi = np.divmod(np.unique(np.minimum(u, v) * np.int64(n) + np.maximum(u, v)), np.int64(n))
    idx = sp.get_index_dtype(maxval=n)
    diag = np.arange(n, dtype=idx)
    rows = np.concatenate([lo, hi, diag], dtype=idx)
    cols = np.concatenate([hi, lo, diag], dtype=idx)
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))


def reference_generate_matrix(n, nnz, max_degree, cv, *, locality=0.0, dense_rows=1, seed=None,
                              values="ones"):
    """The matrix, and whether the corrective second pass ran."""
    rng = np.random.default_rng(seed)
    degrees = lognormal_degree_sequence(
        n, max(nnz / n, 1.0), cv, max_degree, rng=rng, dense_rows=dense_rows
    )
    stub_degrees = np.maximum(degrees - 1, 0)
    hot = None
    if dense_rows:
        hot = np.arange(dense_rows, dtype=np.int64) * (n // dense_rows) + n // (2 * dense_rows)
        hot = np.unique(hot % n)
        for i, h in enumerate(hot):
            stub_degrees[i], stub_degrees[h] = stub_degrees[h], stub_degrees[i]
    A = reference_configuration_matrix(stub_degrees, locality=locality, rng=rng, global_rows=hot)
    retention = A.nnz / max(nnz, 1)
    if retention < 0.85:
        inflate = min(1.0 / max(retention, 0.25), 1.6)
        boosted = np.minimum(
            np.rint(stub_degrees * inflate).astype(np.int64), max(max_degree - 1, 1)
        )
        A = reference_configuration_matrix(boosted, locality=locality, rng=rng, global_rows=hot)
    r, c = [], []
    for row in [int(np.argmax(np.diff(A.indptr)))] if hot is None else hot:
        have = A.indices[A.indptr[row]: A.indptr[row + 1]]
        candidates = np.setdiff1d(np.arange(n, dtype=np.int64), have)
        missing = min(max_degree - have.size, candidates.size)
        if missing > 0:
            c.append(rng.choice(candidates, size=missing, replace=False))
            r.append(np.full(missing, row, dtype=np.int64))
    if r:
        r, c = np.concatenate(r), np.concatenate(c)
        extra = sp.csr_matrix(
            (np.ones(2 * r.size), (np.concatenate([r, c]), np.concatenate([c, r]))), shape=A.shape
        )
        A = (A + extra).tocsr()
        A.data.fill(1.0)
    if values == "random":
        A.data = rng.uniform(0.5, 1.5, size=A.nnz)
    return A, retention < 0.85


def assert_same_bytes(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.indices.dtype == np.int32
    assert got.shape == want.shape
    assert got.has_sorted_indices and want.has_sorted_indices
    assert got.has_canonical_format and want.has_canonical_format


class TestGenerateMatrix:
    @given(gen_params())
    @settings(max_examples=40, deadline=None)
    def test_drawn_parameters(self, params):
        n, nnz, max_degree, cv, locality, dense, seed = params
        kw = dict(locality=locality, dense_rows=dense, seed=seed)
        want, _ = reference_generate_matrix(n, nnz, max_degree, cv, **kw)
        assert_same_bytes(generate_matrix(n, nnz, max_degree, cv, **kw), want)

    @pytest.mark.parametrize(
        "args, kw",
        [
            ((1000, 10_000, 100, 1.0), dict(seed=3)),
            ((1000, 10_000, 100, 1.0), dict(seed=3, dense_rows=0)),
            ((1000, 10_000, 100, 1.0), dict(seed=3, values="random", dense_rows=3)),
            ((4000, 60_000, 900, 2.0), dict(seed=7, dense_rows=2, locality=0.96)),
            ((64, 400, 20, 1.0), dict(seed=2)),
            ((64, 64, 1, 0.0), dict(seed=2)),  # all-zero stub degrees: the identity
            ((65, 65, 1, 0.0), dict(seed=2, dense_rows=0)),
        ],
    )
    def test_edge_cases(self, args, kw):
        want, _ = reference_generate_matrix(*args, **kw)
        assert_same_bytes(generate_matrix(*args, **kw), want)

    def test_corrective_second_pass(self):
        # a dense banded matrix loses > 15% of its stubs to duplicate edges
        args, kw = (1500, 100_000, 700, 0.5), dict(seed=2, locality=0.99)
        want, two_passes = reference_generate_matrix(*args, **kw)
        assert two_passes
        assert_same_bytes(generate_matrix(*args, **kw), want)


class IntegerKeys:
    """An RNG whose uniform draws are whole numbers, so that most sort keys tie."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator

    def uniform(self, low, high, size):
        return np.floor(self._rng.uniform(low, high, size=size))


class TestConfigurationMatrix:
    @pytest.mark.parametrize("rng_type", [np.random.default_rng, IntegerKeys])
    @pytest.mark.parametrize(
        "degrees, kw",
        [
            (np.full(101, 3), dict(locality=0.5, global_rows=[50, 3, 3, 99])),  # odd stub count
            (np.full(101, 3), dict(locality=1.0)),
            (np.arange(200) % 7, dict(locality=0.9, global_rows=np.array([199, 0]))),
            (np.zeros(10, dtype=np.int64), dict()),
            ([0, 0, 1, 0], dict()),  # one stub, dropped for parity
        ],
    )
    def test_same_matrix_and_rng_stream(self, degrees, kw, rng_type):
        rng_got, rng_want = rng_type(5), rng_type(5)
        want = reference_configuration_matrix(degrees, rng=rng_want, **kw)
        assert_same_bytes(configuration_matrix(degrees, rng=rng_got, **kw), want)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


class TestKeyBits:
    def test_bits_cover_every_index(self):
        for n in (2, 3, 4, 5, 1024, 1025, 2**31):
            assert (n - 1) >> _key_bits(n) == 0 and (n - 1) >> (_key_bits(n) - 1) == 1

    def test_refuses_what_does_not_fit_an_int64(self):
        with pytest.raises(MatrixGenerationError, match=f"n={2**31 + 1}"):
            _key_bits(2**31 + 1)
