"""Synthetic sparse matrices hitting prescribed degree statistics.

The paper's experiments run on 22 SuiteSparse matrices that are not
bundled here (no network access, multi-GB downloads); what drives every
communication metric in a row-parallel SpMV is the *row/column degree
distribution and its locality*, so we generate symmetric-pattern
matrices matching each instance's recorded statistics — size, nonzero
count, maximum degree, degree coefficient-of-variation — via a
locality-aware configuration model:

1. Draw a degree sequence from a lognormal law whose ``sigma`` is set
   by the target cv (for a lognormal, ``cv^2 = exp(sigma^2) - 1``),
   clip to ``[1, max_degree]``, rescale to the target average and pin
   the maximum entries to ``max_degree`` (the "dense rows").
2. Materialize edges by stub matching (configuration model), with a
   *locality* knob: stubs are sorted by row index and shuffled only
   within a window, so structural-mechanics matrices stay banded
   (partitioners find locality) while social networks scatter.  The
   shuffle is the order of (random float key, stub position); stubs are
   listed row by row, so that is (key, row) order, which
   :func:`repro.arrayops.take_by_key` reaches from any sort by key —
   the fast default kernel, not the stable one — by sorting the rows
   inside each run of equal keys.  The result does not depend on which
   kernel NumPy dispatches to.  Consecutive stubs pair up into edges
   ``lo < hi``, packed as ``(lo << bits) | hi`` int64 keys (the order of
   the pairs, a shift and a mask to unpack) and deduplicated by one
   value sort.
3. Symmetrize the pattern and add the unit diagonal (the matrices are
   structurally symmetric with full diagonals in SpMV use): the packed
   (row, col) keys of the upper, lower and diagonal entries, sorted once
   by value, *are* the CSR arrays — ``indices`` the low bits,
   ``indptr`` where the high bits change, nothing to merge or reorder.

Every array is thus sorted once, by value.  The matrices are, byte for
byte, those of the earlier stable-argsort / COO -> CSR formulation, which
``tests/matrices/test_generator_identity.py`` keeps as the reference.

The real degree sequence is deformed slightly by duplicate/self-edge
removal; the test suite pins the achieved statistics within tolerances
that preserve the latency-bound character the paper relies on.
"""

from __future__ import annotations

import numpy as np

from .._lazy import lazy_module
from ..arrayops import sorted_unique, take_by_key
from ..errors import MatrixGenerationError

sp = lazy_module("scipy.sparse")

__all__ = ["lognormal_degree_sequence", "configuration_matrix", "generate_matrix"]


def lognormal_degree_sequence(
    n: int,
    avg_degree: float,
    cv: float,
    max_degree: int,
    *,
    rng: np.random.Generator,
    dense_rows: int = 1,
) -> np.ndarray:
    """Degree sequence with prescribed mean, cv and maximum.

    ``dense_rows`` entries are pinned to ``max_degree`` exactly; the
    rest follow the clipped lognormal, rescaled so the overall mean
    stays on target.
    """
    if n < 2:
        raise MatrixGenerationError(f"n={n} too small")
    if not 1 <= avg_degree:
        raise MatrixGenerationError(f"avg_degree={avg_degree} must be >= 1")
    if max_degree > n:
        raise MatrixGenerationError(f"max_degree={max_degree} exceeds n={n}")
    if avg_degree > max_degree:
        raise MatrixGenerationError("avg_degree cannot exceed max_degree")
    dense_rows = int(min(max(dense_rows, 0), n // 2))

    # The pinned max-degree rows contribute variance on their own;
    # budget it out of the target so the overall cv stays on target
    # (one 8000-degree row among thousands of 60s dominates the cv —
    # exactly how the real dense-row matrices behave).
    pinned = max(dense_rows, 1)
    pin_var = pinned * (max_degree - avg_degree) ** 2 / n
    resid_var = max((cv * avg_degree) ** 2 - pin_var, 0.0)
    resid_cv = np.sqrt(resid_var) / avg_degree

    if resid_cv <= 0.01:
        deg = np.full(n, avg_degree)
    else:
        sigma = np.sqrt(np.log1p(resid_cv * resid_cv))
        mu = np.log(avg_degree) - sigma * sigma / 2.0
        deg = rng.lognormal(mean=mu, sigma=sigma, size=n)
    deg = np.clip(deg, 1.0, max_degree)

    # rescale the non-pinned entries so the mean lands on target even
    # after clipping and pinning
    target_total = avg_degree * n
    pinned_total = dense_rows * max_degree
    for _ in range(8):
        if dense_rows:
            deg[:dense_rows] = max_degree
        if abs(deg.sum() - target_total) < 0.005 * target_total:
            break
        rest = deg[dense_rows:]
        scale = (target_total - pinned_total) / max(rest.sum(), 1.0)
        if scale <= 0:
            break
        rest *= scale
        np.clip(rest, 1.0, max_degree, out=rest)
    if dense_rows:
        deg[:dense_rows] = max_degree
    out = np.maximum(np.rint(deg).astype(np.int64), 1)
    out[:dense_rows] = max_degree
    # ensure at least one row carries the exact maximum
    if dense_rows == 0:
        out[int(out.argmax())] = max_degree
    return out


def configuration_matrix(
    degrees: np.ndarray,
    *,
    locality: float = 0.0,
    rng: np.random.Generator,
    global_rows: np.ndarray | None = None,
) -> sp.csr_matrix:
    """Symmetric 0/1-pattern matrix realizing ``degrees`` approximately.

    Stub matching with a locality-limited shuffle: each stub's sort key
    is its owner's index plus noise of amplitude ``(1 - locality) * n``,
    so ``locality=1`` pairs mostly adjacent rows (banded matrix) and
    ``locality=0`` is the classical uniform configuration model.

    ``global_rows`` (the dense hot-spot rows) are exempted from the
    locality window: their stubs get uniform keys over the whole index
    range, so a dense row reaches the entire matrix no matter how
    banded the rest is — the structure that makes one process message
    almost everyone while the average process messages a few.

    Self-loops and duplicate edges are dropped; a unit diagonal is
    added.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    return _assemble(_matched_edges(degrees, locality, rng, global_rows), degrees.size)


def _key_bits(n: int) -> int:
    """Bits per coordinate of a packed ``(row << bits) | col`` int64 key."""
    bits = (n - 1).bit_length()
    if 2 * bits > 62:
        raise MatrixGenerationError(f"n={n}: two {bits}-bit coordinates do not fit one int64 key")
    return bits


def _matched_edges(degrees, locality, rng, global_rows) -> np.ndarray:
    """The distinct edges ``lo < hi`` of one stub matching, as sorted packed keys."""
    n = degrees.size
    if n < 2:
        raise MatrixGenerationError("need at least 2 rows")
    if not 0.0 <= locality <= 1.0:
        raise MatrixGenerationError(f"locality={locality} outside [0, 1]")
    bits = _key_bits(n)
    window = max((1.0 - locality) * n, 2.0)
    # two helpers, so that each step's stub-sized temporaries die when it returns: held
    # to the end of this body they were 100 bytes a stub of heap churn (USAGE "Performance")
    return _edge_keys(_shuffle_stubs(degrees, window, rng, global_rows), bits)


def _shuffle_stubs(degrees, window, rng, global_rows) -> np.ndarray:
    """An even number of stubs, row ``r`` owning ``degrees[r]`` of them, in the order of
    their locality-limited random sort keys."""
    # int32 (the key-bits check has bounded n): half the bytes of each stub-sized gather
    rows = np.arange(degrees.size, dtype=np.int32)
    stubs = np.repeat(rows, degrees)
    stubs = stubs[: stubs.size & ~1]
    keys = rng.uniform(0.0, window, size=stubs.size)
    keys += stubs
    if global_rows is not None and len(global_rows) > 0:
        is_global = np.isin(rows, np.asarray(global_rows, dtype=np.int64))
        is_global = np.repeat(is_global, degrees)[: stubs.size]  # per stub, from n tests
        keys[is_global] = rng.uniform(0.0, float(degrees.size), size=int(is_global.sum()))
    return take_by_key(stubs, keys)


def _edge_keys(stubs, bits) -> np.ndarray:
    """Consecutive ``stubs`` paired up into edges, self-loops and duplicates dropped."""
    u = stubs[0::2]
    v = stubs[1::2]
    key = np.minimum(u, v, dtype=np.int64)
    key <<= bits
    key |= np.maximum(u, v)
    key = sorted_unique(key)
    return key[key >> bits != key & ((1 << bits) - 1)]  # self-loops go last: few keys left to test


def _assemble(edges, n) -> sp.csr_matrix:
    """The symmetric pattern of ``edges`` plus a unit diagonal.

    One value sort of the packed (row, col) keys of every stored entry puts
    them in CSR order with no duplicates, so the arrays are canonical as built.
    """
    bits = _key_bits(n)
    mask = (1 << bits) - 1
    diag = np.arange(n, dtype=np.int64)
    entries = np.concatenate([edges, (edges & mask) << bits | edges >> bits, diag << bits | diag])
    entries.sort()
    # the index dtype scipy's own COO -> CSR conversion settles on
    idx = sp.get_index_dtype(maxval=max(entries.size, n))
    indptr = np.searchsorted(entries, np.arange(n + 1, dtype=np.int64) << bits).astype(idx)
    entries &= mask
    return sp.csr_matrix((np.ones(entries.size), entries.astype(idx), indptr), shape=(n, n))


def _top_up_rows(
    A: sp.csr_matrix,
    *,
    rows,
    target: int,
    rng: np.random.Generator,
) -> sp.csr_matrix:
    """Add symmetric entries until each of ``rows`` has ``target`` nonzeros.

    Stub matching loses a fraction of a dense row's edges to duplicate
    collisions; this pass restores the row's exact target degree (the
    statistic Table 1 pins) by sampling absent columns.
    """
    n = A.shape[0]
    add_r: list[np.ndarray] = []
    add_c: list[np.ndarray] = []
    for r in rows:
        have = A.indices[A.indptr[r]: A.indptr[r + 1]]
        missing = int(target) - have.size
        if missing <= 0:
            continue
        absent = np.ones(n, dtype=bool)
        absent[have] = False
        candidates = np.flatnonzero(absent)
        if candidates.size < missing:
            missing = candidates.size
        chosen = rng.choice(candidates, size=missing, replace=False)
        add_r.append(np.full(missing, r, dtype=np.int64))
        add_c.append(chosen.astype(np.int64))
    if not add_r:
        return A
    r = np.concatenate(add_r)
    c = np.concatenate(add_c)
    extra = sp.csr_matrix(
        (np.ones(2 * r.size), (np.concatenate([r, c]), np.concatenate([c, r]))),
        shape=A.shape,
    )
    out = (A + extra).tocsr()
    out.data.fill(1.0)  # in place: the sum is ours, no second nnz-sized array
    return out


def generate_matrix(
    n: int,
    nnz: int,
    max_degree: int,
    cv: float,
    *,
    locality: float = 0.0,
    dense_rows: int = 1,
    seed: int | None = None,
    values: str = "ones",
) -> sp.csr_matrix:
    """Generate a symmetric-pattern matrix with target statistics.

    Parameters
    ----------
    n, nnz, max_degree, cv:
        The Table 1 targets (``nnz`` counts all stored entries
        including the diagonal; degrees refer to off-diagonal + 1).
    locality:
        0 = fully random (network-like), 1 = banded (structural-like).
    dense_rows:
        Rows pinned at ``max_degree`` (the latency hot spots).
    values:
        ``"ones"`` for unit values, ``"random"`` for uniform(0.5, 1.5)
        — SpMV numerics only; the pattern is what matters.
    """
    if nnz < n:
        raise MatrixGenerationError(f"nnz={nnz} below n={n} (diagonal alone needs n)")
    rng = np.random.default_rng(seed)
    avg_degree = max(nnz / n, 1.0)
    degrees = lognormal_degree_sequence(
        n, avg_degree, cv, max_degree, rng=rng, dense_rows=dense_rows
    )
    # degrees here include the diagonal entry; stub degrees exclude it
    stub_degrees = np.maximum(degrees - 1, 0)
    # scatter the dense rows across the index range (real matrices have
    # their dense rows anywhere, not clustered at the top, so no single
    # partition block should inherit them all)
    if dense_rows:
        hot = (
            np.arange(dense_rows, dtype=np.int64) * (n // dense_rows)
            + n // (2 * dense_rows)
        ) % n
        hot = np.unique(hot)
        for i, h in enumerate(hot):
            stub_degrees[i], stub_degrees[h] = stub_degrees[h], stub_degrees[i]
        top_rows = hot
    else:
        hot = None
        top_rows = None
    edges = _matched_edges(stub_degrees, locality, rng, hot)
    # Stub matching drops duplicate edges, losing up to ~25% of the
    # target nonzeros in dense windows; one corrective pass with
    # inflated degrees recovers the Table 1 nnz within tolerance.
    # Each edge is stored twice, beside n diagonal entries.
    retention = (2 * edges.size + n) / max(nnz, 1)
    if retention < 0.85:
        inflate = min(1.0 / max(retention, 0.25), 1.6)
        boosted = np.minimum(
            np.rint(stub_degrees * inflate).astype(np.int64), max(max_degree - 1, 1)
        )
        edges = _matched_edges(boosted, locality, rng, hot)
    A = _assemble(edges, n)
    if top_rows is None:
        top_rows = [int(np.argmax(np.diff(A.indptr)))]
    A = _top_up_rows(A, rows=top_rows, target=max_degree, rng=rng)
    if values == "random":
        A.data = rng.uniform(0.5, 1.5, size=A.nnz)
    elif values != "ones":
        raise MatrixGenerationError(f"unknown values mode {values!r}")
    return A
