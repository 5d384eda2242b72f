"""Per-process pieces of the distributed SpMV: local matrix and kernel.

Besides the plain kernel (:func:`local_spmv`) this module carries the
ABFT variant (:func:`checked_spmv`): the classic checksum-vector
cross-check ``sum(y) == (colsum A_local) @ x`` that catches a silent
flip in the local compute at the cost of one extra dot product, plus
the seed-deterministic compute-flip injector it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._lazy import lazy_module
from ..errors import PlanError
from ..partition.base import Partition
from ..simmpi.integrity import corrupt_draw

sp = lazy_module("scipy.sparse")

__all__ = [
    "LocalBlock",
    "split_matrix",
    "local_spmv",
    "abft_checksum",
    "checked_spmv",
]


@dataclass
class LocalBlock:
    """One process's share of the matrix and vector.

    ``rows`` are the owned global row indices; ``A_local`` keeps global
    column indexing (columns are resolved through the gathered x
    buffer); ``x_own`` are the owned input-vector values, conformal
    with ``rows``.
    """

    rank: int
    rows: np.ndarray
    A_local: sp.csr_matrix
    x_own: np.ndarray

    @property
    def nnz(self) -> int:
        """Local nonzero count (compute load)."""
        return int(self.A_local.nnz)


def split_matrix(
    A: sp.spmatrix, partition: Partition, x: np.ndarray
) -> list[LocalBlock]:
    """Distribute ``A``'s rows and ``x``'s entries per the partition."""
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise PlanError("row-parallel SpMV needs a square matrix")
    if partition.n != n:
        raise PlanError(f"partition covers {partition.n} rows, matrix has {n}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise PlanError(f"x has shape {x.shape}, expected ({n},)")
    blocks = []
    for p in range(partition.K):
        rows = partition.rows_of(p)
        blocks.append(
            LocalBlock(
                rank=p,
                rows=rows,
                A_local=A[rows, :].tocsr(),
                x_own=x[rows].copy(),
            )
        )
    return blocks


def local_spmv(block: LocalBlock, x_full: np.ndarray) -> np.ndarray:
    """The local compute phase: ``y_local = A_local @ x_full``.

    ``x_full`` is the length-``n`` buffer holding the process's own x
    entries plus everything received in the communication phase;
    entries the local rows never touch may hold garbage.
    """
    return block.A_local @ np.asarray(x_full, dtype=np.float64)


def abft_checksum(block: LocalBlock) -> np.ndarray:
    """The ABFT checksum vector: column sums of ``A_local``.

    With ``u[j] = sum_i A_local[i, j]`` the identity
    ``sum(A_local @ x) == u @ x`` holds in exact arithmetic for any
    ``x``, so one extra dot product per iteration cross-checks the
    whole local multiply.  Columns the local rows never touch have
    ``u[j] == 0``, which is exactly why garbage in unused ``x_full``
    entries cannot pollute the check.
    """
    return np.asarray(block.A_local.sum(axis=0), dtype=np.float64).ravel()


def _inject_compute_flip(
    y: np.ndarray, seed: int, rank: int, iteration: int
) -> np.ndarray:
    """Flip one high-order bit of one element of a copy of ``y``.

    Models the *detectable* kind of silent compute corruption: a flip
    in the exponent or high mantissa of a float64, which perturbs the
    value by at least a few percent of its magnitude.  Flips of the
    low mantissa bits are numerically indistinguishable from roundoff
    and deliberately out of the injected model — an error smaller
    than the kernel's own noise floor is not a corruption any checksum
    scheme (or consumer) could meaningfully distinguish.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((int(seed), 0xABF7, int(rank), int(iteration)))
    )
    out = np.array(y, dtype=np.float64, copy=True)
    i = int(rng.integers(0, out.size))
    bit = int(rng.integers(55, 63))  # high exponent bits: >= 2x magnitude
    bits = out.view(np.uint64)
    bits[i] ^= np.uint64(1) << np.uint64(bit)
    return out


def checked_spmv(
    block: LocalBlock,
    x_full: np.ndarray,
    *,
    checksum: np.ndarray | None = None,
    flip_prob: float = 0.0,
    flip_seed: int = 0,
    iteration: int = 0,
    rtol: float = 1e-8,
    atol: float = 1e-12,
) -> tuple[np.ndarray, int]:
    """ABFT-checked local compute; returns ``(y_local, flips_caught)``.

    Runs :func:`local_spmv`, optionally injects a seed-deterministic
    compute flip (probability ``flip_prob``, drawn by
    :func:`~repro.simmpi.integrity.corrupt_draw` keyed on
    ``(rank, iteration)`` so the injection commutes with everything
    else in the epoch), then verifies ``sum(y)`` against the checksum
    vector ``u = colsum(A_local)`` (precompute it once with
    :func:`abft_checksum` and pass it in; recomputed here otherwise).
    A failed check recomputes the multiply — recovery is local, no
    communication — and counts one caught flip.

    The tolerance ``atol + rtol * (|u| @ |x|)`` sits ~7 orders of
    magnitude above float64 roundoff for any realistic local size; a
    ``y`` holding any non-finite entry fails the check outright (a flip
    can leave both ``+inf`` and ``-inf``, whose sum is an invalid reduce).
    """
    x_full = np.asarray(x_full, dtype=np.float64)
    u = abft_checksum(block) if checksum is None else checksum
    y = block.A_local @ x_full
    if (
        flip_prob > 0.0
        and y.size
        and corrupt_draw(flip_seed, 0xC0DE, block.rank, iteration) < flip_prob
    ):
        y = _inject_compute_flip(y, flip_seed, block.rank, iteration)
    lhs = float(u @ x_full)
    tol = atol + rtol * float(np.abs(u) @ np.abs(x_full))
    if np.isfinite(y).all() and abs(float(np.sum(y)) - lhs) <= tol:
        return y, 0
    # checksum mismatch: silent corruption caught, recompute locally
    return block.A_local @ x_full, 1
