"""Virtual process topology (VPT) — Section 2 of the paper.

A :class:`VirtualProcessTopology` organizes ``K`` processes into an
``n``-dimensional structure ``T_n(k_1, ..., k_n)`` with
``K = k_1 * k_2 * ... * k_n``.  Each process rank is identified by a
mixed-radix coordinate vector; two processes are *neighbors* iff their
coordinates differ in exactly one dimension.  Unlike a k-ary n-cube,
every pair of processes in the same 1-D group is directly connected
("completely connected" groups), so a process has ``k_d - 1`` neighbors
in dimension ``d``.

Conventions
-----------
* Dimensions are 0-based: dimension ``d`` (``0 <= d < n``) is the
  dimension whose messages are exchanged in communication stage ``d``.
  The paper's dimension 1 (first stage) is our dimension 0.
* Ranks are encoded mixed-radix with dimension 0 as the least
  significant digit::

      rank = c[0] + k_0 * (c[1] + k_1 * (c[2] + ...))

  which makes "replace the low-order digits" — the core of
  dimension-ordered routing — a pair of vectorized modulo operations.

All coordinate/neighbor queries have vectorized (NumPy array) variants
so that plan-level simulation scales to tens of thousands of ranks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import TopologyError

__all__ = ["VirtualProcessTopology"]


class VirtualProcessTopology:
    """An ``n``-dimensional virtual process topology ``T_n(k_1..k_n)``.

    Parameters
    ----------
    dim_sizes:
        Sequence of per-dimension sizes ``(k_0, ..., k_{n-1})``; every
        size must be at least 2 (a size-1 dimension adds a stage in
        which nothing can ever be communicated).  The one exception is
        ``(1,)``, the flat topology ``T_1`` of a single process.  The
        number of processes is ``K = prod(dim_sizes)``.

    Examples
    --------
    >>> vpt = VirtualProcessTopology((4, 4, 4))
    >>> vpt.K, vpt.n
    (64, 3)
    >>> vpt.coords(0)
    (0, 0, 0)
    >>> sorted(vpt.neighbors(0, 1))
    [4, 8, 12]
    """

    __slots__ = ("_dim_sizes", "_weights", "_K")

    def __init__(self, dim_sizes: Sequence[int]):
        sizes = tuple(int(k) for k in dim_sizes)
        if len(sizes) == 0:
            raise TopologyError("a VPT needs at least one dimension")
        for d, k in enumerate(sizes):
            if k < 2 and sizes != (1,):
                raise TopologyError(
                    f"dimension {d} has size {k}; every dimension size must be >= 2 "
                    "(only the one-process T_1 may have size 1)"
                )
        self._dim_sizes = sizes
        # _weights[d] = product of sizes of dimensions < d; the place
        # value of digit d in the mixed-radix rank encoding.
        # _weights has n+1 entries; _weights[n] == K.
        weights = [1]
        for k in sizes:
            weights.append(weights[-1] * k)
        self._weights = tuple(weights)
        self._K = weights[-1]

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def dim_sizes(self) -> tuple[int, ...]:
        """Per-dimension sizes ``(k_0, ..., k_{n-1})``."""
        return self._dim_sizes

    @property
    def n(self) -> int:
        """Number of dimensions (= number of communication stages)."""
        return len(self._dim_sizes)

    @property
    def K(self) -> int:
        """Total number of processes in the topology."""
        return self._K

    @property
    def weights(self) -> tuple[int, ...]:
        """Mixed-radix place values; ``weights[d] = k_0 * ... * k_{d-1}``."""
        return self._weights

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = ", ".join(str(k) for k in self._dim_sizes)
        return f"VirtualProcessTopology(({dims}))"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VirtualProcessTopology):
            return NotImplemented
        return self._dim_sizes == other._dim_sizes

    def __hash__(self) -> int:
        return hash(self._dim_sizes)

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self._K:
            raise TopologyError(f"rank {rank} outside [0, {self._K})")

    def _check_dim(self, d: int) -> None:
        if not 0 <= d < self.n:
            raise TopologyError(f"dimension {d} outside [0, {self.n})")

    def coords(self, rank: int) -> tuple[int, ...]:
        """Mixed-radix coordinates ``(c_0, ..., c_{n-1})`` of ``rank``."""
        self._check_rank(rank)
        out = []
        r = int(rank)
        for k in self._dim_sizes:
            out.append(r % k)
            r //= k
        return tuple(out)

    def coords_array(self, ranks: np.ndarray | Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`coords`: shape ``(len(ranks), n)`` int64 array."""
        r = np.asarray(ranks, dtype=np.int64)
        if r.size and (r.min() < 0 or r.max() >= self._K):
            raise TopologyError("rank array contains out-of-range ranks")
        out = np.empty(r.shape + (self.n,), dtype=np.int64)
        for d, k in enumerate(self._dim_sizes):
            out[..., d] = (r // self._weights[d]) % k
        return out

    def rank_of(self, coords: Sequence[int]) -> int:
        """Inverse of :meth:`coords`."""
        if len(coords) != self.n:
            raise TopologyError(
                f"coordinate vector has {len(coords)} entries, expected {self.n}"
            )
        rank = 0
        for d, (c, k) in enumerate(zip(coords, self._dim_sizes)):
            if not 0 <= c < k:
                raise TopologyError(f"coordinate {c} outside [0, {k}) in dimension {d}")
            rank += int(c) * self._weights[d]
        return rank

    def rank_of_array(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rank_of` for an ``(m, n)`` coordinate array."""
        c = np.asarray(coords, dtype=np.int64)
        if c.shape[-1] != self.n:
            raise TopologyError(
                f"coordinate array has trailing dimension {c.shape[-1]}, expected {self.n}"
            )
        w = np.asarray(self._weights[: self.n], dtype=np.int64)
        return (c * w).sum(axis=-1)

    def digit(self, rank: int, d: int) -> int:
        """Coordinate of ``rank`` in dimension ``d`` (scalar fast path)."""
        self._check_rank(rank)
        self._check_dim(d)
        return (rank // self._weights[d]) % self._dim_sizes[d]

    def digit_array(self, ranks: np.ndarray, d: int) -> np.ndarray:
        """Vectorized :meth:`digit`."""
        self._check_dim(d)
        r = np.asarray(ranks, dtype=np.int64)
        return (r // self._weights[d]) % self._dim_sizes[d]

    # ------------------------------------------------------------------
    # Neighborhood (Section 2: v(P_i, d))
    # ------------------------------------------------------------------

    def neighbors(self, rank: int, d: int) -> list[int]:
        """The ``k_d - 1`` neighbors of ``rank`` in dimension ``d``.

        These are all processes whose coordinates equal ``rank``'s in
        every dimension except ``d`` — the paper's ``v(P_i, d)``.
        """
        self._check_rank(rank)
        self._check_dim(d)
        w = self._weights[d]
        k = self._dim_sizes[d]
        own = (rank // w) % k
        base = rank - own * w
        return [base + c * w for c in range(k) if c != own]

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------

    def hamming(self, i: int, j: int) -> int:
        """Number of coordinates in which ``i`` and ``j`` differ.

        This equals the number of times a submessage from ``i`` to
        ``j`` is communicated under dimension-ordered store-and-forward
        routing.
        """
        self._check_rank(i)
        self._check_rank(j)
        count = 0
        for d in range(self.n):
            if self.digit(i, d) != self.digit(j, d):
                count += 1
        return count

    def hamming_array(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`hamming` over paired rank arrays."""
        s = np.asarray(src, dtype=np.int64)
        t = np.asarray(dst, dtype=np.int64)
        out = np.zeros(np.broadcast(s, t).shape, dtype=np.int64)
        for d in range(self.n):
            out += self.digit_array(s, d) != self.digit_array(t, d)
        return out

    def first_diff_dim(self, i: int, j: int) -> int:
        """Smallest dimension in which ``i`` and ``j`` differ.

        This is the first stage in which a submessage from ``i`` to
        ``j`` is communicated (Algorithm 1, line 5).  Raises if
        ``i == j``.
        """
        self._check_rank(i)
        self._check_rank(j)
        for d in range(self.n):
            if self.digit(i, d) != self.digit(j, d):
                return d
        raise TopologyError(f"ranks are identical ({i}); no differing dimension")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    def is_flat(self) -> bool:
        """True iff this is ``T_1`` — direct all-pairs communication (BL)."""
        return self.n == 1

    def max_message_count_bound(self) -> int:
        """Upper bound ``sum_d (k_d - 1)`` on per-process sent messages."""
        return sum(k - 1 for k in self._dim_sizes)
