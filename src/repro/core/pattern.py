"""Point-to-point communication patterns (the paper's ``SendSet`` s).

A :class:`CommPattern` is the *input* to both the baseline and the
store-and-forward schemes: for every process ``P_i``, the set of
destination processes and the size (in words) of the message destined
for each.  Internally the pattern is three parallel NumPy arrays
``(src, dst, size)`` — one entry per original message ``m_ij`` — which
keeps million-message patterns cheap to build, slice and route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..arrayops import has_duplicates, read_only, sorted_unique
from ..errors import PlanError

__all__ = ["CommPattern", "PatternDelta", "PatternStats"]

# ranks per _floyd_peers call: bounds its temporaries (~16 int64 words a
# message) without moving the stream, which splits anywhere between ranks
_FLOYD_RANKS = 1 << 14


def _floyd_peers(rng: np.random.Generator, n: int, deg: np.ndarray) -> np.ndarray:
    """``rng.choice(n, d, replace=False)`` for each ``d > 0`` of ``deg``, concatenated.

    Valid while every ``d <= n // 50``: ``choice`` then samples by
    Floyd's algorithm, ``d`` bounded draws on ``[0, j]`` for
    ``j = n-d .. n-1`` where a value already taken becomes ``j``, and
    shuffles the sample by Fisher-Yates, ``d - 1`` bounded draws on
    ``[0, i]`` for ``i = d-1 .. 1``.  Each is the 32-bit Lemire draw
    that ``rng.integers(0, high)`` makes for an array ``high``, so one
    ``integers`` call over every rank's bounds in turn consumes the
    stream exactly as the ``choice`` calls would; the rest is array work.
    """
    d = deg[deg > 0]
    if d.size <= d.max(initial=0):
        # fewer ranks than shuffle steps: the calls cost less than the steps
        return np.concatenate(
            [np.empty(0, dtype=np.int64)] + [rng.choice(n, x, replace=False) for x in d.tolist()]
        )
    # rank t's 2*d[t] - 1 draws: Floyd's d, then the shuffle's d - 1
    seg = 2 * d - 1
    pos = np.arange(seg.sum()) - np.repeat(np.cumsum(seg) - seg, seg)
    dr = np.repeat(d, seg)
    floyd = pos < dr
    draw = rng.integers(0, np.where(floyd, n + 1 - dr + pos, 2 * dr - pos))
    out = draw[floyd]
    swap = draw[~floyd]
    start = np.cumsum(d) - d
    # Floyd's rule changes a rank's sample only if its draws repeat a value
    rank = np.repeat(np.arange(d.size, dtype=np.int64), d)
    key = np.sort(rank * (n + 1) + out)
    for t in sorted_unique(key[1:][key[1:] == key[:-1]] // (n + 1)).tolist():
        taken: set[int] = set()
        for k in range(start[t], start[t] + d[t]):
            v = int(out[k])
            if v in taken:
                v = n - start[t] - d[t] + k
            taken.add(v)
            out[k] = v
    # one vectorized Fisher-Yates step per swap index, over the ranks it reaches
    for i in range(int(d.max()) - 1, 0, -1):
        t = np.flatnonzero(d > i)
        a = start[t] + i
        b = start[t] + swap[start[t] - t + d[t] - 1 - i]
        out[a], out[b] = out[b], out[a]
    return out


@dataclass(frozen=True)
class PatternStats:
    """Per-process message statistics of a pattern (BL / direct view).

    ``mmax``/``mavg`` are the paper's maximum/average *sent* message
    counts; ``vavg`` is the average per-process sent volume in words.
    """

    K: int
    num_messages: int
    total_words: int
    mmax: int
    mavg: float
    vmax: int
    vavg: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PatternStats(K={self.K}, msgs={self.num_messages}, words={self.total_words}, "
            f"mmax={self.mmax}, mavg={self.mavg:.1f}, vmax={self.vmax}, vavg={self.vavg:.1f})"
        )


class CommPattern:
    """A set of point-to-point messages ``{m_ij}`` among ``K`` processes.

    Parameters
    ----------
    K:
        Number of processes.
    src, dst, size:
        Parallel integer arrays; entry ``t`` says process ``src[t]``
        must deliver ``size[t]`` words to process ``dst[t]``.  Self
        messages (``src == dst``) are rejected — a process needs no
        communication to "send" to itself — as are duplicate
        ``(src, dst)`` pairs (merge them upstream with
        :meth:`from_arrays`'s ``merge=True``).
    """

    __slots__ = ("_K", "_src", "_dst", "_size", "_sendset_csr", "_edge_index", "_grouped",
                 "_plan_memo")

    def __init__(
        self,
        K: int,
        src: np.ndarray,
        dst: np.ndarray,
        size: np.ndarray,
    ):
        if K < 1:
            raise PlanError(f"K={K} must be positive")
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        size = np.ascontiguousarray(size, dtype=np.int64)
        if not (src.shape == dst.shape == size.shape) or src.ndim != 1:
            raise PlanError("src, dst, size must be 1-D arrays of equal length")
        if src.size:
            if src.min() < 0 or src.max() >= K or dst.min() < 0 or dst.max() >= K:
                raise PlanError(f"src/dst contain ranks outside [0, {K})")
            if (src == dst).any():
                raise PlanError("pattern contains self messages (src == dst)")
            if size.min() < 0:
                raise PlanError("message sizes must be non-negative")
            key = src * K + dst
            if has_duplicates(key):
                raise PlanError(
                    "pattern contains duplicate (src, dst) pairs; "
                    "merge them with CommPattern.from_arrays(..., merge=True)"
                )
        self._K = int(K)
        self._src = src
        self._dst = dst
        self._size = size
        # lazily-built CSR view grouping messages by sender (sendset())
        self._sendset_csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # lazily-built sorted (src*K + dst) key index (edges())
        self._edge_index: tuple[np.ndarray, np.ndarray] | None = None
        # whether src is non-decreasing (grouped_by_source)
        self._grouped: bool | None = None
        # stage arrays of the plans built for this pattern and the batch
        # engine's schedules of them (PlanBuilder.of); they hold no
        # reference back to the pattern
        self._plan_memo: tuple[dict, dict, dict, dict, dict] | None = None

    @classmethod
    def _trusted(
        cls, K: int, src: np.ndarray, dst: np.ndarray, size: np.ndarray
    ) -> "CommPattern":
        """Construct without re-validation (internal).

        Only for arrays whose invariants are already guaranteed — e.g.
        the output of :meth:`apply_delta`, where survivors were valid
        and additions were checked against the survivor key set.  The
        public constructor's sort-based duplicate scan is the single
        most expensive step of an incremental plan repair, and it would
        re-prove what the delta validation already established.
        """
        obj = cls.__new__(cls)
        obj._K = K
        obj._src = src
        obj._dst = dst
        obj._size = size
        obj._sendset_csr = None
        obj._edge_index = None
        obj._grouped = None
        obj._plan_memo = None
        return obj

    def __reduce__(self):
        # the pattern, not its caches: a used pattern pickles as a fresh one
        return CommPattern._trusted, (self._K, self._src, self._dst, self._size)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        K: int,
        src: Sequence[int] | np.ndarray,
        dst: Sequence[int] | np.ndarray,
        size: Sequence[int] | np.ndarray,
        *,
        merge: bool = False,
        drop_self: bool = False,
    ) -> "CommPattern":
        """Build a pattern from parallel arrays.

        With ``merge=True`` duplicate ``(src, dst)`` entries are summed
        into one message; with ``drop_self=True`` self messages are
        silently removed instead of raising.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        size = np.asarray(size, dtype=np.int64)
        if drop_self:
            keep = src != dst
            src, dst, size = src[keep], dst[keep], size[keep]
        if merge and src.size:
            key = src * np.int64(K) + dst
            uniq, inv = np.unique(key, return_inverse=True)
            size = np.bincount(inv, weights=size, minlength=uniq.size).astype(np.int64)
            src = (uniq // K).astype(np.int64)
            dst = (uniq % K).astype(np.int64)
        return cls(K, src, dst, size)

    @classmethod
    def all_to_all(cls, K: int, words: int = 1) -> "CommPattern":
        """Worst-case pattern of Section 4: everyone sends to everyone.

        Every process sends ``words`` words to each of the other
        ``K - 1`` processes.
        """
        src = np.repeat(np.arange(K, dtype=np.int64), K)
        dst = np.tile(np.arange(K, dtype=np.int64), K)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        size = np.full(src.shape, int(words), dtype=np.int64)
        return cls(K, src, dst, size)

    @classmethod
    def random(
        cls,
        K: int,
        avg_degree: float,
        words: int = 1,
        *,
        hot_processes: int = 0,
        hot_degree: int | None = None,
        seed: int | None = None,
    ) -> "CommPattern":
        """Random sparse pattern, optionally with latency hot-spots.

        Each process sends to ``~avg_degree`` random peers; the first
        ``hot_processes`` processes instead send to ``hot_degree``
        peers (default ``K - 1``), mimicking the dense-row structure of
        the paper's latency-bound instances (Figure 1).

        What a seed means: one ``np.random.default_rng(seed)`` draws the
        degrees ``d = poisson(avg_degree, K).clip(0, K - 1)`` and then,
        in rank order, rank ``r``'s peers as
        ``rng.choice(K - 1, d[r], replace=False)`` with every value
        ``>= r`` shifted up by one past ``r``.  Ranks with
        ``d[r] <= (K - 1) // 50`` (on a large sparse pattern, all but
        the hot spots) are drawn a run of ranks at a time by
        :func:`_floyd_peers`, which consumes the stream exactly as their
        ``choice`` calls would; the others call ``choice`` themselves,
        between the runs.
        """
        if K < 1:
            raise PlanError(f"K={K} must be positive")
        if not 0 <= avg_degree < np.inf:
            raise PlanError(f"avg_degree={avg_degree} must be finite and non-negative")
        if hot_processes < 0:
            raise PlanError(f"hot_processes={hot_processes} must be non-negative")
        if hot_degree is not None and hot_degree < 0:
            raise PlanError(f"hot_degree={hot_degree} must be non-negative")
        rng = np.random.default_rng(seed)
        deg = rng.poisson(avg_degree, size=K).clip(0, K - 1)
        if hot_processes:
            hd = (K - 1) if hot_degree is None else min(int(hot_degree), K - 1)
            deg[:hot_processes] = hd
        n = K - 1
        ptr = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(deg, out=ptr[1:])
        src = np.repeat(np.arange(K, dtype=np.int64), deg)
        dst = np.empty(src.size, dtype=np.int64)
        lo = 0
        for r in [*np.flatnonzero(deg > n // 50).tolist(), K]:
            for a in range(lo, r, _FLOYD_RANKS):
                b = min(a + _FLOYD_RANKS, r)
                dst[ptr[a] : ptr[b]] = _floyd_peers(rng, n, deg[a:b])
            if r < K:
                dst[ptr[r] : ptr[r + 1]] = rng.choice(n, size=deg[r], replace=False)
            lo = r + 1
        dst += dst >= src  # skip self
        size = np.full(src.shape, int(words), dtype=np.int64)
        return cls(K, src, dst, size)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def K(self) -> int:
        """Number of processes."""
        return self._K

    @property
    def src(self) -> np.ndarray:
        """Source rank of each message (read-only view)."""
        v = self._src.view()
        v.flags.writeable = False
        return v

    @property
    def dst(self) -> np.ndarray:
        """Destination rank of each message (read-only view)."""
        v = self._dst.view()
        v.flags.writeable = False
        return v

    @property
    def size(self) -> np.ndarray:
        """Size in words of each message (read-only view)."""
        v = self._size.view()
        v.flags.writeable = False
        return v

    @property
    def num_messages(self) -> int:
        """Total number of original messages ``m_ij``."""
        return int(self._src.size)

    @property
    def total_words(self) -> int:
        """Total payload volume in words."""
        return int(self._size.sum())

    def __len__(self) -> int:
        return self.num_messages

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CommPattern(K={self._K}, messages={self.num_messages})"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def sendset(self, rank: int) -> dict[int, int]:
        """``SendSet(P_rank)`` as a ``{dst: words}`` mapping.

        Backed by a lazily-built CSR view that groups the message
        arrays by sender once; every call after the first is a pair of
        slices instead of a full-array scan.  The stable grouping sort
        preserves each rank's original message order, so the returned
        dict iterates exactly as the uncached implementation did.
        """
        if not 0 <= rank < self._K:
            raise PlanError(f"rank {rank} outside [0, {self._K})")
        csr = self._sendset_csr
        if csr is None:
            order = np.argsort(self._src, kind="stable")
            counts = np.bincount(self._src, minlength=self._K)
            indptr = np.zeros(self._K + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            csr = (indptr, self._dst[order], self._size[order])
            self._sendset_csr = csr
        indptr, dst, size = csr
        lo, hi = indptr[rank], indptr[rank + 1]
        return {int(j): int(w) for j, w in zip(dst[lo:hi], size[lo:hi])}

    def edge_rows(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Row indices of the given ``(src, dst)`` pairs.

        Raises :class:`~repro.errors.PlanError` if any queried pair is
        not a message of this pattern.  Pairs are unique per pattern,
        so the result is a plain index array aligned with the query.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        want = src * np.int64(self._K) + dst
        if want.size == 0:
            return np.empty(0, dtype=np.int64)
        skeys, order = self.edges()
        pos = np.searchsorted(skeys, want)
        if skeys.size:
            bad = skeys[np.minimum(pos, skeys.size - 1)] != want
        else:
            bad = np.ones(want.shape, dtype=bool)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise PlanError(
                f"edge ({int(src[i])} -> {int(dst[i])}) is not in the pattern"
            )
        return order[pos]

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The edge index: the sorted ``src * K + dst`` keys and their rows.

        ``keys[i]`` is the key of row ``order[i]``.  Built once and kept
        (read-only) until the pattern is mutated in place.
        """
        idx = self._edge_index
        if idx is None:
            keys = self._src * np.int64(self._K) + self._dst
            order = np.argsort(keys, kind="stable")
            idx = self._edge_index = read_only(keys[order], order)
        return idx

    @property
    def grouped_by_source(self) -> bool:
        """Whether the rows come grouped by source rank, ascending (kept
        until the pattern is mutated in place)."""
        if self._grouped is None:
            self._grouped = not (self._src[1:] < self._src[:-1]).any()
        return self._grouped

    def sent_counts(self) -> np.ndarray:
        """Messages sent per process under direct (BL) communication."""
        return np.bincount(self._src, minlength=self._K)

    def recv_counts(self) -> np.ndarray:
        """Messages received per process under direct communication."""
        return np.bincount(self._dst, minlength=self._K)

    def sent_words(self) -> np.ndarray:
        """Words sent per process under direct communication."""
        return np.bincount(self._src, weights=self._size, minlength=self._K).astype(np.int64)

    def recv_words(self) -> np.ndarray:
        """Words received per process under direct communication."""
        return np.bincount(self._dst, weights=self._size, minlength=self._K).astype(np.int64)

    def stats(self) -> PatternStats:
        """Direct-communication (BL) statistics of this pattern."""
        sc = self.sent_counts()
        sw = self.sent_words()
        return PatternStats(
            K=self._K,
            num_messages=self.num_messages,
            total_words=self.total_words,
            mmax=int(sc.max(initial=0)),
            mavg=float(sc.mean()) if self._K else 0.0,
            vmax=int(sw.max(initial=0)),
            vavg=float(sw.mean()) if self._K else 0.0,
        )

    # ------------------------------------------------------------------
    # Mutation (dynamic exchange)
    # ------------------------------------------------------------------

    def _invalidate(self) -> None:
        """Drop derived caches after an in-place mutation.

        Every mutation path must route through here: the lazily-built
        CSR sendset index, sorted edge index, source grouping and plan
        memo (and any future derived cache) would silently serve the
        pre-mutation pattern otherwise.
        """
        self._sendset_csr = None
        self._edge_index = None
        self._grouped = None
        self._plan_memo = None

    def apply_delta(
        self,
        delta: "PatternDelta",
        *,
        inplace: bool = False,
        _rows: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> "CommPattern":
        """Apply one epoch of drift; returns the drifted pattern.

        Removals are applied first, then reweights (which must hit
        surviving edges), then additions (which must not duplicate a
        surviving edge — re-adding a pair removed by the same delta is
        a rewire and is allowed).  The result's row order is canonical:
        surviving rows keep their original order and added rows are
        appended in delta order, so an incremental plan repair and a
        from-scratch rebuild see literally the same pattern arrays.

        With ``inplace=True`` this pattern's own arrays are replaced
        and its derived caches (the CSR sendset index and the plan
        memo) invalidated, so a plan built for it before must be built
        again; otherwise a new :class:`CommPattern` is returned and
        ``self`` is untouched.
        """
        if delta.K != self._K:
            raise PlanError(f"delta K={delta.K} does not match pattern K={self._K}")
        K = np.int64(self._K)
        if _rows is not None:
            # caller (the plan-repair path) already resolved the delta's
            # edges against this exact pattern; skip the second lookup
            rem_rows, rw_rows = _rows
        else:
            rem_rows = self.edge_rows(delta.remove_src, delta.remove_dst)
            rw_rows = None
        keep = np.ones(self._src.size, dtype=bool)
        keep[rem_rows] = False
        size = self._size.copy()
        if delta.reweight_src.size:
            rows = (
                rw_rows
                if rw_rows is not None
                else self.edge_rows(delta.reweight_src, delta.reweight_dst)
            )
            if not keep[rows].all():
                i = int(np.flatnonzero(~keep[rows])[0])
                raise PlanError(
                    f"delta reweights edge ({int(delta.reweight_src[i])} -> "
                    f"{int(delta.reweight_dst[i])}) that it also removes"
                )
            size[rows] = delta.reweight_size
        # survivors stay sorted-key indexed; check additions against
        # them here so the result can skip the constructor's full
        # duplicate scan (the delta already proved everything else)
        skeys, order = self.edges()
        skeep = keep[order]
        surv_keys = skeys[skeep]
        add_keys = delta.add_src * K + delta.add_dst
        if add_keys.size and surv_keys.size:
            pos = np.searchsorted(surv_keys, add_keys)
            dup = surv_keys[np.minimum(pos, surv_keys.size - 1)] == add_keys
            if dup.any():
                i = int(np.flatnonzero(dup)[0])
                raise PlanError(
                    f"delta adds edge ({int(delta.add_src[i])} -> "
                    f"{int(delta.add_dst[i])}) that the pattern already has"
                )
        out_src = np.concatenate([self._src[keep], delta.add_src])
        out_dst = np.concatenate([self._dst[keep], delta.add_dst])
        out_size = np.concatenate([size[keep], delta.add_size])
        result = CommPattern._trusted(self._K, out_src, out_dst, out_size)
        # seed the drifted pattern's edge index incrementally: delete
        # removed keys, renumber surviving rows, splice additions — a
        # drift stream then never re-sorts the full key array
        n_surv = out_src.size - delta.add_src.size
        surv_rows = order[skeep]
        if rem_rows.size:
            renumber = np.cumsum(keep) - 1
            surv_rows = renumber[surv_rows]
        if add_keys.size:
            aorder = np.argsort(add_keys, kind="stable")
            ins = np.searchsorted(surv_keys, add_keys[aorder])
            slot = np.zeros(surv_keys.size + add_keys.size, dtype=bool)
            slot[ins + np.arange(add_keys.size)] = True
            new_skeys = np.empty(slot.size, dtype=np.int64)
            new_order = np.empty(slot.size, dtype=np.int64)
            new_skeys[slot] = add_keys[aorder]
            new_skeys[~slot] = surv_keys
            new_order[slot] = n_surv + aorder
            new_order[~slot] = surv_rows
        else:
            new_skeys = surv_keys
            new_order = surv_rows
        result._edge_index = read_only(new_skeys, new_order)
        if not inplace:
            return result
        self._src = result._src
        self._dst = result._dst
        self._size = result._size
        self._invalidate()
        self._edge_index = result._edge_index
        return self


class PatternDelta:
    """One epoch of communication-graph drift against a ``K``-process pattern.

    Three edge lists, all optional and applied in this order by
    :meth:`CommPattern.apply_delta`:

    * ``remove_src/remove_dst`` — existing edges to delete;
    * ``reweight_src/reweight_dst/reweight_size`` — new absolute sizes
      for existing (surviving) edges;
    * ``add_src/add_dst/add_size`` — new edges to append.

    Deltas are plain data: they carry no reference to the pattern they
    were derived from, only its ``K``, so one delta can drive both the
    incremental plan repair and the from-scratch cross-check.
    """

    __slots__ = (
        "_K",
        "_remove_src",
        "_remove_dst",
        "_add_src",
        "_add_dst",
        "_add_size",
        "_reweight_src",
        "_reweight_dst",
        "_reweight_size",
    )

    def __init__(
        self,
        K: int,
        *,
        remove_src=(),
        remove_dst=(),
        add_src=(),
        add_dst=(),
        add_size=(),
        reweight_src=(),
        reweight_dst=(),
        reweight_size=(),
    ):
        if K < 1:
            raise PlanError(f"K={K} must be positive")
        self._K = int(K)

        def _pairs(name: str, s, d) -> tuple[np.ndarray, np.ndarray]:
            s = np.ascontiguousarray(s, dtype=np.int64)
            d = np.ascontiguousarray(d, dtype=np.int64)
            if s.shape != d.shape or s.ndim != 1:
                raise PlanError(f"{name} src/dst must be 1-D arrays of equal length")
            if s.size:
                if s.min() < 0 or s.max() >= K or d.min() < 0 or d.max() >= K:
                    raise PlanError(f"{name} edges contain ranks outside [0, {K})")
                if (s == d).any():
                    raise PlanError(f"{name} edges contain self messages (src == dst)")
                key = s * np.int64(K) + d
                if has_duplicates(key):
                    raise PlanError(f"{name} edges contain duplicate (src, dst) pairs")
            return s, d

        def _sizes(name: str, w, n: int) -> np.ndarray:
            w = np.ascontiguousarray(w, dtype=np.int64)
            if w.ndim != 1 or w.size != n:
                raise PlanError(f"{name} sizes must align with its (src, dst) pairs")
            if w.size and w.min() < 0:
                raise PlanError(f"{name} sizes must be non-negative")
            return w

        self._remove_src, self._remove_dst = _pairs("remove", remove_src, remove_dst)
        self._add_src, self._add_dst = _pairs("add", add_src, add_dst)
        self._add_size = _sizes("add", add_size, self._add_src.size)
        self._reweight_src, self._reweight_dst = _pairs(
            "reweight", reweight_src, reweight_dst
        )
        self._reweight_size = _sizes("reweight", reweight_size, self._reweight_src.size)

    # read-only views, mirroring CommPattern's accessor convention
    def _view(self, a: np.ndarray) -> np.ndarray:
        v = a.view()
        v.flags.writeable = False
        return v

    @property
    def K(self) -> int:
        """Number of processes of the pattern this delta applies to."""
        return self._K

    @property
    def remove_src(self) -> np.ndarray:
        """Source ranks of removed edges (read-only view)."""
        return self._view(self._remove_src)

    @property
    def remove_dst(self) -> np.ndarray:
        """Destination ranks of removed edges (read-only view)."""
        return self._view(self._remove_dst)

    @property
    def add_src(self) -> np.ndarray:
        """Source ranks of added edges (read-only view)."""
        return self._view(self._add_src)

    @property
    def add_dst(self) -> np.ndarray:
        """Destination ranks of added edges (read-only view)."""
        return self._view(self._add_dst)

    @property
    def add_size(self) -> np.ndarray:
        """Sizes in words of added edges (read-only view)."""
        return self._view(self._add_size)

    @property
    def reweight_src(self) -> np.ndarray:
        """Source ranks of reweighted edges (read-only view)."""
        return self._view(self._reweight_src)

    @property
    def reweight_dst(self) -> np.ndarray:
        """Destination ranks of reweighted edges (read-only view)."""
        return self._view(self._reweight_dst)

    @property
    def reweight_size(self) -> np.ndarray:
        """New sizes in words of reweighted edges (read-only view)."""
        return self._view(self._reweight_size)

    @property
    def num_changes(self) -> int:
        """Total edge changes described by this delta."""
        return int(
            self._remove_src.size + self._add_src.size + self._reweight_src.size
        )

    def __len__(self) -> int:
        return self.num_changes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PatternDelta(K={self._K}, remove={self._remove_src.size}, "
            f"add={self._add_src.size}, reweight={self._reweight_src.size})"
        )

    @classmethod
    def random(
        cls,
        pattern: "CommPattern",
        rate: float,
        *,
        seed: int | None = None,
    ) -> "PatternDelta":
        """Seeded drift step touching ``~rate`` of the pattern's edges.

        Changes split roughly one third each into removals, additions
        and reweights, with removal and addition counts balanced so a
        stream of these deltas keeps the edge count stationary.  Added
        edges sample sizes from the pattern's existing size
        distribution; reweights scale an edge by a factor in
        ``[0.5, 2)``.  Deterministic for a given ``(pattern, rate,
        seed)``.

        Up to ``K * K <= 4_000_000`` (K = 2000) added edges are drawn
        from an enumeration of every absent pair, 8 bytes a pair and so
        at most 32 MB; past it, by rejection.  The two draw different
        random streams, so the cut-off is part of what a seed means and
        moving it would change every seeded delta between the old and
        the new value.
        """
        if not 0.0 < rate <= 1.0:
            raise PlanError(f"drift rate {rate} outside (0, 1]")
        K = pattern.K
        M = pattern.num_messages
        if M == 0:
            raise PlanError("cannot drift an empty pattern")
        rng = np.random.default_rng(seed)
        n = max(1, int(round(rate * M)))
        n_rw = n // 3
        n_rem = (n - n_rw) // 2
        n_add = n - n_rw - n_rem
        # removals + reweights are drawn disjointly from existing edges
        n_touch = min(n_rem + n_rw, M)
        touch = rng.choice(M, size=n_touch, replace=False)
        rem_rows = touch[:n_rem]
        rw_rows = touch[n_rem:]
        src, dst, size = pattern.src, pattern.dst, pattern.size
        # additions: sample pairs absent from the pattern (self pairs
        # excluded); re-adding a just-removed pair is a legal rewire,
        # so only the *surviving* key set is off limits
        keys = src * np.int64(K) + dst
        alive = np.delete(keys, rem_rows)
        if K * K <= 4_000_000:
            absent = np.ones(K * K, dtype=bool)
            absent[alive] = False
            absent[:: K + 1] = False  # self pairs
            free = np.flatnonzero(absent)
            n_add = min(n_add, free.size)
            new_keys = rng.choice(free, size=n_add, replace=False)
        else:  # pragma: no cover - large-K fallback
            taken = set(int(k) for k in alive)
            new_keys = []
            while len(new_keys) < n_add:
                s = int(rng.integers(K))
                d = int(rng.integers(K))
                k = s * K + d
                if s == d or k in taken:
                    continue
                taken.add(k)
                new_keys.append(k)
            new_keys = np.asarray(new_keys, dtype=np.int64)
        add_size = (
            rng.choice(size, size=new_keys.size)
            if size.size
            else np.ones(new_keys.size, dtype=np.int64)
        )
        rw_factor = rng.uniform(0.5, 2.0, size=rw_rows.size)
        rw_size = np.maximum((size[rw_rows] * rw_factor).astype(np.int64), 1)
        return cls(
            K,
            remove_src=src[rem_rows],
            remove_dst=dst[rem_rows],
            add_src=new_keys // K,
            add_dst=new_keys % K,
            add_size=add_size,
            reweight_src=src[rw_rows],
            reweight_dst=dst[rw_rows],
            reweight_size=rw_size,
        )
