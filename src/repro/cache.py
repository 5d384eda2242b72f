"""Content-addressed on-disk cache of experiment artifacts.

The expensive steps of every experiment cell — matrix generation, row
partitioning, pattern extraction, plan building — are pure functions of
their inputs.  :class:`ArtifactCache` keys each artifact by the SHA-256
of those inputs (plus the library version and a cache schema tag, so a
code change invalidates everything it might have influenced) and stores
it as a compressed ``.npz`` under ``<root>/<kind>/<key>.npz``, reusing
the :mod:`repro.core.serialize` formats for patterns and plans.

Correctness rules:

* **content addressing** — the key is derived from the *inputs* that
  determine the artifact, never from where or when it was built, so
  cached and freshly-built artifacts are interchangeable (and the test
  suite compares them for equality);
* **corruption safety** — a cache entry that fails to load for any
  reason (truncated file, wrong magic, foreign bytes) is treated as a
  miss: the entry is removed, the artifact rebuilt and re-stored; a
  bad cache can cost time but never wrong results;
* **atomic writes** — entries are written to a temp file and
  ``os.replace``d into place, so concurrent processes sharing one cache
  directory never observe a half-written entry.

The cache directory is resolved by :func:`default_cache_root`
(``$REPRO_CACHE_DIR`` or ``.repro-cache``); ``repro cache stats`` and
``repro cache clear`` operate on it from the CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np
import scipy.sparse as sp

from . import __version__
from .core.pattern import CommPattern
from .core.plan import CommPlan
from .core.serialize import load_pattern, load_plan, save_pattern, save_plan
from .partition.base import Partition

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "default_cache_root",
    "delta_digest",
    "pattern_digest",
]

#: bump to invalidate every existing cache entry on a format change
_SCHEMA = "repro-cache-v1"

_MATRIX_MAGIC = "repro-matrix-v1"
_PARTITION_MAGIC = "repro-partition-v1"

#: artifact kinds, in pipeline order (also the on-disk subdirectories)
_KINDS = ("matrix", "partition", "pattern", "plan")


def default_cache_root() -> str:
    """The cache directory the CLI uses: ``$REPRO_CACHE_DIR`` or
    ``.repro-cache`` in the working directory."""
    return os.environ.get("REPRO_CACHE_DIR") or ".repro-cache"


def _hash_array(h, arr: np.ndarray) -> None:
    """Fold one array into a digest with dtype and length framing.

    Raw ``tobytes()`` concatenation is ambiguous: an ``int32`` array
    has the same byte stream as a half-length ``int64`` one, and
    without a length prefix the boundary between consecutive arrays
    can shift while the concatenation stays identical.  Tagging each
    array with its dtype and byte length makes the encoding injective,
    so two patterns collide only if they are the same pattern.
    """
    a = np.ascontiguousarray(arr)
    tag = a.dtype.str.encode()
    h.update(len(tag).to_bytes(8, "little"))
    h.update(tag)
    h.update(a.nbytes.to_bytes(8, "little"))
    h.update(a.tobytes())


def pattern_digest(pattern: CommPattern) -> str:
    """Content hash of a pattern, for keying artifacts derived from it.

    Plans depend on the pattern's exact messages, not on how the
    pattern was produced — hashing the arrays keeps plan keys correct
    regardless of provenance (generated, loaded, drifted via
    :meth:`~repro.core.pattern.CommPattern.apply_delta`, or handed in
    by a caller).  The pattern's full identity goes into the hash:
    ``K``, and the ``src``/``dst``/``size`` (edge-weight) arrays each
    with dtype + length framing (see :func:`_hash_array`).
    """
    h = hashlib.sha256()
    h.update(b"repro-pattern-digest-v2\0")
    h.update(int(pattern.K).to_bytes(8, "little"))
    _hash_array(h, pattern.src)
    _hash_array(h, pattern.dst)
    _hash_array(h, pattern.size)
    return h.hexdigest()


def delta_digest(delta) -> str:
    """Content hash of a :class:`~repro.core.pattern.PatternDelta`.

    Lets a drift driver key *repaired* plans by
    ``(base pattern digest, delta digest)`` instead of re-digesting the
    drifted pattern's full arrays each epoch — the delta is usually
    orders of magnitude smaller than the pattern it mutates.  Framed
    exactly like :func:`pattern_digest`.
    """
    h = hashlib.sha256()
    h.update(b"repro-delta-digest-v1\0")
    h.update(int(delta.K).to_bytes(8, "little"))
    for arr in (
        delta.remove_src,
        delta.remove_dst,
        delta.add_src,
        delta.add_dst,
        delta.add_size,
        delta.reweight_src,
        delta.reweight_dst,
        delta.reweight_size,
    ):
        _hash_array(h, arr)
    return h.hexdigest()


def _canonical(value: Any) -> Any:
    """Reduce key inputs to deterministic JSON-serializable values."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    return value


def _save_matrix(path: str, A: sp.csr_matrix) -> None:
    np.savez_compressed(
        path,
        magic=np.array(_MATRIX_MAGIC),
        shape=np.array(A.shape, dtype=np.int64),
        indptr=A.indptr,
        indices=A.indices,
        data=A.data,
    )


def _load_matrix(path: str) -> sp.csr_matrix:
    with np.load(path, allow_pickle=False) as d:
        if "magic" not in d or str(d["magic"]) != _MATRIX_MAGIC:
            raise ValueError(f"{path} is not a repro matrix entry")
        return sp.csr_matrix(
            (d["data"].copy(), d["indices"].copy(), d["indptr"].copy()),
            shape=tuple(int(x) for x in d["shape"]),
        )


def _save_partition(path: str, part: Partition) -> None:
    np.savez_compressed(
        path,
        magic=np.array(_PARTITION_MAGIC),
        K=np.array(part.K, dtype=np.int64),
        parts=part.parts,
    )


def _load_partition(path: str) -> Partition:
    with np.load(path, allow_pickle=False) as d:
        if "magic" not in d or str(d["magic"]) != _PARTITION_MAGIC:
            raise ValueError(f"{path} is not a repro partition entry")
        return Partition(d["parts"].copy(), int(d["K"]))


@dataclass
class CacheStats:
    """Disk contents plus this session's hit/miss counters."""

    root: str
    version: str
    #: kind -> (entry count, total bytes) currently on disk
    entries: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: kind -> loads served from disk this session
    hits: dict[str, int] = field(default_factory=dict)
    #: kind -> rebuilds this session
    misses: dict[str, int] = field(default_factory=dict)

    @property
    def total_entries(self) -> int:
        """Entries on disk across all kinds."""
        return sum(n for n, _ in self.entries.values())

    @property
    def total_bytes(self) -> int:
        """Bytes on disk across all kinds."""
        return sum(b for _, b in self.entries.values())

    @property
    def hit_rate(self) -> float:
        """Session hits / (hits + misses); 0.0 before any lookup."""
        h = sum(self.hits.values())
        m = sum(self.misses.values())
        return h / (h + m) if h + m else 0.0


class ArtifactCache:
    """Content-addressed artifact store rooted at one directory.

    ``tracer`` is an optional :class:`repro.obs.Tracer`; lookups are
    additionally recorded as ``cache.hits`` / ``cache.misses`` counters
    (labelled by kind).
    """

    def __init__(self, root: str | os.PathLike, *, tracer=None):
        self.root = os.fspath(root)
        self.version = __version__
        self.tracer = tracer
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------

    def key(self, kind: str, inputs: Mapping[str, Any]) -> str:
        """The content key of one artifact: SHA-256 over kind, schema,
        library version and the canonicalized inputs."""
        doc = {
            "kind": kind,
            "schema": _SCHEMA,
            "version": self.version,
            "inputs": _canonical(inputs),
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def path(self, kind: str, key: str) -> str:
        """On-disk location of one entry."""
        return os.path.join(self.root, kind, f"{key}.npz")

    # ------------------------------------------------------------------
    # Typed fetch-or-build entry points
    # ------------------------------------------------------------------

    def matrix(self, inputs: Mapping[str, Any], build: Callable[[], sp.csr_matrix]) -> sp.csr_matrix:
        """A generated matrix, keyed by its generator inputs."""
        return self._fetch("matrix", inputs, build, _save_matrix, _load_matrix)

    def partition(self, inputs: Mapping[str, Any], build: Callable[[], Partition]) -> Partition:
        """A row partition, keyed by matrix identity + partitioner inputs."""
        return self._fetch("partition", inputs, build, _save_partition, _load_partition)

    def pattern(self, inputs: Mapping[str, Any], build: Callable[[], CommPattern]) -> CommPattern:
        """A communication pattern (stored via :mod:`repro.core.serialize`)."""
        return self._fetch("pattern", inputs, build, save_pattern, load_pattern)

    def plan(self, inputs: Mapping[str, Any], build: Callable[[], CommPlan]) -> CommPlan:
        """A built plan (stored via :mod:`repro.core.serialize`)."""
        return self._fetch("plan", inputs, build, save_plan, load_plan)

    # ------------------------------------------------------------------
    # Core machinery
    # ------------------------------------------------------------------

    def _record(self, kind: str, *, hit: bool) -> None:
        book = self.hits if hit else self.misses
        book[kind] = book.get(kind, 0) + 1
        tracer = self.tracer
        if tracer is not None and getattr(tracer, "enabled", False):
            tracer.count("cache.hits" if hit else "cache.misses", 1, kind=kind)

    def _fetch(self, kind, inputs, build, save, load):
        path = self.path(kind, self.key(kind, inputs))
        if os.path.exists(path):
            try:
                value = load(path)
            except Exception:
                # corrupt entry: drop it and fall through to a rebuild
                try:
                    os.remove(path)
                except OSError:
                    pass
            else:
                self._record(kind, hit=True)
                return value
        self._record(kind, hit=False)
        value = build()
        self._store(path, value, save)
        return value

    def _store(self, path: str, value, save) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # temp name keeps the .npz suffix (np.savez appends it otherwise)
        tmp = os.path.join(
            os.path.dirname(path), f".tmp-{os.getpid()}-{os.path.basename(path)}"
        )
        try:
            save(tmp, value)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                try:
                    os.remove(tmp)
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def stats(self) -> CacheStats:
        """Scan the cache directory and report entries, bytes, hits."""
        entries: dict[str, tuple[int, int]] = {}
        for kind in _KINDS:
            d = os.path.join(self.root, kind)
            if not os.path.isdir(d):
                continue
            count = size = 0
            for fname in os.listdir(d):
                if fname.endswith(".npz") and not fname.startswith(".tmp-"):
                    count += 1
                    try:
                        size += os.path.getsize(os.path.join(d, fname))
                    except OSError:
                        pass
            if count:
                entries[kind] = (count, size)
        return CacheStats(
            root=self.root,
            version=self.version,
            entries=entries,
            hits=dict(self.hits),
            misses=dict(self.misses),
        )

    def clear(self) -> int:
        """Remove every entry (and stale temp file); returns the count
        of entries removed."""
        removed = 0
        for kind in _KINDS:
            d = os.path.join(self.root, kind)
            if not os.path.isdir(d):
                continue
            for fname in os.listdir(d):
                if not fname.endswith(".npz"):
                    continue
                try:
                    os.remove(os.path.join(d, fname))
                except OSError:
                    continue
                if not fname.startswith(".tmp-"):
                    removed += 1
        return removed
