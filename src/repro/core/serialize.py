"""Saving and loading patterns (.npz).

Real deployments compute the communication pattern once (it depends
only on the partition) and reuse it across runs; these helpers persist
a :class:`~repro.core.pattern.CommPattern` to a single compressed
``.npz`` file and restore it bit-exactly.  The artifact cache
(:mod:`repro.cache`) stores its patterns this way.  Plans have no file
format: ``build_plan(load_pattern(path), vpt)`` rebuilds one faster
than a stored copy loads.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import PlanError
from .pattern import CommPattern

__all__ = ["save_pattern", "load_pattern"]

_PATTERN_MAGIC = "repro-pattern-v1"


def save_pattern(path: str | os.PathLike, pattern: CommPattern) -> None:
    """Write a pattern to ``path`` (compressed npz)."""
    np.savez_compressed(
        os.fspath(path),
        magic=np.array(_PATTERN_MAGIC),
        K=np.array(pattern.K, dtype=np.int64),
        src=pattern.src,
        dst=pattern.dst,
        size=pattern.size,
    )


def load_pattern(path: str | os.PathLike) -> CommPattern:
    """Read a pattern written by :func:`save_pattern`."""
    with np.load(os.fspath(path), allow_pickle=False) as data:
        if "magic" not in data or str(data["magic"]) != _PATTERN_MAGIC:
            raise PlanError(f"{path} is not a repro pattern file")
        return CommPattern(
            int(data["K"]),
            data["src"].copy(),
            data["dst"].copy(),
            data["size"].copy(),
        )
