"""Shared configuration for the paper-reproduction experiments.

The paper's matrices reach 32M nonzeros and its runs reach 16K
processes; a pure-Python reproduction regenerates every table/figure at
a configurable *matrix scale* (default 1/4 linear size; the plan-level
process counts are always the paper's).  ``ExperimentConfig.full()``
restores scale 1.  The environment variable ``REPRO_SCALE`` overrides
the default scale for the benchmark harness, e.g.::

    REPRO_SCALE=1.0 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from ..errors import ExperimentError

__all__ = ["ExperimentConfig", "default_config", "quick_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment module.

    Attributes
    ----------
    scale:
        Linear matrix-size scale relative to Table 1 (1.0 = paper
        size).  Process counts are never scaled.
    min_rows_per_part:
        Instances are upscaled if needed so every process owns at
        least this many rows (``human_gene2`` has fewer rows than 16K
        processes at scale 1).
    nnz_budget:
        Cap on generated nonzeros per instance; the average degree is
        reduced to fit (documented per run).  ``None`` disables.
    partitioner:
        Row partitioner for pattern extraction.
    seed:
        Base RNG seed (instance generation derives per-name seeds).
    """

    scale: float = 0.25
    min_rows_per_part: int = 2
    nnz_budget: int | None = 6_000_000
    partitioner: str = "rcm"
    seed: int = 0
    #: cap, in units of rows-per-part, on the generator's locality
    #: window at large K: a row's regular (non-dense) neighborhood
    #: spans at most this many partition blocks.  Real partitioned
    #: matrices show slowly-growing average message counts (Table 3:
    #: mavg 123 -> 137 from 8K to 16K); an uncapped window would make
    #: mavg grow linearly with K.  Only binds for K above ~1K; 150
    #: blocks reproduces Table 3's mavg regime (~100-140 at 8K-16K).
    spread_blocks: int = 150

    def __post_init__(self):
        if self.scale <= 0:
            raise ExperimentError(f"scale={self.scale} must be positive")
        if self.min_rows_per_part < 1:
            raise ExperimentError("min_rows_per_part must be >= 1")
        if self.nnz_budget is not None and self.nnz_budget < 1000:
            raise ExperimentError("nnz_budget too small to be meaningful")
        if self.spread_blocks < 1:
            raise ExperimentError("spread_blocks must be >= 1")

    @classmethod
    def full(cls) -> "ExperimentConfig":
        """Paper-size matrices, no nnz budget."""
        return cls(scale=1.0, nnz_budget=None)

    def with_scale(self, scale: float) -> "ExperimentConfig":
        """Copy with a different matrix scale."""
        return replace(self, scale=scale)


def default_config() -> ExperimentConfig:
    """The default config, honoring the ``REPRO_SCALE`` env variable."""
    env = os.environ.get("REPRO_SCALE")
    cfg = ExperimentConfig()
    if env:
        try:
            cfg = cfg.with_scale(float(env))
        except ValueError as exc:
            raise ExperimentError(f"bad REPRO_SCALE={env!r}") from exc
    return cfg


def quick_config() -> ExperimentConfig:
    """A fast config for CI/benchmark smoke runs (tiny matrices)."""
    return ExperimentConfig(scale=0.05, nnz_budget=800_000)
