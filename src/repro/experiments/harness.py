"""Shared experiment machinery: instance cache and the cell runner.

Every experiment walks the same pipeline — generate instance, partition
rows, extract SpMV pattern, build per-dimension plans, time them on a
machine.  The harness caches the expensive steps (matrix generation and
the partitioner's row ordering) so the figure/table modules stay a few
lines each, and papers over the scale adjustments documented in
:mod:`repro.experiments.config`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._lazy import lazy_module
from ..cache import ArtifactCache
from ..core.pattern import CommPattern
from ..errors import ExperimentError
from ..matrices.generators import generate_matrix
from ..matrices.suite import SUITE, MatrixSpec
from ..network.machines import Machine
from ..partition.base import Partition
from ..partition.rcm import rcm_order
from ..partition.simple import balanced_blocks_from_order, block_partition, random_partition
from ..spmv.driver import SpMVExperiment, run_spmv_schemes
from ..spmv.pattern import spmv_pattern
from .config import ExperimentConfig

sp = lazy_module("scipy.sparse")

__all__ = ["InstanceCache", "effective_spec", "paper_dim_selection"]


def effective_spec(name: str, K: int, cfg: ExperimentConfig) -> MatrixSpec:
    """The instance spec actually generated for a (matrix, K) cell.

    Applies, in order: the config's linear ``scale``; an upscale floor
    so every process owns at least ``min_rows_per_part`` rows; the
    ``nnz_budget`` cap, which shrinks the average degree (never the row
    count).  Returned specs are what EXPERIMENTS.md documents per run.
    """
    base = SUITE[name] if name in SUITE else None
    if base is None:
        raise ExperimentError(f"unknown instance {name!r}")
    scale = cfg.scale
    need = cfg.min_rows_per_part * K
    if base.n * scale < need:
        scale = need / base.n
    s = base.scaled(scale)
    # cap the locality window at `spread_blocks` partition blocks so
    # large-K average message counts stay in the paper's regime (see
    # ExperimentConfig.spread_blocks); only binds above K ~ 1K
    loc_cap = 1.0 - cfg.spread_blocks / K
    if loc_cap > s.locality:
        s = MatrixSpec(
            name=s.name,
            kind=s.kind,
            n=s.n,
            nnz=s.nnz,
            max_degree=s.max_degree,
            cv=s.cv,
            maxdr=s.maxdr,
            locality=loc_cap,
            dense_rows=s.dense_rows,
        )
    if cfg.nnz_budget is not None and s.nnz > cfg.nnz_budget:
        avg = max(cfg.nnz_budget / s.n, 2.0)
        nnz = int(avg * s.n)
        max_degree = min(s.max_degree, s.n)
        s = MatrixSpec(
            name=s.name,
            kind=s.kind,
            n=s.n,
            nnz=max(nnz, s.n),
            max_degree=max(min(max_degree, s.n), int(2 * avg) + 2),
            cv=s.cv,
            maxdr=s.maxdr,
            locality=s.locality,
            dense_rows=s.dense_rows,
        )
    return s


@dataclass
class _CacheEntry:
    spec: MatrixSpec
    matrix: sp.csr_matrix
    order: np.ndarray | None = None


class InstanceCache:
    """Process-wide cache of generated instances and partitioner state.

    Keyed by the *effective* spec, so two (K, scale) cells that resolve
    to the same generated instance share one matrix and one RCM
    ordering; per-K partitions are cheap cuts of that ordering.
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        *,
        tracer=None,
        artifacts: ArtifactCache | None = None,
    ):
        self.cfg = cfg
        #: optional repro.obs tracer; pipeline steps get wall-clock
        #: spans on the "host" track
        self.tracer = tracer
        self._obs = tracer if (tracer is not None and tracer.enabled) else None
        #: optional on-disk artifact cache; when present, matrices,
        #: partitions and patterns are fetched by content key before
        #: being rebuilt (plans are always built, from the pattern)
        self.artifacts = artifacts
        if artifacts is not None and artifacts.tracer is None:
            artifacts.tracer = tracer
        self._entries: dict[MatrixSpec, _CacheEntry] = {}
        self._patterns: dict[tuple, CommPattern] = {}
        self._partitions: dict[tuple, Partition] = {}

    def _span(self, step: str, **labels):
        if self._obs is None:
            from contextlib import nullcontext

            return nullcontext()
        return self._obs.span(f"harness.{step}", track="host", cat="harness", **labels)

    def _matrix_inputs(self, s: MatrixSpec, seed: int) -> dict:
        """Artifact-cache key inputs that fully determine a generated
        matrix (and, with K/partitioner appended, everything downstream)."""
        return {
            "name": s.name,
            "n": s.n,
            "nnz": s.nnz,
            "max_degree": s.max_degree,
            "cv": s.cv,
            "locality": s.locality,
            "dense_rows": s.dense_rows,
            "seed": seed,
        }

    def _gen_seed(self, name: str) -> int:
        seed = self.cfg.seed * 7919 + sum(
            ord(c) * 131**i for i, c in enumerate(name)
        ) % (2**31)
        return seed % (2**31)

    def _entry(self, name: str, K: int) -> _CacheEntry:
        s = effective_spec(name, K, self.cfg)
        if s not in self._entries:
            seed = self._gen_seed(name)

            def build() -> sp.csr_matrix:
                with self._span("generate", instance=s.name, n=s.n, nnz=s.nnz):
                    return generate_matrix(
                        s.n,
                        s.nnz,
                        s.max_degree,
                        s.cv,
                        locality=s.locality,
                        dense_rows=s.dense_rows,
                        seed=seed,
                    )

            if self.artifacts is not None:
                A = self.artifacts.matrix(self._matrix_inputs(s, seed), build)
            else:
                A = build()
            self._entries[s] = _CacheEntry(spec=s, matrix=A)
        return self._entries[s]

    def matrix(self, name: str, K: int) -> sp.csr_matrix:
        """The generated matrix for a (name, K) cell."""
        return self._entry(name, K).matrix

    def spec(self, name: str, K: int) -> MatrixSpec:
        """The effective spec for a (name, K) cell."""
        return self._entry(name, K).spec

    def partition(self, name: str, K: int) -> Partition:
        """Row partition for a (name, K) cell, ordering cached per matrix."""
        entry = self._entry(name, K)
        pkey = (entry.spec, K, self.cfg.partitioner)
        if pkey in self._partitions:
            return self._partitions[pkey]
        A = entry.matrix
        kind = self.cfg.partitioner

        def build() -> Partition:
            with self._span("partition", instance=name, K=K, partitioner=kind):
                if kind == "rcm":
                    if entry.order is None:
                        entry.order = rcm_order(A)
                    weights = np.maximum(np.diff(A.indptr).astype(np.float64), 1.0)
                    return balanced_blocks_from_order(entry.order, K, weights)
                if kind == "block":
                    return block_partition(A.shape[0], K)
                if kind == "random":
                    return random_partition(A.shape[0], K, seed=self.cfg.seed)
                from ..spmv.driver import partition_matrix

                return partition_matrix(A, K, partitioner=kind, seed=self.cfg.seed)

        if self.artifacts is not None:
            part = self.artifacts.partition(self._stage_inputs(entry, name, K), build)
        else:
            part = build()
        self._partitions[pkey] = part
        return part

    def _stage_inputs(self, entry: _CacheEntry, name: str, K: int) -> dict:
        """Key inputs of the per-(matrix, K) pipeline stages."""
        inputs = self._matrix_inputs(entry.spec, self._gen_seed(name))
        inputs["K"] = K
        inputs["partitioner"] = self.cfg.partitioner
        inputs["part_seed"] = self.cfg.seed
        return inputs

    def pattern(self, name: str, K: int) -> CommPattern:
        """SpMV communication pattern for a (name, K) cell."""
        entry = self._entry(name, K)
        key = (entry.spec, K, self.cfg.partitioner)
        if key not in self._patterns:

            def build() -> CommPattern:
                with self._span("pattern", instance=name, K=K):
                    return spmv_pattern(entry.matrix, self.partition(name, K))

            if self.artifacts is not None:
                pat = self.artifacts.pattern(self._stage_inputs(entry, name, K), build)
            else:
                pat = build()
            self._patterns[key] = pat
        return self._patterns[key]

    def cell(
        self,
        name: str,
        K: int,
        machine: Machine,
        dims=None,
    ) -> SpMVExperiment:
        """Run all schemes of one (matrix, K, machine) experiment cell."""
        with self._span("cell", instance=name, K=K, machine=machine.name):
            return run_spmv_schemes(
                self.matrix(name, K),
                K,
                machine,
                dims=dims,
                name=name,
                partition=self.partition(name, K),
                pattern=self.pattern(name, K),
            )

    def cells(
        self,
        requests: "list[tuple]",
        *,
        jobs: int = 1,
    ) -> list[SpMVExperiment]:
        """Run many experiment cells, in request order.

        ``requests`` is a list of ``(name, K, machine)`` or
        ``(name, K, machine, dims)`` tuples.  The list holds every
        cell's plans at once; a sweep that reduces each cell should
        loop over :meth:`cell` instead.  ``jobs`` is accepted only as
        1 (the benchmark passes it) and goes with ROADMAP item 1.
        """
        if jobs != 1:
            raise ExperimentError(
                f"jobs={jobs}: cells run in one process; the keyword is kept "
                "only as jobs=1 until ROADMAP item 1 drops it"
            )
        return [self.cell(*req) for req in requests]


def paper_dim_selection(K: int) -> list[int]:
    """Section 6.5's seven VPT dimensions for large-scale runs.

    The lowest three (2, 3, 4), the middle two
    (``lg2(K)/2 + 1``, ``lg2(K)/2 + 2``) and the highest two
    (``lg2(K) - 1``, ``lg2(K)``), deduplicated and sorted.
    """
    lg = int(np.log2(K))
    if 2**lg != K:
        raise ExperimentError(f"K={K} must be a power of two")
    mid = lg // 2
    dims = {2, 3, 4, mid + 1, mid + 2, lg - 1, lg}
    return sorted(d for d in dims if 2 <= d <= lg)
