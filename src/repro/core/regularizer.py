"""The library's front door: the paper's "black-box" communication call.

Section 2.2: *"We consider this as a black-box operation called by each
process, which simply provides their data to be sent along with the
VPT ... which then handles the communication by taking the process
topology into account."*

:class:`Regularizer` is that black box from the whole-system view: give
it the message pattern (who sends how much to whom) and a VPT dimension
and it owns everything downstream — topology formation (Section 5),
optional volume-aware process mapping (Section 8), the Algorithm 1 plan
build, metric collection, machine timing, and emulated execution with
real payloads.  It also amortizes setup across repeated exchanges, the
way a persistent-pattern SpMV reuses one plan for its hundred timed
iterations.

>>> from repro import CommPattern
>>> from repro.core import Regularizer
>>> pattern = CommPattern.random(64, avg_degree=4, hot_processes=2, seed=0)
>>> reg = Regularizer(pattern, dimension=3)
>>> reg.stats().mmax <= reg.vpt.max_message_count_bound()
True
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import PlanError
from ..metrics.collect import CommStats, collect_stats, scheme_name
from .dimensioning import make_vpt, valid_dimensions
from .mapping import apply_mapping, locality_vpt_mapping
from .pattern import CommPattern
from .plan import CommPlan, build_plan
from .stfw import ExchangeResult, run_exchange
from .vpt import VirtualProcessTopology

__all__ = ["Regularizer"]


class Regularizer:
    """Regularize one point-to-point pattern on a virtual process topology.

    Parameters
    ----------
    pattern:
        The messages to deliver.
    dimension:
        VPT dimension ``n``; 1 reproduces the direct baseline.  Mutually
        exclusive with ``vpt``.
    vpt:
        An explicit topology (e.g. a non-uniform factorization).
    remap:
        Apply the Section 8 volume-aware process-to-VPT mapping before
        planning: ``True`` or ``"rcm"`` uses the RCM-over-communication-
        graph placement.  :attr:`position` records where each process
        sits.
    header_words:
        Per-submessage framing charge (see :func:`repro.core.plan.build_plan`).
    """

    def __init__(
        self,
        pattern: CommPattern,
        *,
        dimension: int | None = None,
        vpt: VirtualProcessTopology | None = None,
        remap: bool | str = False,
        header_words: int = 0,
    ):
        if (dimension is None) == (vpt is None):
            raise PlanError("give exactly one of dimension= or vpt=")
        if vpt is None:
            vpt = make_vpt(pattern.K, int(dimension))
        if vpt.K != pattern.K:
            raise PlanError(f"vpt has K={vpt.K}, pattern has K={pattern.K}")

        self.original_pattern = pattern
        self.vpt = vpt
        if remap:
            if remap not in (True, "rcm"):
                raise PlanError(f"unknown remap mode {remap!r}")
            self.position = locality_vpt_mapping(pattern)
            self.pattern = apply_mapping(pattern, self.position)
        else:
            self.position = np.arange(pattern.K, dtype=np.int64)
            self.pattern = pattern
        #: whether ranks are renumbered at all: payloads and deliveries
        #: pass through untranslated when they are not
        self._renumbered = not np.array_equal(self.position, np.arange(pattern.K))
        self._plan = build_plan(self.pattern, vpt, header_words=header_words)
        self._header_words = header_words

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def K(self) -> int:
        """Number of processes."""
        return self.pattern.K

    @property
    def plan(self) -> CommPlan:
        """The Algorithm 1 schedule (built once, reused per exchange)."""
        return self._plan

    @property
    def is_baseline(self) -> bool:
        """True for the 1-dimensional (direct / BL) configuration."""
        return self.vpt.is_flat()

    def stats(self) -> CommStats:
        """The paper's machine-independent metrics of this configuration."""
        return collect_stats(self._plan)

    def time_on(self, machine, **kwargs) -> float:
        """Communication time (us) under a machine model.

        Keyword arguments are forwarded to
        :func:`repro.network.timing.time_plan`.
        """
        from ..network.timing import time_plan

        return time_plan(self._plan, machine, **kwargs).total_us

    @classmethod
    def sweep(
        cls,
        pattern: CommPattern,
        *,
        dimensions: Sequence[int] | None = None,
        **kwargs,
    ) -> dict[int, "Regularizer"]:
        """One configured :class:`Regularizer` per VPT dimension.

        ``dimensions`` defaults to every valid dimension ``1..lg2 K``.
        """
        dims = dimensions if dimensions is not None else valid_dimensions(pattern.K)
        return {int(n): cls(pattern, dimension=int(n), **kwargs) for n in dims}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Regularizer({scheme_name(self.vpt.n)}, K={self.K}, dims={self.vpt.dim_sizes})"

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def exchange(
        self,
        payloads: Sequence[Mapping[int, Any]] | None = None,
        *,
        machine=None,
        trace: bool = False,
        tracer=None,
    ) -> ExchangeResult:
        """Deliver payloads through the topology on the MPI emulator.

        ``payloads[i]`` maps destination to a sized payload object for
        process ``i`` (defaults to synthetic verifiable arrays matching
        the pattern).  Payload keys refer to the *original* process
        numbering; with ``remap=True`` they are translated internally.
        Returns deliveries indexed by original process ids as well.
        An optional :class:`repro.obs.Tracer` collects stage spans and
        message counters for the run.
        """
        if payloads is not None and self._renumbered:
            payloads = self._translate(payloads)
        result = run_exchange(
            self.pattern,
            plan=self._plan,
            payloads=payloads,
            machine=machine,
            header_words=self._header_words,
            trace=trace,
            tracer=tracer,
        )
        return self._untranslate(result)

    def _translate(self, payloads):
        pos = self.position
        out: list[dict[int, Any]] = [dict() for _ in range(self.K)]
        for i, mapping in enumerate(payloads):
            slot = int(pos[i])
            for dst, payload in mapping.items():
                out[slot][int(pos[dst])] = payload
        return out

    def _untranslate(self, result: ExchangeResult) -> ExchangeResult:
        if not self._renumbered:
            return result
        inverse = np.empty(self.K, dtype=np.int64)
        inverse[self.position] = np.arange(self.K, dtype=np.int64)
        delivered = [
            [(int(inverse[src]), payload) for src, payload in result.delivered[self.position[i]]]
            for i in range(self.K)
        ]
        return ExchangeResult(delivered=delivered, run=result.run, plan=result.plan)
