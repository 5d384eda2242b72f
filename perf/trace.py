"""The benchmark's own span recorder.

Nothing inside ``src/`` is edited: ``installed`` replaces each name in
``POINTS`` at the place its callers look it up, for as long as the
``with`` block lasts, and puts the original back afterwards.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from time import perf_counter


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root
    op: int | str  # timed op number, or "setup" / "extra"


class Recorder:
    """Spans of one traced run; ``op`` labels the ones opened from now on."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | str = "setup"
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, layer, perf_counter(), 0.0, parent, self.op))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = perf_counter()
            self._open.pop()

    def ledger(self, op: int | str) -> dict[str, tuple[float, int]]:
        """``{span name: (self seconds, calls)}`` over the spans of one op.

        Self time is a span's duration minus its direct children's, so
        the self times of an op add up to what its root spans cover.
        """
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span.op != op:
                continue
            dur = span.end - span.start
            self_s[span.name] += dur
            calls[span.name] += 1
            if span.parent >= 0:
                self_s[self.spans[span.parent].name] -= dur
        return {name: (self_s[name], calls[name]) for name in calls}

    def chrome(self) -> str:
        """The spans as Chrome-trace JSON, one complete event each."""
        t0 = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "pid": 1,
                "tid": 0,
                "ts": (s.start - t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "args": {"op": s.op, "parent": s.parent},
            }
            for s in self.spans
        ]
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def _spmd_span(kwargs: dict) -> str:
    # the fault-tolerant protocol and the plain one share run_spmd
    return "simmpi.ft_run" if kwargs.get("fault_plan") is not None else "simmpi.event_run"


#: (span name, layer, module whose namespace callers read, attribute).
#: ``PlanBuilder.plan`` is the one method build_plan, build_direct_plan,
#: plans_for_dimensions and run_spmv_schemes all build through, so one
#: entry covers the five lookup sites of those names.
POINTS = (
    ("matrices.generate", "matrices", "repro.experiments.harness", "generate_matrix"),
    ("partition.rcm_order", "partition", "repro.experiments.harness", "rcm_order"),
    ("partition.blocks", "partition", "repro.experiments.harness", "balanced_blocks_from_order"),
    ("spmv.pattern", "spmv", "repro.experiments.harness", "spmv_pattern"),
    ("spmv.schemes", "spmv", "repro.experiments.harness", "run_spmv_schemes"),
    ("pattern.random", "core.pattern", "repro.core.pattern", "CommPattern.random"),
    ("pattern.apply_delta", "core.pattern", "repro.core.pattern", "CommPattern.apply_delta"),
    ("plan.build", "core.plan", "repro.core.plan", "PlanBuilder.plan"),
    ("plan.repair", "core.plan", "repro.spmv.persistent", "repair_plan"),
    ("network.time_plan", "network", "repro.network.timing", "time_plan"),
    ("network.time_plan", "network", "repro.spmv.driver", "time_plan"),
    ("stfw.side_tables", "core.stfw", "repro.spmv.persistent", "side_tables_from_plan"),
    ("stfw.side_tables", "core.stfw", "repro.spmv.persistent", "repair_side_tables"),
    ("stfw.exchange", "core.stfw", "repro.core.stfw", "run_exchange"),
    ("stfw.exchange", "core.stfw", "repro.spmv.persistent", "run_exchange"),
    (_spmd_span, "simmpi", "repro.core.stfw", "run_spmd"),
    ("simmpi.batch_run", "simmpi", "repro.simmpi.batch", "BatchSimMPI.run_planned_stfw"),
    ("simmpi.batch_run", "simmpi", "repro.simmpi.batch", "BatchSimMPI.run_planned_direct"),
    ("service.apply_drift", "spmv.persistent", "repro.spmv.persistent",
     "PersistentExchangeService.apply_drift"),
    ("service.epoch", "spmv.persistent", "repro.spmv.persistent",
     "PersistentExchangeService.run_epoch"),
    ("obs.export_chrome", "obs", "repro.obs.export", "chrome_trace"),
    ("obs.export_jsonl", "obs", "repro.obs.export", "jsonl_events"),
)


def _wrap(recorder: Recorder, name, layer: str, fn):
    @wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(name if isinstance(name, str) else name(kwargs), layer):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def installed(recorder: Recorder):
    """Record a span at every point in ``POINTS`` while the block runs."""
    undo = []
    try:
        for name, layer, module, attr in POINTS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[leaf]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(recorder, name, layer, raw.__func__))
            else:
                new = _wrap(recorder, name, layer, raw)
            setattr(owner, leaf, new)
            undo.append((owner, leaf, raw))
        yield recorder
    finally:
        for owner, leaf, raw in reversed(undo):
            setattr(owner, leaf, raw)
