"""Trace analysis: per-rank summaries and per-stage traffic.

``run_spmd(..., trace=True)`` records every delivered message; this
module turns those records into things a performance engineer can use:

* :func:`rank_summary` — per-rank message/word counts and busy spans,
* :func:`stage_breakdown` — per-tag (= per-stage for STFW) traffic.

:func:`repro.obs.chrome_trace` (``run=``) renders the same records as a
``chrome://tracing`` / Perfetto document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .message import RunResult, TraceRecord

__all__ = ["RankSummary", "rank_summary", "stage_breakdown"]


@dataclass(frozen=True)
class RankSummary:
    """Communication totals of one rank extracted from a trace."""

    rank: int
    sent_messages: int
    sent_words: int
    recv_messages: int
    recv_words: int
    #: time of the rank's first send, ``nan`` if it never sent anything
    first_send_us: float
    last_arrival_us: float


def rank_summary(result: RunResult, K: int) -> list[RankSummary]:
    """Per-rank totals from a traced run.

    Ranks that never sent report ``first_send_us = nan`` (a send at
    t=0 is a real event and keeps its 0.0, so the two are
    distinguishable; use :func:`math.isnan` to filter idle ranks).
    """
    sent_m = [0] * K
    sent_w = [0] * K
    recv_m = [0] * K
    recv_w = [0] * K
    first = [float("inf")] * K
    last = [0.0] * K
    for rec in result.trace:
        sent_m[rec.source] += 1
        sent_w[rec.source] += rec.words
        recv_m[rec.dest] += 1
        recv_w[rec.dest] += rec.words
        first[rec.source] = min(first[rec.source], rec.send_time)
        last[rec.dest] = max(last[rec.dest], rec.arrive_time)
    return [
        RankSummary(
            rank=r,
            sent_messages=sent_m[r],
            sent_words=sent_w[r],
            recv_messages=recv_m[r],
            recv_words=recv_w[r],
            first_send_us=first[r] if first[r] != float("inf") else float("nan"),
            last_arrival_us=last[r],
        )
        for r in range(K)
    ]


def stage_breakdown(records: Iterable[TraceRecord]) -> dict[int, dict[str, float]]:
    """Traffic grouped by tag — for STFW traces, by communication stage."""
    out: dict[int, dict[str, float]] = {}
    for rec in records:
        row = out.setdefault(rec.tag, {"messages": 0, "words": 0, "span_end": 0.0})
        row["messages"] += 1
        row["words"] += rec.words
        row["span_end"] = max(row["span_end"], rec.arrive_time)
    return dict(sorted(out.items()))
