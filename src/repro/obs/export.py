"""Exporters: Chrome ``trace_event`` JSON, JSONL stream, summary table.

Three views of the same :class:`~repro.obs.tracer.Tracer`:

* :func:`chrome_trace` — a ``chrome://tracing`` / Perfetto document.
  Integer tracks become rank rows (pid 0); named tracks (``"harness"``,
  ``"driver"``) become host rows (pid 1).  Pass ``run=`` to overlay the
  engine's per-message records (duration + flow events).
* :func:`jsonl_events` — one JSON object per line, time-ordered, with
  final counter totals at the end; greppable and streamable.
* :func:`summary_table` — a per-track/per-counter text table built on
  :class:`repro.metrics.report.Table`.

:func:`validate_chrome_trace` checks a document against the
``trace_event`` schema subset this repo emits; CI uses it as a smoke
test on CLI output.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping

from ..errors import ObsError
from .tracer import Tracer

__all__ = [
    "chrome_trace",
    "jsonl_events",
    "summary_table",
    "validate_chrome_trace",
]

#: pid for rank (virtual-time) tracks and for named host-side tracks
RANK_PID = 0
HOST_PID = 1

#: ph values this exporter emits (and the validator accepts)
_PH_KINDS = {"M", "X", "i", "C", "s", "f"}


def _track_tids(tracer: Tracer | None) -> dict[int | str, tuple[int, int]]:
    """Map each track to a ``(pid, tid)`` pair.

    Ranks keep their own number as tid under ``RANK_PID``; named tracks
    get sequential tids under ``HOST_PID`` in first-listed order.
    """
    out: dict[int | str, tuple[int, int]] = {}
    if tracer is None:
        return out
    next_host = 0
    for track in tracer.tracks():
        if isinstance(track, int):
            out[track] = (RANK_PID, track)
        else:
            out[track] = (HOST_PID, next_host)
            next_host += 1
    return out


def _meta_events(tids: Mapping[int | str, tuple[int, int]], extra_ranks: set[int]) -> list[dict]:
    events = []
    ranks = sorted({tid for (pid, tid) in tids.values() if pid == RANK_PID} | extra_ranks)
    for r in ranks:
        events.append(
            {"name": "thread_name", "ph": "M", "pid": RANK_PID, "tid": r,
             "args": {"name": f"rank {r}"}}
        )
    for track, (pid, tid) in tids.items():
        if pid == HOST_PID:
            events.append(
                {"name": "thread_name", "ph": "M", "pid": HOST_PID, "tid": tid,
                 "args": {"name": str(track)}}
            )
    return events


def _message_events(run) -> list[dict]:
    """Per-message X + s/f flow events from a traced ``RunResult``."""
    events: list[dict] = []
    for i, rec in enumerate(run.trace):
        dur = max(rec.arrive_time - rec.send_time, 0.001)
        common = {
            "cat": "message",
            "pid": RANK_PID,
            "args": {"words": rec.words, "tag": rec.tag, "dest": rec.dest},
        }
        events.append(
            {"name": f"msg tag={rec.tag}", "ph": "X", "tid": rec.source,
             "ts": rec.send_time, "dur": dur, **common}
        )
        events.append(
            {"name": "flow", "ph": "s", "id": i, "tid": rec.source,
             "ts": rec.send_time, "cat": "message", "pid": RANK_PID}
        )
        events.append(
            {"name": "flow", "ph": "f", "id": i, "tid": rec.dest,
             "ts": rec.arrive_time, "cat": "message", "pid": RANK_PID, "bp": "e"}
        )
    return events


def chrome_trace(tracer: Tracer | None = None, *, run=None, name: str = "simmpi run") -> str:
    """Render a tracer and/or a traced run as Chrome-trace JSON.

    Either argument may be omitted: ``chrome_trace(run=result)``
    reproduces the classic per-message dump, ``chrome_trace(tracer)``
    renders spans/instants/counters only, and passing both overlays
    them in one timeline (messages and rank spans share rank rows).
    """
    if tracer is None and run is None:
        raise ObsError("chrome_trace needs a tracer, a run, or both")

    tids = _track_tids(tracer)
    extra_ranks: set[int] = set()
    if run is not None:
        for rec in run.trace:
            extra_ranks.add(rec.source)
            extra_ranks.add(rec.dest)

    counter_rows = tracer.counter_rows() if tracer is not None else []
    counters_tid = None
    if any(track is None for _, track, _, _ in counter_rows):
        counters_tid = (
            max((tid for (pid, tid) in tids.values() if pid == HOST_PID), default=-1)
            + 1
        )

    events: list[dict] = _meta_events(tids, extra_ranks)
    if counters_tid is not None:
        events.append(
            {"name": "thread_name", "ph": "M", "pid": HOST_PID, "tid": counters_tid,
             "args": {"name": "counters"}}
        )
    if run is not None:
        events.extend(_message_events(run))

    if tracer is not None:
        for span in tracer.spans:
            pid, tid = tids[span.track]
            events.append(
                {"name": span.name, "ph": "X", "pid": pid, "tid": tid,
                 "ts": span.t0_us, "dur": max(span.dur_us, 0.001),
                 "cat": span.cat or "span", "args": dict(span.args)}
            )
        for inst in tracer.instants:
            pid, tid = tids[inst.track]
            events.append(
                {"name": inst.name, "ph": "i", "pid": pid, "tid": tid,
                 "ts": inst.ts_us, "s": "t",
                 "cat": inst.cat or "event", "args": dict(inst.args)}
            )
        for sample in tracer.samples:
            pid, tid = tids.get(sample.track, (RANK_PID, sample.track if isinstance(sample.track, int) else 0))
            events.append(
                {"name": sample.name, "ph": "C", "pid": pid, "tid": tid,
                 "ts": sample.ts_us, "args": {"value": sample.value}}
            )

        # final accumulator totals as one counter event each, stamped at
        # the end of the timeline so viewers show them as closing values
        t_end = 0.0
        for span in tracer.spans:
            t_end = max(t_end, span.t1_us)
        for inst in tracer.instants:
            t_end = max(t_end, inst.ts_us)
        for sample in tracer.samples:
            t_end = max(t_end, sample.ts_us)
        if run is not None:
            for rec in run.trace:
                t_end = max(t_end, rec.arrive_time)
        for cname, track, labels, value in counter_rows:
            if track is None:
                pid, tid = HOST_PID, counters_tid
            else:
                pid, tid = tids[track]
            label_txt = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            events.append(
                {"name": f"{cname}[{label_txt}]" if label_txt else cname,
                 "ph": "C", "pid": pid, "tid": tid, "ts": t_end,
                 "args": {"value": value}}
            )

    doc = {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {"name": name}}
    return json.dumps(doc)


def jsonl_events(tracer: Tracer) -> str:
    """One JSON object per line: spans and instants in time order, then
    one ``counter`` line per accumulator with its final total.

    Every line carries a ``kind`` discriminator (``span`` / ``instant``
    / ``counter``) so consumers can filter with a one-liner.
    """
    rows: list[tuple[float, dict[str, Any]]] = []
    for span in tracer.spans:
        rows.append(
            (span.t0_us,
             {"kind": "span", "name": span.name, "track": span.track,
              "t0_us": span.t0_us, "t1_us": span.t1_us, "dur_us": span.dur_us,
              "cat": span.cat, "args": dict(span.args)})
        )
    for inst in tracer.instants:
        rows.append(
            (inst.ts_us,
             {"kind": "instant", "name": inst.name, "track": inst.track,
              "ts_us": inst.ts_us, "cat": inst.cat, "args": dict(inst.args)})
        )
    rows.sort(key=lambda r: (r[0], r[1]["kind"], r[1]["name"], str(r[1]["track"])))
    lines = [json.dumps(obj) for _, obj in rows]
    for name, track, labels, value in tracer.counter_rows():
        lines.append(
            json.dumps(
                {"kind": "counter", "name": name, "track": track,
                 "labels": labels, "value": value}
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def summary_table(tracer: Tracer) -> str:
    """Per-track span totals plus every counter, as rendered text tables."""
    from ..metrics.report import Table

    spans = Table(
        columns=("track", "span", "count", "total_us", "mean_us"),
        title=f"spans — {tracer.name}",
    )
    agg: dict[tuple[str, str], tuple[int, float]] = {}
    for span in tracer.spans:
        key = (str(span.track), span.name)
        n, tot = agg.get(key, (0, 0.0))
        agg[key] = (n + 1, tot + span.dur_us)
    for (track, name), (n, tot) in sorted(agg.items()):
        spans.add_row(track, name, n, tot, tot / n)

    counters = Table(
        columns=("counter", "track", "labels", "value"),
        title=f"counters — {tracer.name}",
    )
    for name, track, labels, value in tracer.counter_rows():
        label_txt = ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"
        shown = int(value) if float(value).is_integer() else value
        counters.add_row(name, "-" if track is None else str(track), label_txt, shown)

    parts = []
    if agg:
        parts.append(spans.render(float_fmt="{:.1f}"))
    if tracer.counter_rows():
        parts.append(counters.render(float_fmt="{:.1f}"))
    return "\n\n".join(parts) if parts else f"(empty trace — {tracer.name})"


def validate_chrome_trace(doc: str | Mapping[str, Any]) -> dict:
    """Validate a Chrome-trace document; returns the parsed dict.

    Checks the ``trace_event`` schema subset this repo emits: the
    top-level object shape, per-event required keys by phase type, and
    finite non-negative timestamps.  Raises :class:`ObsError` naming
    the first offending event.
    """
    if isinstance(doc, str):
        try:
            parsed = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ObsError(f"trace is not valid JSON: {exc}") from exc
    else:
        parsed = dict(doc)

    if not isinstance(parsed, dict) or "traceEvents" not in parsed:
        raise ObsError("trace document must be an object with 'traceEvents'")
    if parsed.get("displayTimeUnit") not in ("ms", "ns"):
        raise ObsError(
            f"displayTimeUnit must be 'ms' or 'ns', got {parsed.get('displayTimeUnit')!r}"
        )
    events = parsed["traceEvents"]
    if not isinstance(events, list):
        raise ObsError("'traceEvents' must be a list")

    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise ObsError(f"{where}: event must be an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise ObsError(f"{where}: missing required key {key!r}")
        ph = ev["ph"]
        if ph not in _PH_KINDS:
            raise ObsError(f"{where}: unsupported ph {ph!r}")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or not math.isfinite(ts) or ts < 0:
                raise ObsError(f"{where}: ph={ph!r} needs a finite ts >= 0, got {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or not math.isfinite(dur) or dur < 0:
                raise ObsError(f"{where}: complete event needs finite dur >= 0, got {dur!r}")
        if ph in ("s", "f") and "id" not in ev:
            raise ObsError(f"{where}: flow event needs an 'id'")
        if ph == "C" and "args" not in ev:
            raise ObsError(f"{where}: counter event needs 'args'")
    return parsed
