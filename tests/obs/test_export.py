"""Exporter tests: golden files, schema validation, no-op purity.

The golden files under ``tests/obs/golden/`` pin the exact Chrome-trace
and JSONL output of a small deterministic STFW exchange on a T_2(4,4)
topology.  Everything in that trace runs on virtual clocks, so the
bytes are reproducible across hosts.  Regenerate after an intentional
format change with::

    PYTHONPATH=src python tests/obs/test_export.py regen
"""

import json
import os

import numpy as np
import pytest

from repro.core import CommPattern, make_vpt, run_exchange
from repro.errors import ObsError
from repro.network import BGQ
from repro.obs import (
    NULL_TRACER,
    Tracer,
    chrome_trace,
    jsonl_events,
    summary_table,
    validate_chrome_trace,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden_exchange():
    """The pinned T_2(4,4) STFW exchange, traced; fully deterministic."""
    pattern = CommPattern.random(16, avg_degree=3, seed=2, words=4)
    vpt = make_vpt(16, 2)
    assert vpt.dim_sizes == (4, 4)
    tracer = Tracer("t2-golden")
    res = run_exchange(pattern, vpt, machine=BGQ, trace=True, tracer=tracer)
    return tracer, res


class TestGoldenFiles:
    def test_chrome_matches_golden(self):
        tracer, res = golden_exchange()
        doc = chrome_trace(tracer, run=res.run, name="t2-golden")
        with open(os.path.join(GOLDEN_DIR, "t2_exchange.trace.json")) as fh:
            assert doc == fh.read()

    def test_jsonl_matches_golden(self):
        tracer, _ = golden_exchange()
        with open(os.path.join(GOLDEN_DIR, "t2_exchange.events.jsonl")) as fh:
            assert jsonl_events(tracer) == fh.read()

    def test_golden_chrome_validates(self):
        with open(os.path.join(GOLDEN_DIR, "t2_exchange.trace.json")) as fh:
            doc = validate_chrome_trace(fh.read())
        phs = {e["ph"] for e in doc["traceEvents"]}
        # metadata, spans, messages + flows, counter totals (a clean
        # run has no instants — those mark faults/timeouts)
        assert {"M", "X", "s", "f", "C"} <= phs

    def test_golden_jsonl_parses(self):
        with open(os.path.join(GOLDEN_DIR, "t2_exchange.events.jsonl")) as fh:
            lines = fh.read().splitlines()
        kinds = {json.loads(line)["kind"] for line in lines}
        assert {"span", "counter"} <= kinds


class TestTraceContent:
    def test_stage_counters_equal_plan_statics(self):
        tracer, res = golden_exchange()
        for d, st in enumerate(res.plan.stages):
            assert tracer.value("stfw.stage_messages", stage=d) == st.num_messages
            assert tracer.value("stfw.stage_words", stage=d) == int(
                st.total_words.sum()
            )

    def test_stage_spans_per_rank(self):
        tracer, res = golden_exchange()
        K, n = 16, 2
        stage_spans = [s for s in tracer.spans if s.cat == "stage"]
        assert len(stage_spans) == K * n
        assert {s.track for s in stage_spans} == set(range(K))

    def test_summary_table_mentions_counters(self):
        tracer, _ = golden_exchange()
        text = summary_table(tracer)
        assert "stfw.stage_messages" in text
        assert "stfw.stage0" in text


class TestValidation:
    def test_rejects_non_object(self):
        with pytest.raises(ObsError):
            validate_chrome_trace("[]")

    def test_rejects_missing_ph(self):
        doc = {
            "displayTimeUnit": "ms",
            "traceEvents": [{"name": "x", "pid": 0, "tid": 0, "ts": 0.0}],
        }
        with pytest.raises(ObsError, match="traceEvents\\[0\\]"):
            validate_chrome_trace(doc)

    def test_rejects_negative_ts(self):
        doc = {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"name": "x", "ph": "i", "pid": 0, "tid": 0, "ts": -1.0, "s": "t"}
            ],
        }
        with pytest.raises(ObsError):
            validate_chrome_trace(doc)

    def test_empty_tracer_needs_something(self):
        with pytest.raises(ObsError):
            chrome_trace()


def _canon_delivered(delivered):
    """Deliveries as plain lists (payloads are numpy arrays)."""
    return [[(src, list(p)) for src, p in msgs] for msgs in delivered]


class TestNoopPurity:
    """A disabled tracer must not perturb the emulation at all."""

    def test_null_tracer_identical_run_at_k64(self):
        pattern = CommPattern.random(64, avg_degree=6, seed=11, words=8)
        vpt = make_vpt(64, 3)
        base = run_exchange(pattern, vpt, machine=BGQ)
        nulled = run_exchange(pattern, vpt, machine=BGQ, tracer=NULL_TRACER)
        live = run_exchange(pattern, vpt, machine=BGQ, tracer=Tracer())
        assert np.array_equal(nulled.run.clocks, base.run.clocks)
        assert np.array_equal(live.run.clocks, base.run.clocks)
        assert nulled.run.makespan_us == base.run.makespan_us
        canon = _canon_delivered(base.delivered)
        assert _canon_delivered(nulled.delivered) == canon
        assert _canon_delivered(live.delivered) == canon

    def test_null_tracer_identical_direct_run(self):
        pattern = CommPattern.random(64, avg_degree=6, seed=11, words=8)
        base = run_exchange(pattern, machine=BGQ)
        nulled = run_exchange(
            pattern, machine=BGQ, tracer=NULL_TRACER
        )
        assert np.array_equal(nulled.run.clocks, base.run.clocks)
        assert _canon_delivered(nulled.delivered) == _canon_delivered(base.delivered)


def _regen():  # pragma: no cover - maintenance helper
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    tracer, res = golden_exchange()
    with open(os.path.join(GOLDEN_DIR, "t2_exchange.trace.json"), "w") as fh:
        fh.write(chrome_trace(tracer, run=res.run, name="t2-golden"))
    with open(os.path.join(GOLDEN_DIR, "t2_exchange.events.jsonl"), "w") as fh:
        fh.write(jsonl_events(tracer))
    print(f"regenerated goldens in {GOLDEN_DIR}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if sys.argv[1:] == ["regen"]:
        _regen()
    else:
        raise SystemExit("usage: test_export.py regen")
