"""Unit tests for a run's trace: against its plan, and its Chrome-trace export."""

import json

import numpy as np

from repro.core import CommPattern, make_vpt, run_exchange
from repro.network import BGQ
from repro.obs import chrome_trace
from repro.simmpi import run_spmd


def traced_run(K=8):
    def worker(comm):
        if comm.rank == 0:
            comm.send(1, "a", tag=0, words=10)
            comm.send(2, "b", tag=1, words=20)
            return None
        if comm.rank in (1, 2):
            yield comm.recv()
        return None

    return run_spmd(K, worker, machine=BGQ, trace=True)


class TestTraceMatchesPlan:
    """A traced STFW run delivers, stage by stage, what its plan says."""

    def test_matches_stfw_stats(self):
        p = CommPattern.random(16, avg_degree=4, seed=2, words=3)
        vpt = make_vpt(16, 2)
        res = run_exchange(p, vpt, trace=True)
        assert len(res.run.trace) == res.plan.num_physical_messages

    def test_stfw_stages_match_plan(self):
        p = CommPattern.random(16, avg_degree=4, seed=7, words=2)
        vpt = make_vpt(16, 3)
        res = run_exchange(p, vpt, trace=True)
        tags = np.array([r.tag for r in res.run.trace])
        words = np.array([r.words for r in res.run.trace])
        for d, st in enumerate(res.plan.stages):
            assert (tags == d).sum() == st.num_messages
            assert words[tags == d].sum() == int(st.total_words.sum())


class TestChromeTrace:
    def test_valid_json_with_events(self):
        res = traced_run()
        doc = json.loads(chrome_trace(run=res))
        assert "traceEvents" in doc
        kinds = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "s", "f"} <= kinds

    def test_one_duration_event_per_message(self):
        res = traced_run()
        doc = json.loads(chrome_trace(run=res))
        durations = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(durations) == len(res.trace)

    def test_rows_named_by_rank(self):
        res = traced_run()
        doc = json.loads(chrome_trace(run=res))
        names = {
            e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
        }
        assert "rank 0" in names and "rank 1" in names

    def test_display_time_unit_is_ms(self):
        # timestamps are virtual microseconds (the chrome-trace `ts`
        # convention); the format only allows "ms"/"ns" and "ns" made
        # Perfetto scale every duration 1000x too long
        res = traced_run()
        doc = json.loads(chrome_trace(run=res))
        assert doc["displayTimeUnit"] == "ms"

    def test_empty_trace(self):
        def worker(comm):
            return None

        res = run_spmd(4, worker, trace=True)
        doc = json.loads(chrome_trace(run=res))
        assert doc["traceEvents"] == []
