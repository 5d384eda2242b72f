"""Unit tests for trace analysis and Chrome-trace export."""

import json
import math

from repro.core import CommPattern, make_vpt, run_exchange
from repro.network import BGQ
from repro.obs import chrome_trace
from repro.simmpi import rank_summary, run_spmd, stage_breakdown


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


class TestRankSummary:
    def test_totals(self):
        res = traced_run()
        summ = rank_summary(res, 8)
        assert summ[0].sent_messages == 2
        assert summ[0].sent_words == 30
        assert summ[1].recv_messages == 1
        assert summ[2].recv_words == 20
        assert summ[3].sent_messages == 0

    def test_time_spans(self):
        res = traced_run()
        summ = rank_summary(res, 8)
        assert summ[0].first_send_us == 0.0  # real send at t=0 stays 0.0
        assert summ[1].last_arrival_us > 0

    def test_idle_rank_first_send_is_nan(self):
        # "never sent" must be distinguishable from "sent at t=0"
        res = traced_run()
        summ = rank_summary(res, 8)
        assert math.isnan(summ[3].first_send_us)
        assert summ[3].sent_messages == 0

    def test_matches_stfw_stats(self):
        p = CommPattern.random(16, avg_degree=4, seed=2, words=3)
        vpt = make_vpt(16, 2)
        res = run_exchange(p, vpt, trace=True)
        summ = rank_summary(res.run, 16)
        sent = sum(s.sent_messages for s in summ)
        assert sent == res.plan.num_physical_messages


class TestStageBreakdown:
    def test_groups_by_tag(self):
        res = traced_run()
        by = stage_breakdown(res.trace)
        assert by[0]["messages"] == 1 and by[0]["words"] == 10
        assert by[1]["messages"] == 1 and by[1]["words"] == 20

    def test_stfw_stages_match_plan(self):
        p = CommPattern.random(16, avg_degree=4, seed=7, words=2)
        vpt = make_vpt(16, 3)
        res = run_exchange(p, vpt, trace=True)
        by = stage_breakdown(res.run.trace)
        for d, st in enumerate(res.plan.stages):
            if st.num_messages:
                assert by[d]["messages"] == st.num_messages
                assert by[d]["words"] == int(st.total_words.sum())
            else:
                assert d not in by


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
