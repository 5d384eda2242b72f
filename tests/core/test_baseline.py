"""The baseline (BL) is the flat topology ``T_1``, however it is asked for.

No topology, ``dims=1``, a flat ``vpt`` and a ``build_direct_plan``
plan are one exchange: Algorithm 1's stage loop over the one stage of
``T_1``, on either engine, charging ``header_words`` once per message as
the ``T_1`` plan does.
"""

import numpy as np
import pytest

from repro.core import (
    CommPattern,
    Regularizer,
    build_direct_plan,
    make_vpt,
    run_exchange,
)
from repro.core.stfw import _default_payloads, recv_counts_from_plan, stfw_process
from repro.errors import PlanError
from repro.network import BGQ
from repro.obs import Tracer
from repro.simmpi import run_spmd

ENGINES = ("event", "batch")


def words_moved(result):
    return sum(rec.words for rec in result.run.trace)


def ways(pattern, header_words=0):
    """Every spelling of a flat exchange, as ``run_exchange`` keywords."""
    return {
        "no topology": {},
        "dims=1": {"dims": 1},
        "flat vpt": {"vpt": make_vpt(pattern.K, 1)},
        "direct plan": {"plan": build_direct_plan(pattern, header_words=header_words)},
    }


def delivered_lists(result):
    return [[(src, np.asarray(p).tolist()) for src, p in msgs] for msgs in result.delivered]


def observed(result, tracer):
    """What two runs of one exchange must agree on, engine-neutrally."""
    run = result.run
    spans = sorted(
        # the batch engine keeps a span's arguments as sorted pairs
        (s.name, s.t0_us, s.t1_us, s.track, s.cat,
         tuple(sorted(s.args.items())) if isinstance(s.args, dict) else s.args)
        for s in tracer.spans
    )
    counters = [(n, str(t), sorted(lb.items()), v) for n, t, lb, v in tracer.counter_rows()]
    return run.clocks.tolist(), run.makespan_us, run.trace, delivered_lists(result), spans, counters


class TestRegularizerMovesItsPlan:
    """``Regularizer.exchange`` moves the words its plan counts."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("dimension", [1, 3])
    def test_header_words_reach_the_wire(self, dimension, engine):
        pattern = CommPattern.random(64, avg_degree=4, seed=1, words=3)
        reg = Regularizer(pattern, dimension=dimension, header_words=2)
        if engine == "event":
            res = reg.exchange(machine=BGQ, trace=True)
        else:  # the exchange Regularizer makes, on the other engine
            res = run_exchange(
                reg.pattern, plan=reg.plan, header_words=2, machine=BGQ,
                trace=True, engine="batch",
            )
        assert words_moved(res) == reg.plan.total_volume


class TestOneProcess:
    def test_direct_plan_has_one_process(self):
        plan = build_direct_plan(CommPattern.from_arrays(1, [], [], []))
        assert plan.K == 1 and len(plan.sent_counts()) == 1
        assert plan.vpt.dim_sizes == (1,)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_exchange_is_empty_and_complete(self, engine):
        res = run_exchange(CommPattern.from_arrays(1, [], [], []), machine=BGQ, engine=engine)
        assert res.completed and [list(d) for d in res.delivered] == [[]]
        assert res.run.clocks.tolist() == [0.0]


class TestEverySpellingIsOneExchange:
    @pytest.mark.parametrize("header_words", [0, 2])
    def test_same_run_and_counters_on_both_engines(self, header_words):
        pattern = CommPattern.random(48, avg_degree=5, hot_processes=2, seed=7, words=3)
        seen = {}
        for engine in ENGINES:
            for way, kw in ways(pattern, header_words).items():
                tracer = Tracer(way)
                res = run_exchange(
                    pattern, machine=BGQ, header_words=header_words, trace=True,
                    tracer=tracer, engine=engine, **kw,
                )
                seen[engine, way] = observed(res, tracer)
        ref = seen["event", "no topology"]
        for key, got in seen.items():
            assert got == ref, key
        assert words_moved(res) == build_direct_plan(pattern, header_words=header_words).total_volume

    @pytest.mark.parametrize("way", ["no topology", "dims=1", "flat vpt"])
    def test_dynamic_mode_refused_by_name(self, way):
        pattern = CommPattern.random(16, avg_degree=3, seed=5)
        with pytest.raises(PlanError, match="mode='dynamic'.*T_1"):
            run_exchange(pattern, machine=BGQ, mode="dynamic", **ways(pattern)[way])

    @pytest.mark.parametrize("header_words", [0, 2])
    def test_ascending_sendsets_time_like_algorithm_1_over_t1(self, header_words):
        """BL is ``stfw_process`` over ``T_1``, run by hand or by
        ``run_exchange``."""
        pattern = CommPattern.random(32, avg_degree=4, hot_processes=2, seed=3, words=2)
        payloads = [dict(sorted(d.items())) for d in _default_payloads(pattern)]
        plan = build_direct_plan(pattern, header_words=header_words)
        counts = recv_counts_from_plan(plan)
        stfw = run_spmd(
            pattern.K,
            lambda comm: stfw_process(
                comm, plan.vpt, payloads[comm.rank], counts[:, comm.rank],
                header_words=header_words,
            ),
            machine=BGQ,
            trace=True,
        )
        flat = run_exchange(
            pattern, payloads=payloads, machine=BGQ, header_words=header_words, trace=True
        )
        assert np.array_equal(flat.run.clocks, stfw.clocks) and flat.run.trace == stfw.trace

    def test_sends_in_plan_order_on_both_engines(self):
        """BL sends in the ``T_1`` plan's order, whatever order the dicts
        were filled in: reversed dicts run as the default payloads do."""
        pattern = CommPattern.random(32, avg_degree=4, hot_processes=2, seed=3, words=2)
        stage = build_direct_plan(pattern).stages[0]
        reversed_dicts = [dict(sorted(d.items(), reverse=True)) for d in _default_payloads(pattern)]
        runs = {
            (engine, fill): run_exchange(
                pattern, payloads=payloads, machine=BGQ, trace=True, engine=engine
            )
            for engine in ENGINES
            for fill, payloads in (("default", None), ("reversed", reversed_dicts))
        }
        for key, res in runs.items():
            trace = sorted(res.run.trace, key=lambda r: (r.source, r.send_time))
            for rank in range(pattern.K):
                sent = [rec.dest for rec in trace if rec.source == rank]
                assert sent == stage.receiver[stage.sender == rank].tolist(), (key, rank)
        ref = runs["event", "default"]
        for key, res in runs.items():
            assert np.array_equal(res.run.clocks, ref.run.clocks), key
            assert delivered_lists(res) == delivered_lists(ref), key
