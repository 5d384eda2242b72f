"""``run_exchange(plan=)``: an exchange runs on the plan its caller holds.

The run must equal the one that builds its own plan, on both engines;
every plan the exchange cannot run on is refused by name before an
engine exists; and the two callers that hold a plan — the persistent
service and the ``Regularizer`` — build none per exchange.
"""

import numpy as np
import pytest

from repro.core import (
    CommPattern,
    PatternDelta,
    Regularizer,
    VirtualProcessTopology,
    build_plan,
    make_vpt,
    run_exchange,
)
from repro.core.plan import PlanBuilder
from repro.errors import PlanError
from repro.network import BGQ
from repro.simmpi.runtime import SimMPI
from repro.spmv.persistent import PersistentExchangeService

ENGINES = ("event", "batch")


def same_deliveries(a, b) -> bool:
    return len(a) == len(b) and all(
        len(x) == len(y)
        and all(s == t and np.array_equal(p, q) for (s, p), (t, q) in zip(x, y))
        for x, y in zip(a, b)
    )


@pytest.fixture
def pattern():
    return CommPattern.random(64, avg_degree=5, words=3, seed=5)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("header_words", (0, 2))
def test_plan_given_equals_plan_built(pattern, engine, header_words):
    vpt = make_vpt(pattern.K, 3)
    plan = build_plan(pattern, vpt, header_words=header_words)
    kw = dict(machine=BGQ, engine=engine, header_words=header_words, trace=True)
    own = run_exchange(pattern, vpt, **kw)
    given = run_exchange(pattern, vpt, plan=plan, **kw)
    implied = run_exchange(pattern, plan=plan, **kw)  # the plan supplies the VPT
    for res in (given, implied):
        assert res.plan is plan
        assert np.array_equal(res.run.clocks, own.run.clocks)
        assert res.run.makespan_us == own.run.makespan_us
        assert res.run.trace == own.run.trace
        assert res.run.engine_stats == own.run.engine_stats
        assert same_deliveries(res.delivered, own.delivered)


def test_plan_given_to_a_partial_exchange(pattern):
    vpt = make_vpt(pattern.K, 2)
    plan = build_plan(pattern, vpt)
    own = run_exchange(pattern, vpt, machine=BGQ, on_fault="partial")
    given = run_exchange(pattern, vpt, machine=BGQ, on_fault="partial", plan=plan)
    assert given.plan is plan and given.completed
    assert np.array_equal(given.run.clocks, own.run.clocks)
    assert same_deliveries(given.delivered, own.delivered)


def _refusals(pattern):
    vpt = make_vpt(pattern.K, 2)
    plan = build_plan(pattern, vpt)
    other = pattern.apply_delta(PatternDelta.random(pattern, 0.1, seed=2))
    return [
        ("another pattern", dict(plan=build_plan(other, vpt), vpt=vpt)),
        ("the VPT (4, 4, 4)", dict(plan=build_plan(pattern, make_vpt(pattern.K, 3)), vpt=vpt)),
        ("header_words=2", dict(plan=build_plan(pattern, vpt, header_words=2), vpt=vpt)),
        ("coalesced plan", dict(plan=build_plan(pattern, vpt, coalesce=False), vpt=vpt)),
        ("not (64,)", dict(plan=plan, dims=1)),
        ("mode='dynamic'", dict(plan=plan, vpt=vpt, mode="dynamic")),
        ("tolerant on_fault", dict(plan=plan, vpt=vpt, on_fault="tolerate")),
    ]


@pytest.mark.parametrize("engine", ENGINES)
def test_refusals_come_before_any_engine(pattern, engine, monkeypatch):
    cases = _refusals(pattern)

    def no_engine(self, *args, **kwargs):
        raise AssertionError("an engine was built for a refused plan=")

    monkeypatch.setattr(SimMPI, "__init__", no_engine)  # BatchSimMPI's base too
    for needle, kw in cases:
        with pytest.raises(PlanError, match="plan=") as exc:
            run_exchange(pattern, machine=BGQ, engine=engine, **kw)
        assert needle in str(exc.value), (needle, str(exc.value))


@pytest.fixture
def plan_calls(monkeypatch):
    calls = []
    plan = PlanBuilder.plan

    def counted(self, *args, **kwargs):
        calls.append(args)
        return plan(self, *args, **kwargs)

    monkeypatch.setattr(PlanBuilder, "plan", counted)
    return calls


@pytest.mark.parametrize("engine", ENGINES)
def test_healthy_service_epochs_build_no_plan(engine, plan_calls):
    pattern = CommPattern.random(128, avg_degree=6, words=4, seed=3)
    svc = PersistentExchangeService(
        pattern, make_vpt(pattern.K, 2), machine=BGQ, validate=False, engine=engine
    )
    assert len(plan_calls) == 1  # construction is the one build
    del plan_calls[:]
    reports = [svc.run_epoch(PatternDelta.random(svc.pattern, 0.05, seed=s)) for s in range(3)]
    reports.append(svc.run_epoch())
    assert [r.action for r in reports] == ["healthy"] * 4
    assert all(r.delivered == r.expected for r in reports)
    assert plan_calls == []


@pytest.mark.parametrize("remap", (False, True))
def test_regularizer_exchanges_on_its_plan(monkeypatch, remap):
    pattern = CommPattern.random(64, avg_degree=5, words=2, seed=8)
    reg = Regularizer(pattern, vpt=VirtualProcessTopology((4, 4, 4)), remap=remap)
    reference = run_exchange(reg.pattern, reg.vpt, machine=BGQ)

    def refused(self, *args, **kwargs):
        raise AssertionError("Regularizer.exchange built a plan")

    monkeypatch.setattr(PlanBuilder, "plan", refused)
    res = reg.exchange(machine=BGQ)
    assert res.plan is reg.plan
    assert res.run.makespan_us == reference.run.makespan_us
    assert sum(map(len, res.delivered)) == pattern.num_messages
