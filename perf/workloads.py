"""The seven workloads.

Each is a class: ``setup`` builds the inputs from the seed, ``op`` is the
timed call into the program, ``verify`` checks its output once the timer
has stopped, ``msgs`` is the numerator of ``msgs_per_s`` and ``facts``
are the exact counts the traced pass reports.  Calls into ``src/`` go
through the module that owns the name (``stfw.run_exchange``), which is
where ``perf.trace`` puts its spans.

``sizes["full"]`` are the sizes the benchmark is judged at; ``"smoke"``
is a tiny copy for the self-tests.
"""

from __future__ import annotations

import numpy as np

from repro.core import pattern as pattern_mod
from repro.core import plan as plan_mod
from repro.core import stfw
from repro.core.dimensioning import make_vpt
from repro.experiments import harness
from repro.experiments.config import ExperimentConfig
from repro.metrics.resilience import delivered_pairs, expected_pairs
from repro.network import timing
from repro.network.machines import BGQ, CRAY_XC40
from repro.obs import Tracer
from repro.obs import export as obs_export
from repro.simmpi.faults import FaultPlan
from repro.spmv import persistent

from . import check
from .trace import installed


def plan_facts(plans) -> dict:
    """Exact counts of the plans an op built.

    ``plan.stage_bytes`` is computed from array sizes, not measured; plans
    of one ``PlanBuilder`` share stage arrays, which count once.
    """
    arrays = {}
    for plan in plans:
        arrays[id(plan.forward_occupancy)] = plan.forward_occupancy.nbytes
        for st in plan.stages:
            for a in (st.sender, st.receiver, st.nsub, st.payload_words, st.total_words,
                      st.route_key):
                if a is not None:
                    arrays[id(a)] = a.nbytes
    return {
        "sim.mmax": max(p.max_message_count for p in plans),
        "sim.phys_msgs": sum(p.num_physical_messages for p in plans),
        "sim.volume_words": sum(p.total_volume for p in plans),
        "plan.stage_bytes": sum(arrays.values()),
    }


class Workload:
    name: str
    sizes: dict[str, dict]

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.setup(**self.sizes[size])

    def setup(self, **size) -> None:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        """Untimed input of op ``i``."""

    def op(self, i: int):
        raise NotImplementedError

    def verify(self, out) -> None:
        raise NotImplementedError

    def msgs(self, out) -> int:
        raise NotImplementedError

    def facts(self, out) -> dict:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the state left by the last op."""

    def extra(self, recorder) -> dict:
        """Layer metrics that need a run of their own (traced pass only)."""
        return {}

    def random_pattern(self, K: int, avg_degree: float, **kw):
        return pattern_mod.CommPattern.random(K, avg_degree, words=16, seed=self.seed, **kw)


class CellsCold(Workload):
    """Paper cells from matrix generation to makespan on a fresh cache: matrices, partition and
    spmv do the work, simmpi none."""

    name = "cells_cold"
    sizes = {
        "full": dict(cells=(("human_gene2", 128), ("F1", 256), ("coPapersCiteseer", 512)),
                     scale=0.25),
        "smoke": dict(cells=(("human_gene2", 16),), scale=0.02),
    }

    def setup(self, cells, scale):
        self.requests = [(name, K, BGQ) for name, K in cells]
        # The paper's cells are named instances, and seed 0 is the set every table of
        # the repo is made from.  Another generator seed moves a cell's message count
        # by 15%, which alone put a 20% run-to-run spread on msgs_per_s; so --seed
        # stops here, and the other six workloads take all their inputs from it.
        self.cfg = ExperimentConfig(seed=0, scale=scale)

    def op(self, i):
        return harness.InstanceCache(self.cfg).cells(self.requests, jobs=1)

    def verify(self, out):
        check.cells(out)

    def _results(self, out):
        return [r for exp in out for r in exp.results.values()]

    def msgs(self, out):
        return sum(r.plan.pattern.num_messages for r in self._results(out))

    def facts(self, out):
        results = self._results(out)
        return {"sim.makespan_us": sum(r.stats.comm_time_us for r in results),
                **plan_facts([r.plan for r in results])}


class PlanScale(Workload):
    """Table 3 path with no matrix: BL plus seven STFW plans of one hot-spot pattern, timed on
    two machines; core.plan dominates and plan memory sets peak RSS."""

    name = "plan_scale"
    sizes = {"full": dict(K=16384, avg_degree=24, hot=4),
             "smoke": dict(K=256, avg_degree=8, hot=2)}

    def setup(self, K, avg_degree, hot):
        self.pattern = self.random_pattern(K, avg_degree, hot_processes=hot)
        self.dims = harness.paper_dim_selection(K)

    def op(self, i):
        plans = [plan_mod.build_direct_plan(self.pattern)]
        plans += plan_mod.plans_for_dimensions(self.pattern, self.dims).values()
        rows = []
        for plan in plans:
            times = [timing.time_plan(plan, machine).total_us for machine in (BGQ, CRAY_XC40)]
            stats = (plan.max_message_count, plan.total_volume, plan.max_buffer_words)
            rows.append((plan, times, stats))
        return rows

    def verify(self, out):
        for plan, times, (mmax, volume, buffer_words) in out:
            check.plan_bounds(plan)
            if not (all(t > 0 for t in times) and 0 < mmax and 0 < buffer_words <= volume):
                raise check.Failed(f"implausible plan statistics for {plan.vpt}")

    def msgs(self, out):
        return self.pattern.num_messages * len(out)

    def facts(self, out):
        return {"sim.makespan_us": sum(t for _, times, _ in out for t in times),
                **plan_facts([plan for plan, _, _ in out])}


class Exchange(Workload):
    """``run_exchange`` on a random pattern of degree 8, two VPT dimensions, BlueGene/Q."""

    engine: str

    def setup(self, K):
        self.pattern = self.random_pattern(K, 8)

    def exchange(self, pattern, **kw):
        return stfw.run_exchange(pattern, dims=2, machine=BGQ, engine=self.engine, **kw)

    def op(self, i):
        return self.exchange(self.pattern)

    def verify(self, out):
        check.deliveries(self.pattern, out.delivered)
        check.plan_bounds(out.plan)

    def msgs(self, out):
        return self.pattern.num_messages

    def facts(self, out):
        return {"sim.makespan_us": out.makespan_us, **plan_facts([out.plan])}


class ExchangeEvent(Exchange):
    """The per-event engine at a K where its event rate has started to decay: the simmpi event
    loop and the stfw process bodies, no batch engine."""

    name = "exchange_event"
    sizes = {"full": dict(K=8192, K_small=1024), "smoke": dict(K=256, K_small=64)}
    engine = "event"

    def setup(self, K, K_small):
        super().setup(K)
        self.K_small = K_small

    def extra(self, recorder):
        # the same engine on a small pattern, to put a number on the decay with K
        small = self.random_pattern(self.K_small, 8)
        recorder.op = "extra"
        with installed(recorder):
            out = self.exchange(small)
        busy, _ = recorder.ledger("extra")["simmpi.event_run"]
        return {"simmpi.event_rate_k1024": out.plan.num_physical_messages / busy}


class ExchangeBatch(Exchange):
    """The batch engine at the acceptance scale K=65536: whole-stage sweeps and payload
    synthesis; the event loop is idle, so an event-engine change must not move it."""

    name = "exchange_batch"
    sizes = {"full": dict(K=65536, K_small=1024), "smoke": dict(K=512, K_small=64)}
    engine = "batch"

    def setup(self, K, K_small):
        super().setup(K)
        check.engines_agree(self.random_pattern(K_small, 8), BGQ)


class ExchangeObs(Exchange):
    """The batch engine with a live Tracer, then both exporters: the only workload where obs
    does real work, so an obs change moves this and not exchange_batch."""

    name = "exchange_obs"
    sizes = {"full": dict(K=16384), "smoke": dict(K=256)}
    engine = "batch"

    def op(self, i):
        tracer = Tracer(self.name)
        result = self.exchange(self.pattern, tracer=tracer)
        doc = obs_export.chrome_trace(tracer, run=result.run)
        return result, tracer, doc, obs_export.jsonl_events(tracer)

    def verify(self, out):
        result, tracer, doc, lines = out
        super().verify(result)
        check.chrome(doc)
        if not (tracer.spans and lines):
            raise check.Failed("the tracer recorded nothing")

    def facts(self, out):
        result, tracer, doc, lines = out
        return {**super().facts(result), "obs.trace_bytes": len(doc) + len(lines),
                "obs.span_count": len(tracer.spans)}

    def extra(self, recorder):
        # what the live Tracer costs: each traced exchange against a plain one
        timed = [s.end - s.start for s in recorder.spans if s.name == "stfw.exchange"]
        recorder.op = "extra"
        first = len(recorder.spans)
        with installed(recorder):
            self.exchange(self.pattern)
        plain = recorder.spans[first]  # run_exchange is the outermost point: its span opens first
        return {"obs.emit_s": float(np.median(timed)) - (plain.end - plain.start)}


class ServiceDrift(Workload):
    """One epoch of the persistent service absorbing 5% drift: core.plan as an update (repair)
    beside plan_scale's build, plus the service's own per-epoch checks."""

    name = "service_drift"
    sizes = {"full": dict(K=4096, avg_degree=24), "smoke": dict(K=256, avg_degree=8)}

    def setup(self, K, avg_degree):
        self.svc = persistent.PersistentExchangeService(
            self.random_pattern(K, avg_degree), make_vpt(K, 2),
            machine=BGQ, validate=False, engine="batch")

    def prepare(self, i):
        self.delta = pattern_mod.PatternDelta.random(
            self.svc.pattern, 0.05, seed=self.seed * 100_003 + i)

    def op(self, i):
        return self.svc.run_epoch(self.delta)

    def verify(self, out):
        pattern = self.svc.pattern
        if not (out.action == "healthy" and out.repaired and not out.missing
                and out.delivered == out.expected == pattern.num_messages):
            raise check.Failed(f"epoch {out.epoch}: {out.action}, {len(out.missing)} missing")
        check.deliveries(pattern, out.result.delivered)
        check.plan_bounds(self.svc.plan)

    def msgs(self, out):
        return self.svc.pattern.num_messages

    def facts(self, out):
        return {"sim.makespan_us": out.makespan_us, **plan_facts([self.svc.plan]),
                "service.full_rebuilds": self.svc.full_rebuilds}

    def finish(self):
        check.service_final(self.svc)


class ExchangeFT(Exchange):
    """The event engine under drops, a straggler and a crash: timers, retries, detours and
    stfw_ft_process, which a merge of the plain and FT bodies must also hold."""

    name = "exchange_ft"
    sizes = {"full": dict(K=1024), "smoke": dict(K=64)}
    engine = "event"

    def setup(self, K):
        super().setup(K)
        self.faults = FaultPlan(default_drop=0.02, stragglers={3: 4.0},
                                crashes={K // 2: 40.0}, seed=self.seed)

    def op(self, i):
        return self.exchange(self.pattern, on_fault="tolerate", fault_plan=self.faults)

    def verify(self, out):
        check.deliveries(self.pattern, out.delivered, dead=out.crashed)

    def facts(self, out):
        # no plan exists on this path; RunResult does not count acks and retries,
        # so the physical-message count is the end-to-end payloads that arrived
        countable = expected_pairs(self.pattern, out.crashed)
        return {
            "sim.makespan_us": out.makespan_us,
            "sim.mmax": 0,
            "sim.phys_msgs": sum(len(msgs) for msgs in out.delivered),
            "sim.volume_words": sum(len(p) for msgs in out.delivered for _, p in msgs),
            "simmpi.ft_delivered_ratio":
                len(countable & delivered_pairs(out.delivered)) / len(countable),
            "simmpi.ft_lost": len(out.lost),
        }


WORKLOADS = {w.name: w for w in (CellsCold, PlanScale, ExchangeEvent, ExchangeBatch,
                                 ExchangeObs, ServiceDrift, ExchangeFT)}
