"""Sweeps run in one process and free each cell before the next."""

import gc
import importlib
import json
import weakref

import pytest

from repro.cli import build_parser
from repro.core.pattern import CommPattern
from repro.errors import ExperimentError
from repro.experiments import ExperimentConfig, InstanceCache, faults, recover
from repro.network.machines import BGQ

CFG = ExperimentConfig(scale=0.05, nnz_budget=500_000)


def test_cell_plans_die_with_the_result():
    """A cell's stage arrays belong to its result, not to the cached
    pattern: once the result goes they go, with the collector paused,
    while the cache and the pattern stay alive."""
    cache = InstanceCache(CFG)
    exp = cache.cell("cbuckle", 64, BGQ)
    pattern = cache.pattern("cbuckle", 64)
    stage = exp.results["STFW2"].plan.stages[0].sender
    ref = weakref.ref(stage)
    gc.disable()
    try:
        del exp, stage
        assert ref() is None
        assert cache.pattern("cbuckle", 64) is pattern
    finally:
        gc.enable()


def test_faults_builds_its_pattern_once(monkeypatch):
    calls = []
    random = CommPattern.random.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return random(cls, *args, **kwargs)

    monkeypatch.setattr(CommPattern, "random", classmethod(counted))
    faults.run(ExperimentConfig(seed=4242), K=16, drop_rates=(0.0, 0.05))
    assert len(calls) == 1
    faults.run(ExperimentConfig(seed=4242), K=16, drop_rates=(0.0,))
    assert len(calls) == 2


def test_recover_crashes_follow_each_scheme_fault_free_run():
    """Each scheme's crash instants are fractions of its own fault-free
    makespan, rows in scheme-major order."""
    res = recover.run(ExperimentConfig(), iterations=8, checkpoint_interval=4)
    assert [s for s, _ in res.rows] == ["fault-free", "1 crash", "2 crashes"] * 2
    for block in (0, 3):
        base = res.rows[block][1]
        assert base.recoveries == 0
        for k in (1, 2):
            stats = res.rows[block + k][1]
            assert stats.scheme == base.scheme and stats.recoveries >= 1
            crashes = json.loads(res.plans[block + k][1])["crashes"]
            want = {
                str(r): f * base.makespan_us
                for r, f in list(zip((5, 19), (0.35, 0.65)))[:k]
            }
            assert crashes == pytest.approx(want)


def test_no_subcommand_takes_jobs():
    parser = build_parser()
    (subparsers,) = (
        a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
    )
    assert subparsers.choices
    for name, sub in subparsers.choices.items():
        for flag in ("-j", "--jobs"):
            assert flag not in sub._option_string_actions, name


def test_process_pool_module_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.parallel")


def test_cells_refuses_more_than_one_job():
    cache = InstanceCache(CFG)
    with pytest.raises(ExperimentError, match="ROADMAP item 1"):
        cache.cells([("cbuckle", 64, BGQ)], jobs=2)
