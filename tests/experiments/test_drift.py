"""Tests for the dynamic-exchange drift experiment."""

import pytest

from repro.core import CommPattern, PatternDelta, build_plan, make_vpt, repair_plan
from repro.errors import ExperimentError
from repro.experiments import drift


def tiny_run(**overrides):
    kwargs = dict(
        K=32,
        degree=4,
        rates=(0.1, 0.25),
        epochs=2,
        service=False,
    )
    kwargs.update(overrides)
    return drift.run(**kwargs)


class TestPlansIdentical:
    def test_equal_plans(self):
        p = CommPattern.random(16, avg_degree=3, seed=0)
        vpt = make_vpt(16, 2)
        assert drift.plans_identical(build_plan(p, vpt), build_plan(p, vpt))

    def test_detects_value_difference(self):
        vpt = make_vpt(16, 2)
        a = build_plan(CommPattern.random(16, avg_degree=3, seed=0), vpt)
        b = build_plan(CommPattern.random(16, avg_degree=3, seed=1), vpt)
        assert not drift.plans_identical(a, b)

    def test_detects_header_difference(self):
        p = CommPattern.random(16, avg_degree=3, seed=0)
        vpt = make_vpt(16, 2)
        a = build_plan(p, vpt)
        b = build_plan(p, vpt, header_words=2)
        assert not drift.plans_identical(a, b)


class TestRun:
    def test_rows_and_validation(self):
        r = tiny_run()
        assert [row.rate for row in r.rows] == [0.1, 0.25]
        for row in r.rows:
            assert row.epochs == 2
            assert row.validated == 2  # every epoch cross-checked
            assert row.repair_ms > 0 and row.rebuild_ms > 0

    def test_deterministic_structure(self):
        a = tiny_run()
        b = tiny_run()
        assert a.num_messages == b.num_messages
        for ra, rb in zip(a.rows, b.rows):
            assert ra.validated == rb.validated

    def test_service_phase(self):
        r = drift.run(
            K=32,
            degree=4,
            rates=(0.1,),
            epochs=1,
            service=True,
            service_K=16,
            service_epochs=2,
        )
        s = r.service
        assert s is not None
        assert s.K == 16
        assert s.traces_matched == s.epochs == 2
        assert s.discovery_frames > 0
        assert s.makespan_us > 0

    def test_format_result(self):
        text = drift.format_result(tiny_run())
        assert "drift" in text
        assert "10%" in text and "25%" in text


class TestValidationFailure:
    def test_divergence_raises(self, monkeypatch):
        """A repair that disagrees with the rebuild must abort the run."""

        def bad_repair(plan, delta, **kwargs):
            rebuilt = build_plan(
                plan.pattern.apply_delta(delta),
                plan.vpt,
                header_words=plan.header_words + 1,  # wrong on purpose
            )
            return rebuilt

        monkeypatch.setattr(drift, "repair_plan", bad_repair)
        with pytest.raises(ExperimentError):
            tiny_run(rates=(0.1,), epochs=1)


class TestRepairSpeedupDirection:
    def test_repair_beats_rebuild_at_scale(self):
        """Low-rate repair must be faster than the full rebuild.  The
        speedup itself is what ``repro drift`` prints (~10x/5x at 1%/10%
        drift for K=4096, docs/USAGE.md); this CI-sized instance only pins
        the direction."""
        import time

        pattern = CommPattern.random(512, avg_degree=24, seed=0)
        vpt = make_vpt(512, 2)
        plan = build_plan(pattern, vpt)
        delta = PatternDelta.random(pattern, 0.02, seed=1)

        def timed(fn):
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        # minimum of five alternating readings: one descheduled reading
        # of either side cannot flip the comparison
        t_repair = t_rebuild = float("inf")
        for _ in range(5):
            t_repair = min(t_repair, timed(lambda: repair_plan(plan, delta)))
            t_rebuild = min(
                t_rebuild, timed(lambda: build_plan(pattern.apply_delta(delta), vpt))
            )
        assert t_repair < t_rebuild
