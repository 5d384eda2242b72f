"""Tests for the silent-data-corruption sweep (``repro.experiments.corrupt``)."""

import hashlib
from dataclasses import replace

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments import corrupt


@pytest.fixture(scope="module")
def sweep():
    """One small sweep exercising all three injection surfaces."""
    return corrupt.run(K=16, degree=3.0, epochs=12, seed=11)


class TestSweep:
    def test_zero_undetected_and_converged(self, sweep):
        assert sweep.undetected_total == 0
        assert sweep.converged
        assert sweep.payload_checks > 0

    def test_every_surface_detected_something(self, sweep):
        by_name = {ep.name.split("(")[0]: ep for ep in sweep.episodes}
        assert set(by_name) == {"transient", "forwarder", "compute"}
        for ep in by_name.values():
            assert ep.stats.detected > 0, ep.name
            assert ep.recovered, ep.name

    def test_forwarder_quarantined(self, sweep):
        assert len(sweep.quarantined) == 1
        assert sweep.detection_latency >= 0
        assert sweep.quarantine_latency >= sweep.detection_latency

    def test_abft_caught_every_injection(self, sweep):
        assert sweep.abft_injected > 0
        assert sweep.abft_caught == sweep.abft_injected

    def test_printed_table_is_pinned(self, sweep):
        text = corrupt.format_result(sweep)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c07d0b22897bfc177117c76247d805bcc62c267fa5be56ceeecf20a857c413cc"
        )

    def test_format_result_reports_pass(self, sweep):
        text = corrupt.format_result(sweep)
        assert "0 undetected corruption(s) (PASS: must be 0)" in text
        assert "converged: yes" in text
        assert "abft:" in text


class TestCompareGates:
    """``repro corrupt`` exits 1 when the sweep misses any of its
    absolute integrity predicates; no tolerance excuses one."""

    @pytest.fixture
    def exit_status(self, monkeypatch, capsys):
        def run_cli(result):
            monkeypatch.setattr(corrupt, "run", lambda *args, **kwargs: result)
            rc = main(["corrupt"])
            return rc, capsys.readouterr().err

        return run_cli

    def test_clean_sweep_exits_zero(self, sweep, exit_status):
        assert exit_status(sweep) == (0, "")

    def test_undetected_corruption_is_a_regression(self, sweep, exit_status):
        rc, err = exit_status(replace(sweep, undetected_total=1))
        assert rc == 1 and "undetected" in err

    def test_abft_miss_is_a_regression(self, sweep, exit_status):
        rc, err = exit_status(replace(sweep, abft_caught=sweep.abft_injected - 1))
        assert rc == 1 and "ABFT" in err

    def test_lost_convergence_is_a_regression(self, sweep, exit_status):
        rc, err = exit_status(replace(sweep, converged=False))
        assert rc == 1 and "did not recover" in err

    def test_lost_quarantine_is_a_regression(self, sweep, exit_status):
        rc, err = exit_status(replace(sweep, quarantined=()))
        assert rc == 1 and "quarantined" in err


class TestDeterminism:
    def test_same_seed_same_record(self, sweep):
        again = corrupt.run(K=16, degree=3.0, epochs=12, seed=11)
        assert again == sweep  # every field, every episode

    def test_different_seed_differs(self, sweep):
        other = corrupt.run(K=16, degree=3.0, epochs=12, seed=12)
        # the sweeps differ beyond the seed they were given
        assert replace(other, seed=sweep.seed) != sweep


class TestValidation:
    def test_too_few_epochs_rejected(self):
        with pytest.raises(ExperimentError, match="epochs"):
            corrupt.run(K=16, epochs=5)

    def test_too_small_K_rejected(self):
        with pytest.raises(ExperimentError, match="K >= 8"):
            corrupt.run(K=4, epochs=12)
