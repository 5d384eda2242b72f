"""Tests for the chaos soak harness (``repro.experiments.chaos``)."""

import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.core import CommPattern, make_vpt, run_exchange
from repro.core.stfw import _default_payloads
from repro.errors import ExperimentError
from repro.experiments import chaos
from repro.spmv.persistent import PersistentExchangeService


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def soak():
    """One small soak with the full fault script (shrink + breaker
    episodes both fit inside the 30-epoch turbulence window)."""
    return chaos.run(K=32, epochs=30, degree=3.0, seed=9)


class TestSoak:
    def test_converges_with_zero_rebuilds(self, soak):
        assert soak.converged
        assert soak.reference_identical
        assert soak.full_rebuilds == 0
        assert soak.repairs > 0

    def test_ladder_was_exercised(self, soak):
        actions = soak.overall.actions_dict
        assert actions.get("shrink", 0) >= 1
        assert soak.shrink_replans >= 1
        assert len(soak.dead) >= 1

    def test_every_repair_validated(self, soak):
        assert soak.side_table_checks == soak.repairs
        assert soak.payload_checks > 0

    def test_reports_cover_every_epoch(self, soak):
        assert len(soak.reports) == soak.epochs
        assert len(soak.labels) == soak.epochs
        assert [r.epoch for r in soak.reports] == list(
            range(1, soak.epochs + 1)
        )
        # exchange results are stripped to keep the record small
        assert all(r.result is None for r in soak.reports)

    def test_tail_is_fault_free_and_complete(self, soak):
        tail = soak.reports[soak.epochs - soak.tail :]
        assert all(r.missing == () for r in tail)
        assert all(
            lbl == "" for lbl in soak.labels[soak.epochs - soak.tail :]
        )

    def test_phases_partition_the_epochs(self, soak):
        names = [name for name, _ in soak.phases]
        assert names == ["warmup", "turbulence", "tail"]
        assert sum(st.epochs for _, st in soak.phases) == soak.epochs
        assert soak.overall.epochs == soak.epochs

    def test_printed_table_is_pinned(self, soak):
        assert _sha256(chaos.format_result(soak)) == (
            "fcef33501a3c449ef881b813600b4d2ff0afcc4907da1796517bcd6bb36b50bd"
        )

    def test_format_result_mentions_the_verdict(self, soak):
        text = chaos.format_result(soak)
        assert "converged: yes" in text
        assert "full rebuilds: 0" in text
        assert "side-table" in text


class TestExitStatus:
    """``repro chaos`` exits 1 unless the soak converged on the
    incremental repair path."""

    @pytest.fixture
    def exit_status(self, monkeypatch, capsys):
        def run_cli(result):
            monkeypatch.setattr(chaos, "run", lambda *args, **kwargs: result)
            rc = main(["chaos"])
            return rc, capsys.readouterr().err

        return run_cli

    def test_converged_soak_exits_zero(self, soak, exit_status):
        assert exit_status(soak) == (0, "")

    def test_unconverged_soak_exits_one(self, soak, exit_status):
        rc, err = exit_status(replace(soak, converged=False))
        assert rc == 1 and "did not converge" in err

    def test_full_rebuild_exits_one(self, soak, exit_status):
        rc, err = exit_status(replace(soak, full_rebuilds=1))
        assert rc == 1 and "1 full plan rebuild(s)" in err


class TestDeterminism:
    def test_same_seed_same_record(self):
        a = chaos.run(K=16, epochs=16, degree=3.0, seed=4)
        b = chaos.run(K=16, epochs=16, degree=3.0, seed=4)
        assert a == b  # every field, every per-epoch report

    def test_different_seed_differs(self):
        a = chaos.run(K=16, epochs=16, degree=3.0, seed=4)
        b = chaos.run(K=16, epochs=16, degree=3.0, seed=5)
        # the records differ beyond the seed they were given
        assert replace(b, seed=a.seed) != a


class TestCorruptionSchedule:
    @pytest.fixture(scope="class")
    def corrupted(self):
        return chaos.run(K=32, epochs=30, degree=3.0, seed=9, corruption=True)

    def test_corruption_detected_and_converged(self, corrupted):
        assert corrupted.corruption
        assert corrupted.detected_corruptions > 0
        assert corrupted.converged
        assert corrupted.reference_identical
        assert corrupted.full_rebuilds == 0

    def test_printed_table_is_pinned(self, corrupted):
        assert _sha256(chaos.format_result(corrupted)) == (
            "e3eeea9b7571c3149363304eed200b94c5f61c5af1a9c826b2a46ba6e5e5741c"
        )

    def test_corrupt_forwarder_quarantined(self, corrupted):
        assert corrupted.quarantine_epochs >= 1
        assert len(corrupted.quarantined_peers) >= 1

    def test_corruption_off_schedule_unchanged(self, soak):
        """The corruption knob must not perturb the corruption-off RNG
        stream: a plain soak still records zero integrity events."""
        assert not soak.corruption
        assert soak.detected_corruptions == 0
        assert soak.quarantine_epochs == 0
        assert soak.quarantined_peers == ()


class TestValidation:
    def test_too_few_epochs_rejected(self):
        with pytest.raises(ExperimentError, match="epochs"):
            chaos.run(K=16, epochs=9)

    @pytest.mark.parametrize("rate", [0.0, -0.01, 0.11, 0.5])
    def test_drift_rate_bounds(self, rate):
        with pytest.raises(ExperimentError, match="drift_rate"):
            chaos.run(K=16, epochs=16, drift_rate=rate)

    def test_tail_must_leave_room(self):
        with pytest.raises(ExperimentError, match="too short"):
            chaos.run(K=16, epochs=12, tail=10)


def _flip_word(delivered, pair):
    """A copy of list-form deliveries with one word of ``pair`` flipped."""
    src, dst = pair
    out = [list(msgs) if msgs else msgs for msgs in delivered]
    for i, (s, payload) in enumerate(out[dst]):
        if s == src:
            bad = np.array(payload, copy=True)
            bad[0] ^= 1
            out[dst][i] = (s, bad)
    return out


class TestPayloadOracle:
    """``check_payloads`` — the external per-payload reference both the
    chaos soak and the corruption sweep score their deliveries with."""

    @pytest.fixture(scope="class")
    def exchange(self):
        pattern = CommPattern.random(16, avg_degree=3, words=4, seed=2)
        result = run_exchange(
            pattern, make_vpt(16, 2), payloads=_default_payloads(pattern)
        )
        pair = (int(pattern.src[0]), int(pattern.dst[0]))
        return pattern, result, pair

    def test_clean_deliveries_pass(self, exchange):
        pattern, result, _ = exchange
        assert chaos.check_payloads(result, 16, pattern) == (
            (),
            pattern.num_messages,
        )

    def test_one_flipped_word_is_reported(self, exchange):
        pattern, result, pair = exchange
        tampered = SimpleNamespace(delivered=_flip_word(result.delivered, pair))
        assert chaos.check_payloads(tampered, 16, pattern) == (
            (pair,),
            pattern.num_messages,
        )

    def test_pattern_pair_is_checked_at_the_pattern_length(self, exchange):
        pattern, result, (src, dst) = exchange
        delivered = [list(msgs) if msgs else [] for msgs in result.delivered]
        delivered[dst] = [
            (s, np.asarray(p)[:-1] if s == src else p) for s, p in delivered[dst]
        ]
        short = SimpleNamespace(delivered=delivered)
        assert chaos.check_payloads(short, 16, pattern)[0] == ((src, dst),)

    def test_known_pair_is_skipped(self, exchange):
        pattern, result, pair = exchange
        tampered = SimpleNamespace(delivered=_flip_word(result.delivered, pair))
        assert chaos.check_payloads(tampered, 16, pattern, [pair]) == (
            (),
            pattern.num_messages - 1,
        )

    def test_pair_outside_the_pattern_checked_at_its_length(self, exchange):
        pattern, result, _ = exchange
        pairs = set(zip(pattern.src.tolist(), pattern.dst.tolist()))
        src, dst = next(
            (s, d) for s in range(16) for d in range(16)
            if s != d and (s, d) not in pairs
        )
        delivered = [list(msgs) if msgs else [] for msgs in result.delivered]
        delivered[dst].append((src, np.full(5, src * 16 + dst, dtype=np.int64)))
        extra = SimpleNamespace(delivered=delivered)
        assert chaos.check_payloads(extra, 16, pattern) == (
            (),
            pattern.num_messages + 1,
        )
        delivered[dst][-1] = (src, np.full(5, src * 16 + dst + 1, dtype=np.int64))
        assert chaos.check_payloads(extra, 16, pattern) == (
            ((src, dst),),
            pattern.num_messages + 1,
        )

    @pytest.fixture
    def tampered_service(self, exchange, monkeypatch):
        pattern, _, pair = exchange
        service = PersistentExchangeService(pattern, make_vpt(16, 2))
        real = service.run_epoch

        def run_epoch(delta, **kwargs):
            report = real(delta, **kwargs)
            report.result = SimpleNamespace(
                delivered=_flip_word(report.result.delivered, pair)
            )
            return report

        monkeypatch.setattr(service, "run_epoch", run_epoch)
        return service, pair

    def test_strict_soak_raises_naming_the_pair(self, tampered_service):
        service, (src, dst) = tampered_service
        with pytest.raises(
            ExperimentError, match=rf"payload \({src} -> {dst}\) diverged"
        ):
            chaos.soak(service, [None], strict=True)

    def test_soak_counts_the_mismatch(self, tampered_service):
        service, _ = tampered_service
        reports, mismatches, checks, last = chaos.soak(service, [None, None])
        assert mismatches == 2
        assert checks == 2 * service.pattern.num_messages
        assert [r.result for r in reports] == [None, None]
        assert last is not None
