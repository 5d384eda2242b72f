"""Self-tests of the benchmark.  Not part of tier-1; run from the repo root:

    PYTHONPATH=src python -m pytest perf/tests -q
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys

import pytest

from perf import run
from perf.trace import Recorder
from perf.workloads import WORKLOADS, ExchangeBatch

SPEC = run.SPEC
EXACT = [m["name"] for m in SPEC["per_layer"] if m["unit"] in run.EXACT_UNITS]


def smoke_ledger(tmp_path, seed: int, tag: str) -> dict:
    out = tmp_path / f"{tag}.json"
    subprocess.run([sys.executable, run.__file__, "--smoke", "--seed", str(seed),
                    "--out", str(out)], check=True, stdout=subprocess.DEVNULL, timeout=120)
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledgers")
    return [smoke_ledger(tmp, seed, tag) for seed, tag in ((0, "a"), (0, "b"), (1, "c"))]


def test_smoke_reports_exactly_the_declared_names(ledgers):
    doc = ledgers[0]
    assert list(doc["workloads"]) == list(WORKLOADS)
    # the workloads BENCHMARK.json names are the ones the driver has time to judge
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | {"failed_ratio"}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for w in doc["workloads"].values():
        assert set(w["end_to_end"]) == end_to_end
        assert set(w["per_layer"]) == per_layer
        assert w["correct"] and w["failed"] == 0
    for name in end_to_end | per_layer | set(doc["workloads"]):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)


def test_counts_repeat_exactly_and_follow_the_seed(ledgers):
    a, b, c = ledgers
    for w in a["workloads"]:
        layer_a, layer_b, layer_c = (d["workloads"][w]["per_layer"] for d in (a, b, c))
        for name in EXACT:
            assert layer_a[name]["value"] == layer_b[name]["value"], (w, name)
        moved = any(layer_a[n]["value"] != layer_c[n]["value"] for n in EXACT
                    if n.startswith("sim."))
        assert moved == (w != "cells_cold"), w  # the paper cells are fixed instances


def test_compare_accepts_a_rerun_and_catches_a_changed_count(ledgers, tmp_path, capsys):
    docs = copy.deepcopy(ledgers[:2])
    paths = []
    for tag, doc in zip("ab", docs):
        # a smoke op lasts milliseconds: keep only what repeats, the counts
        for w in doc["workloads"].values():
            for name in list(w["end_to_end"]):
                w["end_to_end"][name] = {"value": 1.0, "unit": "x", "runs": [1.0]}
        paths.append(tmp_path / f"{tag}.json")
        paths[-1].write_text(json.dumps(doc))
    assert run.compare(*paths) == 0
    assert "DIFFERS" not in capsys.readouterr().out
    docs[1]["workloads"]["plan_scale"]["per_layer"]["sim.mmax"]["value"] += 1
    paths[1].write_text(json.dumps(docs[1]))
    assert run.compare(*paths) == 1
    assert "DIFFERS" in capsys.readouterr().out


def test_self_times_are_non_negative_and_within_the_op():
    rec = Recorder()
    rec.op = 1
    with rec.span("outer", "x"):
        with rec.span("inner", "y"):
            with rec.span("inner", "y"):
                pass
        with rec.span("leaf", "y"):
            pass
    ledger = rec.ledger(1)
    assert {name: calls for name, (_, calls) in ledger.items()} == {
        "outer": 1, "inner": 2, "leaf": 1}
    assert all(self_s >= 0 for self_s, _ in ledger.values())
    outer = rec.spans[0]
    assert sum(s for s, _ in ledger.values()) == pytest.approx(outer.end - outer.start)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_layers_fit_inside_the_op(name):
    result = run.run_workload(WORKLOADS[name], 0, 0, True, "smoke")
    assert result["correct"]
    for metric, m in result["metrics"].items():
        # obs.emit_s is a difference of two runs, not a self time
        if m["unit"] == "s" and metric != "obs.emit_s":
            assert m["value"] >= 0, metric


def test_a_dropped_delivery_is_a_failed_op():
    class Lossy(ExchangeBatch):
        def op(self, i):
            out = super().op(i)
            if i % 2:  # the warm-up op and every other timed op stay whole
                next(msgs for msgs in out.delivered if msgs).pop()
            return out

    result = run.run_workload(Lossy, 0, 0.2, False, "smoke")
    assert not result["correct"]
    assert 0 < result["failed"] / result["attempted"] < 1
