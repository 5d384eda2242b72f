"""``repro bench`` — pinned performance benchmark of the repro stack.

Measures three things on a fixed, config-independent sweep:

* **cell throughput** — end-to-end experiment cells per second, timed
  twice: a *serial cold* pass (``jobs=1``, empty artifact cache) and a
  *parallel warm* pass (``jobs=N``, cache populated by the first pass).
  Their ratio is the headline speedup of this PR's executor + cache.
* **engine event rate** — raw SimMPI event-loop throughput on a
  synthetic STFW exchange (sends + receives per second of host time).
* **cache effectiveness** — artifact hits/misses of the warm pass.

The sweep is pinned to explicit :class:`ExperimentConfig` defaults —
``$REPRO_SCALE`` is deliberately ignored so numbers are comparable
across checkouts.  Results are written as a ``repro-bench-v1`` JSON
document; ``BENCH_baseline.json`` in the repo root maps sweep name
(``full``/``quick``, plus ``drift`` from ``repro drift``, ``chaos``
from ``repro chaos`` and ``corruption`` from ``repro corrupt``)
to the reference document, and ``--check`` fails
when the current run regresses more than a tolerance below it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import tempfile
import time
from typing import Any

from . import __version__

__all__ = [
    "BENCH_SCHEMA",
    "DRIFT_SCHEMA",
    "CHAOS_SCHEMA",
    "CORRUPT_SCHEMA",
    "FULL_SWEEP",
    "QUICK_SWEEP",
    "run_bench",
    "validate_bench_json",
    "compare_bench",
    "merge_baseline",
    "load_baseline",
    "format_result",
]

#: schema tag of a single bench result document
BENCH_SCHEMA = "repro-bench-v1"

#: schema tag of a drift (repair-vs-rebuild) result document; produced
#: by ``repro drift -o`` and stored under the ``"drift"`` sweep key
DRIFT_SCHEMA = "repro-drift-bench-v1"

#: schema tag of a chaos-soak result document; produced by
#: ``repro chaos -o`` and stored under the ``"chaos"`` sweep key
CHAOS_SCHEMA = "repro-chaos-bench-v1"

#: schema tag of a silent-data-corruption sweep document; produced by
#: ``repro corrupt -o`` and stored under the ``"corruption"`` sweep key
CORRUPT_SCHEMA = "repro-corrupt-bench-v1"

#: sweep names allowed to coexist in ``BENCH_baseline.json``
_BASELINE_SWEEPS = ("full", "quick", "drift", "chaos", "corruption")

#: the pinned full sweep — artifact-heavy cells (large matrices at a
#: modest K) where generation, partitioning and planning dominate the
#: uncached exchange simulation, so the warm cache shows through
FULL_SWEEP: tuple[tuple[str, int], ...] = (
    ("coPapersCiteseer", 128),
    ("F1", 128),
    ("bundle_adj", 128),
    ("nd24k", 128),
    ("human_gene2", 128),
    ("Ga41As41H72", 128),
)

#: the CI smoke sweep — same shape, fewer cells
QUICK_SWEEP: tuple[tuple[str, int], ...] = (
    ("human_gene2", 128),
    ("crankseg_2", 128),
    ("mip1", 128),
)

#: process count and degree of the engine microbenchmark
_ENGINE_K = 256
_ENGINE_DEGREE = 8

#: metrics compared against the baseline (higher is better)
_COMPARE_KEYS: tuple[str, ...] = ("cells_per_sec", "engine_events_per_sec", "speedup")


def _metric(doc: dict[str, Any], key: str) -> float:
    """Fetch a comparison metric from a result document."""
    if key == "engine_events_per_sec":
        return float(doc["engine"]["events_per_sec"])
    return float(doc[key])


def _bench_cells(sweep, jobs: int, cache_root: str, tracer=None) -> float:
    """Time one pass of the sweep with a fresh in-memory harness."""
    from .cache import ArtifactCache
    from .experiments.config import ExperimentConfig
    from .experiments.harness import InstanceCache
    from .network.machines import BGQ

    cfg = ExperimentConfig()  # pinned defaults; $REPRO_SCALE ignored
    cache = InstanceCache(
        cfg, tracer=tracer, artifacts=ArtifactCache(cache_root, tracer=tracer)
    )
    requests = [(name, K, BGQ) for name, K in sweep]
    t0 = time.perf_counter()
    cache.cells(requests, jobs=jobs)
    return time.perf_counter() - t0


def _cold_pass(args) -> float:
    """Pool(1) entry point: the serial cold pass, timed in the child."""
    sweep, cache_root = args
    return _bench_cells(sweep, jobs=1, cache_root=cache_root)


def _run_cold_isolated(sweep, cache_root: str) -> float:
    """Run the cold pass in a child process.

    The cold pass materializes every artifact on the heap; doing it in
    a throwaway child keeps this process small, so the warm pass that
    follows forks its workers off a clean parent (copy-on-write of a
    heap full of dead matrices is exactly the overhead the executor
    avoids).  It also matches real usage — cache-populating and
    cache-consuming runs are separate CLI invocations.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1) as pool:
        return pool.apply(_cold_pass, ((sweep, cache_root),))


def _bench_engine(engine: str = "event") -> dict[str, float]:
    """Raw event-loop throughput on a synthetic 2-D STFW exchange.

    ``events`` counts the engine's sends plus receives (the tracer's
    ``engine.sends``/``engine.recvs`` counters).
    """
    from .core.pattern import CommPattern
    from .core.stfw import run_exchange
    from .network.machines import BGQ
    from .obs import Tracer

    pattern = CommPattern.random(_ENGINE_K, avg_degree=_ENGINE_DEGREE, seed=1, words=16)
    # best-of-3 tames scheduler noise on a sub-100ms microbenchmark
    elapsed = float("inf")
    for _ in range(3):
        tracer = Tracer(f"bench.engine.{engine}")
        t0 = time.perf_counter()
        run_exchange(pattern, dims=2, machine=BGQ, tracer=tracer, engine=engine)
        elapsed = min(elapsed, time.perf_counter() - t0)
    events = sum(
        value
        for name, _track, _labels, value in tracer.counter_rows()
        if name in ("engine.sends", "engine.recvs")
    )
    return {
        "events": int(events),
        "elapsed_s": elapsed,
        "events_per_sec": events / elapsed if elapsed > 0 else 0.0,
        "backend": engine,
    }


def run_bench(
    *,
    quick: bool = False,
    jobs: int = 4,
    cache_root: str | None = None,
    engine: str = "event",
) -> dict[str, Any]:
    """Run the benchmark and return the ``repro-bench-v1`` document.

    With ``cache_root=None`` a temporary directory is used and removed
    afterwards; pass a path to inspect the populated cache.  ``engine``
    picks the backend the engine microbenchmark row times (the cell
    sweep itself never touches the emulator).
    """
    from .obs import Tracer

    sweep = QUICK_SWEEP if quick else FULL_SWEEP
    root = cache_root or tempfile.mkdtemp(prefix="repro-bench-")
    try:
        if os.path.isdir(root):
            shutil.rmtree(root)

        serial_cold = _run_cold_isolated(sweep, root)

        tracer = Tracer("bench.warm")
        parallel_warm = _bench_cells(sweep, jobs=jobs, cache_root=root, tracer=tracer)

        hits = sum(
            value
            for name, _t, _l, value in tracer.counter_rows()
            if name == "cache.hits"
        )
        misses = sum(
            value
            for name, _t, _l, value in tracer.counter_rows()
            if name == "cache.misses"
        )
    finally:
        if cache_root is None:
            shutil.rmtree(root, ignore_errors=True)

    engine_row = _bench_engine(engine)
    lookups = hits + misses
    return {
        "schema": BENCH_SCHEMA,
        "version": __version__,
        "sweep": "quick" if quick else "full",
        "quick": quick,
        "n_cells": len(sweep),
        "jobs": jobs,
        "serial_cold_s": serial_cold,
        "parallel_warm_s": parallel_warm,
        "speedup": serial_cold / parallel_warm if parallel_warm > 0 else 0.0,
        "cells_per_sec": len(sweep) / parallel_warm if parallel_warm > 0 else 0.0,
        "engine": engine_row,
        "cache": {
            "hits": int(hits),
            "misses": int(misses),
            "hit_rate": hits / lookups if lookups else 0.0,
        },
    }


def _validate_drift_json(doc: dict[str, Any]) -> list[str]:
    """Structural problems of a ``repro-drift-bench-v1`` document."""
    problems: list[str] = []
    for key, typ in (
        ("version", str),
        ("K", int),
        ("num_messages", int),
        ("dims", int),
        ("epochs", int),
        ("validated", bool),
        ("rows", list),
        ("median_speedup_le_10pct", (int, float)),
    ):
        if key not in doc:
            problems.append(f"missing key {key!r}")
        elif not isinstance(doc[key], typ):
            problems.append(f"{key!r} is {type(doc[key]).__name__}")
    if doc.get("sweep") != "drift":
        problems.append(f"sweep is {doc.get('sweep')!r}, expected 'drift'")
    if isinstance(doc.get("rows"), list):
        for i, row in enumerate(doc["rows"]):
            if not isinstance(row, dict):
                problems.append(f"rows[{i}] is not an object")
                continue
            for key in ("rate", "repair_ms", "rebuild_ms", "speedup"):
                if not isinstance(row.get(key), (int, float)):
                    problems.append(f"rows[{i}].{key!r} missing or non-numeric")
    return problems


def _validate_chaos_json(doc: dict[str, Any]) -> list[str]:
    """Structural problems of a ``repro-chaos-bench-v1`` document."""
    problems: list[str] = []
    for key, typ in (
        ("version", str),
        ("K", int),
        ("dims", int),
        ("epochs", int),
        ("drift_rate", (int, float)),
        ("seed", int),
        ("tail", int),
        ("mean_completion_rate", (int, float)),
        ("min_completion_rate", (int, float)),
        ("faulty_epochs", int),
        ("degraded_epochs", int),
        ("mean_makespan_inflation", (int, float)),
        ("actions", dict),
        ("repairs", int),
        ("full_rebuilds", int),
        ("side_table_checks", int),
        ("shrink_replans", int),
        ("payload_checks", int),
        ("dead", list),
        ("converged", bool),
    ):
        if key not in doc:
            problems.append(f"missing key {key!r}")
        elif not isinstance(doc[key], typ):
            problems.append(f"{key!r} is {type(doc[key]).__name__}")
    if doc.get("sweep") != "chaos":
        problems.append(f"sweep is {doc.get('sweep')!r}, expected 'chaos'")
    for key in ("mean_completion_rate", "min_completion_rate"):
        val = doc.get(key)
        if isinstance(val, (int, float)) and not 0.0 <= val <= 1.0:
            problems.append(f"{key!r}={val} outside [0, 1]")
    if isinstance(doc.get("actions"), dict):
        for action, count in doc["actions"].items():
            if not isinstance(action, str) or not isinstance(count, int):
                problems.append(f"actions[{action!r}] is not a str -> int entry")
    # corruption keys are optional: pre-integrity baselines omit them
    for key, typ in (
        ("corruption", bool),
        ("detected_corruptions", int),
        ("quarantine_epochs", int),
        ("quarantined_peers", list),
    ):
        if key in doc and not isinstance(doc[key], typ):
            problems.append(f"{key!r} is {type(doc[key]).__name__}")
    return problems


def _validate_corrupt_json(doc: dict[str, Any]) -> list[str]:
    """Structural problems of a ``repro-corrupt-bench-v1`` document."""
    problems: list[str] = []
    for key, typ in (
        ("version", str),
        ("K", int),
        ("dims", int),
        ("epochs", int),
        ("seed", int),
        ("detected_total", int),
        ("undetected_total", int),
        ("payload_checks", int),
        ("quarantined", list),
        ("detection_latency", int),
        ("quarantine_latency", int),
        ("abft_injected", int),
        ("abft_caught", int),
        ("converged", bool),
        ("episodes", dict),
    ):
        if key not in doc:
            problems.append(f"missing key {key!r}")
        elif not isinstance(doc[key], typ):
            problems.append(f"{key!r} is {type(doc[key]).__name__}")
    if doc.get("sweep") != "corruption":
        problems.append(f"sweep is {doc.get('sweep')!r}, expected 'corruption'")
    if isinstance(doc.get("episodes"), dict):
        for name, ep in doc["episodes"].items():
            if not isinstance(ep, dict):
                problems.append(f"episodes[{name!r}] is not an object")
                continue
            for key in ("detected", "undetected", "unrecovered_pairs"):
                if not isinstance(ep.get(key), int):
                    problems.append(
                        f"episodes[{name!r}].{key!r} missing or non-integer"
                    )
            if not isinstance(ep.get("recovered"), bool):
                problems.append(
                    f"episodes[{name!r}].'recovered' missing or non-boolean"
                )
    return problems


def validate_bench_json(doc: Any) -> list[str]:
    """Structural problems of one result document (empty = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, not an object"]
    if doc.get("schema") == DRIFT_SCHEMA:
        return _validate_drift_json(doc)
    if doc.get("schema") == CHAOS_SCHEMA:
        return _validate_chaos_json(doc)
    if doc.get("schema") == CORRUPT_SCHEMA:
        return _validate_corrupt_json(doc)
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {BENCH_SCHEMA!r}")
    for key, typ in (
        ("version", str),
        ("sweep", str),
        ("quick", bool),
        ("n_cells", int),
        ("jobs", int),
        ("serial_cold_s", (int, float)),
        ("parallel_warm_s", (int, float)),
        ("speedup", (int, float)),
        ("cells_per_sec", (int, float)),
        ("engine", dict),
        ("cache", dict),
    ):
        if key not in doc:
            problems.append(f"missing key {key!r}")
        elif not isinstance(doc[key], typ):
            problems.append(f"{key!r} is {type(doc[key]).__name__}")
    if isinstance(doc.get("engine"), dict):
        for key in ("events", "elapsed_s", "events_per_sec"):
            if not isinstance(doc["engine"].get(key), (int, float)):
                problems.append(f"engine.{key!r} missing or non-numeric")
    if isinstance(doc.get("cache"), dict):
        for key in ("hits", "misses", "hit_rate"):
            if not isinstance(doc["cache"].get(key), (int, float)):
                problems.append(f"cache.{key!r} missing or non-numeric")
    if isinstance(doc.get("sweep"), str) and doc["sweep"] not in ("full", "quick"):
        problems.append(f"sweep is {doc['sweep']!r}, expected 'full' or 'quick'")
    return problems


def compare_bench(
    current: dict[str, Any],
    baseline: dict[str, Any],
    *,
    tolerance: float = 0.2,
) -> list[str]:
    """Regressions of ``current`` vs a same-sweep ``baseline`` document.

    A metric regresses when it falls more than ``tolerance`` (fraction)
    below the baseline; improvements never fail.  Returns one line per
    regression (empty = pass).
    """
    regressions: list[str] = []
    if current.get("sweep") != baseline.get("sweep"):
        return [
            f"sweep mismatch: current {current.get('sweep')!r} "
            f"vs baseline {baseline.get('sweep')!r}"
        ]
    if current.get("schema") == DRIFT_SCHEMA:
        cur = float(current.get("median_speedup_le_10pct", 0.0))
        base = float(baseline.get("median_speedup_le_10pct", 0.0))
        floor = base * (1.0 - tolerance)
        if cur < floor:
            regressions.append(
                f"median_speedup_le_10pct: {cur:.2f} is "
                f"{100.0 * (1.0 - cur / base):.0f}% below baseline {base:.2f} "
                f"(tolerance {100.0 * tolerance:.0f}%)"
            )
        return regressions
    if current.get("schema") == CHAOS_SCHEMA:
        # resilience gates: completion holds the tolerance; convergence
        # and zero-rebuild are absolute — no tolerance buys back a soak
        # that stopped converging or fell off the incremental path
        cur = float(current.get("mean_completion_rate", 0.0))
        base = float(baseline.get("mean_completion_rate", 0.0))
        floor = base * (1.0 - tolerance)
        if cur < floor:
            regressions.append(
                f"mean_completion_rate: {cur:.4f} is "
                f"{100.0 * (1.0 - cur / base):.0f}% below baseline {base:.4f} "
                f"(tolerance {100.0 * tolerance:.0f}%)"
            )
        if baseline.get("converged") and not current.get("converged"):
            regressions.append(
                "converged: baseline soak converged, current did not"
            )
        rebuilds = int(current.get("full_rebuilds", 0))
        if rebuilds > 0:
            regressions.append(
                f"full_rebuilds: {rebuilds} full plan rebuild(s), expected 0 "
                f"(the soak must stay on the incremental repair path)"
            )
        return regressions
    if current.get("schema") == CORRUPT_SCHEMA:
        # integrity gates are absolute: one undetected corruption, one
        # ABFT miss, or a sweep that stopped recovering is a failure
        # no tolerance buys back
        undetected = int(current.get("undetected_total", 0))
        if undetected > 0:
            regressions.append(
                f"undetected_total: {undetected} corruption(s) reached a "
                f"consumer with no check firing, expected 0"
            )
        injected = int(current.get("abft_injected", 0))
        caught = int(current.get("abft_caught", 0))
        if caught < injected:
            regressions.append(
                f"abft: caught {caught} of {injected} injected compute "
                f"flips, expected all"
            )
        if baseline.get("converged") and not current.get("converged"):
            regressions.append(
                "converged: baseline sweep recovered every episode, "
                "current did not"
            )
        if baseline.get("quarantined") and not current.get("quarantined"):
            regressions.append(
                "quarantined: baseline quarantined the corrupt forwarder, "
                "current never reached the quarantine rung"
            )
        return regressions
    for key in _COMPARE_KEYS:
        cur, base = _metric(current, key), _metric(baseline, key)
        floor = base * (1.0 - tolerance)
        if cur < floor:
            regressions.append(
                f"{key}: {cur:.2f} is {100.0 * (1.0 - cur / base):.0f}% below "
                f"baseline {base:.2f} (tolerance {100.0 * tolerance:.0f}%)"
            )
    return regressions


def merge_baseline(path: str, doc: dict[str, Any]) -> dict[str, Any]:
    """Insert ``doc`` into the baseline file at ``path`` under its sweep.

    The baseline file maps sweep name to result document, so full and
    quick runs coexist; returns the merged mapping after writing it.
    """
    merged: dict[str, Any] = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                existing = json.load(fh)
            if isinstance(existing, dict):
                merged = {k: v for k, v in existing.items() if k in _BASELINE_SWEEPS}
        except (OSError, ValueError):
            merged = {}
    merged[doc["sweep"]] = doc
    with open(path, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return merged


def load_baseline(path: str, sweep: str) -> dict[str, Any]:
    """The baseline document for one sweep, or raise ``ValueError``."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and data.get("schema") in (
        BENCH_SCHEMA,
        DRIFT_SCHEMA,
        CHAOS_SCHEMA,
        CORRUPT_SCHEMA,
    ):
        doc = data  # a bare result document is accepted as its own sweep
    elif isinstance(data, dict) and sweep in data:
        doc = data[sweep]
    else:
        raise ValueError(f"{path} has no baseline for sweep {sweep!r}")
    problems = validate_bench_json(doc)
    if problems:
        raise ValueError(f"{path} [{sweep}]: " + "; ".join(problems))
    return doc


def format_result(doc: dict[str, Any]) -> str:
    """Human-readable summary of one result document."""
    lines = [
        f"repro bench — sweep={doc['sweep']}, {doc['n_cells']} cells, "
        f"jobs={doc['jobs']}",
        f"  serial cold   : {doc['serial_cold_s']:.2f}s",
        f"  parallel warm : {doc['parallel_warm_s']:.2f}s",
        f"  speedup       : {doc['speedup']:.2f}x",
        f"  cell rate     : {doc['cells_per_sec']:.2f} cells/s (warm)",
        f"  engine        : {doc['engine']['events_per_sec']:.0f} events/s "
        f"({doc['engine']['events']} events in {doc['engine']['elapsed_s']:.2f}s)",
        f"  cache         : {doc['cache']['hits']} hits / "
        f"{doc['cache']['misses']} misses "
        f"(hit rate {100.0 * doc['cache']['hit_rate']:.0f}%)",
    ]
    return "\n".join(lines)
