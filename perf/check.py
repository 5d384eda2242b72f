"""Output verifier: every timed op's result passes through here after
its timer has stopped.  A check that does not hold raises ``Failed``,
which the runner counts as a failed op.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import plan as plan_mod
from repro.core import stfw
from repro.core.bounds import max_message_count_bound
from repro.errors import ObsError
from repro.obs import validate_chrome_trace


class Failed(Exception):
    """A timed op produced a wrong output."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Failed(what)


def deliveries(pattern, delivered, dead=()) -> None:
    """Every pattern pair arrived exactly once, with the payload it was sent with.

    ``dead`` ranks (a fault-tolerant run's crashes) relax this to: every
    pair with both ends alive arrived, no pair arrived twice, and nothing
    arrived that the pattern does not hold.
    """
    K = pattern.K
    counts = np.fromiter((len(msgs or ()) for msgs in delivered), np.int64, count=K)
    total = int(counts.sum())
    pairs = [pair for msgs in delivered if msgs for pair in msgs]
    src = np.fromiter((s for s, _ in pairs), np.int64, count=total)
    words = np.fromiter((len(p) for _, p in pairs), np.int64, count=total)
    keys = src * K + np.repeat(np.arange(K, dtype=np.int64), counts)

    order = np.argsort(pattern.src * K + pattern.dst)
    want = (pattern.src * K + pattern.dst)[order]
    got = np.sort(keys)
    _require(bool((got[1:] != got[:-1]).all()), "a pair was delivered twice")
    if len(dead):
        gone = np.zeros(K, dtype=bool)
        gone[list(dead)] = True
        alive = want[~(gone[want // K] | gone[want % K])]
        _require(bool(np.isin(alive, got, assume_unique=True).all()),
                 "a pair with both ends alive was not delivered")
        _require(bool(np.isin(got, want, assume_unique=True).all()),
                 "a delivered pair is not in the pattern")
    else:
        _require(np.array_equal(got, want), "delivered pairs differ from the pattern's")

    row = np.searchsorted(want, keys)
    _require(np.array_equal(words, pattern.size[order][row]), "a payload has the wrong length")
    if total:
        flat = np.concatenate([np.asarray(p) for _, p in pairs])
        _require(flat.dtype == np.int64 and np.array_equal(flat, np.repeat(keys, words)),
                 "a payload has the wrong content")


def plan_bounds(plan) -> None:
    """The paper's message bound and the volume accounting of one plan."""
    vpt, pat = plan.vpt, plan.pattern
    _require(plan.max_message_count <= max_message_count_bound(vpt.dim_sizes),
             f"mmax {plan.max_message_count} exceeds sum_d (k_d - 1)")
    for d, stage in enumerate(plan.stages):
        # a message crosses stage d exactly when its ends differ in digit d
        moved = vpt.digit_array(pat.src, d) != vpt.digit_array(pat.dst, d)
        _require(int(stage.payload_words.sum()) == int(pat.size[moved].sum())
                 and int(stage.nsub.sum()) == int(moved.sum()),
                 f"stage {d} does not carry the words routed through it")
        _require(np.array_equal(stage.total_words,
                                stage.payload_words + plan.header_words * stage.nsub),
                 f"stage {d} total words are not payload plus headers")


def cells(experiments) -> None:
    """Every scheme of every paper cell has a valid plan and a finite time."""
    for exp in experiments:
        _require(len(exp.results) > 0, f"cell {exp.name} has no scheme")
        for result in exp.results.values():
            plan_bounds(result.plan)
            t = result.stats.comm_time_us
            _require(math.isfinite(t) and t > 0, f"{exp.name}/{result.scheme}: comm time {t}")


def service_final(svc) -> None:
    """After the last epoch the repaired plan equals a from-scratch build."""
    _require(svc.full_rebuilds == 0, f"service fell back to {svc.full_rebuilds} full rebuilds")
    _require(plan_mod.plans_identical(svc.plan, plan_mod.build_plan(svc.pattern, svc.vpt)),
             "repaired plan differs from a rebuild")


def engines_agree(pattern, machine) -> None:
    """The batch engine reproduces the event engine on a small pattern."""
    event = stfw.run_exchange(pattern, dims=2, machine=machine, engine="event")
    batch = stfw.run_exchange(pattern, dims=2, machine=machine, engine="batch")
    _require(event.makespan_us == batch.makespan_us, "batch and event makespans differ")
    same = all(
        len(a) == len(b) and all(s == t and np.array_equal(p, q) for (s, p), (t, q) in zip(a, b))
        for a, b in zip(event.delivered, batch.delivered)
    )
    _require(same, "batch and event deliveries differ")


def chrome(doc: str) -> None:
    try:
        validate_chrome_trace(doc)
    except ObsError as exc:
        raise Failed(f"chrome trace invalid: {exc}") from exc
