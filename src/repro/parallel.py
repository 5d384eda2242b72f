"""Deterministic process-pool execution of independent experiment cells.

The paper's evaluation is a sweep — matrices x K x machines x VPT
dimensionalities — whose cells are mutually independent and individually
deterministic (every RNG is seeded from the experiment config plus the
cell's own identity).  :func:`parallel_map` fans such cells out over a
pool of worker processes and merges the results **in task order**, so a
parallel run returns byte-identical results to the serial run; ``-j 1``
and the single-task case bypass the pool entirely and execute inline.

Design rules that make the determinism guarantee hold:

* task functions must be module-level (picklable) and must derive every
  random seed from their arguments — never from ambient state;
* results come back via ``Pool.map``, which preserves input order, so
  the merge is a plain ordered list regardless of completion order;
* tracing is snapshot-based: when the caller passes an enabled
  :class:`repro.obs.Tracer`, each worker task runs against a fresh
  tracer whose records are shipped back with the result and folded into
  the session tracer via :meth:`~repro.obs.Tracer.merge`, once per task
  and in task order — counters therefore sum to exactly the serial
  totals (no double-counting).

Workers are forked where the platform allows (the default on Linux and
the cheap option: no re-import, no re-generation of shared state) and
spawned otherwise.  :func:`worker_state` gives task functions a
per-process memo — e.g. one :class:`~repro.experiments.harness.InstanceCache`
per experiment config — so consecutive tasks in one worker share
expensive intermediates just like the serial path does.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, Iterable, TypeVar

from .errors import ExperimentError

__all__ = ["parallel_map", "resolve_jobs", "worker_state"]

T = TypeVar("T")

#: per-worker-process memo; lives in the worker after the fork/spawn and
#: is keyed by whatever hashable identity the task function chooses
_WORKER_STATE: dict[Any, Any] = {}


def worker_state(key: Any, factory: Callable[[], T]) -> T:
    """A per-worker-process singleton, built on first use.

    Task functions call this to share expensive state (an instance
    cache, an open artifact cache) across the tasks one worker process
    executes, without smuggling unpicklable objects through the task
    arguments.  ``key`` must capture everything the state depends on
    (e.g. the frozen experiment config), so two configs never share an
    entry.
    """
    try:
        return _WORKER_STATE[key]
    except KeyError:
        state = _WORKER_STATE[key] = factory()
        return state


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``-j/--jobs`` value to a positive worker count.

    ``None``, 0 and -1 all mean "one worker per CPU"; anything else
    must be a positive integer.
    """
    if jobs is None or jobs in (0, -1):
        return os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ExperimentError(f"jobs={jobs} must be positive (or -1 for all CPUs)")
    return jobs


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, shares loaded modules), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _run_task(payload: tuple) -> tuple[Any, Any]:
    """Worker-side shim: run one task, snapshot its tracer.

    Returns ``(result, tracer_or_None)``; the parent merges the tracer
    snapshots in task order.
    """
    fn, task, traced = payload
    tracer = None
    if traced:
        from .obs import Tracer

        tracer = Tracer("worker")
    return fn(task, tracer), tracer


def parallel_map(
    fn: Callable[[Any, Any], T],
    tasks: Iterable[Any],
    *,
    jobs: int | None = 1,
    tracer=None,
) -> list[T]:
    """Run ``fn(task, tracer)`` over ``tasks``, optionally in parallel.

    ``fn`` must be a module-level function taking ``(task, tracer)``
    where ``tracer`` is an enabled :class:`repro.obs.Tracer` or ``None``
    — and must be deterministic in ``task`` alone.  With ``jobs <= 1``
    (or fewer than two tasks) everything runs inline in this process,
    against the session tracer directly; otherwise tasks are distributed
    over a process pool and per-task tracer snapshots are merged into
    ``tracer`` in task order.  Either way the returned list is in task
    order, so serial and parallel runs are interchangeable.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    traced = tracer is not None and getattr(tracer, "enabled", False)
    if jobs <= 1 or len(tasks) <= 1:
        session = tracer if traced else None
        return [fn(task, session) for task in tasks]

    ctx = _pool_context()
    payloads = [(fn, task, traced) for task in tasks]
    with ctx.Pool(processes=min(jobs, len(tasks))) as pool:
        pairs = pool.map(_run_task, payloads)
    results: list[T] = []
    for result, snapshot in pairs:
        if snapshot is not None:
            tracer.merge(snapshot)
        results.append(result)
    return results
