"""Session-scoped tracing primitives: spans, instants, counters.

The observability layer turns a run — an emulated exchange, a
fault-tolerant recovery, a whole experiment sweep — into an inspectable
event stream.  It is deliberately tiny and dependency-free:

* a **span** is a named ``[t0, t1]`` interval on a *track* (a rank
  number, or a named host-side track like ``"harness"``);
* an **instant** is a point event (a crash, a dropped message, a
  checkpoint save);
* a **counter** is a named accumulator, optionally labelled (e.g.
  ``stage=2``) and optionally sampled over time so exporters can draw
  it as a timeline.

Times are microseconds.  Instrumented code uses whichever clock is
meaningful — the engine and the exchange processes record *virtual*
time, the experiment harness records wall time on its own named track —
and exporters keep the tracks apart.

Injection, not globals
----------------------
Every instrumented layer takes a tracer as a constructor argument or
keyword (``SimMPI(..., tracer=...)``, ``run_exchange(..., tracer=...)``,
``ReliableComm(..., tracer=...)``); nothing reads ambient state.  The
default everywhere is :data:`NULL_TRACER`, whose methods are no-ops and
whose ``enabled`` flag is ``False`` — hot paths guard on that flag (or
on a ``None`` check) so a disabled tracer costs nothing measurable.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..errors import ObsError

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanRecord",
    "InstantRecord",
    "CounterSample",
    "wall_clock_us",
]


def wall_clock_us() -> float:
    """The host wall clock in microseconds (for harness-side spans)."""
    return time.perf_counter() * 1e6


Track = "int | str"


def _freeze_args(args: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(args.items()))


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One named interval on a track; ``args`` is a frozen item tuple."""

    name: str
    t0_us: float
    t1_us: float
    track: int | str = 0
    cat: str = ""
    args: tuple[tuple[str, Any], ...] = ()

    @property
    def dur_us(self) -> float:
        """Span length in microseconds."""
        return self.t1_us - self.t0_us


@dataclass(frozen=True, slots=True)
class InstantRecord:
    """One point event on a track."""

    name: str
    ts_us: float
    track: int | str = 0
    cat: str = ""
    args: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True, slots=True)
class CounterSample:
    """A counter's cumulative value at one instant (timeline point)."""

    name: str
    ts_us: float
    value: float
    track: int | str = 0


class NullTracer:
    """The zero-cost default: every method is a no-op.

    ``enabled`` is ``False`` so instrumented hot loops can skip even
    the argument construction of a tracing call::

        if tracer.enabled:
            tracer.count("stfw.stage_messages", 1, stage=d)
    """

    __slots__ = ()

    enabled = False

    def add_span(self, name, t0_us, t1_us, *, track=0, cat="", **args) -> None:
        """No-op."""

    def add_span_batch(self, name, t0s, t1s, tracks, frozen_args, *, cat="") -> None:
        """No-op."""

    def instant(self, name, ts_us, *, track=0, cat="", **args) -> None:
        """No-op."""

    def count(self, name, value=1, *, track=None, ts_us=None, **labels) -> None:
        """No-op."""

    def count_batch(self, name, tracks, values) -> None:
        """No-op."""

    @contextmanager
    def span(self, name, *, track="host", cat="", clock=None, **args) -> Iterator[None]:
        """No-op context manager."""
        yield

    def value(self, name, *, track=None, **labels) -> float:
        """Always 0.0 — a disabled tracer accumulates nothing."""
        return 0.0

    def merge(self, other) -> None:
        """No-op."""


#: the process-wide no-op tracer; safe to share (it holds no state)
NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans, instants and counters for one session.

    Thread-unsafe by design (the emulator is single-threaded); cheap to
    construct, so use one per run or per CLI session.  All records are
    kept in memory in append order; exporters (:mod:`repro.obs.export`)
    sort as needed.
    """

    __slots__ = ("name", "spans", "instants", "samples", "_counters")

    enabled = True

    def __init__(self, name: str = "run"):
        self.name = name
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []
        self.samples: list[CounterSample] = []
        #: (name, track, labels) -> accumulated value
        self._counters: dict[tuple[str, int | str | None, tuple], float] = {}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def add_span(
        self,
        name: str,
        t0_us: float,
        t1_us: float,
        *,
        track: int | str = 0,
        cat: str = "",
        **args: Any,
    ) -> None:
        """Record a completed ``[t0_us, t1_us]`` span on ``track``."""
        if t1_us < t0_us:
            raise ObsError(
                f"span {name!r}: t1_us={t1_us} precedes t0_us={t0_us}"
            )
        self.spans.append(
            SpanRecord(name, float(t0_us), float(t1_us), track, cat, _freeze_args(args))
        )

    def add_span_batch(
        self,
        name: str,
        t0s: Sequence[float],
        t1s: Sequence[float],
        tracks: Sequence[int | str],
        frozen_args: Sequence[tuple[tuple[str, Any], ...]],
        *,
        cat: str = "",
    ) -> None:
        """Append many spans sharing one name/cat in a single call.

        Bulk form of :meth:`add_span` for vectorized emitters (the batch
        engine emits one span per rank per stage).  Each element of
        ``frozen_args`` must already be in :func:`_freeze_args` form —
        a tuple of ``(key, value)`` items sorted by key — so the
        resulting records compare equal to per-call emission.
        """
        spans = self.spans
        for t0, t1, tr, fa in zip(t0s, t1s, tracks, frozen_args):
            if t1 < t0:
                raise ObsError(
                    f"span {name!r}: t1_us={t1} precedes t0_us={t0}"
                )
            spans.append(SpanRecord(name, float(t0), float(t1), tr, cat, fa))

    @contextmanager
    def span(
        self,
        name: str,
        *,
        track: int | str = "host",
        cat: str = "",
        clock: Callable[[], float] | None = None,
        **args: Any,
    ) -> Iterator[None]:
        """Context manager form; ``clock`` defaults to the wall clock.

        Pass ``clock=lambda: comm.time`` (or any microsecond source) to
        record virtual-time spans from workload code.
        """
        clk = wall_clock_us if clock is None else clock
        t0 = clk()
        try:
            yield
        finally:
            self.add_span(name, t0, clk(), track=track, cat=cat, **args)

    # ------------------------------------------------------------------
    # Instants
    # ------------------------------------------------------------------

    def instant(
        self,
        name: str,
        ts_us: float,
        *,
        track: int | str = 0,
        cat: str = "",
        **args: Any,
    ) -> None:
        """Record a point event at ``ts_us`` on ``track``."""
        self.instants.append(
            InstantRecord(name, float(ts_us), track, cat, _freeze_args(args))
        )

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    def count(
        self,
        name: str,
        value: float = 1,
        *,
        track: int | str | None = None,
        ts_us: float | None = None,
        **labels: Any,
    ) -> None:
        """Add ``value`` to the ``(name, track, labels)`` accumulator.

        With ``ts_us`` the post-increment total is additionally recorded
        as a timeline sample, so exporters can draw the counter's
        evolution (Chrome ``"C"`` events) instead of just its final
        value.
        """
        key = (name, track, _freeze_args(labels))
        total = self._counters.get(key, 0.0) + value
        self._counters[key] = total
        if ts_us is not None:
            self.samples.append(
                CounterSample(name, float(ts_us), total, 0 if track is None else track)
            )

    def count_batch(
        self,
        name: str,
        tracks: Sequence[int | str],
        values: Sequence[float],
    ) -> None:
        """Add ``values[i]`` to the unlabelled ``(name, tracks[i])``
        accumulator for every ``i``.

        Bulk form of :meth:`count` for per-track counters without labels
        or timeline samples (the engine's aggregated ``engine.*`` and
        ``stfw.*_words`` totals); final accumulator values are identical
        to per-call emission.
        """
        counters = self._counters
        for tr, v in zip(tracks, values):
            key = (name, tr, ())
            counters[key] = counters.get(key, 0.0) + v

    def value(self, name: str, *, track: int | str | None = None, **labels: Any) -> float:
        """Current value of one accumulator (0.0 if never incremented)."""
        return self._counters.get((name, track, _freeze_args(labels)), 0.0)

    def counter_rows(self) -> list[tuple[str, int | str | None, dict[str, Any], float]]:
        """All accumulators as sorted ``(name, track, labels, value)`` rows."""
        rows = [
            (name, track, dict(labels), value)
            for (name, track, labels), value in self._counters.items()
        ]
        rows.sort(key=lambda r: (r[0], str(r[1]), sorted((k, str(v)) for k, v in r[2].items())))
        return rows

    # ------------------------------------------------------------------
    # Merging (parallel workers)
    # ------------------------------------------------------------------

    def merge(self, other: "Tracer") -> None:
        """Fold another tracer's records into this one.

        The parallel executor (:mod:`repro.parallel`) gives each worker
        task a fresh tracer and merges the returned snapshots into the
        session tracer **in task order**, exactly once per task — so a
        counter incremented in a worker appears in the session totals
        without double-counting, and a traced parallel run accumulates
        the same counter values as the equivalent serial run.
        """
        if not getattr(other, "enabled", False):
            return
        self.spans.extend(other.spans)
        self.instants.extend(other.instants)
        self.samples.extend(other.samples)
        counters = self._counters
        for key, val in other._counters.items():
            counters[key] = counters.get(key, 0.0) + val

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def tracks(self) -> list[int | str]:
        """Every track that appears in spans, instants, samples or
        counter accumulators (trackless counters excluded).

        Integer tracks (ranks) first in numeric order, then named
        tracks alphabetically.
        """
        seen: set[int | str] = set()
        for rec in self.spans:
            seen.add(rec.track)
        for rec in self.instants:
            seen.add(rec.track)
        for rec in self.samples:
            seen.add(rec.track)
        for (_, track, _labels) in self._counters:
            if track is not None:
                seen.add(track)
        ints = sorted(t for t in seen if isinstance(t, int))
        names = sorted(t for t in seen if isinstance(t, str))
        return [*ints, *names]

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.samples)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer({self.name!r}, spans={len(self.spans)}, "
            f"instants={len(self.instants)}, counters={len(self._counters)})"
        )
