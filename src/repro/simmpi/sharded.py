"""Conservative parallel (sharded) backend of the SimMPI emulator.

:class:`ShardedSimMPI` partitions the ``K`` virtual ranks into
contiguous shards, one per forked worker process, and advances each
shard independently up to a conservative **safe horizon** ``H``.  The
horizon is derived from the network model's *lookahead*
(:meth:`~repro.network.machines.Machine.lookahead_us` — the minimum
virtual time any message needs to cross the network): if every rank
still able to act sits at virtual time >= ``F``, no message that does
not exist yet can arrive before ``F + L``, so events strictly before
that bound are safe to execute without coordination.

Window protocol
---------------
The parent process is a pure coordinator (it simulates nothing); each
worker owns one shard and runs the ordinary serial event engine on it,
with two overrides:

* a send whose destination lives in another shard is buffered into a
  per-destination-shard **outbox** instead of a mailbox, and routed by
  the coordinator at the next window barrier;
* a **wildcard** receive only matches envelopes arriving strictly
  before ``H`` — a later envelope could still be preempted by an
  unseen cross-shard message.  Fully-specified receives match
  unrestricted: per ``(source, tag)`` the FIFO head is always the true
  next message (a sender's clock is monotone and each channel is
  routed in order), so holding it would only cost rounds.

Each round the coordinator broadcasts ``advance(H)``, relays the
outboxes, and repeats while anything moved.  At global quiescence it
arbitrates exactly like the serial engine's drained-deque step, in
order: raise ``H`` to ``min-floor + L`` when that releases a held
wildcard envelope; complete a uniform collective (gathering the
blocked operations and computing the outcome with the exact serial
:func:`~repro.simmpi.runtime.collective_outcome` math); fire the
globally earliest virtual-time timer (crash before recv deadline);
otherwise report a deadlock.  Timers firing only at global quiescence
is precisely the serial engine's behavior, which is what makes the
backends' fault and timeout semantics coincide.

Determinism and identity
------------------------
The engine targets **bit-identical** :class:`~repro.simmpi.message.RunResult`
values against the serial backend: same returns, clocks, canonical
trace, crash list and fault events (both backends canonicalize through
:meth:`SimMPI._finalize`-equivalent sorting).  Features whose
semantics depend on a single sequential RNG consumed in global posting
order cannot be sharded and are rejected eagerly by name: per-message
``jitter`` and probabilistic link faults (drop / duplicate / flip).
Deterministic fault machinery — scheduled crashes, link outages,
stragglers, seed-keyed corruption draws — works unchanged.
"""

from __future__ import annotations

import math
import pickle
from typing import Any, Callable, Generator

import numpy as np

from ..errors import DeadlockError, ExperimentError, PendingOp, SimMPIError, format_pending
from ..network.machines import Machine
from ..parallel import pool_context, resolve_jobs
from .collectives import ShrinkOp
from .faults import FaultPlan
from .message import RunResult
from .runtime import (
    _COLLECTIVE_OPS,
    ENGINE_STATS,
    Comm,
    SimMPI,
    _ProcState,
    collective_outcome,
    fault_sort_key,
    shrink_cost,
    trace_sort_key,
)

__all__ = ["ShardedSimMPI"]

_INF = math.inf

#: collective op classes by wire name (``BarrierOp`` -> ``"barrier"``)
_KIND_BY_NAME = {
    cls.__name__.removesuffix("Op").lower(): cls for cls in _COLLECTIVE_OPS
}
_NAME_BY_KIND = {cls: name for name, cls in _KIND_BY_NAME.items()}


def _validate_plan_for_sharding(plan: FaultPlan) -> None:
    """Reject fault-plan features that consume the sequential RNG.

    Probabilistic link faults draw from one ``default_rng(seed)`` in
    global message-posting order, which no shard decomposition can
    reproduce; the error names each offending field so the caller can
    either drop it or fall back to ``engine="event"``.
    """
    bad: list[str] = []
    for name in ("default_drop", "default_duplicate", "default_flip"):
        if getattr(plan, name) > 0.0:
            bad.append(f"{name}={getattr(plan, name)}")
    for name in ("link_drop", "link_duplicate", "link_flip"):
        hot = {k: p for k, p in getattr(plan, name).items() if p > 0.0}
        if hot:
            bad.append(f"{name}={hot}")
    if bad:
        raise SimMPIError(
            "engine='sharded' cannot reproduce probabilistic link faults "
            "(they consume a sequential RNG in global posting order): "
            + ", ".join(bad)
            + "; use engine='event' or a plan with only crashes/outages/"
            "stragglers/corruption draws"
        )


class _ShardEngine(SimMPI):
    """The serial engine scoped to one shard, run inside a worker.

    Non-owned ranks exist only as finished placeholder states; their
    mailboxes receive nothing (sends to them divert to the outbox) and
    their process functions are never instantiated.
    """

    def __init__(
        self,
        K: int,
        *,
        shard: int,
        shard_of: list[int],
        owned: range,
        machine: Machine,
        mapping,
        trace: bool,
        jitter_seed: int,
        rendezvous_threshold_words,
        fault_plan,
        tracer,
    ):
        super().__init__(
            K,
            machine=machine,
            mapping=mapping,
            trace=trace,
            jitter_seed=jitter_seed,
            rendezvous_threshold_words=rendezvous_threshold_words,
            fault_plan=fault_plan,
            tracer=tracer,
        )
        self._my_shard = shard
        self._shard_of = shard_of
        self._owned = owned
        self._nshards = max(shard_of) + 1 if shard_of else 1
        self._outbox: list[list[tuple]] = [[] for _ in range(self._nshards)]
        self._new_crashes: list[int] = []

    # -- engine overrides ------------------------------------------------

    # wildcard matching needs no override: the base engine is already
    # conservative whenever a machine is present, and a shard always
    # has one — the coordinator drives ``_horizon`` via advance windows

    def _enqueue(self, env: tuple) -> None:
        shard = self._shard_of[env[7]]
        if shard == self._my_shard:
            super()._enqueue(env)
            return
        # cross-shard: the sender was charged exactly as in the serial
        # engine; buffer the envelope for the window barrier
        self._outbox[shard].append(env)

    def _kill_rank(self, rank: int, state: _ProcState, *, at: float) -> None:
        super()._kill_rank(rank, state, at=at)
        self._new_crashes.append(rank)

    # -- worker-side commands --------------------------------------------

    def _reset(self, proc_factory: Callable[[Comm], Generator | Any]) -> None:
        super()._reset(proc_factory)
        self._outbox = [[] for _ in range(self._nshards)]
        self._new_crashes = []

    def _cmd_advance(
        self, H: float, inbound: list[bytes], new_crashes: tuple[int, ...]
    ) -> tuple:
        if new_crashes and self._faults is not None:
            self._faults.crashed.update(new_crashes)
        if H > self._horizon:
            self._raise_horizon(H)
        if inbound:
            envs: list[tuple] = []
            for blob in inbound:
                envs.extend(pickle.loads(blob))
            # per-source order (= sender program order) must survive the
            # merge so each (source, tag) FIFO stays in channel order; an
            # envelope sorts by its own (arrive, source, seq) head
            envs.sort(key=lambda e: e[:3])
            for env in envs:
                self._enqueue(env)
        progressed = bool(self._ready)
        self._drain_ready()
        return self._report(progressed)

    def _report(self, progressed: bool) -> tuple:
        outbox: list[bytes | None] = [None] * self._nshards
        for s, batch in enumerate(self._outbox):
            if batch:
                outbox[s] = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
                self._outbox[s] = []
        num_live = 0
        finished_not_acked = 0
        max_clock = -_INF
        for r in self._owned:
            state = self._procs[r]
            if state.finished:
                if r not in self._acked_dead:
                    finished_not_acked += 1
                continue
            num_live += 1
            if state.clock > max_clock:
                max_clock = state.clock
        min_deadline, min_held = self._recv_floors()
        coll = {_NAME_BY_KIND[k]: n for k, n in self._coll_kinds.items()}
        new_crashes = tuple(self._new_crashes)
        self._new_crashes = []
        return (
            outbox,
            progressed,
            num_live,
            finished_not_acked,
            coll,
            min(min_deadline, min_held),
            min_held,
            self._peek_next_timer(),
            max_clock,
            new_crashes,
        )

    def _cmd_collect_ops(self) -> list[tuple[int, Any]]:
        return [
            (r, self._procs[r].blocked_on)
            for r in self._owned
            if not self._procs[r].finished
        ]

    def _cmd_complete_collective(self, kind_name: str, t: float, results: dict) -> None:
        waiting = [r for r in self._owned if not self._procs[r].finished]
        self._apply_collective(_KIND_BY_NAME[kind_name], waiting, results, t, count=False)

    def _cmd_complete_shrink(self, t: float, dead: tuple[int, ...]) -> None:
        waiting = [r for r in self._owned if not self._procs[r].finished]
        self._apply_shrink(waiting, dead, t, count=False)

    def _cmd_pending(self) -> tuple:
        alive = [r for r in self._owned if not self._procs[r].finished]
        clocks = [(r, self._procs[r].clock) for r in self._owned]
        fs = self._faults
        return (
            self._pending_ops(alive),
            clocks,
            set() if fs is None else set(fs.crashed),
        )

    def _cmd_finish(self) -> tuple:
        returns = [(r, self._procs[r].retval) for r in self._owned]
        clocks = [(r, self._procs[r].clock) for r in self._owned]
        fs = self._faults
        return (
            returns,
            clocks,
            self.trace,
            [] if fs is None else list(fs.events),
            set() if fs is None else set(fs.crashed),
            self.tracer if self._obs is not None else None,
            self._stats,
        )


def _worker_main(engine: _ShardEngine, conn, proc_factory) -> None:
    """Command loop of one shard worker (child process, post-fork)."""
    try:
        if engine._obs is not None:
            # the fork copied the session tracer; keep only worker-side
            # records so the parent's merge does not double count
            engine.tracer.reset()
        engine._reset(proc_factory)
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "advance":
                conn.send(("ok", engine._cmd_advance(msg[1], msg[2], msg[3])))
            elif cmd == "fire_timer":
                engine._fire_timer(msg[1], msg[2], msg[3])
                conn.send(("ok", None))
            elif cmd == "collect_ops":
                conn.send(("ok", engine._cmd_collect_ops()))
            elif cmd == "complete_collective":
                engine._cmd_complete_collective(msg[1], msg[2], msg[3])
                conn.send(("ok", None))
            elif cmd == "complete_shrink":
                engine._cmd_complete_shrink(msg[1], msg[2])
                conn.send(("ok", None))
            elif cmd == "pending":
                conn.send(("ok", engine._cmd_pending()))
            elif cmd == "finish":
                conn.send(("ok", engine._cmd_finish()))
                return
            else:  # pragma: no cover - defensive
                raise SimMPIError(f"unknown worker command {cmd!r}")
    except (EOFError, KeyboardInterrupt):  # parent went away / interrupt
        pass
    except BaseException as exc:  # ship the failure to the coordinator
        try:
            conn.send(("error", exc))
        except Exception:
            try:
                conn.send(("error", SimMPIError(f"worker failed: {exc!r}")))
            except Exception:
                pass
    finally:
        conn.close()


class ShardedSimMPI(SimMPI):
    """Sharded conservative-parallel backend; select via
    ``SimMPI(K, engine="sharded", workers=N, ...)``.

    Requires a :class:`~repro.network.machines.Machine` (its
    ``lookahead_us()`` is the safe-window width) and the ``fork`` start
    method (process functions are closures the workers inherit, never
    pickle).  ``workers=None`` means one worker per CPU, clamped to
    ``K``; incompatible features — ``jitter > 0`` and probabilistic
    link faults — are rejected eagerly with errors naming the value.
    """

    def __init__(
        self,
        K: int,
        *,
        machine: Machine | None = None,
        mapping: np.ndarray | None = None,
        trace: bool = False,
        jitter: float = 0.0,
        jitter_seed: int = 0,
        rendezvous_threshold_words: int | None = None,
        fault_plan: FaultPlan | None = None,
        tracer=None,
        engine: str = "sharded",
        workers: int | None = None,
    ):
        if engine != "sharded":
            raise SimMPIError(
                f"ShardedSimMPI is engine='sharded', got engine={engine!r}; "
                "use SimMPI(K, engine=...) for backend dispatch"
            )
        if machine is None:
            raise SimMPIError(
                "engine='sharded' requires a machine: the conservative "
                "window width is the machine's minimum message latency "
                "(Machine.lookahead_us()); use engine='event' for "
                "machine-less functional runs"
            )
        if jitter != 0.0:
            raise SimMPIError(
                f"engine='sharded' does not support jitter={jitter} "
                "(per-message jitter consumes a sequential RNG in global "
                "posting order); use engine='event'"
            )
        if fault_plan is not None:
            _validate_plan_for_sharding(fault_plan)
        super().__init__(
            K,
            machine=machine,
            mapping=mapping,
            trace=trace,
            jitter_seed=jitter_seed,
            rendezvous_threshold_words=rendezvous_threshold_words,
            fault_plan=fault_plan,
            tracer=tracer,
        )
        self.engine_name = "sharded"
        try:
            self.workers = min(resolve_jobs(workers), self.K)
        except ExperimentError as exc:
            raise SimMPIError(f"engine='sharded': {exc}") from None
        # base __init__ computed self._lookahead (engine_lookahead:
        # machine minimum latency scaled by the fastest straggler)
        if not self._lookahead > 0.0:
            raise SimMPIError(
                f"engine='sharded' needs positive lookahead, got "
                f"{self._lookahead} (machine alpha_us={machine.alpha_us}, "
                f"straggler floor applied); use engine='event'"
            )

    # ------------------------------------------------------------------
    # Coordinator
    # ------------------------------------------------------------------

    def run(self, proc_factory: Callable[[Comm], Generator | Any]) -> RunResult:
        ctx = pool_context()
        if ctx.get_start_method() != "fork":
            raise SimMPIError(
                "engine='sharded' requires the 'fork' start method "
                "(workers inherit the process factory); this platform "
                f"offers {ctx.get_start_method()!r} — use engine='event'"
            )
        W = self.workers
        K = self.K
        bounds = [(s * K) // W for s in range(W + 1)]
        shard_of = [0] * K
        for s in range(W):
            for r in range(bounds[s], bounds[s + 1]):
                shard_of[r] = s
        engines = [
            _ShardEngine(
                K,
                shard=s,
                shard_of=shard_of,
                owned=range(bounds[s], bounds[s + 1]),
                machine=self.machine,
                mapping=self._mapping,
                trace=self._trace_enabled,
                jitter_seed=0,
                rendezvous_threshold_words=self.rendezvous_threshold_words,
                fault_plan=self.fault_plan,
                tracer=self.tracer,
            )
            for s in range(W)
        ]
        conns = []
        procs = []
        try:
            for s in range(W):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                p = ctx.Process(
                    target=_worker_main,
                    args=(engines[s], child_conn, proc_factory),
                    daemon=True,
                )
                p.start()
                child_conn.close()
                conns.append(parent_conn)
                procs.append(p)
            return self._coordinate(conns, shard_of, bounds)
        finally:
            for conn in conns:
                try:
                    conn.close()
                except Exception:
                    pass
            for p in procs:
                p.join(timeout=5.0)
                if p.is_alive():  # pragma: no cover - defensive
                    p.terminate()
                    p.join(timeout=5.0)

    def _rpc(self, conns, messages) -> list:
        """Send one command per worker, collect one reply per worker."""
        for conn, msg in zip(conns, messages):
            conn.send(msg)
        replies = []
        for conn in conns:
            try:
                status, payload = conn.recv()
            except EOFError:
                raise SimMPIError(
                    "sharded engine worker died without reporting an error"
                ) from None
            if status == "error":
                raise payload
            replies.append(payload)
        return replies

    def _coordinate(self, conns, shard_of: list[int], bounds: list[int]) -> RunResult:
        W = len(conns)
        alpha = self.machine.alpha_us
        beta = self.machine.beta_us_per_word
        L = self._lookahead
        H = L
        inboxes: list[list[bytes]] = [[] for _ in range(W)]
        new_crashes: tuple[int, ...] = ()
        crashed: set[int] = set()
        obs = self._obs
        rounds = 0

        while True:
            reports = self._rpc(
                conns,
                [("advance", H, inboxes[s], new_crashes) for s in range(W)],
            )
            inboxes = [[] for _ in range(W)]
            moved = False
            progressed = False
            total_live = 0
            finished_not_acked = 0
            kinds: set[str] = set()
            coll_total = 0
            min_floor = _INF
            min_held = _INF
            timer: tuple[float, int, int] | None = None
            max_clock = -_INF
            fresh: list[int] = []
            for rep in reports:
                outbox, prog, live, fna, coll, floor, held, tmr, mclk, crs = rep
                for s, blob in enumerate(outbox):
                    if blob is not None:
                        inboxes[s].append(blob)
                        moved = True
                progressed |= prog
                total_live += live
                finished_not_acked += fna
                kinds.update(coll)
                coll_total += sum(coll.values())
                min_floor = min(min_floor, floor)
                min_held = min(min_held, held)
                if tmr is not None and (timer is None or tmr < timer):
                    timer = tmr
                max_clock = max(max_clock, mclk)
                fresh.extend(crs)
            crashed.update(fresh)
            new_crashes = tuple(fresh)
            if moved or progressed:
                continue
            if total_live == 0:
                break
            rounds += 1

            # quiescent: arbitrate exactly like the serial drained-deque
            # step — a held envelope the raised bound releases must land
            # before any collective or timer resolves.  An infinite
            # min_floor (no recv-blocked rank) must NOT raise H: the
            # horizon would jump to infinity and disable wildcard
            # gating for the rest of the run; collective completion
            # raises it finitely instead.
            if min_floor < _INF:
                H2 = max(H, min_floor + L)
                if H2 > H:
                    H = H2
                    if min_held < H2:
                        continue

            if len(kinds) == 1 and coll_total == total_live:
                kind_name = next(iter(kinds))
                kind = _KIND_BY_NAME[kind_name]
                if kind is ShrinkOp:
                    if timer is not None and timer[0] <= max_clock:
                        # crashes due by the agreement point die first
                        self._rpc_one(conns, shard_of, timer)
                        continue
                    dead = tuple(sorted(crashed))
                    t = max_clock + shrink_cost(total_live, alpha)
                    self._rpc(conns, [("complete_shrink", t, dead)] * W)
                    if obs is not None:
                        obs.count("engine.shrinks", 1)
                    H = max(H, t + L)
                    continue
                if total_live == self.K or finished_not_acked == 0:
                    gathered = self._rpc(conns, [("collect_ops",)] * W)
                    pairs = sorted(
                        (rk, op) for chunk in gathered for rk, op in chunk
                    )
                    waiting = [rk for rk, _ in pairs]
                    ops = dict(pairs)
                    results, cost = collective_outcome(kind, ops, waiting, alpha, beta)
                    t = max_clock + cost
                    self._rpc(
                        conns,
                        [
                            (
                                "complete_collective",
                                kind_name,
                                t,
                                {
                                    rk: results[rk]
                                    for rk in waiting
                                    if bounds[s] <= rk < bounds[s + 1]
                                },
                            )
                            for s in range(W)
                        ],
                    )
                    if obs is not None:
                        obs.count("engine.collectives", 1, kind=kind_name)
                    H = max(H, t + L)
                    continue
            if timer is not None:
                self._rpc_one(conns, shard_of, timer)
                continue
            self._raise_sharded_deadlock(conns, total_live)

        return self._finish(conns, rounds)

    def _rpc_one(self, conns, shard_of: list[int], timer: tuple[float, int, int]) -> None:
        """Fire one timer event on the worker owning its rank."""
        t, kind, rank = timer
        conn = conns[shard_of[rank]]
        conn.send(("fire_timer", t, kind, rank))
        status, payload = conn.recv()
        if status == "error":
            raise payload

    def _raise_sharded_deadlock(self, conns, total_live: int) -> None:
        replies = self._rpc(conns, [("pending",)] * len(conns))
        pending: list[PendingOp] = []
        clocks = [0.0] * self.K
        crashed: set[int] = set()
        for reply in replies:
            pend, clks, crs = reply
            pending.extend(pend)
            for r, c in clks:
                clocks[r] = c
            crashed |= crs
        pending.sort(key=lambda p: p.rank)
        dead = tuple(sorted(crashed))
        finished = self.K - total_live
        head = "deadlock: no rank can progress"
        if dead:
            head += f" ({len(dead)} rank(s) crashed: {list(dead)})"
        if finished - len(dead):
            head += f" ({finished - len(dead)} rank(s) already exited)"
        raise DeadlockError(
            head + "\n" + format_pending(pending),
            pending=pending,
            crashed=dead,
            clocks=tuple(clocks),
        )

    def _finish(self, conns, rounds: int) -> RunResult:
        """Merge the shards' results; ``engine_stats`` are summed over
        the workers, with the coordinator's own quiescent-round count."""
        replies = self._rpc(conns, [("finish",)] * len(conns))
        stats = dict.fromkeys(ENGINE_STATS, 0)
        returns: list[Any] = [None] * self.K
        clocks = [0.0] * self.K
        trace = []
        events = []
        crashed: set[int] = set()
        for reply in replies:
            rets, clks, tr, evs, crs, tracer, shard_stats = reply
            for name, n in shard_stats.items():
                stats[name] += n
            for r, v in rets:
                returns[r] = v
            for r, c in clks:
                clocks[r] = c
            trace.extend(tr)
            events.extend(evs)
            crashed |= crs
            if tracer is not None and self._obs is not None:
                self.tracer.merge(tracer)
        stats["quiescent_rounds"] = rounds
        trace.sort(key=trace_sort_key)
        self.trace = trace
        return RunResult(
            returns=returns,
            clocks=clocks,
            makespan_us=max(clocks) if clocks else 0.0,
            trace=trace,
            crashed=sorted(crashed),
            fault_events=sorted(events, key=fault_sort_key),
            engine_stats=stats,
        )
