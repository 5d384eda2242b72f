"""Cost-model SpMV driver — the scalable engine behind every experiment.

For a matrix, process count and machine, this driver partitions the
rows, extracts the SpMV communication pattern, builds one communication
plan per requested scheme (BL = dimension 1, STFWn for n >= 2), and
fills in the paper's six metrics: mmax, mavg, vavg, communication time,
total SpMV time (communication + slowest local multiply) and buffer
size.  It is plan-level throughout, so 16K processes are exact and
cheap; the emulator path (:mod:`repro.spmv.distributed`) cross-checks
its semantics at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..core.dimensioning import make_vpt
from ..core.pattern import CommPattern
from ..core.plan import CommPlan, PlanBuilder, build_direct_plan, build_plan
from ..core.recovery import RecoveryPlan, build_recovery
from ..core.stfw import recv_counts_from_plan
from ..errors import DeadlockError, ExperimentError, RecoveryError, format_pending
from ..metrics.collect import CommStats, collect_stats
from ..metrics.resilience import RecoveryEvent
from ..network.machines import Machine
from ..network.timing import spmv_compute_time, time_plan
from ..partition import PARTITIONERS, Partition
from ..simmpi.checkpoint import CheckpointStore, RankCheckpoint, heartbeat_round
from ..simmpi.faults import FaultPlan
from ..simmpi.message import TIMEOUT, RunResult
from ..simmpi.reliable import ReliableComm
from ..simmpi.runtime import run_spmd
from .pattern import nnz_per_part, spmv_needed_entries, spmv_pattern

__all__ = [
    "SchemeResult",
    "SpMVExperiment",
    "run_spmv_schemes",
    "partition_matrix",
    "IterativeRecoveryResult",
    "run_iterative_with_recovery",
    "iterative_reference",
]

#: tag stride separating the stages of consecutive iterations; stays
#: far below the reliable layer's wire tag and the heartbeat tag
_ITER_TAG_STRIDE = 64


@dataclass
class SchemeResult:
    """Metrics of one scheme (BL or STFWn) on one instance."""

    scheme: str
    n_dims: int
    stats: CommStats
    plan: CommPlan = field(repr=False)

    def as_dict(self) -> dict[str, float]:
        """Flat row for report tables."""
        return self.stats.as_dict()


@dataclass
class SpMVExperiment:
    """All schemes of one (matrix, K, machine) cell."""

    name: str
    K: int
    machine: str
    results: dict[str, SchemeResult]

    def __getitem__(self, scheme: str) -> SchemeResult:
        return self.results[scheme]

    @property
    def schemes(self) -> list[str]:
        """Scheme names in dimension order."""
        return list(self.results)

    def best_stfw(self, metric: str = "comm") -> SchemeResult:
        """The STFW scheme minimizing ``metric`` (default comm time)."""
        stfw = [r for r in self.results.values() if r.n_dims > 1]
        if not stfw:
            raise ExperimentError("no STFW schemes in this experiment")
        return min(stfw, key=lambda r: r.as_dict()[metric])


def partition_matrix(
    A: sp.spmatrix, K: int, *, partitioner: str = "rcm", seed: int | None = None
) -> Partition:
    """Partition ``A``'s rows with a named partitioner (default RCM)."""
    try:
        fn = PARTITIONERS[partitioner]
    except KeyError:
        raise ExperimentError(
            f"unknown partitioner {partitioner!r}; known: {', '.join(PARTITIONERS)}"
        ) from None
    return fn(sp.csr_matrix(A), K, seed=seed)


def run_spmv_schemes(
    A: sp.spmatrix,
    K: int,
    machine: Machine,
    *,
    dims: Sequence[int] | None = None,
    partitioner: str = "rcm",
    name: str = "",
    seed: int | None = None,
    contention: bool = False,
    header_words: int = 0,
    partition: Partition | None = None,
    pattern: CommPattern | None = None,
    artifacts=None,
) -> SpMVExperiment:
    """Run BL + STFW schemes for one matrix at one process count.

    Parameters
    ----------
    A:
        Square sparse matrix (CSR recommended).
    K:
        Process count (power of two, as in the paper).
    machine:
        Cost model (see :mod:`repro.network.machines`).
    dims:
        VPT dimensions to evaluate; defaults to all of ``1..lg2 K``
        (1 = BL).
    partitioner, seed:
        Row partitioner selection (ignored when ``partition`` given).
    partition, pattern:
        Precomputed partition / pattern, letting callers amortize the
        expensive steps across machines and dimension sets.
    artifacts:
        Optional :class:`repro.cache.ArtifactCache`; per-dimension
        plans are then fetched by content key (pattern digest + VPT
        shape + header words) before being rebuilt.
    """
    A = sp.csr_matrix(A)
    if partition is None:
        partition = partition_matrix(A, K, partitioner=partitioner, seed=seed)
    if partition.K != K:
        raise ExperimentError(f"partition has K={partition.K}, expected {K}")
    if pattern is None:
        pattern = spmv_pattern(A, partition)

    if dims is None:
        dims = range(1, max(int(np.log2(K)), 1) + 1)

    nnz_loads = nnz_per_part(A, partition)
    compute_us = spmv_compute_time(nnz_loads, machine)

    # one call-local builder across the dimension sweep: the routing
    # intermediates (holders, stage coalescing, occupancy) are shared
    # between VPTs and die with this cell's plans, not with the pattern
    builder = PlanBuilder(pattern)
    digest = None
    if artifacts is not None:
        from ..cache import pattern_digest

        digest = pattern_digest(pattern)

    results: dict[str, SchemeResult] = {}
    for n_dims in dims:
        vpt = make_vpt(K, int(n_dims))
        if artifacts is not None:
            plan = artifacts.plan(
                {
                    "pattern": digest,
                    "dim_sizes": vpt.dim_sizes,
                    "header_words": header_words,
                },
                lambda: builder.plan(vpt, header_words=header_words),
            )
        else:
            plan = builder.plan(vpt, header_words=header_words)
        stats = collect_stats(plan)
        timing = time_plan(plan, machine, contention=contention)
        stats.comm_time_us = timing.total_us
        stats.total_time_us = timing.total_us + compute_us
        results[stats.scheme] = SchemeResult(
            scheme=stats.scheme, n_dims=int(n_dims), stats=stats, plan=plan
        )

    return SpMVExperiment(name=name, K=K, machine=machine.name, results=results)


# ----------------------------------------------------------------------
# Iterative SpMV with checkpoint/restart and shrink-recovery
# ----------------------------------------------------------------------


def _inf_norm(A: sp.csr_matrix) -> float:
    """Maximum absolute row sum of ``A``."""
    if A.nnz == 0:
        return 0.0
    return float(np.abs(A).sum(axis=1).max())


def iterative_reference(
    A: sp.spmatrix,
    x0: np.ndarray,
    iterations: int,
    *,
    seed: int = 0,
    noise_scale: float = 0.01,
) -> np.ndarray:
    """Host-side reference of the recoverable iteration.

    One step is ``x <- s * (A @ x) + noise_scale * q_t`` with
    ``s = 1 / max(1, ||A||_inf)`` (keeping the iteration bounded) and
    ``q_t`` the stateless per-iteration noise stream seeded by
    ``(seed, t)`` — stateless so a restarted run replays it from any
    iteration without RNG state capture.  The distributed driver is
    bit-identical to this loop because a CSR row slice computes the
    exact same per-row dot products.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    s = 1.0 / max(1.0, _inf_norm(A))
    x = np.asarray(x0, dtype=np.float64).copy()
    for t in range(int(iterations)):
        q = np.random.default_rng((seed, t)).standard_normal(n)
        x = s * (A @ x) + noise_scale * q
    return x


class _EpochState:
    """Host-side precomputation for one survivor epoch.

    Built once per distinct dead-set and shared by every rank (it is
    all derived from globally-agreed inputs): the vid-space partition,
    per-survivor row blocks and CSR slices, the exchange index lists,
    the communication pattern, and the plan (STFW stages with per-stage
    receive counts, or the direct fallback).
    """

    def __init__(self, A: sp.csr_matrix, rplan: RecoveryPlan):
        self.rplan = rplan
        part = rplan.partition
        Kp = rplan.new_K
        self.rows = [part.rows_of(v) for v in range(Kp)]
        self.A_local = [A[r, :].tocsr() for r in self.rows]
        #: needed[q][p] = global x indices survivor q gets from survivor p
        self.needed = spmv_needed_entries(A, part)
        #: sender-side mirror: send_idx[p][q] = indices p packs for q
        self.send_idx: list[dict[int, np.ndarray]] = [dict() for _ in range(Kp)]
        for q in range(Kp):
            for p, idx in self.needed[q].items():
                self.send_idx[p][q] = idx
        self.pattern = spmv_pattern(A, part)
        self.vid_by_rank = {r: v for v, r in enumerate(rplan.survivors)}
        if rplan.vpt is not None:
            self.plan = build_plan(self.pattern, rplan.vpt)
            self.plan.check_stage_bounds()
            self.stage_counts = recv_counts_from_plan(self.plan)
        else:
            self.plan = build_direct_plan(self.pattern)
            self.stage_counts = None
        self.direct_expect = self.pattern.recv_counts()
        if self.plan.max_message_count > rplan.message_bound():
            raise RecoveryError(
                f"rebuilt plan sends {self.plan.max_message_count} messages per "
                f"process, exceeding the bound {rplan.message_bound()}",
                dead=rplan.dead,
            )


class _RunContext:
    """Shared host state of one iterative run (checkpoint store, epochs,
    recovery log).  In the emulator all ranks live in one process, so
    this models the job's stable storage plus the host-side telemetry
    sink."""

    def __init__(
        self, A: sp.csr_matrix, partition: Partition, n_dims: int, *, tracer=None
    ):
        self.A = A
        self.base_partition = partition
        self.n_dims = int(n_dims)
        self.tracer = tracer
        self._obs = tracer if (tracer is not None and tracer.enabled) else None
        self.store = CheckpointStore(tracer=tracer)
        self.epochs: dict[tuple[int, ...], _EpochState] = {}
        self.events: list[RecoveryEvent] = []
        self.suspected: set[int] = set()

    def epoch_for(self, dead: tuple[int, ...]) -> _EpochState:
        key = tuple(sorted(dead))
        if key not in self.epochs:
            rplan = build_recovery(self.base_partition, key, self.n_dims)
            self.epochs[key] = _EpochState(self.A, rplan)
        return self.epochs[key]


def _stfw_iter_exchange(comm, epoch: _EpochState, vid: int, x_full, it: int, timeout_us: float):
    """One STFW exchange of iteration ``it`` in vid space.

    Algorithm 1's stage loop with iteration-scoped tags and per-receive
    timeouts; returns False as soon as any receive times out (the
    caller then enters the shrink agreement).
    """
    vpt = epoch.rplan.vpt
    surv = epoch.rplan.survivors
    tagbase = _ITER_TAG_STRIDE * it
    fwbuf: list[dict[int, list]] = [{} for _ in range(vpt.n)]
    for dst_vid, idx in epoch.send_idx[vid].items():
        d = vpt.first_diff_dim(vid, dst_vid)
        fwbuf[d].setdefault(vpt.digit(dst_vid, d), []).append((dst_vid, vid, x_full[idx]))
    for d in range(vpt.n):
        for digit, subs in sorted(fwbuf[d].items()):
            nxt = vid + (digit - vpt.digit(vid, d)) * vpt.weights[d]
            words = sum(len(p) for _, _, p in subs)
            comm.send(surv[nxt], list(subs), tag=tagbase + d, words=words)
        fwbuf[d].clear()
        for _ in range(int(epoch.stage_counts[d, vid])):
            got = yield comm.recv(tag=tagbase + d, timeout_us=timeout_us)
            if got is TIMEOUT:
                return False
            _, _, subs = got
            for dst_vid, src_vid, payload in subs:
                if dst_vid == vid:
                    x_full[epoch.needed[vid][src_vid]] = payload
                else:
                    c = vpt.first_diff_dim(vid, dst_vid)
                    fwbuf[c].setdefault(vpt.digit(dst_vid, c), []).append(
                        (dst_vid, src_vid, payload)
                    )
    return True


def _direct_iter_exchange(comm, epoch: _EpochState, vid: int, x_full, it: int, timeout_us: float):
    """One baseline (direct) exchange of iteration ``it`` in vid space."""
    surv = epoch.rplan.survivors
    tag = _ITER_TAG_STRIDE * it
    for dst_vid, idx in epoch.send_idx[vid].items():
        comm.send(surv[dst_vid], x_full[idx], tag=tag, words=len(idx))
    for _ in range(int(epoch.direct_expect[vid])):
        got = yield comm.recv(tag=tag, timeout_us=timeout_us)
        if got is TIMEOUT:
            return False
        src_rank, _, payload = got
        x_full[epoch.needed[vid][epoch.vid_by_rank[src_rank]]] = payload
    return True


def _recovery_rank(
    comm,
    ctx: _RunContext,
    n: int,
    iterations: int,
    *,
    seed: int,
    noise_scale: float,
    scale: float,
    interval: int,
    timeout_us: float,
    hb_timeout_us: float,
    rc_timeout_us: float,
    max_retry_rounds: int,
):
    """One rank of the recoverable iterative SpMV.

    The protocol per iteration: at every checkpoint boundary (and at
    the end of the run) save state, run one heartbeat ring round, and
    enter the shrink agreement; if the agreed dead set grew, roll back
    to the newest complete checkpoint, rebuild over the survivors
    (``ctx.epoch_for``) and replay.  Between boundaries, an exchange
    receive that times out routes into the same shrink path — the
    shrink's mailbox purge then cancels the half-finished iteration,
    which the rollback replays.  The shrink is the sole authority on
    liveness: heartbeat suspicion only feeds telemetry, so a spurious
    suspicion can never fork the survivors' views.
    """
    rank = comm.rank
    obs = ctx._obs
    rc = ReliableComm(comm, timeout_us=rc_timeout_us, max_retries=2, tracer=ctx.tracer)
    dead: tuple[int, ...] = ()
    epoch = ctx.epoch_for(dead)
    vid = epoch.vid_by_rank[rank]
    x_full = ctx.store.restore_vector(0, n)
    it = 0
    epoch_no = 0
    spurious = 0
    #: (resume iteration, detected iteration, resume clock) of an
    #: in-progress replay — closed into a span when it catches up
    replay: tuple[int, int, float] | None = None

    def recover(agreed: tuple[int, ...], detected_at: float) -> None:
        nonlocal dead, epoch, vid, x_full, it, epoch_no, spurious, replay
        agreed = tuple(sorted(agreed))
        grew = agreed != dead
        c = ctx.store.latest_complete()
        if c is None:  # pragma: no cover - store is pre-seeded at 0
            raise RecoveryError(
                "no complete checkpoint to roll back to", dead=agreed, iteration=it
            )
        if grew:
            spurious = 0
            prev_dead = dead
            dead = agreed
            epoch = ctx.epoch_for(dead)
            epoch_no += 1
            if rank == epoch.rplan.survivors[0]:
                ctx.events.append(
                    RecoveryEvent(
                        epoch=epoch_no,
                        detected_iteration=it,
                        rollback_iteration=c,
                        dead=prev_dead,
                        new_dead=dead,
                        new_K=epoch.rplan.new_K,
                        detected_at_us=detected_at,
                        resumed_at_us=comm.time,
                        message_bound=epoch.rplan.message_bound(),
                    )
                )
        else:
            spurious += 1
            if spurious > max_retry_rounds:
                raise RecoveryError(
                    f"rank {rank}: no progress after {spurious} retry rounds at "
                    f"iteration {it} (dead set unchanged: {list(dead)})",
                    dead=dead,
                    iteration=it,
                )
        vid = epoch.vid_by_rank[rank]
        x_full = ctx.store.restore_vector(c, n)
        if obs is not None:
            obs.add_span(
                "spmv.rollback", detected_at, comm.time, track=rank,
                cat="recovery", to_iteration=c, detected_iteration=it,
                epoch=epoch_no,
            )
            obs.count("spmv.rollbacks", 1, track=rank)
            replay = (c, it, comm.time)
        it = c

    while True:
        at_end = it >= iterations
        if at_end or it % interval == 0:
            cp_t0 = comm.time
            if not ctx.store.is_complete(it):
                rows = epoch.rows[vid]
                ctx.store.save(
                    rank,
                    RankCheckpoint(
                        iteration=it, rows=rows, values=x_full[rows], rng_cursor=it
                    ),
                    frozenset(epoch.rplan.survivors),
                )
            surv = epoch.rplan.survivors
            if len(surv) > 1:
                succ = surv[(vid + 1) % len(surv)]
                pred = surv[(vid - 1) % len(surv)]
                sus = yield from heartbeat_round(
                    rc, ping_to=(succ,), expect_from=(pred,), timeout_us=hb_timeout_us
                )
                ctx.suspected.update(sus)
            t_detect = comm.time
            agreed = yield comm.shrink()
            if obs is not None:
                obs.add_span(
                    "spmv.checkpoint", cp_t0, comm.time, track=rank,
                    cat="checkpoint", iteration=it,
                )
            if tuple(agreed) != dead:
                recover(agreed, t_detect)
                continue
            if at_end:
                break
        if epoch.rplan.vpt is not None:
            ok = yield from _stfw_iter_exchange(comm, epoch, vid, x_full, it, timeout_us)
        else:
            ok = yield from _direct_iter_exchange(comm, epoch, vid, x_full, it, timeout_us)
        if not ok:
            t_detect = comm.time
            agreed = yield comm.shrink()
            recover(agreed, t_detect)
            continue
        rows = epoch.rows[vid]
        q = np.random.default_rng((seed, it)).standard_normal(n)
        x_full[rows] = scale * (epoch.A_local[vid] @ x_full) + noise_scale * q[rows]
        it += 1
        if replay is not None and it >= replay[1]:
            obs.add_span(
                "spmv.replay", replay[2], comm.time, track=rank,
                cat="recovery", from_iteration=replay[0], to_iteration=replay[1],
            )
            replay = None

    return (epoch.rows[vid], x_full[epoch.rows[vid]])


@dataclass
class IterativeRecoveryResult:
    """Outcome of a recoverable iterative SpMV run.

    ``x`` is the full final vector assembled from the survivors (every
    row is owned by a survivor after remapping).  ``initial_*`` /
    ``final_*`` compare one exchange of the first and last epochs;
    ``message_bound`` is the final epoch's ``sum_d (k'_d - 1)`` and
    ``final_mmax`` the final plan's actual worst per-process count.
    """

    scheme: str
    K: int
    final_K: int
    iterations: int
    x: np.ndarray
    run: RunResult
    events: list[RecoveryEvent]
    store: CheckpointStore
    suspected: tuple[int, ...]
    dead: tuple[int, ...]
    message_bound: int
    final_mmax: int
    initial_messages: int
    final_messages: int
    initial_volume: int
    final_volume: int

    @property
    def makespan_us(self) -> float:
        """Virtual wall time of the whole run, recoveries included."""
        return self.run.makespan_us


def run_iterative_with_recovery(
    A: sp.spmatrix,
    K: int,
    *,
    iterations: int,
    n_dims: int = 2,
    machine: Machine | None = None,
    partitioner: str = "block",
    partition: Partition | None = None,
    seed: int = 0,
    noise_scale: float = 0.01,
    checkpoint_interval: int = 8,
    fault_plan: FaultPlan | None = None,
    timeout_us: float = 400.0,
    hb_timeout_us: float = 400.0,
    rc_timeout_us: float = 150.0,
    max_retry_rounds: int = 2,
    x0: np.ndarray | None = None,
    tracer=None,
) -> IterativeRecoveryResult:
    """Run an iterative SpMV that survives rank crashes by shrinking.

    Stitches the full recovery pipeline on the emulator: coordinated
    checkpoints every ``checkpoint_interval`` iterations, heartbeat +
    ``Comm.shrink()`` failure agreement, topology rebuild over the
    survivors (:func:`repro.core.recovery.build_recovery`), rollback to
    the newest complete checkpoint and bit-identical replay.  The final
    vector equals :func:`iterative_reference` exactly — crashes move
    ownership of rows, never their values.

    ``n_dims=1`` selects the direct baseline exchange; ``n_dims >= 2``
    the STFW exchange (falling back to direct if a shrink leaves a
    survivor count with too few prime factors).

    An optional :class:`repro.obs.Tracer` records checkpoint, rollback
    and replay spans plus engine, reliable-layer and checkpoint-store
    counters for the run.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if iterations < 1:
        raise ExperimentError("iterations must be positive")
    if checkpoint_interval < 1:
        raise ExperimentError("checkpoint_interval must be positive")
    if partition is None:
        partition = partition_matrix(A, K, partitioner=partitioner, seed=seed)
    if partition.K != K:
        raise ExperimentError(f"partition has K={partition.K}, expected {K}")
    if x0 is None:
        x0 = np.random.default_rng(seed).standard_normal(n)
    x0 = np.asarray(x0, dtype=np.float64)
    scale = 1.0 / max(1.0, _inf_norm(A))

    ctx = _RunContext(A, partition, n_dims, tracer=tracer)
    epoch0 = ctx.epoch_for(())
    # pre-seed the epoch-0 checkpoint so a crash in the first interval
    # has a rollback target (= restarting from the initial state)
    all_ranks = frozenset(range(K))
    for r in range(K):
        rows = epoch0.rows[r]
        ctx.store.save(
            r,
            RankCheckpoint(iteration=0, rows=rows, values=x0[rows], rng_cursor=0),
            all_ranks,
        )

    try:
        run = run_spmd(
            K,
            lambda comm: _recovery_rank(
                comm,
                ctx,
                n,
                int(iterations),
                seed=seed,
                noise_scale=noise_scale,
                scale=scale,
                interval=int(checkpoint_interval),
                timeout_us=timeout_us,
                hb_timeout_us=hb_timeout_us,
                rc_timeout_us=rc_timeout_us,
                max_retry_rounds=max_retry_rounds,
            ),
            machine=machine,
            fault_plan=fault_plan,
            tracer=tracer,
        )
    except DeadlockError as exc:
        raise RecoveryError(
            "iterative run deadlocked before recovery could complete\n"
            + format_pending(exc.pending),
            dead=exc.crashed,
            pending=exc.pending,
        ) from exc

    dead = tuple(sorted(run.crashed))
    x = np.empty(n, dtype=np.float64)
    covered = np.zeros(n, dtype=bool)
    for r, ret in enumerate(run.returns):
        if ret is None:
            continue
        rows, values = ret
        x[rows] = values
        covered[rows] = True
    if not covered.all():
        raise RecoveryError(
            f"final vector covers only {int(covered.sum())}/{n} rows "
            "(a rank crashed after the final agreement)",
            dead=dead,
            iteration=int(iterations),
        )

    final_epoch = ctx.epoch_for(dead)
    return IterativeRecoveryResult(
        scheme="BL" if n_dims == 1 else f"STFW{n_dims}",
        K=K,
        final_K=final_epoch.rplan.new_K,
        iterations=int(iterations),
        x=x,
        run=run,
        events=ctx.events,
        store=ctx.store,
        suspected=tuple(sorted(ctx.suspected)),
        dead=dead,
        message_bound=final_epoch.rplan.message_bound(),
        final_mmax=final_epoch.plan.max_message_count,
        initial_messages=epoch0.plan.num_physical_messages,
        final_messages=final_epoch.plan.num_physical_messages,
        initial_volume=epoch0.plan.total_volume,
        final_volume=final_epoch.plan.total_volume,
    )
