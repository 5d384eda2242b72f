"""Command-line interface: regenerate any paper table or figure.

Examples::

    python -m repro table2                 # Table 2 at the default scale
    python -m repro figure8 --scale 0.5    # bigger matrices
    python -m repro table3 --cache         # persist on-disk artifacts
    python -m repro run figure9            # generic experiment runner
    python -m repro cache stats            # inspect the artifact cache
    python -m repro drift --cache          # plan-repair drift benchmark
    python -m repro chaos --epochs 60      # self-healing service soak
    python -m repro corrupt --seed 11      # silent-data-corruption sweep
    python -m repro instances              # list the Table 1 registry
    python -m repro report -o results.md   # run everything, write markdown

Process counts are always the paper's; ``--scale`` resizes only the
synthetic matrices (communication-preserving, see DESIGN.md).
Every sweep runs in one process, one cell after another, and reduces
each cell before it makes the next; ``--cache`` persists generated
artifacts (matrices, partitions, patterns, plans) across runs and
leaves results byte-identical.
Every emulator-backed command (``run faults|recover``, ``drift``,
``chaos``, ``corrupt``, ``trace``) runs on the event engine, the only
one that runs faults, shrink recovery and NBX discovery; there is no
engine flag.  ``chaos`` and ``corrupt`` exit 1 when their run misses
an acceptance predicate.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Sequence

from . import __version__
from .experiments import (
    ExperimentConfig,
    default_config,
    faults,
    figure1,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    recover,
    table2,
    table3,
)

__all__ = ["main", "build_parser", "EXPERIMENTS"]

#: experiment name -> (run, format) callables
EXPERIMENTS: dict[str, tuple[Callable, Callable]] = {
    "figure1": (figure1.run, figure1.format_result),
    "table2": (table2.run, table2.format_result),
    "figure6": (figure6.run, figure6.format_result),
    "figure7": (figure7.run, figure7.format_result),
    "figure8": (figure8.run, figure8.format_result),
    "figure9": (figure9.run, figure9.format_result),
    "table3": (table3.run, table3.format_result),
    "figure10": (figure10.run, figure10.format_result),
    "faults": (faults.run, faults.format_result),
    "recover": (recover.run, recover.format_result),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Regularizing Irregularly Sparse Point-to-point "
        "Communications' (SC '19): regenerate any of the paper's tables/figures.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"regenerate the paper's {name}")
        _add_config_args(p)
        p.add_argument(
            "--svg",
            metavar="DIR",
            default=None,
            help="also write SVG chart(s) into DIR (figure1/8/9/10 only)",
        )

    p = sub.add_parser("run", help="run one experiment by name (generic runner)")
    p.add_argument(
        "experiment", choices=tuple(EXPERIMENTS), help="which experiment to run"
    )
    _add_config_args(p)

    p = sub.add_parser("report", help="run every experiment, write a markdown report")
    _add_config_args(p)
    p.add_argument("-o", "--output", default="-", help="output file ('-' = stdout)")

    p = sub.add_parser("cache", help="inspect or clear the on-disk artifact cache")
    p.add_argument("action", choices=("stats", "clear"), help="what to do")
    p.add_argument(
        "--dir",
        metavar="DIR",
        default=None,
        help="cache directory (default $REPRO_CACHE_DIR or .repro-cache)",
    )

    p = sub.add_parser(
        "drift",
        help="dynamic-exchange drift benchmark: incremental plan repair vs "
        "full rebuild, plus an NBX-discovery service smoke",
    )
    p.add_argument(
        "--K", type=int, default=None, help="process count of the timing sweep"
    )
    p.add_argument(
        "--degree", type=float, default=None, help="mean messages per process"
    )
    p.add_argument(
        "--rates",
        type=float,
        nargs="+",
        metavar="R",
        default=None,
        help="drift rates as fractions (default 0.01 0.05 0.1 0.25 0.5)",
    )
    p.add_argument(
        "--epochs", type=int, default=3, help="drift epochs chained per rate"
    )
    p.add_argument("--seed", type=int, default=None, help="base RNG seed")
    p.add_argument(
        "--cache",
        metavar="DIR",
        nargs="?",
        const="",
        default=None,
        help="delta-keyed plan reuse in DIR (no DIR: $REPRO_CACHE_DIR or "
        ".repro-cache)",
    )
    p.add_argument(
        "--no-validate",
        action="store_true",
        help="skip byte-identity cross-checks (timing only)",
    )
    p.add_argument(
        "--no-service",
        action="store_true",
        help="skip the end-to-end NBX-discovery service phase",
    )

    p = sub.add_parser(
        "chaos",
        help="chaos soak: the self-healing persistent exchange service "
        "under combined drift and fault streams; exits 1 unless it "
        "converges with zero full rebuilds",
    )
    p.add_argument(
        "--K", type=int, default=None, help="process count of the soak"
    )
    p.add_argument(
        "--degree", type=float, default=None, help="mean messages per process"
    )
    p.add_argument(
        "--epochs", type=int, default=None, help="soak length (default 200)"
    )
    p.add_argument(
        "--rate",
        type=float,
        default=None,
        help="drift fraction per epoch, at most 0.10 (default 0.08)",
    )
    p.add_argument(
        "--tail",
        type=int,
        default=None,
        help="quiet fault- and drift-free epochs ending the soak",
    )
    p.add_argument("--seed", type=int, default=None, help="base RNG seed")
    p.add_argument(
        "--cache",
        metavar="DIR",
        nargs="?",
        const="",
        default=None,
        help="delta-keyed plan reuse in DIR (no DIR: $REPRO_CACHE_DIR or "
        ".repro-cache)",
    )
    p.add_argument(
        "--no-validate",
        action="store_true",
        help="skip per-repair byte-identity cross-checks (timing only)",
    )
    p.add_argument(
        "--corruption",
        action="store_true",
        help="add silent-data-corruption chaos: transient bit flips plus a "
        "persistent corrupt forwarder the policy must quarantine",
    )

    p = sub.add_parser(
        "corrupt",
        help="silent-data-corruption sweep: transient flips, a persistent "
        "corrupt forwarder and ABFT-checked compute flips; reports "
        "detection latency and the undetected-corruption rate, and exits "
        "1 on any undetected corruption, ABFT miss, unrecovered episode "
        "or missed quarantine",
    )
    p.add_argument(
        "--K", type=int, default=None, help="process count per episode"
    )
    p.add_argument(
        "--degree", type=float, default=None, help="mean messages per process"
    )
    p.add_argument(
        "--epochs", type=int, default=None, help="epochs per episode (default 16)"
    )
    p.add_argument("--seed", type=int, default=None, help="base RNG seed")

    p = sub.add_parser(
        "trace",
        help="run a target under the tracer; write Chrome trace JSON + JSONL "
        "event stream and print a summary table",
    )
    p.add_argument(
        "target",
        nargs="?",
        default="exchange",
        choices=("exchange", *EXPERIMENTS),
        help="what to trace: a synthetic STFW exchange (default) or an experiment",
    )
    _add_config_args(p)
    p.add_argument(
        "--out", metavar="DIR", default=".", help="directory for the trace files"
    )
    p.add_argument(
        "--K", type=int, default=64, help="process count of the 'exchange' target"
    )
    p.add_argument(
        "--dims", type=int, default=2, help="VPT dimension of the 'exchange' target"
    )

    sub.add_parser("instances", help="list the Table 1 instance registry")
    return parser


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scale",
        type=float,
        default=None,
        help="matrix linear scale vs Table 1 (default 0.25 or $REPRO_SCALE)",
    )
    p.add_argument(
        "--partitioner",
        choices=("rcm", "block", "random", "bisection", "multilevel"),
        default=None,
        help="row partitioner (default rcm)",
    )
    p.add_argument("--seed", type=int, default=None, help="base RNG seed")
    p.add_argument(
        "--cache",
        metavar="DIR",
        nargs="?",
        const="",
        default=None,
        help="persist artifacts in DIR (no DIR: $REPRO_CACHE_DIR or .repro-cache)",
    )


def _artifact_cache(args: argparse.Namespace):
    """The CLI-selected :class:`ArtifactCache`, or ``None``."""
    flag = getattr(args, "cache", None)
    if flag is None:
        return None
    from .cache import ArtifactCache, default_cache_root

    return ArtifactCache(flag or default_cache_root())


def _run_experiment(
    name: str, cfg: ExperimentConfig, *, args: argparse.Namespace
):
    """Run one experiment honoring ``--cache``; returns (result, fmt)."""
    run_fn, fmt = EXPERIMENTS[name]
    if name in ("faults", "recover"):
        result = run_fn(cfg)
    else:
        from .experiments.harness import InstanceCache

        cache = InstanceCache(cfg, artifacts=_artifact_cache(args))
        result = run_fn(cfg, cache=cache)
    return result, fmt


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    cfg = default_config()
    overrides = {}
    if getattr(args, "scale", None) is not None:
        overrides["scale"] = args.scale
    if getattr(args, "partitioner", None) is not None:
        overrides["partitioner"] = args.partitioner
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


def _cmd_instances() -> str:
    from .matrices import SUITE
    from .metrics import Table

    t = Table(
        columns=("name", "kind", "rows", "nnz", "max", "cv", "maxdr"),
        title="Table 1 — instance registry (paper statistics)",
    )
    for s in SUITE.values():
        t.add_row(s.name, s.kind, s.n, s.nnz, s.max_degree, s.cv, s.maxdr)
    return t.render(float_fmt="{:.3f}")


def _cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache stats|clear`` — artifact-cache maintenance."""
    from .cache import ArtifactCache, default_cache_root
    from .metrics import Table

    cache = ArtifactCache(args.dir or default_cache_root())
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached artifact(s) from {cache.root}")
        return 0
    stats = cache.stats()
    t = Table(
        columns=("kind", "entries", "bytes"),
        title=f"artifact cache — {stats.root} (schema {stats.version})",
    )
    for kind, (count, size) in sorted(stats.entries.items()):
        t.add_row(kind, count, size)
    t.add_row("total", stats.total_entries, stats.total_bytes)
    print(t.render())
    return 0


def _acceptance(checks: Sequence[tuple[bool, str]]) -> int:
    """Exit status of a resilience run from its ``(failed, reason)``
    acceptance predicates: 1, naming each miss on stderr, if any failed."""
    missed = [reason for failed, reason in checks if failed]
    for reason in missed:
        print(f"FAIL {reason}", file=sys.stderr)
    return 1 if missed else 0


def _cmd_drift(args: argparse.Namespace) -> int:
    """``repro drift`` — run and report; a repair that diverges from
    its rebuild raises :class:`~repro.errors.ExperimentError`."""
    from .experiments import drift

    kwargs = {}
    if args.K is not None:
        kwargs["K"] = args.K
    if args.degree is not None:
        kwargs["degree"] = args.degree
    if args.rates is not None:
        kwargs["rates"] = tuple(args.rates)
    result = drift.run(
        _config_from(args),
        epochs=args.epochs,
        artifacts=_artifact_cache(args),
        validate=not args.no_validate,
        service=not args.no_service,
        **kwargs,
    )
    print(drift.format_result(result))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos`` — run the soak, report, exit 1 unless it converged
    on the incremental repair path."""
    from .experiments import chaos

    kwargs = {}
    if args.K is not None:
        kwargs["K"] = args.K
    if args.degree is not None:
        kwargs["degree"] = args.degree
    if args.epochs is not None:
        kwargs["epochs"] = args.epochs
    if args.rate is not None:
        kwargs["drift_rate"] = args.rate
    if args.tail is not None:
        kwargs["tail"] = args.tail
    if args.corruption:
        kwargs["corruption"] = True
    result = chaos.run(
        _config_from(args),
        artifacts=_artifact_cache(args),
        validate=not args.no_validate,
        **kwargs,
    )
    print(chaos.format_result(result))
    return _acceptance(
        [
            (not result.converged, "soak did not converge"),
            (
                result.full_rebuilds > 0,
                f"{result.full_rebuilds} full plan rebuild(s), expected 0",
            ),
        ]
    )


def _cmd_corrupt(args: argparse.Namespace) -> int:
    """``repro corrupt`` — run the SDC sweep, report, exit 1 on any
    missed integrity predicate."""
    from .experiments import corrupt

    kwargs = {}
    if args.K is not None:
        kwargs["K"] = args.K
    if args.degree is not None:
        kwargs["degree"] = args.degree
    if args.epochs is not None:
        kwargs["epochs"] = args.epochs
    result = corrupt.run(_config_from(args), **kwargs)
    print(corrupt.format_result(result))
    # ``converged`` already requires the last two (the compute episode
    # recovers only if ABFT caught every flip, the forwarder episode only
    # if it quarantined); each is named so a failure says which one
    return _acceptance(
        [
            (
                result.undetected_total > 0,
                f"{result.undetected_total} corruption(s) reached a consumer "
                f"undetected",
            ),
            (not result.converged, "an injection episode did not recover"),
            (
                result.abft_caught < result.abft_injected,
                f"ABFT caught {result.abft_caught} of {result.abft_injected} "
                f"injected compute flips",
            ),
            (not result.quarantined, "the corrupt forwarder was never quarantined"),
        ]
    )


def _cmd_trace(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    """Run the trace target with a live tracer and export the timeline.

    Writes ``<target>.trace.json`` (Chrome ``trace_event`` JSON, load it
    in chrome://tracing or https://ui.perfetto.dev) and
    ``<target>.events.jsonl`` into ``--out``, then prints the span and
    counter summary.
    """
    from .obs import Tracer, chrome_trace, jsonl_events, summary_table

    tracer = Tracer(args.target)
    run_result = None
    extras: list[str] = []

    if args.target == "exchange":
        from .core import CommPattern, run_exchange
        from .metrics import Table
        from .network import BGQ

        pattern = CommPattern.random(args.K, avg_degree=8, seed=cfg.seed, words=16)
        res = run_exchange(
            pattern, dims=args.dims, machine=BGQ, trace=True, tracer=tracer
        )
        run_result = res.run
        t = Table(
            columns=("stage", "traced msgs", "plan msgs", "traced words", "plan words"),
            title="per-stage counters — traced vs CommPlan statics",
        )
        for d, st in enumerate(res.plan.stages):
            t.add_row(
                d,
                int(tracer.value("stfw.stage_messages", stage=d)),
                st.num_messages,
                int(tracer.value("stfw.stage_words", stage=d)),
                int(st.total_words.sum()),
            )
        extras.append(t.render())
    else:
        run_fn, _ = EXPERIMENTS[args.target]
        with tracer.span(f"experiment.{args.target}", track="host", cat="experiment"):
            if args.target in ("faults", "recover"):
                run_fn(cfg, tracer=tracer)
            else:
                from .experiments.harness import InstanceCache

                run_fn(cfg, cache=InstanceCache(cfg, tracer=tracer))

    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, f"{args.target}.trace.json")
    with open(trace_path, "w") as fh:
        fh.write(chrome_trace(tracer, run=run_result, name=args.target))
    jsonl_path = os.path.join(args.out, f"{args.target}.events.jsonl")
    with open(jsonl_path, "w") as fh:
        fh.write(jsonl_events(tracer))
    print(summary_table(tracer))
    for block in extras:
        print()
        print(block)
    print(f"wrote {trace_path}", file=sys.stderr)
    print(f"wrote {jsonl_path}", file=sys.stderr)
    return 0


def run_report(cfg: ExperimentConfig, *, artifacts=None) -> str:
    """Run every experiment and render one markdown document.

    Opens with a Table 1 fidelity section (how close the synthetics are
    to the published statistics), then one section per paper artifact.
    One :class:`InstanceCache` is shared across every cell experiment,
    so each (matrix, K) pair is generated once for the whole report;
    ``artifacts`` additionally persists them on disk.
    """
    from .experiments.harness import InstanceCache
    from .matrices.calibration import calibrate_suite, format_calibration

    cache = InstanceCache(cfg, artifacts=artifacts)
    lines = [
        "# Reproduction run",
        "",
        f"- matrix scale: {cfg.scale}",
        f"- nnz budget: {cfg.nnz_budget}",
        f"- partitioner: {cfg.partitioner}",
        f"- seed: {cfg.seed}",
        "",
        "## instance fidelity",
        "",
        "```",
        format_calibration(calibrate_suite(scale=cfg.scale)),
        "```",
        "",
    ]
    for name, (run, fmt) in EXPERIMENTS.items():
        t0 = time.time()
        if name in ("faults", "recover"):
            result = run(cfg)
        else:
            result = run(cfg, cache=cache)
        elapsed = time.time() - t0
        lines.append(f"## {name}  ({elapsed:.1f}s)")
        lines.append("")
        lines.append("```")
        lines.append(fmt(result))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "instances":
        print(_cmd_instances())
        return 0

    if args.command == "cache":
        return _cmd_cache(args)

    if args.command == "drift":
        return _cmd_drift(args)

    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "corrupt":
        return _cmd_corrupt(args)

    cfg = _config_from(args)

    if args.command == "trace":
        return _cmd_trace(args, cfg)

    if args.command == "report":
        text = run_report(cfg, artifacts=_artifact_cache(args))
        if args.output == "-":
            print(text)
        else:
            with open(args.output, "w") as fh:
                fh.write(text)
            print(f"wrote {args.output}", file=sys.stderr)
        return 0

    if args.command == "run":
        result, fmt = _run_experiment(args.experiment, cfg, args=args)
        print(fmt(result))
        return 0

    result, fmt = _run_experiment(args.command, cfg, args=args)
    print(fmt(result))
    if getattr(args, "svg", None):
        from .viz import experiment_svgs

        os.makedirs(args.svg, exist_ok=True)
        for fname, doc in experiment_svgs(args.command, result).items():
            out_path = os.path.join(args.svg, fname)
            with open(out_path, "w") as fh:
                fh.write(doc)
            print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
