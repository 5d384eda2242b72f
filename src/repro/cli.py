"""Command-line interface: regenerate any paper table or figure.

Examples::

    python -m repro table2                 # Table 2 at the default scale
    python -m repro figure8 --scale 0.5    # bigger matrices
    python -m repro table3 --cache         # persist on-disk artifacts
    python -m repro cache stats            # inspect the artifact cache
    python -m repro drift                  # plan-repair drift benchmark
    python -m repro chaos --epochs 60      # self-healing service soak
    python -m repro corrupt --seed 11      # silent-data-corruption sweep
    python -m repro instances              # list the Table 1 registry
    python -m repro report -o results.md   # run everything, write markdown

Process counts are always the paper's; ``--scale`` resizes only the
synthetic matrices (communication-preserving, see DESIGN.md).
Every sweep runs in one process, one cell after another, and reduces
each cell before it makes the next; ``--cache`` persists generated
matrices, partitions and patterns across runs (plans are rebuilt from
the patterns) and leaves results byte-identical.
Every emulator-backed command (``faults``, ``recover``, ``drift``,
``chaos``, ``corrupt``, ``trace``) runs on the event engine, the only
one that runs faults, shrink recovery and NBX discovery; there is no
engine flag.  ``chaos`` and ``corrupt`` exit 1 when their run misses
an acceptance predicate.  Each subcommand takes only the flags its
experiment reads.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from typing import Any, Callable, Sequence

from . import __version__
from .experiments import (
    ExperimentConfig,
    InstanceCache,
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

__all__ = ["main", "build_parser", "EXPERIMENTS", "RESILIENCE"]

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


#: experiments that build their own exchanges rather than paper cells
#: -> the flags their run() reads (the cell experiments read _CELL_FLAGS)
_OWN_EXCHANGES = {"faults": ("--seed",), "recover": ("--seed", "--partitioner")}
_CELL_FLAGS = ("--scale", "--partitioner", "--seed", "--cache")
#: the experiments with a chart adapter in repro.viz.experiment_svgs
_SVG = ("figure1", "figure8", "figure9", "figure10")

#: Every experiment flag, defined once: flag -> add_argument keywords.
_FLAGS: dict[str, dict[str, Any]] = {
    "--scale": dict(
        type=float,
        help="matrix linear scale vs Table 1 (default 0.25 or $REPRO_SCALE)",
    ),
    "--partitioner": dict(
        choices=("rcm", "block", "random", "bisection", "multilevel"),
        help="row partitioner (default rcm)",
    ),
    "--seed": dict(type=int, help="base RNG seed"),
    "--cache": dict(
        metavar="DIR",
        nargs="?",
        const="",
        help="persist matrices, partitions and patterns in DIR "
        "(no DIR: $REPRO_CACHE_DIR or .repro-cache)",
    ),
    "--svg": dict(metavar="DIR", help="also write SVG chart(s) into DIR"),
    "--K": dict(type=int, help="process count"),
    "--degree": dict(type=float, help="mean messages per process"),
    "--epochs": dict(type=int, help="epochs per drift rate, soak or episode"),
    "--rates": dict(
        type=float,
        nargs="+",
        metavar="R",
        help="drift rates as fractions (default 0.01 0.05 0.1 0.25 0.5)",
    ),
    "--rate": dict(
        type=float, help="drift fraction per epoch, at most 0.10 (default 0.08)"
    ),
    "--tail": dict(
        type=int, help="quiet fault- and drift-free epochs ending the soak"
    ),
    "--no-validate": dict(
        action="store_true", help="skip byte-identity cross-checks (timing only)"
    ),
    "--no-service": dict(
        action="store_true",
        help="skip the end-to-end NBX-discovery service phase",
    ),
    "--corruption": dict(
        action="store_true",
        help="add silent-data-corruption chaos: transient bit flips plus a "
        "persistent corrupt forwarder the policy must quarantine",
    ),
}


def _given(keyword: str, convert: Callable = lambda v: v) -> Callable:
    """A flag that sets ``keyword`` only when it is given."""
    return lambda v: {} if v is None else {keyword: convert(v)}


#: resilience flag -> the run() keywords it sets from its parsed value
#: (``--seed`` reaches run() through the config instead)
_KEYWORDS: dict[str, Callable[[Any], dict[str, Any]]] = {
    "--K": _given("K"),
    "--degree": _given("degree"),
    "--epochs": _given("epochs"),
    "--rates": _given("rates", tuple),
    "--rate": _given("drift_rate"),
    "--tail": _given("tail"),
    "--no-validate": lambda off: {"validate": not off},
    "--no-service": lambda off: {"service": not off},
    "--corruption": lambda on: {"corruption": True} if on else {},
}

#: resilience subcommand (a module of repro.experiments) -> (help, the
#: flags its run() reads, add_argument overrides per flag)
RESILIENCE: dict[str, tuple[str, tuple[str, ...], dict[str, dict]]] = {
    "drift": (
        "dynamic-exchange drift benchmark: incremental plan repair vs "
        "full rebuild, plus an NBX-discovery service smoke",
        ("--K", "--degree", "--rates", "--epochs", "--seed", "--no-validate",
         "--no-service"),
        {"--epochs": dict(default=3)},
    ),
    "chaos": (
        "chaos soak: the self-healing persistent exchange service "
        "under combined drift and fault streams; exits 1 unless it "
        "converges with zero full rebuilds",
        ("--K", "--degree", "--epochs", "--rate", "--tail", "--seed",
         "--no-validate", "--corruption"),
        {},
    ),
    "corrupt": (
        "silent-data-corruption sweep: transient flips, a persistent "
        "corrupt forwarder and ABFT-checked compute flips; reports "
        "detection latency and the undetected-corruption rate, and exits "
        "1 on any undetected corruption, ABFT miss, unrecovered episode "
        "or missed quarantine",
        ("--K", "--degree", "--epochs", "--seed"),
        {},
    ),
}


def _add_flags(
    p: argparse.ArgumentParser, flags: Sequence[str], overrides=None
) -> None:
    """Add ``flags`` from :data:`_FLAGS`, with per-flag ``overrides``."""
    for flag in flags:
        p.add_argument(flag, **{**_FLAGS[flag], **(overrides or {}).get(flag, {})})


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
        flags = _OWN_EXCHANGES.get(name, _CELL_FLAGS)
        _add_flags(p, flags + (("--svg",) if name in _SVG else ()))

    p = sub.add_parser("report", help="run every experiment, write a markdown report")
    _add_flags(p, _CELL_FLAGS)
    p.add_argument("-o", "--output", default="-", help="output file ('-' = stdout)")

    p = sub.add_parser("cache", help="inspect or clear the on-disk artifact cache")
    p.add_argument("action", choices=("stats", "clear"), help="what to do")
    p.add_argument(
        "--dir",
        metavar="DIR",
        default=None,
        help="cache directory (default $REPRO_CACHE_DIR or .repro-cache)",
    )

    for name, (help_text, flags, overrides) in RESILIENCE.items():
        _add_flags(sub.add_parser(name, help=help_text), flags, overrides)

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
    _add_flags(p, _CELL_FLAGS)
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


def _artifact_cache(flag: str | None):
    """The ``--cache``-selected :class:`ArtifactCache`, or ``None``."""
    if flag is None:
        return None
    from .cache import ArtifactCache, default_cache_root

    return ArtifactCache(flag or default_cache_root())


def _run_experiment(name: str, cfg: ExperimentConfig, cache: InstanceCache):
    """Run one :data:`EXPERIMENTS` entry; the cell experiments share
    ``cache``, the others take only its tracer."""
    run_fn, _ = EXPERIMENTS[name]
    if name in _OWN_EXCHANGES:
        return run_fn(cfg, tracer=cache.tracer)
    return run_fn(cfg, cache=cache)


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
    from .cache import _SCHEMA, ArtifactCache, default_cache_root
    from .metrics import Table

    cache = ArtifactCache(args.dir or default_cache_root())
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached artifact(s) from {cache.root}")
        return 0
    stats = cache.stats()
    t = Table(
        columns=("kind", "entries", "bytes"),
        title=f"artifact cache — {stats.root} (schema {_SCHEMA})",
    )
    for kind, (count, size) in sorted(stats.entries.items()):
        t.add_row(kind, count, size)
    t.add_row("total", stats.total_entries, stats.total_bytes)
    print(t.render())
    return 0


def _cmd_resilience(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    """Run one :data:`RESILIENCE` row: its ``run()`` with the keywords
    its flags set, then print the table.  Exits 1, naming each miss on
    stderr, if any of the driver's ``acceptance(result)`` predicates
    failed."""
    mod = importlib.import_module(f"{__package__}.experiments.{args.command}")
    flags = RESILIENCE[args.command][1]
    kwargs: dict[str, Any] = {}
    for flag, keywords in _KEYWORDS.items():
        if flag in flags:
            kwargs.update(keywords(getattr(args, flag.lstrip("-").replace("-", "_"))))
    result = mod.run(cfg, **kwargs)
    print(mod.format_result(result))
    checks = mod.acceptance(result) if hasattr(mod, "acceptance") else ()
    missed = [reason for failed, reason in checks if failed]
    for reason in missed:
        print(f"FAIL {reason}", file=sys.stderr)
    return 1 if missed else 0


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
        with tracer.span(f"experiment.{args.target}", track="host", cat="experiment"):
            cache = InstanceCache(cfg, artifacts=_artifact_cache(args.cache), tracer=tracer)
            _run_experiment(args.target, cfg, cache)

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
    for name, (_, fmt) in EXPERIMENTS.items():
        t0 = time.time()
        result = _run_experiment(name, cfg, cache)
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

    cfg = _config_from(args)

    if args.command in RESILIENCE:
        return _cmd_resilience(args, cfg)

    if args.command == "trace":
        return _cmd_trace(args, cfg)

    if args.command == "report":
        text = run_report(cfg, artifacts=_artifact_cache(args.cache))
        if args.output == "-":
            print(text)
        else:
            with open(args.output, "w") as fh:
                fh.write(text)
            print(f"wrote {args.output}", file=sys.stderr)
        return 0

    cache = InstanceCache(cfg, artifacts=_artifact_cache(getattr(args, "cache", None)))
    result = _run_experiment(args.command, cfg, cache)
    print(EXPERIMENTS[args.command][1](result))
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
