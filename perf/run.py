"""Benchmark runner.  Three ways in:

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload in this interpreter; the last line printed is
    the result as JSON (the form ``BENCHMARK.json`` names).
``python3 perf/run.py [--seed N] [--workload W] [--runs R] [--smoke] [--out F]``
    the ledger: every workload, each run in a fresh child interpreter,
    an untraced pass for the end-to-end metrics and a traced pass for the
    per-layer ones.
``python3 perf/run.py --compare A.json B.json``
    two ledgers side by side, judged by the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

# a closed loop of one client on one core: numeric libraries get one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
#: per-layer units that are counts made by the program: they repeat exactly
EXACT_UNITS = {"count", "us", "words", "bytes"}
#: set-ups made in an untraced run; ``setup_s`` is imports plus their median
SETUPS = 3
#: per-layer metric -> span, where the name says more than the span's
SELF_SPANS = {
    "spmv.schemes_self_s": "spmv.schemes",
    "service.epoch_self_s": "service.epoch",
    "stfw.exchange_self_s": "stfw.exchange",
}


def run_workload(cls, seed: int, seconds: float, traced: bool, size: str = "full",
                 started: float | None = None, trace_out: str | None = None) -> dict:
    """Set up, warm up with one op, then time ops for ``seconds``.

    An untraced run sets up ``SETUPS`` times over, inputs and warm-up op
    each time, so that ``setup_s`` is a median like the other timings.
    The traced pass alternates plain and traced ops, so that the tracing
    overhead is measured inside the run that reports it.
    """
    from perf import check  # imported here so that set-up time includes the program's imports
    from perf.trace import Recorder, installed

    imports_s = 0.0 if started is None else time.perf_counter() - started
    recorder = Recorder() if traced else None

    def attempt(i: int, tracing: bool):
        """One op: ``(wall seconds, msgs or facts)``, the second None when it failed.

        The output dies here, so that two never add up in ``peak_rss_mb``.
        """
        gc.collect()
        wl.prepare(i)
        if tracing:
            recorder.op = i
        try:
            with installed(recorder) if tracing else nullcontext():
                t0 = time.perf_counter()
                out = wl.op(i)
                wall = time.perf_counter() - t0
            wl.verify(out)
            return wall, wl.facts(out) if tracing else wl.msgs(out)
        except Exception:  # an op that raises is a failed op, not a failed run
            traceback.print_exc(file=sys.stderr)
            return 0.0, None

    setups = []
    for _ in range(1 if traced else SETUPS):
        wl = None  # the last inputs die first, for the same reason
        gc.collect()
        t0 = time.perf_counter()
        with installed(recorder) if traced else nullcontext():
            wl = cls(seed, size)
        built = time.perf_counter() - t0
        wall, gained = attempt(0, False)
        if gained is None:
            raise SystemExit(f"{cls.name}: the warm-up op failed")
        setups.append(built + wall)  # the program's work only: not the verifier's
    setup_s = imports_s + statistics.median(setups)

    walls, rates, plain_walls, traced_ops = [], [], [], []
    attempted = failed = i = 0
    facts = None
    loop_started = time.perf_counter()
    while not attempted or time.perf_counter() - loop_started < seconds:
        for tracing in (False, True) if traced else (False,):
            i += 1
            attempted += 1
            wall, gained = attempt(i, tracing)
            if gained is None:
                failed += 1
            elif tracing:
                traced_ops.append((i, wall))
                facts = facts or gained
            elif traced:
                plain_walls.append(wall)
            else:
                walls.append(wall)
                rates.append(gained / wall)
    try:
        wl.finish()
    except check.Failed:
        traceback.print_exc(file=sys.stderr)
        failed = max(failed, 1)

    if traced:
        if not (traced_ops and plain_walls):
            raise SystemExit(f"{cls.name}: no op succeeded")
        metrics = layer_metrics(recorder, traced_ops, plain_walls, facts, wl.extra(recorder))
        if trace_out:
            Path(trace_out).write_text(recorder.chrome())
    else:
        if not walls:
            raise SystemExit(f"{cls.name}: no op succeeded")
        metrics = {
            "op_ms_p50": statistics.median(walls) * 1e3,
            "msgs_per_s": statistics.median(rates),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }


def layer_metrics(recorder, traced_ops, plain_walls, facts, extra) -> dict:
    """Every per-layer metric of ``BENCHMARK.json``; 0 where the layer did not run."""
    ledgers = [recorder.ledger(op) for op, _ in traced_ops]
    setup = recorder.ledger("setup")

    def self_s(span: str) -> float:
        return statistics.median(ledger.get(span, (0.0, 0))[0] for ledger in ledgers)

    m = dict.fromkeys((p["name"] for p in SPEC["per_layer"]), 0)
    for name in m:
        if name.endswith("_s"):
            m[name] = self_s(SELF_SPANS.get(name, name[:-2]))
        elif name.endswith("_calls"):
            m[name] = ledgers[0].get(name[: -len("_calls")], (0.0, 0))[1]
    m["pattern.random_s"] = setup.get("pattern.random", (0.0, 0))[0]
    m.update(facts)
    m.update(extra)
    for engine in ("event", "batch"):
        busy = m[f"simmpi.{engine}_run_s"]
        m[f"simmpi.{engine}_rate"] = m["sim.phys_msgs"] / busy if busy else 0
    if m["simmpi.event_rate_k1024"]:
        m["simmpi.event_rate_decay"] = m["simmpi.event_rate_k1024"] / m["simmpi.event_rate"]
    walls = [wall for _, wall in traced_ops]
    m["bench.other_s"] = statistics.median(
        wall - sum(s for s, _ in ledger.values()) for wall, ledger in zip(walls, ledgers))
    m["bench.trace_overhead"] = statistics.median(walls) / statistics.median(plain_walls)
    return m


# ---------------------------------------------------------------------------
# The ledger: every workload, each run in its own child interpreter
# ---------------------------------------------------------------------------


def _child(workload: str, args, trace: int) -> dict:
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    if trace and args.trace_out:
        cmd += ["--trace-out", f"{args.trace_out}.{workload}.json"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _env() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "load_start": os.getloadavg()[0]}


def ledger(args, names) -> dict:
    env = _env()
    doc = {"schema": "perf-ledger-v1", "seed": args.seed, "seconds": args.seconds,
           "size": "smoke" if args.smoke else "full", "env": env, "workloads": {}}
    for w in names:
        runs = [_child(w, args, 0) for _ in range(args.runs)]
        traced = _child(w, args, 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        end_to_end = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            end_to_end[name] = {"value": statistics.median(values), "unit": UNITS[name],
                                "runs": values}
        end_to_end["failed_ratio"] = {"value": failed / attempted, "unit": "ratio",
                                      "runs": [r["failed"] / r["attempted"] for r in runs]}
        doc["workloads"][w] = {
            "attempted": attempted, "failed": failed,
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": end_to_end, "per_layer": traced["metrics"]}
        print(f"== {w}: {attempted} ops timed, {failed} failed")
        for name, m in {**end_to_end, **traced["metrics"]}.items():
            print(f"   {name:<28} {m['value']:>16.6g} {m['unit']}")
        sys.stdout.flush()
    env["load_end"] = os.getloadavg()[0]
    env["noisy"] = max(env["load_start"], env["load_end"]) > env["nproc"]
    print("env:", json.dumps(env))
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1))
    return doc


# ---------------------------------------------------------------------------
# Comparing two ledgers
# ---------------------------------------------------------------------------


def _spread(runs) -> float:
    """Interquartile range as a share of the median; 0 where there is none to take."""
    if len(runs) < 2 or not statistics.median(runs):
        return 0.0
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return (q3 - q1) / statistics.median(runs)


def compare(path_a: str, path_b: str) -> int:
    """Print the verdicts; the number of ``worse`` and ``DIFFERS`` rows is returned."""
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    gated = SPEC["end_to_end"] + [{"name": "failed_ratio", "better": "lower", "bound": 0.0}]
    bad = 0
    print(f"{'workload':<16}{'metric':<14}{'base':>14}{'new':>14}{'new/base':>10}  verdict")
    for w in a:
        if w not in b:
            continue
        for spec in gated:
            ma, mb = a[w]["end_to_end"][spec["name"]], b[w]["end_to_end"][spec["name"]]
            base, new = ma["value"], mb["value"]
            worse_by = (new - base if spec["better"] == "lower" else base - new) / (base or 1)
            if worse_by > spec["bound"]:
                verdict = "worse"
                bad += 1
            elif worse_by < -spec["bound"]:
                verdict = "better"
            elif max(_spread(ma["runs"]), _spread(mb["runs"])) > spec["bound"] > 0:
                verdict = "unresolved"
            else:
                verdict = "same"
            ratio = f"{new / base:.3f}" if base else "-"
            print(f"{w:<16}{spec['name']:<14}{base:>14.6g}{new:>14.6g}{ratio:>10}  {verdict}")
        for name, ma in a[w]["per_layer"].items():
            if ma["unit"] in EXACT_UNITS:
                same = ma["value"] == b[w]["per_layer"][name]["value"]
                bad += not same
                print(f"{w:<16}{name:<28}{'identical' if same else 'DIFFERS'}")
    return bad


def main(argv=None) -> int:
    from perf.workloads import WORKLOADS  # the program's imports: they count as set-up

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="make one run in this interpreter and print its result as JSON")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one op per run")
    ap.add_argument("--runs", type=int, default=1, help="ledger: untraced runs per workload")
    ap.add_argument("--out", help="ledger: write the document here")
    ap.add_argument("--trace-out", help="Chrome trace of the traced pass: the file of one run, "
                    "or the ledger's prefix of <prefix>.<workload>.json")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.smoke:
        args.seconds = 0
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if args.trace is None:
        doc = ledger(args, [args.workload] if args.workload else list(WORKLOADS))
        return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1
    if not args.workload:
        ap.error("--trace needs --workload")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                          "smoke" if args.smoke else "full", _STARTED, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
