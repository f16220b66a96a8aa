#!/usr/bin/env python3
"""Benchmark of the rsm pipeline, run from the root of a source checkout.

    python3 perfbench/run.py --workload eval_flips --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, each in its own process

With ``--trace 0`` a run reports the end-to-end metrics of one workload;
with ``--trace 1`` it reports per-layer metrics from traced passes of a
fixed amount of work instead. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every output check passed. See README.md beside this
file for the workloads and metrics.
"""

import argparse
import contextlib
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOAD_NAMES = ("synth_flips", "eval_flips", "fit_wide")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "rate_per_s": "1/s", "call_s": "s"}
SETUPS = 9  # set-ups per end-to-end run, spread evenly over the measured phase


def import_program():
    """Import rsm from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import rsm
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import rsm from {SRC}: {exc}")
    if Path(rsm.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: rsm came from {rsm.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Wall time of importing rsm in a fresh interpreter, as set-up pays it."""
    code = (
        "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import rsm.cli, rsm.evaluation; print(time.perf_counter() - start)"
    )
    command = [sys.executable, "-c", code, str(SRC)]
    return float(subprocess.run(command, capture_output=True, text=True, check=True).stdout)


def configure_logging() -> None:
    # Before rsm.cli.main runs, so its basicConfig(level=INFO) is a no-op and
    # only warnings reach stderr.
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    logging.basicConfig(level=logging.WARNING, handlers=[handler])


def spread(values) -> str:
    values = sorted(values)
    return (
        f"fastest {values[0]:.4g} of {len(values)}; median {statistics.median(values):.4g}, "
        f"slowest {values[-1]:.4g}"
    )


def measure(cls, seed: int, seconds: float, workdir: Path) -> dict:
    """End-to-end run: prepare once, then repeat the operation, setting up again at intervals.

    ``setup_s`` is the median of ``SETUPS`` set-ups, each an rsm import in a
    fresh interpreter plus the workload's own set-up. They are spread over
    the measured phase, so they meet the same host load as the operation.
    The seed-dependent preparation is timed apart from them.
    """
    import workloads

    samples = defaultdict(list)
    imports, setups, hashes = [], [], set()
    with workloads.OutcomeCounter() as counter:
        wl = cls(seed, workdir, counter)
        prepare_s, _ = workloads.timed(wl.prepare)

        def set_up():
            imports.append(import_seconds())
            elapsed, digest = workloads.timed(wl.setup)
            setups.append(elapsed)
            hashes.add(digest)

        set_up()
        start = time.perf_counter()
        while True:
            timings, output = wl.operate()
            for key, values in timings.items():
                samples[key].extend(values)
            wl.check(output)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
            if len(setups) < SETUPS and elapsed >= len(setups) * seconds / SETUPS:
                set_up()
        workloads.check(len(hashes) == 1, f"{cls.name}: setup built different inputs from one seed")
        wl.final_check()
    summary = wl.summary(samples)
    metrics = {
        "setup_s": statistics.median(i + s for i, s in zip(imports, setups)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rate_per_s": summary["rate_per_s"],
        "call_s": summary["call_s"],
    }
    lines = [
        f"setup_s {metrics['setup_s']:.6g} s (imports: {spread(imports)}; set-ups: {spread(setups)})",
        f"prepare_s {prepare_s:.6g} s (seed-dependent data drawn once before set-up, not in setup_s)",
        f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB",
        f"failed_frac {wl.failed / wl.attempted:.6g} ratio ({wl.failed} of {wl.attempted})",
    ]
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in summary["named"].items()]
    lines += [f"timing {key}: {spread(values)}" for key, values in samples.items()]
    return {
        "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END.items()},
        "attempted": wl.attempted,
        "failed": wl.failed,
        "lines": lines,
    }


def trace(cls, seed: int, workdir: Path) -> dict:
    """Traced run: set-up plus one operation, untraced and traced twice each.

    Counts of the two traced passes must match exactly. The tracing overhead
    is the fastest traced pass minus the fastest untraced one.
    """
    import tracer
    import workloads

    passes = []
    for kind in ("untraced", "traced", "untraced", "traced"):
        with workloads.OutcomeCounter() as counter:
            wl = cls(seed, workdir / f"pass{len(passes)}", counter)
            spans = tracer.Tracer(f"{cls.name}-seed{seed}-pass{len(passes)}") if kind == "traced" else None
            start = time.perf_counter()
            with spans or contextlib.nullcontext():
                wl.prepare()
                wl.setup()
                _, output = wl.operate()
            elapsed = time.perf_counter() - start
            wl.check(output)
            wl.final_check()
        passes.append({"kind": kind, "seconds": elapsed, "tracer": spans, "wl": wl, "counter": counter})
    traced = [p for p in passes if p["kind"] == "traced"]
    layers = [tracer.layer_metrics(p["tracer"].spans, p["counter"].scorer_failures) for p in traced]
    first, second = (tracer.count_metrics(m) for m in layers)
    differ = {name: (first[name], second[name]) for name in first if first[name] != second[name]}
    workloads.check(not differ, f"{cls.name}: counts differ between identical traced passes: {differ}")
    fastest = {kind: min(p["seconds"] for p in passes if p["kind"] == kind) for kind in ("untraced", "traced")}
    metrics = layers[0]
    metrics["trace.overhead_s"] = fastest["traced"] - fastest["untraced"]
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / fastest["untraced"]
    spans_path = WORK / f"trace-{cls.name}-seed{seed}.json"
    traced[0]["tracer"].write(spans_path)
    units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    return {
        "metrics": {name: (metrics[name], unit) for name, unit in units.items()},
        "attempted": sum(p["wl"].attempted for p in passes),
        "failed": sum(p["wl"].failed for p in passes),
        "lines": [
            f"traced passes: {len(spans_path.read_bytes())} bytes of spans in {spans_path.relative_to(ROOT)}",
            "pass seconds: " + ", ".join(f"{p['kind']} {p['seconds']:.4g}" for p in passes),
            f"tracing overhead {metrics['trace.overhead_s']:.4g} s "
            f"({100 * metrics['trace.overhead_frac']:.3g}% of the untraced pass)",
        ],
    }


def run_one(args) -> int:
    import_program()
    import environment
    import workloads

    problems = environment.thread_problems()
    if problems:
        print("perfbench: refusing to run: " + "; ".join(problems), file=sys.stderr)
        return 2
    configure_logging()
    cls = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    steal = environment.steal_seconds()
    try:
        if args.trace:
            outcome = trace(cls, args.seed, workdir)
        else:
            outcome = measure(cls, args.seed, args.seconds, workdir)
        correct = True
    except workloads.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        outcome = {"metrics": {}, "attempted": 1, "failed": 1, "lines": []}
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment.describe()
    env["steal_s"] = environment.steal_seconds() - steal
    env["loadavg"] = os.getloadavg()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in outcome["lines"]:
        print(f"  {line}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    correct = all(r is not None and r["correct"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values() if r),
                "failed": sum(r["failed"] for r in results.values() if r),
                "metrics": {
                    f"{name}.{metric}": entry
                    for name, r in results.items()
                    if r
                    for metric, entry in r["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
