#!/usr/bin/env python3
"""The repository benchmark: four seeded workloads measured on two clocks.

Run from the repository root::

    python3 perf/run.py [--workload NAME ...] [--seed N] [--trace 0|1]
                        [--trace-dir DIR] [--json OUT] [--smoke]

Each workload runs in its own single-threaded subprocess, one after
another.  A subprocess runs the workload :data:`REPS` times, each on a
fresh stack, and reports:

- *modeled* metrics from the simulated clock (``model_*``), which are what
  a COFS user would see and repeat exactly for a seed;
- *harness* metrics from this process's CPU clock and memory
  (``setup_s``, ``harness_ops_per_s``, ``peak_rss_mb``), which are what
  every developer and CI run pays, as medians over the repetitions.

``--trace 1`` replaces that with one untraced and one traced repetition and
reports per-layer metrics instead; ``--trace-dir`` also stores the spans
and layer tables.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits non-zero when any correctness check fails.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: name -> unit of every metric a ``--trace 0`` run reports
END_TO_END = {
    "setup_s": "s",
    "harness_ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "model_ops_per_s": "ops/s",
    "model_read_mean_ms": "ms",
    "model_read_p99_ms": "ms",
    "model_write_mean_ms": "ms",
    "model_write_p99_ms": "ms",
    "model_req_mean_ms": "ms",
    "model_req_p99_ms": "ms",
}
#: repetitions per untraced run: a fixed amount of work, so the results do
#: not depend on how busy the machine is
REPS = 3
#: a subprocess that runs longer than this has hung
CHILD_TIMEOUT_S = 900


def _import_workloads():
    """Import the workloads from this checkout's ``src`` tree only."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {ROOT / 'src'}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# one workload, inside its own subprocess
# ---------------------------------------------------------------------------

def modeled_metrics(workloads, out):
    """The simulated-clock metrics of one repetition."""
    pct = workloads.percentile
    metrics = {"model_ops_per_s": out.calls / (out.sim_ms / 1000.0)}
    for kind in ("read", "write", "req"):
        metrics[f"model_{kind}_mean_ms"] = statistics.fmean(out.lat[kind])
        metrics[f"model_{kind}_p50_ms"] = pct(out.lat[kind], 0.50)
        metrics[f"model_{kind}_p99_ms"] = pct(out.lat[kind], 0.99)
    metrics["model_data_mb_per_s"] = (
        out.data_bytes / workloads.MB / (out.sim_ms / 1000.0))
    return metrics


def fingerprint(workloads, out):
    """Everything about a repetition that must repeat bit for bit."""
    return repr((modeled_metrics(workloads, out), out.events, out.sim_ms,
                 out.calls, out.backlog_grows))


def child(args, workloads):
    """Run one workload in this process and print its result as JSON."""
    scale = "smoke" if args.smoke else "full"
    size = workloads.SCALES[scale][args.workload]
    run = workloads.WORKLOADS[args.workload]
    reps, failures, xfail = [], [], []
    # Smoke runs repeat once, so the determinism check still has a pair.
    for _ in range(1 if args.trace else (2 if args.smoke else REPS)):
        # Collect the previous stack's reference cycles first, so every
        # repetition starts from the same heap.
        gc.collect()
        reps.append(run(args.seed, size))
    prints = {fingerprint(workloads, out) for out in reps}
    if len(prints) != 1:
        failures.append(f"modeled metrics differ between {len(reps)} "
                        f"repetitions of one seed")
    for out in reps:
        failures.extend(out.failures)
        xfail.extend(line for line in out.xfail if line not in xfail)
    attempted = sum(out.attempted for out in reps)
    first = reps[0]
    result = {"workload": args.workload, "reps": len(reps)}
    if args.trace:
        attempted += trace_rep(args, workloads, run, size, first, result,
                               failures)
    else:
        metrics = modeled_metrics(workloads, first)
        setups = [o.setup_s for o in reps]
        result["extra"] = {
            name: metrics[name] for name in metrics
            if name.endswith("_p50_ms") or name == "model_data_mb_per_s"}
        result["extra"].update({
            "ops_per_cpu_s.reps": [o.calls / o.timed_s for o in reps],
            "sim.events": first.events,
            "sim_ms": first.sim_ms,
        })
        if args.workload == "production-mix":
            summary, others = workloads.production_slo(args.seed, size, first)
            result["extra"].update(summary)
            for out in others:
                failures.extend(out.failures)
                attempted += out.attempted
                setups.append(out.setup_s)
            # Its set-up is short, so it is repeated on its own to give
            # the median samples enough.
            while len(setups) < size["setups"]:
                gc.collect()
                setups.append(run(args.seed, size, setup_only=True).setup_s)
        result["extra"]["setup_s.all"] = setups
        metrics["setup_s"] = statistics.median(setups)
        metrics["harness_ops_per_s"] = statistics.median(
            rate for o in reps for rate in o.window_rates())
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                             for name, unit in END_TO_END.items()}
    result["samples"] = {kind: len(first.lat[kind]) for kind in first.lat}
    result["attempted"] = attempted
    result["failed"] = len(failures)
    result["failures"] = failures[:10]
    result["xfail"] = xfail
    result["correct"] = not failures
    print(json.dumps(result))
    return 0


def trace_rep(args, workloads, run, size, untraced, result, failures):
    """Add one traced repetition to ``result``; the ops it attempted."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced = run(args.seed, size, tracer)
    finally:
        tracer.uninstall()
    failures.extend(traced.failures)
    if fingerprint(workloads, traced) != fingerprint(workloads, untraced):
        failures.append("the traced repetition's modeled metrics or event "
                        "count differ from the untraced one's")
    metrics, check = tracer.analyse()
    if check["checked"] == 0 or check["worst_error"] > 1e-9:
        failures.append(f"layer self times do not sum to op latency: {check}")
    metrics["trace.overhead"] = (traced.timed_s / untraced.timed_s, "x")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in sorted(metrics.items())}
    result["extra"] = {"layer_sum_check": check}
    if args.trace_dir is None:
        return traced.attempted
    out_dir = Path(args.trace_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"{args.workload}.spans.jsonl")
    with open(out_dir / f"{args.workload}.layers.json", "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "metrics": result["metrics"], "check": check}, handle,
                  indent=1)
    return traced.attempted


# ---------------------------------------------------------------------------
# the command: every requested workload, one subprocess each
# ---------------------------------------------------------------------------

def report(result):
    """Print one workload's metrics as a table."""
    print(f"\n== {result['workload']}  ({result['reps']} repetitions, "
          f"samples {result['samples']})")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in result.get("extra", {}).items():
        if not isinstance(value, list):
            print(f"  ({name}: {value})")
    for line in result["xfail"]:
        print(f"  expected failure: {line}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="accepted for callers that pass a run length; "
                             "ignored, since a run is a fixed amount of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir",
                        help="with --trace 1, also write spans and layer "
                             "tables here")
    parser.add_argument("--json", help="also write every result to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every code path, no measurement")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        workloads = _import_workloads()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    names = args.workload or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; "
                     f"choose from {list(workloads.WORKLOADS)}")
    if args.child:
        args.workload = names[0]
        return child(args, workloads)

    results = []
    for name in names:
        command = [sys.executable, str(HERE / "run.py"), "--child",
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace)]
        if args.trace_dir is not None:
            command += ["--trace-dir", args.trace_dir]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: subprocess failed with code {done.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        report(result)
        results.append(result)

    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"seed": args.seed, "results": results}, handle,
                      indent=1)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in results for name, metric in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
