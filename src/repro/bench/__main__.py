"""Command-line entry point: regenerate any figure/table of the paper.

Usage::

    python -m repro.bench fig4            # quick grid
    python -m repro.bench fig4 --full     # the paper's complete sweep
    python -m repro.bench all
    python -m repro.bench --quick --json BENCH_PR1.json --label after
"""

import argparse
import sys
import time

from repro.bench.experiments import EXPERIMENTS
from repro.bench.quick import (
    QUICK_EXPERIMENTS,
    append_run,
    check_fingerprints,
    latest_reference,
    run_quick,
)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiment", nargs="?",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment to run (default: all with --quick)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="use the paper's complete parameter grid (slower)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run scaled-down versions of every figure, recording "
             "wall-clock seconds, simulated ops and ops/sec",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="with --quick: append the run to this JSON file",
    )
    parser.add_argument(
        "--label", default=None,
        help="with --quick: label stored with the run (e.g. baseline/after)",
    )
    parser.add_argument(
        "--obs", metavar="DIR", default=None,
        help="with --quick: enable tracing+metrics and write per-experiment "
             "trace/metrics JSONL and span-latency aggregates into DIR "
             "(charge-preserving: virtual_ms fingerprints are unchanged)",
    )
    parser.add_argument(
        "--no-gate", action="store_true",
        help="with --quick: skip the virtual_ms fingerprint regression gate "
             "against the latest committed BENCH_PR*.json",
    )
    args = parser.parse_args(argv)

    if args.json and not args.quick:
        parser.error("--json requires --quick")
    if args.obs and not args.quick:
        parser.error("--obs requires --quick")

    if args.quick:
        if args.experiment and args.experiment != "all":
            if args.experiment not in QUICK_EXPERIMENTS:
                parser.error(
                    f"no quick variant of {args.experiment!r}; choose from "
                    f"{', '.join(QUICK_EXPERIMENTS)}"
                )
            names = [args.experiment]
        else:
            names = QUICK_EXPERIMENTS
        run = run_quick(names=names, label=args.label, obs_dir=args.obs)
        if not args.no_gate:
            reference = latest_reference()
            if reference is not None:
                check_fingerprints(run, reference)
            else:
                print("(fingerprint gate: no BENCH_PR*.json found; skipped)")
        if args.json:
            append_run(args.json, run)
            print(f"(appended run {run['label']!r} to {args.json})")
        return 0

    if not args.experiment:
        parser.error("an experiment name (or --quick) is required")
    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in names:
        start = time.time()
        print(f"=== {name} ===")
        EXPERIMENTS[name](scale="full" if args.full else "default",
                          print_report=True)
        print(f"({name} took {time.time() - start:.1f}s wall)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
