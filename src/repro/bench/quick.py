"""Quick bench: every experiment at its quick grid, timed.

Each experiment with a ``quick`` grid in
:data:`repro.bench.experiments.GRIDS` runs once and records *wall-clock*
cost alongside the simulated work done, so successive changes can track
how fast the harness itself is; the simulated clock (``virtual_ms``) is
the fingerprint the regression gate below compares.

``python -m repro.bench --quick --json BENCH_PR1.json`` runs the whole
suite and appends one labelled run to the JSON file, keeping earlier runs
(e.g. the pre-optimisation baseline) in place for before/after comparison.
"""

import json
import os
import re
import time

from repro import obs
from repro.bench.experiments import EXPERIMENTS, GRIDS
from repro.bench.report import format_table

#: The quick bench's suite: every experiment with a quick grid.
QUICK_EXPERIMENTS = sorted(
    name for name, grids in GRIDS.items() if "quick" in grids)


def run_quick(names=None, label=None, print_report=True, obs_dir=None):
    """Run the scaled-down suite; returns the run record (JSON-ready).

    With ``obs_dir`` set, tracing and metrics are enabled around each
    experiment and the run's spans/metrics are exported there as
    ``<name>.trace.jsonl`` / ``<name>.metrics.jsonl`` plus a per-kind
    latency aggregate (``<name>.aggregate.json``).  The instrumentation
    is charge-preserving, so the ``virtual_ms`` fingerprints must be
    byte-identical with and without it — the quick-bench CI job gates
    both runs.
    """
    names = list(names or QUICK_EXPERIMENTS)
    if obs_dir is not None:
        os.makedirs(obs_dir, exist_ok=True)
    experiments = {}
    for name in names:
        if obs_dir is not None:
            obs.enable()
        start = time.perf_counter()
        out = EXPERIMENTS[name](scale="quick")
        wall_s = time.perf_counter() - start
        if obs_dir is not None:
            _export_obs(obs_dir, name, print_report)
            obs.disable()
        ops_done = out["ops_done"]
        experiments[name] = {
            "wall_s": round(wall_s, 4),
            "sim_ops": ops_done,
            "ops_per_s": round(ops_done / wall_s, 1) if wall_s > 0 else 0.0,
            "virtual_ms": round(out["virtual_ms"], 3),
        }
    run = {
        "label": label or "unlabelled",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "experiments": experiments,
    }
    if print_report:
        rows = [
            [name, rec["wall_s"], rec["sim_ops"], rec["ops_per_s"]]
            for name, rec in experiments.items()
        ]
        print(format_table(
            ["experiment", "wall s", "sim ops", "ops/s"], rows,
            title=f"Quick bench — {run['label']}",
        ))
    return run


def _export_obs(obs_dir, name, print_report):
    """Export the current obs run's artifacts for experiment ``name``."""
    trace_path = os.path.join(obs_dir, f"{name}.trace.jsonl")
    metrics_path = os.path.join(obs_dir, f"{name}.metrics.jsonl")
    obs.write_trace_jsonl(trace_path, obs.TRACER)
    obs.write_metrics_jsonl(metrics_path, obs.METRICS)
    aggregate = obs.aggregate_spans(obs.TRACER.spans)
    with open(os.path.join(obs_dir, f"{name}.aggregate.json"), "w") as handle:
        json.dump(aggregate, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if print_report:
        print(obs.format_aggregate(aggregate, title=f"{name} — span latency"))


def latest_reference(directory="."):
    """Path of the highest-numbered committed ``BENCH_PR<n>.json``, or None."""
    best, best_n = None, -1
    for entry in os.listdir(directory):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", entry)
        if match and int(match.group(1)) > best_n:
            best_n = int(match.group(1))
            best = os.path.join(directory, entry)
    return best


def check_fingerprints(run, ref_path):
    """Regression gate: this run's ``virtual_ms`` must match ``ref_path``.

    The simulated clock is a pure function of the modelled system, so the
    final virtual time of each quick experiment is a *fingerprint* of its
    behaviour: any drift — however small — means a change altered what the
    simulation does, not just how fast it runs.  Compares every experiment
    present in both this run and the reference file's most recent run and
    exits loudly on the first sign of drift.  Intentional behaviour changes
    re-baseline by committing a new ``BENCH_PR<n>.json`` (``--no-gate`` to
    bypass while iterating).
    """
    with open(ref_path) as handle:
        reference = json.load(handle)["runs"][-1]["experiments"]
    mismatches = []
    checked = 0
    for name, record in sorted(run["experiments"].items()):
        if name not in reference:
            continue
        checked += 1
        expected = reference[name]["virtual_ms"]
        if record["virtual_ms"] != expected:
            mismatches.append((name, expected, record["virtual_ms"]))
    if not checked:
        raise SystemExit(
            f"fingerprint gate: no experiment of this run appears in "
            f"{ref_path}; nothing was checked"
        )
    if mismatches:
        lines = "\n".join(
            f"  {name}: expected virtual_ms={expected}, got {got}"
            for name, expected, got in mismatches
        )
        raise SystemExit(
            f"fingerprint gate FAILED against {ref_path}:\n{lines}\n"
            "Simulated time drifted — the change alters modelled behaviour. "
            "If intentional, commit a new BENCH_PR<n>.json baseline; "
            "otherwise find the stray charge (--no-gate only while iterating)."
        )
    print(f"(fingerprint gate: {checked} experiments match {ref_path})")


def append_run(path, run):
    """Append ``run`` to the JSON file at ``path`` (kept as {"runs": [...]})."""
    data = {"runs": []}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except ValueError as exc:
            raise SystemExit(
                f"{path} exists but is not valid JSON ({exc}); refusing to "
                "overwrite it — move it aside or pass a different --json path"
            ) from None
        if "runs" not in data:
            data = {"runs": []}
    data["runs"].append(run)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return data
