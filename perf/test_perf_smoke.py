"""Smoke test of the benchmark: every workload at a tiny scale.

Runs ``perf/run.py --smoke`` untraced and traced, and checks that every
metric ``BENCHMARK.json`` names is printed with its unit for every
workload, and that the benchmark's own checks pass: the correctness
oracle, bit-identical modeled metrics across repetitions and between the
untraced and traced runs, and the layer-sum check of the traced run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--smoke", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    return done


def _check(done, section):
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    for workload in WORKLOADS:
        for metric in SPEC[section]:
            got = result["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"], (workload, metric)
            assert isinstance(got["value"], (int, float))
    return result


def test_untraced_smoke_prints_every_end_to_end_metric():
    _check(_run(), "end_to_end")


def test_traced_smoke_prints_every_per_layer_metric(tmp_path):
    _check(_run("--trace", "1", "--trace-dir", str(tmp_path)), "per_layer")
    for workload in WORKLOADS:
        layers = json.loads(
            (tmp_path / f"{workload}.layers.json").read_text())
        assert layers["check"]["checked"] > 0
        assert (tmp_path / f"{workload}.spans.jsonl").stat().st_size > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", WORKLOADS[0], cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
