"""The bench CLI and the experiment registry."""

import pytest

from repro.bench.__main__ import main
from repro.bench.experiments import EXPERIMENTS, run_ablation_mds


def test_registry_covers_every_paper_item():
    expected = {
        "fig1", "fig2", "fig4", "fig5", "fig5b", "fig6", "table1",
        "ablation-placement", "ablation-mds", "scaling-mds",
        "scaling-rebalance", "scaling-split", "scaling-failover",
        "scaling-async",
    }
    assert set(EXPERIMENTS) == expected


def test_cli_runs_an_experiment(capsys):
    assert main(["ablation-mds"]) == 0
    out = capsys.readouterr().out
    assert "Ablation" in out
    assert "sync-log" in out
    assert "took" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_experiment_returns_structured_results():
    out = run_ablation_mds()
    assert out["files_per_node"] == 256  # the default grid
    assert out["ops_done"] > 0 and out["virtual_ms"] > 0
    assert ("sync-log", "create") in out["results"]
    assert ("async-log", "utime") in out["results"]
    assert out["results"][("sync-log", "utime")] > \
        out["results"][("async-log", "utime")]


def test_experiments_are_deterministic():
    a = run_ablation_mds()
    b = run_ablation_mds()
    assert a["results"] == b["results"]
