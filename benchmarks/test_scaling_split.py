"""EXP-S4 — giant shared directory vs intra-directory splitting.

Asserts the headline of the split machinery: a create storm into ONE
shared directory is pinned to the directory owner's shard no matter how
many shards exist, and hash-partitioning the directory's entries across
the tier makes the same storm scale.
"""

from repro.bench.experiments import run_scaling_split


def test_scaling_split(benchmark):
    out = benchmark.pedantic(
        lambda: run_scaling_split(print_report=True),
        rounds=1, iterations=1,
    )
    r = out["results"]

    # Whole-directory placement is a ceiling: adding shards buys the
    # one-directory storm nothing at all.
    base = r[("mdcreate", 1, "unsplit")]
    for n_shards in (2, 4):
        assert r[("mdcreate", n_shards, "unsplit")] == base, n_shards

    # The rebalancer found and split the hotspot on its own ...
    for n_shards in (2, 4):
        assert r[("split-dirs", n_shards)] == 1, n_shards
    # ... and the split storm scales: ≥1.8x ops/s going 1 -> 4 shards
    # (measured 3.0x), with 2 shards already beating the whole-dir
    # ceiling by a wide margin.
    assert r[("mdcreate", 4, "split")] >= base * 1.8
    assert r[("mdcreate", 2, "split")] >= base * 1.5

    # The read side must never pay for the split: the stat phase is
    # latency-bound (no queueing to dissolve), so split placement holds
    # it exactly at the whole-directory rate.
    stat_base = r[("stat", 1, "unsplit")]
    for n_shards in (2, 4):
        assert r[("stat", n_shards, "split")] >= stat_base * 0.99, n_shards
