"""EXP-S2 — parallel mirror broadcasts + online re-partitioning.

Asserts the two effects BENCH_PR4.json records: overlapped mirror
broadcasts cut replicated mkdir/rmdir latency at high shard counts, and
a hash-collision-skewed workload's throughput recovers once the
rebalancer re-homes the hot directories.
"""

from repro.bench.experiments import run_scaling_rebalance


def test_scaling_rebalance(benchmark):
    out = benchmark.pedantic(
        lambda: run_scaling_rebalance(print_report=True),
        rounds=1, iterations=1,
    )
    r = out["results"]

    # (a) Replicated-mutation latency: serial mirror chains pay the sum
    # of the peer round trips, overlapped broadcasts roughly the max.
    for op in ("mkdir", "rmdir"):
        # Latency grows with shard count under serial chains ...
        assert r[(op, 2, "serial")] > r[(op, 1, "serial")] * 1.5, op
        assert r[(op, 4, "serial")] > r[(op, 2, "serial")] * 1.3, op
        # ... parallel broadcasts claw a real margin back at 4 shards
        # (3 overlapped mirrors) ...
        assert r[(op, 4, "parallel")] < r[(op, 4, "serial")] * 0.75, op
        # ... and with a single peer there is nothing to overlap.
        assert r[(op, 2, "parallel")] == r[(op, 2, "serial")], op

    # (b) The skewed workload is stuck at one shard's ceiling no matter
    # how many shards exist; after online re-partitioning it recovers.
    assert abs(r[("skew-stat", 4, "before")] /
               r[("skew-stat", 2, "before")] - 1.0) < 0.05
    for n_shards in (2, 4):
        assert r[("skew-moves", n_shards)] > 0, n_shards
        assert r[("skew-stat", n_shards, "after")] > \
            r[("skew-stat", n_shards, "before")] * 1.5, n_shards
