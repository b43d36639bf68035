"""EXP-S3 — primary failover under load.

Pins the replication headline: killing a shard's primary mid-phase costs
one promotion (epoch bump, tier fences, allocator reseat) and no journal
replay, because synchronous quorum shipping already put every acked
record on the backup.  The outage is a few milliseconds, far below the
restart floor of an unreplicated shard, and the kill run's tail latency
absorbs it.
"""

from repro.bench.experiments import run_scaling_failover
from repro.db.service import DbConfig


def test_scaling_failover(benchmark):
    out = benchmark.pedantic(
        lambda: run_scaling_failover(print_report=True),
        rounds=1, iterations=1,
    )
    r = out["results"]

    # The kill drove exactly one failover.
    assert r[("failover", "count")] == 1

    # No replay: the gap is a few RPC round trips (measured 6.55 ms),
    # far below the 200 ms restart floor of an unreplicated shard.
    gap = r[("failover", "gap_ms")]
    assert 0 < gap < DbConfig().recovery_base_ms / 10

    # The promote span's step marks account for the whole gap.
    steps = sum(value for key, value in r.items()
                if key[:2] == ("failover", "step_ms"))
    assert abs(steps - gap) < 1e-9

    # The tail absorbs the outage: the kill run's mdcreate p99 sits above
    # the baseline's (measured 8.51 vs 5.98 ms).
    assert r[("failover", "mdcreate", "p99_ms")] > \
        r[("baseline", "mdcreate", "p99_ms")]
