"""EXP-S3 — primary failover under load.

Pins the replication headline: killing a shard's primary mid-phase costs
one promotion (epoch bump, tier fences, allocator reseat) and no journal
replay, because synchronous quorum shipping already put every acked
record on the backup.  The outage is a few milliseconds, far below the
restart floor of an unreplicated shard, and the kill run's slowest
mdcreate absorbs it.
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

    # No replay: the gap is a few RPC round trips (measured 3.79 ms),
    # far below the 200 ms restart floor of an unreplicated shard.  Each
    # promotion step commits with its log force overlapping its quorum
    # ship, which keeps the gap under 5 ms (force-then-ship: 6.55 ms).
    gap = r[("failover", "gap_ms")]
    assert 0 < gap < DbConfig().recovery_base_ms / 10
    assert gap < 5.0

    # The promote span's step marks account for the whole gap.
    steps = sum(value for key, value in r.items()
                if key[:2] == ("failover", "step_ms"))
    assert abs(steps - gap) < 1e-9

    # The slowest op absorbs the outage: the kill run's mdcreate max sits
    # above the baseline's (measured 6.74 vs 3.95 ms).  The outage is too
    # short and too rare to move the p99, which reads 3.95 ms in both.
    assert r[("failover", "mdcreate", "max_ms")] > \
        r[("baseline", "mdcreate", "max_ms")]
