"""Primary/backup shard groups: log shipping, failover, fencing, rejoin.

These are the protocol-level tests for :class:`ReplicatedShard`: quorum
acknowledgement, backup table equality, transparent fenced failover,
zombie refusal, bounded-staleness follower reads, and snapshot rejoin.
The crash-point drills (kill a member at every RPC/commit boundary) live
in ``test_crash_points.py``; the differential oracle (a kill-primary run
must match a crash-free reference) in ``test_differential.py``.
"""

import pytest

from repro import obs
from repro.core.config import CofsConfig
from repro.core.faults import (
    check_group_invariants,
    check_tier_invariants,
    kill_backup,
    kill_primary,
    revive_member,
)
from repro.core.shard import SubtreeSharding
from repro.core.shard.routing import EpochFenced
from repro.pfs.errors import FsError
from tests.core.conftest import ShardedCofs


@pytest.fixture(autouse=True)
def _trace_checked():
    """Every replication test runs traced; its history must satisfy the
    protocol invariants (quorum-before-ack, promotion order, recovery
    order, no follower-served mutations).  Tracing is charge-preserving,
    so the simulated results the assertions below check are unchanged."""
    tracer, _metrics = obs.enable()
    try:
        yield
        obs.TraceChecker(tracer).check_all()
    finally:
        obs.disable()


def _host(replicas=2, shards=2, **kwargs):
    return ShardedCofs(
        n_clients=1, shards=shards, replicas=replicas,
        sharding=SubtreeSharding({"/a": 0, "/b": 1}), **kwargs)


def _populate(host, names=("f", "g", "h")):
    def setup():
        fs = host.mounts[0]
        yield from fs.mkdir("/a")
        yield from fs.mkdir("/b")
        for name in names:
            fh = yield from fs.create(f"/a/{name}")
            yield from fs.close(fh)

    host.run(setup())


def _listing(host, path="/a"):
    def body():
        names = yield from host.mounts[0].readdir(path)
        stats = {}
        for name in names:
            stats[name] = (yield from host.mounts[0].stat(
                f"{path}/{name}")).nlink
        return stats

    return host.run(body())


# ---------------------------------------------------------------------------
# Log shipping
# ---------------------------------------------------------------------------

def test_shipping_keeps_backups_identical_and_acked_at_head():
    host = _host()
    _populate(host)
    for group in host.groups:
        assert group.lsn > 0 or group.shard_id == 1  # /b only has mirrors
        for backup in group.live_backups():
            assert group.acked[backup] == group.lsn
    check_group_invariants(host.groups)
    check_tier_invariants(host.primaries, host.stack.sharding)


def test_quorum_continues_after_a_backup_dies():
    """R=2: losing the backup shrinks the live membership to the primary
    alone (majority of one) — mutations keep flowing, and the dead
    backup rejoins later by snapshot at the new head."""
    host = _host()
    _populate(host)
    group = host.groups[0]
    backup = kill_backup(group)

    def more():
        fs = host.mounts[0]
        fh = yield from fs.create("/a/late")
        yield from fs.close(fh)

    host.run(more())
    assert group.live_backups() == []
    assert _listing(host) == {"f": 1, "g": 1, "h": 1, "late": 1}

    revive_member(backup)
    host.run(group.rejoin(backup))
    assert group.acked[backup] == group.lsn
    check_group_invariants(host.groups)
    check_tier_invariants(host.primaries, host.stack.sharding)


def test_three_replica_group_survives_one_backup_loss():
    host = _host(replicas=3, shards=2)
    _populate(host)
    group = host.groups[0]
    kill_backup(group)

    def more():
        fs = host.mounts[0]
        fh = yield from fs.create("/a/after")
        yield from fs.close(fh)

    host.run(more())
    # 2-of-3 quorum held: the surviving backup is at head.
    assert len(group.live_backups()) == 1
    check_group_invariants(host.groups)


@pytest.mark.parametrize("async_commit", [False, True],
                         ids=["sync", "async"])
def test_commit_waits_for_the_slower_of_force_and_ship(async_commit):
    """The primary's log force overlaps the quorum ship.  The ack waits
    for both, so a slow log on either member delays it; but two slow
    logs cost one wait, not two in a row."""
    def utime_ms(slow):
        host = _host(cofs_config=CofsConfig(async_commit=async_commit))
        _populate(host)
        for member in slow(host.groups[0]):
            member.dbsvc.log.force_ms = 50.0

        def timed():
            start = host.sim.now
            yield from host.mounts[0].utime("/a/f", atime=1.0, mtime=2.0)
            return host.sim.now - start

        return host.run(timed())

    assert utime_ms(lambda group: [group.primary]) >= 50.0
    assert utime_ms(lambda group: group.backups) >= 50.0
    assert utime_ms(lambda group: group.members) < 75.0


@pytest.mark.parametrize("async_commit", [False, True],
                         ids=["sync", "async"])
def test_failed_ship_still_waits_for_its_force(async_commit):
    """A ship that fails leaves the journal as durable as its overlapped
    force made it.  Left unmarked, the async batcher would find the span
    undurable and re-force and re-ship it without end."""
    host = _host(cofs_config=CofsConfig(async_commit=async_commit))
    _populate(host)
    dbsvc = host.groups[0].primary.dbsvc

    def refuse(_lsn):
        raise FsError("EAGAIN", "ship refused")
        yield  # a generator function, like the real replicator

    dbsvc.replicator = refuse
    outcome = []

    def update():
        try:
            yield from dbsvc.execute(lambda txn: txn.write(
                "repl", {"slot": "probe", "lsn": 0}))
        except FsError as exc:
            outcome.append(exc.code)

    sim = host.sim
    sim.process(update())
    deadline = sim.now + 1000.0
    assert sim.run(until=deadline) < deadline, "the heap never drained"
    assert outcome == ["EAGAIN"]
    assert dbsvc.journal.durable_upto == len(dbsvc.journal._records)


# ---------------------------------------------------------------------------
# Failover
# ---------------------------------------------------------------------------

def test_failover_is_transparent_and_serves_the_full_namespace():
    host = _host()
    _populate(host)
    before = _listing(host)
    group = host.groups[0]
    old_epoch = group.epoch
    kill_primary(group)

    # The next client ops hit the dead primary, ride the router's retry
    # into the fenced promotion, and land on the new primary — no client
    # ever sees an error.
    assert _listing(host) == before
    assert group.failovers == 1
    assert group.epoch == old_epoch + 1
    assert group.last_failover is not None

    def mutate():
        fs = host.mounts[0]
        fh = yield from fs.create("/a/post")
        yield from fs.close(fh)
        yield from fs.mkdir("/a/sub")  # mirror broadcast from new primary
        return (yield from fs.readdir("/a"))

    names = host.run(mutate())
    assert set(names) == {"f", "g", "h", "post", "sub"}
    check_tier_invariants(host.primaries, host.stack.sharding)


def test_failover_composes_with_cross_shard_rename():
    """Cross-shard coordination names groups, not nodes: a rename whose
    destination group failed over lands on the promoted primary."""
    host = _host()
    _populate(host)
    kill_primary(host.groups[1])

    def move():
        yield from host.mounts[0].rename("/a/f", "/b/moved")
        return (yield from host.mounts[0].readdir("/b"))

    assert host.run(move()) == ["moved"]
    assert host.groups[1].failovers == 1
    check_tier_invariants(host.primaries, host.stack.sharding)
    check_group_invariants(host.groups)


def test_failover_without_live_backup_is_eio():
    host = _host()
    _populate(host)
    group = host.groups[0]
    kill_backup(group)
    kill_primary(group)
    with pytest.raises(FsError) as exc:
        host.run(group.failover())
    assert exc.value.code == "EIO"


# ---------------------------------------------------------------------------
# Zombie fencing
# ---------------------------------------------------------------------------

def test_resurrected_zombie_primary_is_fenced_until_rejoin():
    host = _host()
    _populate(host)
    group = host.groups[0]
    zombie = kill_primary(group)
    assert _listing(host)  # drives the failover
    assert group.failovers == 1

    # The zombie comes back with its pre-kill state and its shipper still
    # attached: its very first local commit fails the primaryship check
    # and the client is never acknowledged.
    revive_member(zombie)
    with pytest.raises(EpochFenced):
        host.run(zombie.setattr("/a/f", {"mode": 0o600}, host.sim.now))

    # The divergent local commit is discarded by the snapshot rejoin;
    # the member re-enters the quorum at the new primary's head.
    host.run(group.rejoin(zombie))
    assert group.acked[zombie] == group.lsn
    check_group_invariants(host.groups)
    mode = host.run(host.mounts[0].stat("/a/f")).mode
    assert mode != 0o600
    check_tier_invariants(host.primaries, host.stack.sharding)


def test_zombie_commit_that_survived_promotion_is_acked():
    """The at-least-once hazard: a concurrent committer's suffix ship
    can carry a transaction's record to the backup before the fence
    lands.  If the promoted primary provably holds the record
    (commit LSN ≤ its applied pointer), the zombie's ship must ack —
    fencing it would make the router retry a non-idempotent mutation."""
    host = _host()
    _populate(host)
    group = host.groups[0]
    old = group.primary
    head = group.lsn
    kill_primary(group)
    assert _listing(host)  # promotes the backup at applied == head
    assert group.promoted_from == (old, head)
    # A commit at or below the promoted applied pointer acks...
    host.run(group._ship(old, head))
    # ...anything past it is truly lost and fences.
    with pytest.raises(EpochFenced):
        host.run(group._ship(old, head + 1))


# ---------------------------------------------------------------------------
# Follower reads
# ---------------------------------------------------------------------------

def test_follower_reads_serve_from_an_in_sync_backup():
    host = _host(cofs_config=CofsConfig(
        follower_reads=True, follower_staleness=0))
    _populate(host)
    group = host.groups[0]
    backup = group.live_backups()[0]
    primary_reads = group.primary.dbsvc.read_txns
    backup_reads = backup.dbsvc.read_txns

    def reads():
        stats = []
        for name in ("f", "g", "h"):
            stats.append((yield from host.mounts[0].stat(f"/a/{name}")))
        return stats

    stats = host.run(reads())
    assert [s.nlink for s in stats] == [1, 1, 1]
    # The stats ran on the backup, not the primary.
    assert backup.dbsvc.read_txns > backup_reads
    assert group.primary.dbsvc.read_txns == primary_reads


def test_follower_reads_fall_back_to_the_primary_when_stale():
    host = _host(cofs_config=CofsConfig(
        follower_reads=True, follower_staleness=0))
    _populate(host)
    group = host.groups[0]
    backup = group.live_backups()[0]
    # Force staleness: pretend the backup is lagging the head.
    group.acked[backup] -= 1
    assert group.follower_for_read(0) is None
    assert group.follower_for_read(1) is backup
    primary_reads = group.primary.dbsvc.read_txns
    host.run(host.mounts[0].stat("/a/f"))
    assert group.primary.dbsvc.read_txns > primary_reads


def test_mutations_never_route_to_a_follower():
    host = _host(cofs_config=CofsConfig(
        follower_reads=True, follower_staleness=10))
    _populate(host)
    group = host.groups[0]
    backup = group.live_backups()[0]
    updates = backup.dbsvc.update_txns

    def mutate():
        yield from host.mounts[0].utime("/a/f", atime=1.0, mtime=2.0)

    host.run(mutate())
    # The backup's only new update transactions are shipped applies.
    assert backup.dbsvc.update_txns > updates  # the ship arrived
    check_group_invariants(host.groups)


# ---------------------------------------------------------------------------
# Concurrent recoveries (gate-bypassing recovery RPCs)
# ---------------------------------------------------------------------------

def test_concurrent_shard_recoveries_do_not_deadlock():
    """Regression: two shards recovering at once.  Each recovery's
    fence/reseat RPCs must bypass the *other* recovering shard's closed
    admission gate (``_recovery_dispatch``), or the two recoveries wait
    on each other forever."""
    host = ShardedCofs(
        n_clients=1, shards=2,
        sharding=SubtreeSharding({"/a": 0, "/b": 1}))
    _populate(host)
    epochs = [shard.epoch for shard in host.shards]

    host.run_all([shard.recover() for shard in host.shards])

    assert [shard.epoch for shard in host.shards] == \
        [epoch + 1 for epoch in epochs]
    assert all(shard._admission is None for shard in host.shards)
    check_tier_invariants(host.shards, host.stack.sharding)
    assert _listing(host) == {"f": 1, "g": 1, "h": 1}
