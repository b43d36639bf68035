"""COFS metadata-service crash recovery: the namespace survives."""

import pytest

from repro.core.config import CofsConfig
from repro.db.service import DbConfig
from repro.pfs import FsError
from tests.core.conftest import MountedCofs


def test_namespace_survives_mds_crash(cofsx, cfs):
    def main():
        yield from cfs.mkdir("/proj")
        fh = yield from cfs.create("/proj/data")
        yield from cfs.write(fh, 0, data=b"payload")
        yield from cfs.close(fh)
        lost = yield from cofsx.mds.recover()
        names = yield from cfs.readdir("/proj")
        attr = yield from cfs.stat("/proj/data")
        fh = yield from cfs.open("/proj/data")
        data = yield from cfs.read(fh, 0, 7, want_data=True)
        yield from cfs.close(fh)
        return (lost, names, attr.size, data)

    lost, names, size, data = cofsx.run(main())
    assert lost == 0
    assert names == ["data"]
    assert size == 7
    assert data == b"payload"


def test_creates_work_after_recovery_without_vino_reuse(cofsx, cfs):
    def main():
        fh = yield from cfs.create("/before")
        yield from cfs.close(fh)
        before = yield from cfs.stat("/before")
        yield from cofsx.mds.recover()
        fh = yield from cfs.create("/after")
        yield from cfs.close(fh)
        after = yield from cfs.stat("/after")
        return (before.ino, after.ino)

    before_ino, after_ino = cofsx.run(main())
    assert after_ino > before_ino


def test_async_mds_crash_loses_recent_namespace_changes():
    host = MountedCofs(
        n_clients=1,
        cofs_config=CofsConfig(db=DbConfig(sync_updates=False)),
    )
    cfs = host.mounts[0]

    def main():
        fh = yield from cfs.create("/durable")
        yield from cfs.close(fh)
        yield from host.mds.dbsvc.checkpoint()
        fh = yield from cfs.create("/volatile")
        yield from cfs.close(fh)
        lost = yield from host.mds.recover()
        names = yield from cfs.readdir("/")
        return (lost, names)

    lost, names = host.run(main())
    assert lost >= 1
    assert "durable" in names
    assert "volatile" not in names


def test_bucket_counters_survive_crash(cofsx, cfs):
    def main():
        for i in range(5):
            fh = yield from cfs.create(f"/f{i}")
            yield from cfs.close(fh)
        yield from cofsx.mds.recover()
        return cofsx.mds.bucket_counts()

    counts = cofsx.run(main())
    assert sum(counts.values()) == 5


# ---------------------------------------------------------------------------
# tier-wide crash drills (the sharded tier reuses this machinery)
# ---------------------------------------------------------------------------

from repro.core.faults import check_tier_invariants, skeleton_view
from repro.core.shard import SubtreeSharding, recover_tier
from tests.core.conftest import ShardedCofs


def _split2(cofs_config=None):
    host = ShardedCofs(
        sharding=SubtreeSharding({"/a": 0, "/b": 1}),
        cofs_config=cofs_config,
    )

    def setup():
        yield from host.mounts[0].mkdir("/a")
        yield from host.mounts[0].mkdir("/b")

    host.run(setup())
    return host


def test_namespace_survives_whole_tier_crash():
    host = _split2()
    fs = host.mounts[0]

    def main():
        fh = yield from fs.create("/a/data")
        yield from fs.write(fh, 0, data=b"payload")
        yield from fs.close(fh)
        yield from fs.link("/a/data", "/b/alias")  # stub on shard 1
        lost = yield from recover_tier(host.shards)
        names_a = yield from fs.readdir("/a")
        names_b = yield from fs.readdir("/b")
        attr = yield from fs.stat("/b/alias")
        fh = yield from fs.open("/b/alias")
        data = yield from fs.read(fh, 0, 7, want_data=True)
        yield from fs.close(fh)
        return lost, names_a, names_b, attr, data

    lost, names_a, names_b, attr, data = host.run(main())
    assert lost == 0
    assert names_a == ["data"]
    assert names_b == ["alias"]
    assert attr.nlink == 2
    assert data == b"payload"
    check_tier_invariants(host.shards, host.stack.sharding)


def test_tier_recovery_with_migrated_vino_at_stride_boundary():
    """Whole-tier recovery must reseat each shard's vino stride above
    inodes that *migrated away* — including when the migrated vino is the
    highest of its class and every peer also just rebuilt."""
    host = _split2()
    fs = host.mounts[0]

    def main():
        for name in ("f1", "f2"):
            fh = yield from fs.create(f"/b/{name}")
            yield from fs.close(fh)
        top = yield from fs.stat("/b/f2")
        # migrate the newest shard-1-class inode onto shard 0
        yield from fs.rename("/b/f2", "/a/g")
        yield from recover_tier(host.shards)
        fh = yield from fs.create("/b/f3")
        yield from fs.close(fh)
        fresh = yield from fs.stat("/b/f3")
        return top, fresh

    top, fresh = host.run(main())
    assert top.ino % 2 == 0 and fresh.ino % 2 == 0  # shard 1's class
    assert fresh.ino > top.ino  # never re-issued despite the migration
    check_tier_invariants(host.shards, host.stack.sharding)


def test_skeleton_resync_after_shard_restores_older_journal_prefix():
    """A shard recovering from an older journal prefix (lazy log policy)
    must converge with its peers: missing replicas are copied back from
    the authoritative shard, and replicas whose authority lost them are
    removed everywhere — the pre-op image, exactly as a single async MDS
    loses its own recent changes."""
    host = _split2(cofs_config=CofsConfig(db=DbConfig(sync_updates=False)))
    fs = host.mounts[0]

    def main():
        yield from host.shards[1].dbsvc.checkpoint()  # shard 1: /a, /b only
        yield from fs.mkdir("/a/extra")   # coordinated by shard 0
        yield from fs.mkdir("/b/gone")    # coordinated by shard 1
        yield from host.shards[0].dbsvc.checkpoint()  # shard 0: everything
        lost = yield from recover_tier(host.shards)
        names_a = yield from fs.readdir("/a")
        names_b = yield from fs.readdir("/b")
        return lost, names_a, names_b

    lost, names_a, names_b = host.run(main())
    assert lost >= 1
    assert names_a == ["extra"]   # survived via shard 0's durable prefix
    assert names_b == []          # its authority lost it: gone everywhere
    assert skeleton_view(host.shards[0]) == skeleton_view(host.shards[1])
    check_tier_invariants(host.shards, host.stack.sharding)

    def still_writable():
        yield from fs.mkdir("/b/fresh")
        fh = yield from fs.create("/a/extra/file")
        yield from fs.close(fh)
        attr = yield from fs.stat("/a/extra/file")
        return attr

    attr = host.run(still_writable())
    assert attr.size == 0
    check_tier_invariants(host.shards, host.stack.sharding)


def test_skeleton_resync_replaces_a_reused_path_with_different_vino():
    """A replica holding a *different* object at the same path (divergent
    histories: rmdir + re-mkdir lost on the authority) must be replaced,
    not kept — membership-by-path alone would miss it."""
    host = _split2(cofs_config=CofsConfig(db=DbConfig(sync_updates=False)))
    fs = host.mounts[0]

    def main():
        yield from fs.mkdir("/b/gone")
        yield from host.shards[1].dbsvc.checkpoint()  # authority: old vino
        yield from fs.rmdir("/b/gone")
        yield from fs.mkdir("/b/gone")                # same path, new vino
        yield from host.shards[0].dbsvc.checkpoint()  # replica: new vino
        yield from recover_tier(host.shards)
        attr = yield from fs.stat("/b/gone")
        return attr

    attr = host.run(main())
    assert skeleton_view(host.shards[0]) == skeleton_view(host.shards[1])
    check_tier_invariants(host.shards, host.stack.sharding)
    # the authority's durable prefix wins: the original directory's vino
    rows1 = {r["vino"] for r in host.shards[1].db.table("inodes").all()}
    assert attr.ino in rows1


def test_skeleton_resync_nested_adds_keep_link_counts_consistent():
    """Adding a parent and its child directory in one resync must not
    double-count the parent's nlink (the authoritative row already
    counts the child)."""
    host = _split2(cofs_config=CofsConfig(db=DbConfig(sync_updates=False)))
    fs = host.mounts[0]

    def main():
        yield from host.shards[1].dbsvc.checkpoint()  # shard 1: /a, /b only
        yield from fs.mkdir("/a/extra")
        yield from fs.mkdir("/a/extra/deep")
        yield from host.shards[0].dbsvc.checkpoint()
        yield from recover_tier(host.shards)
        attr = yield from fs.stat("/a/extra")
        return attr

    attr = host.run(main())
    assert attr.nlink == 3  # itself, '.', and one subdirectory
    assert skeleton_view(host.shards[0]) == skeleton_view(host.shards[1])
    check_tier_invariants(host.shards, host.stack.sharding)
