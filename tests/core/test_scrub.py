"""The underlying-object scrubber: orphan detection and reclamation."""

from repro.core.scrub import run_scrub
from repro.core.shard import SubtreeSharding
from tests.core.conftest import ShardedCofs


def test_clean_stack_has_no_orphans(cofsx, cfs):
    def setup():
        yield from cfs.mkdir("/d")
        for name in ("a", "b"):
            fh = yield from cfs.create(f"/d/{name}")
            yield from cfs.close(fh)

    cofsx.run(setup())
    report = cofsx.run(run_scrub(cofsx.stack))
    assert report["orphans"] == []
    assert report["reclaimed"] == 0
    assert report["scanned"] == 2
    assert report["live"] == 2


def test_scrub_reclaims_replaced_file_orphan(cofsx, cfs):
    """A rename-replace whose client died before the underlying unlink.

    The metadata commit already dropped the replaced inode; only the
    underlying object lingers.  Driving the rename through the metadata
    driver (not the client) models exactly that half-done cleanup.
    """
    def setup():
        for name in ("f", "g"):
            fh = yield from cfs.create(f"/{name}")
            yield from cfs.close(fh)

    cofsx.run(setup())
    live = cofsx.run(cofsx.stack.driver(0).call_all("live_upaths"))
    upaths = sorted(p for paths in live for p in paths)
    assert len(upaths) == 2

    def metadata_only_rename():
        # The client-side cleanup (underlying unlink of the replaced
        # upath) never happens: the "client" dies here.
        yield from cofsx.stack.driver(0).call(
            "rename", "/f", "/g", cofsx.sim.now)

    cofsx.run(metadata_only_rename())
    report = cofsx.run(run_scrub(cofsx.stack, dry_run=True))
    assert len(report["orphans"]) == 1
    assert report["reclaimed"] == 0  # dry run: nothing touched

    report = cofsx.run(run_scrub(cofsx.stack))
    assert report["reclaimed"] == 1

    # The survivor is untouched and still fully usable.
    def check():
        attr = yield from cfs.stat("/g")
        fh = yield from cfs.open("/g")
        yield from cfs.close(fh)
        return attr.kind

    assert cofsx.run(check()) == "file"
    again = cofsx.run(run_scrub(cofsx.stack))
    assert again["orphans"] == []


def test_scrub_gathers_live_set_across_shards():
    host = ShardedCofs(sharding=SubtreeSharding({"/a": 0, "/b": 1}))

    def setup():
        fs = host.mounts[0]
        yield from fs.mkdir("/a")
        yield from fs.mkdir("/b")
        for path in ("/a/f", "/b/g"):
            fh = yield from fs.create(path)
            yield from fs.close(fh)

    host.run(setup())
    report = host.run(run_scrub(host.stack))
    # Files live on two different shards; neither may read as orphaned.
    assert report["live"] == 2
    assert report["scanned"] == 2
    assert report["orphans"] == []


def test_scrub_ignores_metadata_only_files(cofsx, cfs):
    def setup():
        yield from cfs.mknod("/marker")
        fh = yield from cfs.create("/data")
        yield from cfs.close(fh)

    cofsx.run(setup())
    report = cofsx.run(run_scrub(cofsx.stack))
    # The mknod file has no underlying object: one scanned, one live,
    # nothing stranded either way.
    assert report["scanned"] == 1
    assert report["live"] == 1
    assert report["orphans"] == []


def test_scrub_never_reclaims_object_mid_rebalance_migration():
    """An object whose inode row is mid-copy→import→purge (the rebalance
    migration died between any two of its steps) must never read as an
    orphan: the row exists on the source shard, the destination, or both
    at every boundary, so the tier-wide live-upath gather always covers
    it — in dry-run and in live (reclaiming) mode alike."""
    from repro.core.faults import (
        CrashInjected, CrashSchedule, arm_shards, check_tier_invariants,
        disarm_shards,
    )
    from repro.core.shard import recover_tier

    def build():
        host = ShardedCofs(
            n_clients=1, shards=2,
            sharding=SubtreeSharding({"/a": 0, "/b": 1}))

        def setup():
            fs = host.mounts[0]
            yield from fs.mkdir("/a")
            for name in ("f", "g"):
                fh = yield from fs.create(f"/a/{name}")
                yield from fs.write(fh, 0, size=8)
                yield from fs.close(fh)

        host.run(setup())
        return host

    def rebalance(host):
        return host.shards[0].rebalance_dir("/a", 1, host.sim.now)

    # Counting pass: how many boundaries the migration crosses.
    host = build()
    schedule = CrashSchedule()
    arm_shards(host.shards, schedule)
    host.run(rebalance(host))
    disarm_shards(host.shards)
    count = schedule.count
    assert count >= 4  # override txn + copy/import/purge at least

    for k in range(count):
        host = build()
        schedule = CrashSchedule(armed=k)
        arm_shards(host.shards, schedule)

        def crashing():
            try:
                yield from rebalance(host)
            except CrashInjected:
                pass
            return True

        host.run(crashing())
        disarm_shards(host.shards)
        # Mid-migration state: scrub in both modes, before any recovery.
        report = host.run(run_scrub(host.stack, dry_run=True))
        assert report["orphans"] == [], (k, report)
        report = host.run(run_scrub(host.stack))
        assert report["reclaimed"] == 0, (k, report)
        # Recovery converges the migration; the files stay whole.
        host.run(recover_tier(host.shards))
        check_tier_invariants(host.shards, host.stack.sharding)
        report = host.run(run_scrub(host.stack))
        assert report["orphans"] == [], (k, report)

        def probe():
            fs = host.mounts[0]
            for name in ("f", "g"):
                attr = yield from fs.stat(f"/a/{name}")
                assert attr.size == 8
                fh = yield from fs.open(f"/a/{name}")
                yield from fs.close(fh)
            return True

        host.run(probe())


def test_scrub_racing_live_rebalance_migration():
    """The scrubber runs *concurrently* with an online re-homing: at no
    interleaving may the mid-flight object be reclaimed."""
    host = ShardedCofs(
        n_clients=1, shards=2, sharding=SubtreeSharding({"/a": 0, "/b": 1}))

    def setup():
        fs = host.mounts[0]
        yield from fs.mkdir("/a")
        for name in ("f", "g", "h"):
            fh = yield from fs.create(f"/a/{name}")
            yield from fs.close(fh)

    host.run(setup())
    reports = []

    def scrubber():
        # several sweeps so at least one overlaps the migration window
        for _sweep in range(3):
            reports.append((yield from run_scrub(host.stack)))
        return True

    def driver():
        scrub = host.sim.process(scrubber())
        move = host.sim.process(
            host.shards[0].rebalance_dir("/a", 1, host.sim.now))
        yield host.sim.all_of([scrub, move])
        return True

    host.run(driver())
    assert all(r["reclaimed"] == 0 and r["orphans"] == [] for r in reports)
    report = host.run(run_scrub(host.stack))
    assert report["live"] == 3 and report["orphans"] == []
