"""Intra-directory partitioning: splits, merges, and their transparency.

A hot directory's entries are hash-partitioned across shards by name
(GIGA+-style); every test here holds the split to the same standard as
re-homing — observably invisible, durable everywhere, crash-redoable —
plus the split-specific properties: creates and stats of one directory
spread across the tier, readdir merges the partitions exactly once, and
renames in, out of, and within a split directory match the single-shard
oracle.
"""

import pytest

from repro.core.faults import (
    check_group_invariants,
    check_tier_invariants,
    namespace_image,
)
from repro.core.shard import HashDirSharding, Rebalancer, SubtreeSharding
from repro.core.shard.recovery import recover_tier
from repro.core.shard.routing import entry_slot
from repro.pfs.errors import FsError
from tests.core.conftest import MountedCofs, ShardedCofs
from tests.core.test_differential import apply_ops, observe

NAMES = [f"f{i}" for i in range(16)]


@pytest.fixture
def split2():
    """Two shards, /a and /b statically assigned, 16 files in /a."""
    host = ShardedCofs(sharding=SubtreeSharding({"/a": 0, "/b": 1}))

    def setup():
        fs = host.mounts[0]
        yield from fs.mkdir("/a")
        yield from fs.mkdir("/b")
        for name in NAMES:
            fh = yield from fs.create(f"/a/{name}")
            yield from fs.close(fh)

    host.run(setup())
    return host


def _observe(host):
    """Structural listing through the client mount."""
    fs = host.mounts[0]

    def body():
        state = {}
        for d in (yield from fs.readdir("/")):
            names = yield from fs.readdir(f"/{d}")
            state[d] = names
            for name in names:
                attr = yield from fs.stat(f"/{d}/{name}")
                state[f"{d}/{name}"] = (attr.kind, attr.nlink)
        return state

    return host.run(body())


def test_split_spreads_entries_and_is_transparent(split2):
    host = split2
    before = _observe(host)
    assert len(host.file_vinos(0)) == 16

    assert host.run(host.shards[0].split_dir("/a", [0, 1], host.sim.now))

    # The population physically spread by name hash ...
    want = {name: entry_slot(name, 2) for name in NAMES}
    assert len(host.file_vinos(0)) == sum(
        1 for slot in want.values() if slot == 0)
    assert len(host.file_vinos(1)) == sum(
        1 for slot in want.values() if slot == 1)
    assert host.file_vinos(0) and host.file_vinos(1)
    # ... the row is durable everywhere and routing consults it ...
    for shard in host.shards:
        assert host.route_rows(shard.shard_id) == {"/a": (0, (0, 1))}
    assert host.stack.sharding.entry_shards("/a", 2) == (0, 1)
    for name in NAMES:
        assert host.stack.sharding.shard_of_entry("/a", name, 2) == \
            want[name]
    # ... and nothing observable changed.
    assert _observe(host) == before
    check_tier_invariants(host.shards, host.stack.sharding)
    # Splitting to the same fanout is a no-op.
    assert host.run(
        host.shards[0].split_dir("/a", [0, 1], host.sim.now)) is False


def test_split_dir_create_storm_spreads_across_shards():
    """The headline scaling property, structurally: a create storm into
    one split directory lands rows on every shard of the tier."""
    host = ShardedCofs(n_clients=1, shards=4,
                       sharding=SubtreeSharding({"/storm": 0}, default=0))

    def setup():
        fs = host.mounts[0]
        yield from fs.mkdir("/storm")

    host.run(setup())
    host.run(host.shards[0].split_dir("/storm", [0, 1, 2, 3], host.sim.now))

    def storm():
        fs = host.mounts[0]
        for index in range(32):
            fh = yield from fs.create(f"/storm/n{index}")
            yield from fs.close(fh)
        for index in range(32):
            yield from fs.stat(f"/storm/n{index}")
        return (yield from fs.readdir("/storm"))

    names = host.run(storm())
    assert names == sorted(f"n{i}" for i in range(32))
    per_shard = [len(host.file_vinos(s)) for s in range(4)]
    assert sum(per_shard) == 32
    assert all(count > 0 for count in per_shard), per_shard
    check_tier_invariants(host.shards, host.stack.sharding)


def test_merge_brings_the_population_home(split2):
    host = split2
    before = _observe(host)
    host.run(host.shards[0].split_dir("/a", [0, 1], host.sim.now))
    assert host.file_vinos(1)

    assert host.run(host.shards[0].merge_dir("/a", host.sim.now))

    assert len(host.file_vinos(0)) == 16
    assert host.file_vinos(1) == set()
    # The one-element row survives (dropping it could resurrect a stale
    # fanout through the restore union) and routes like no row at all.
    for shard in host.shards:
        assert host.route_rows(shard.shard_id) == {"/a": (0, (0,))}
    assert host.stack.sharding.entry_shards("/a", 2) == (0,)
    assert _observe(host) == before
    check_tier_invariants(host.shards, host.stack.sharding)
    # Merging an unsplit (or already-merged) directory is a no-op ...
    assert host.run(host.shards[1].merge_dir("/b", host.sim.now)) is False
    # ... and a merged directory can split again.
    assert host.run(host.shards[0].split_dir("/a", [1, 0], host.sim.now))
    assert host.stack.sharding.entry_shards("/a", 2) == (1, 0)
    assert _observe(host) == before
    check_tier_invariants(host.shards, host.stack.sharding)


def test_resplit_widens_from_multiple_sources():
    host = ShardedCofs(n_clients=1, shards=4,
                       sharding=SubtreeSharding({"/a": 0}, default=0))

    def setup():
        fs = host.mounts[0]
        yield from fs.mkdir("/a")
        for name in NAMES:
            fh = yield from fs.create(f"/a/{name}")
            yield from fs.close(fh)

    host.run(setup())
    before = _observe(host)
    host.run(host.shards[0].split_dir("/a", [0, 1], host.sim.now))
    host.run(host.shards[0].split_dir("/a", [0, 1, 2, 3], host.sim.now))

    want = {name: entry_slot(name, 4) for name in NAMES}
    for slot in range(4):
        assert len(host.file_vinos(slot)) == sum(
            1 for s in want.values() if s == slot)
    assert _observe(host) == before
    check_tier_invariants(host.shards, host.stack.sharding)


def test_split_dir_guards_and_interactions(split2):
    host = split2
    host.run(host.shards[0].split_dir("/a", [0, 1], host.sim.now))
    # Re-homing a split directory is refused: its entries have no single
    # source shard to move.
    with pytest.raises(FsError) as err:
        host.run(host.shards[0].rebalance_dir("/a", 1, host.sim.now))
    assert err.value.code == "EINVAL"
    # Bad targets are refused before anything commits.
    for targets in ([], [7], [0, 9]):
        with pytest.raises(FsError) as err:
            host.run(host.shards[0].split_dir("/a", targets, host.sim.now))
        assert err.value.code == "EINVAL"
    # Any shard accepts the call: it self-forwards to the owner.
    assert host.run(
        host.shards[1].split_dir("/a", [1, 0], host.sim.now))
    check_tier_invariants(host.shards, host.stack.sharding)


def test_partitions_survive_tier_recovery(split2):
    host = split2
    host.run(host.shards[0].split_dir("/a", [0, 1], host.sim.now))
    before = _observe(host)
    # Poison the in-memory map to prove recovery restores it durably.
    host.stack.sharding.routes.clear()
    host.run(recover_tier(host.shards))
    assert host.stack.sharding.routes == {"/a": (0, (0, 1))}
    assert _observe(host) == before
    check_tier_invariants(host.shards, host.stack.sharding)


@pytest.mark.xfail(strict=True, reason=(
    "a split directory's time bump is written on its owner outside any "
    "transaction, so log shipping never carries it to the backups"))
def test_split_dir_times_reach_the_owners_backups():
    """Creates served by a non-owner partition bump the split
    directory's mtime/ctime on its owner; on a replicated tier that
    bump must reach the owner's backups like any update, or
    ``check_group_invariants`` fails on the owner's group.  Pinned as a
    known defect: ``bump_dir_times`` writes the owner's inode row in
    place, unjournaled (ROADMAP: journal split-directory times)."""
    host = ShardedCofs(n_clients=1, shards=2, replicas=2,
                       sharding=SubtreeSharding({"/a": 0}))
    fs = host.mounts[0]
    names = [name for name in (f"n{i}" for i in range(64))
             if entry_slot(name, 2) == 1][:4]
    host.run(fs.mkdir("/a"))
    host.run(host.primaries[0].split_dir("/a", [0, 1], host.sim.now))

    def creates():
        for name in names:
            yield from fs.mknod(f"/a/{name}")

    host.run(creates())
    check_group_invariants(host.groups)


def test_rmdir_forgets_the_directorys_partitions():
    """A partition row dies with its directory: a recreated directory at
    the same path is unsplit, with no fanout inherited from a dead
    namespace."""
    host = ShardedCofs(sharding=SubtreeSharding({"/a": 0, "/b": 1}))

    def setup():
        fs = host.mounts[0]
        yield from fs.mkdir("/a")
        for name in ("f", "g", "h"):
            fh = yield from fs.create(f"/a/{name}")
            yield from fs.close(fh)

    host.run(setup())
    host.run(host.shards[0].split_dir("/a", [0, 1], host.sim.now))

    def drop_and_recreate():
        fs = host.mounts[0]
        for name in ("f", "g", "h"):
            yield from fs.unlink(f"/a/{name}")
        yield from fs.rmdir("/a")
        yield from fs.mkdir("/a")
        fh = yield from fs.create("/a/fresh")
        yield from fs.close(fh)

    host.run(drop_and_recreate())
    for shard in host.shards:
        assert not shard.db.table("routes").all()
    assert "/a" not in host.stack.sharding.routes
    assert host.stack.sharding.entry_shards("/a", 2) == (0,)
    check_tier_invariants(host.shards, host.stack.sharding)


def test_rename_rekeys_partition_rows():
    """Renaming a split directory (or an ancestor of one) re-keys its
    routing row — durably, on every shard, atomically with the rename
    — and moves not a single entry (placement hashes only names)."""
    host = ShardedCofs(n_clients=1, shards=2, sharding=HashDirSharding())

    def setup():
        fs = host.mounts[0]
        yield from fs.mkdir("/top")
        yield from fs.mkdir("/top/hot")
        for name in NAMES:
            fh = yield from fs.create(f"/top/hot/{name}")
            yield from fs.close(fh)

    host.run(setup())
    owner = host.stack.sharding.shard_of_dir("/top/hot", 2)
    host.run(host.shards[owner].split_dir(
        "/top/hot", [0, 1], host.sim.now))
    spread = [len(host.file_vinos(s)) for s in range(2)]

    def rename_ancestor():
        yield from host.mounts[0].rename("/top", "/moved")

    host.run(rename_ancestor())
    for shard in host.shards:
        rows = host.route_rows(shard.shard_id)
        assert rows == {"/moved/hot": (owner, (0, 1))}, (
            shard.shard_id, rows)
    assert host.stack.sharding.routes == {"/moved/hot": (owner, (0, 1))}
    # No entry moved: the per-shard row counts are unchanged.
    assert [len(host.file_vinos(s)) for s in range(2)] == spread

    def use_it():
        fs = host.mounts[0]
        names = yield from fs.readdir("/moved/hot")
        yield from fs.rename("/moved/hot/f0", "/moved/hot/renamed")
        yield from fs.unlink("/moved/hot/f1")
        return names

    assert host.run(use_it()) == sorted(NAMES)
    check_tier_invariants(host.shards, host.stack.sharding)


def test_readdir_lists_a_dual_resident_entry_exactly_once(split2):
    """The mid-migration readdir regression: an entry resident on two
    shards at once (imported at its destination, not yet purged at its
    source — exactly the verified flip's staging state) must be listed
    once, not twice."""
    host = split2
    host.run(host.shards[0].split_dir("/a", [0, 1], host.sim.now))
    # Plant a dual residence by hand: copy one shard-0 entry to shard 1
    # with the same (dvino, name) key the split protocol uses.
    victim = next(name for name in NAMES
                  if host.stack.sharding.shard_of_entry("/a", name, 2) == 0)
    dentry = next(d for d in host.shards[0].db.table("dentries").all()
                  if d["name"] == victim)
    inode = next(i for i in host.shards[0].db.table("inodes").all()
                 if i["vino"] == dentry["vino"])
    host.run(host.shards[1].import_dir_children(
        dentry["parent"], [dict(dentry)], [dict(inode)],
        host.shards[0]._stamp()))
    copies = sum(
        1 for shard in host.shards
        for d in shard.db.table("dentries").all() if d["name"] == victim)
    assert copies == 2

    names = host.run(host.mounts[0].readdir("/a"))
    assert names == sorted(NAMES)  # exactly once each

    # The authoritative-owner walk the invariant oracle performs agrees,
    # and the oracle flags the planted copy: routing never reaches
    # shard 1 for this name, so a quiesced tier must not hold it.
    image = namespace_image(host.shards, host.stack.sharding)
    assert sum(1 for path in image if path == f"/a/{victim}") == 1
    with pytest.raises(AssertionError, match="stranded file inode"):
        check_tier_invariants(host.shards, host.stack.sharding)
    # Clean up the planted copy so the tier ends pristine.
    host.run(host.shards[1].purge_dir_children(
        dentry["parent"], [dentry["key"]], [inode["vino"]],
        host.shards[0]._stamp()))
    check_tier_invariants(host.shards, host.stack.sharding)


# ---------------------------------------------------------------------------
# Differential: split directories vs the single-shard oracle
# ---------------------------------------------------------------------------

#: client ops exercised against split directories: creates, renames
#: within / into / out of the split directory (same-owner and
#: cross-owner names), replaces, hard links through partitions, unlinks.
SPLIT_OPS = [
    ("create", "a/n0", b"x"),
    ("create", "a/n1", b"yy"),
    ("rename", ("a/n0", "a/moved"), None),     # within the split dir
    ("rename", ("a/n1", "b/out"), None),       # out of the split dir
    ("create", "b/in", b"zz"),
    ("rename", ("b/in", "a/in"), None),        # into the split dir
    ("link", ("a/in", "b/l"), None),           # link out of a partition
    ("rename", ("a/moved", "a/in"), None),     # replace within
    ("chmod", "a/in", None),
    ("append", "a/in", b"tail"),
    ("unlink", "b/l", None),
    ("mkdir", "a/sub", None),                  # subdir of a split dir
    ("create", "a/sub/leaf", b""),
    ("rename", ("a/sub", "b/sub"), None),      # subtree out of split dir
    ("unlink", "a/in", None),
]


def _split_hosts():
    return [
        ShardedCofs(n_clients=1, shards=2,
                    sharding=SubtreeSharding({"/a": 0, "/b": 1})),
        ShardedCofs(n_clients=1, shards=4, sharding=HashDirSharding()),
    ]


def test_split_dir_semantics_match_single_shard_oracle():
    """Splitting is invisible to every client op: run the same sequence
    against a 1-shard reference (which cannot split) and against split
    tiers — every outcome and the final namespace must match."""
    seed = [("mkdir", "a", None), ("mkdir", "b", None),
            ("create", "a/f", b"1"), ("create", "a/g", b"22")]
    reference = MountedCofs(1)
    ref_out = reference.run(apply_ops(reference.mounts[0], seed))
    ref_out += reference.run(apply_ops(reference.mounts[0], SPLIT_OPS))
    ref_state = reference.run(observe(reference.mounts[0]))

    for host in _split_hosts():
        n = len(host.shards)
        outcomes = host.run(apply_ops(host.mounts[0], seed))
        owner = host.stack.sharding.shard_of_dir("/a", n)
        host.run(host.shards[owner].split_dir(
            "/a", list(range(n)), host.sim.now))
        outcomes += host.run(apply_ops(host.mounts[0], SPLIT_OPS))
        label = (n, type(host.stack.sharding).__name__)
        assert outcomes == ref_out, label
        assert host.run(observe(host.mounts[0])) == ref_state, label
        check_tier_invariants(host.shards, host.stack.sharding)


def test_split_merge_churn_matches_single_shard_oracle():
    """Split → ops → merge → re-home → ops → rename → ops → forget →
    re-split → ops: the client-visible trace must match the 1-shard
    oracle across the whole churn of routing changes."""
    seed = [("mkdir", "a", None), ("mkdir", "b", None)] + [
        ("create", f"a/f{i}", b"p") for i in range(8)]
    phase2 = [("rename", (f"a/f{i}", f"a/g{i}"), None) for i in range(4)]
    homed = [("create", "a/homed", b"h")]
    renamed = [("rename", ("a", "c"), None), ("create", "c/renamed", b""),
               ("unlink", "c/homed", None)]
    phase3 = [("unlink", f"c/g{i}", None) for i in range(4)] + [
        ("create", "c/last", b"")]
    phases = (seed, phase2, homed, renamed, phase3)

    reference = MountedCofs(1)
    ref_out = []
    for ops in phases:
        ref_out += reference.run(apply_ops(reference.mounts[0], ops))
    ref_state = reference.run(observe(reference.mounts[0]))

    for host in _split_hosts():
        n = len(host.shards)
        sharding = host.stack.sharding
        coord = host.shards[0]  # every routing call self-forwards
        owner = sharding.shard_of_dir("/a", n)
        outcomes = host.run(apply_ops(host.mounts[0], seed))
        host.run(coord.split_dir("/a", list(range(n)), host.sim.now))
        outcomes += host.run(apply_ops(host.mounts[0], phase2))
        host.run(coord.merge_dir("/a", host.sim.now))
        home = (owner + 1) % n
        assert host.run(host.shards[owner].rebalance_dir(
            "/a", home, host.sim.now))
        outcomes += host.run(apply_ops(host.mounts[0], homed))
        outcomes += host.run(apply_ops(host.mounts[0], renamed))
        assert sharding.routes == {"/c": (home, (home,))}
        static = sharding.static_shard_of_dir("/c", n)
        assert host.run(coord.forget_override("/c", host.sim.now)) is \
            (static != home)
        assert sharding.routes == {"/c": (static, (static,))}
        host.run(coord.split_dir(
            "/c", list(reversed(range(n))), host.sim.now))
        outcomes += host.run(apply_ops(host.mounts[0], phase3))
        label = (n, type(sharding).__name__)
        assert outcomes == ref_out, label
        assert host.run(observe(host.mounts[0])) == ref_state, label
        check_tier_invariants(host.shards, sharding)


# ---------------------------------------------------------------------------
# The rebalancer's split policy and the periodic trigger
# ---------------------------------------------------------------------------

def _heat(host, directory, files):
    """Create + stat a population so the routers sample a hotspot."""

    def body():
        fs = host.mounts[0]
        yield from fs.mkdir(directory)
        for index in range(files):
            fh = yield from fs.create(f"{directory}/f{index}")
            yield from fs.close(fh)
        for index in range(files):
            yield from fs.stat(f"{directory}/f{index}")

    host.run(body())


def test_rebalancer_splits_a_one_directory_hotspot():
    """A directory too hot for any single shard is split, not re-homed:
    re-homing would only move the ceiling."""
    host = ShardedCofs(n_clients=1, shards=4,
                       sharding=SubtreeSharding({}, default=0))
    _heat(host, "/hot", 12)
    rebalancer = Rebalancer(
        host.stack.routers, host.shards, split_threshold=1.0)
    executed = host.run(rebalancer.rebalance())
    assert ("/hot", 0, (0, 1, 2, 3)) in executed
    assert host.stack.sharding.routes["/hot"] == (0, (0, 1, 2, 3))
    # The split directory's load now spreads; no move is planned for it.
    assert rebalancer.plan() == []
    check_tier_invariants(host.shards, host.stack.sharding)


def test_rebalancer_merge_hysteresis():
    """The band between split_threshold and merge_threshold prevents
    flapping: a split directory still warm stays split; only a cold one
    merges back."""
    host = ShardedCofs(n_clients=1, shards=2,
                       sharding=SubtreeSharding({}, default=0))
    _heat(host, "/hot", 8)
    rebalancer = Rebalancer(
        host.stack.routers, host.shards,
        split_threshold=1.0, merge_threshold=0.25)
    host.run(rebalancer.rebalance())
    assert host.stack.sharding.routes["/hot"] == (0, (0, 1))
    # Warm (decayed once, still well above merge_threshold): no merge.
    assert rebalancer.plan_splits() == []
    host.run(rebalancer.rebalance())
    assert host.stack.sharding.routes["/hot"] == (0, (0, 1))
    # Fully cooled: the next round merges it back.
    for router in host.stack.routers:
        for _ in range(12):
            router.decay_loads()
    assert rebalancer.plan_splits() == [("/hot", [0])]
    host.run(rebalancer.rebalance())
    assert host.stack.sharding.entry_shards("/hot", 2) == (0,)
    assert host.file_vinos(1) == set()
    check_tier_invariants(host.shards, host.stack.sharding)


def test_run_periodic_drives_continuous_rebalancing():
    """The timer loop: rounds run on their own from simulated time — a
    hotspot splits, and after the load ages out it merges back, with no
    administrative call anywhere."""
    host = ShardedCofs(n_clients=1, shards=2,
                       sharding=SubtreeSharding({}, default=0))
    _heat(host, "/hot", 8)
    rebalancer = Rebalancer(
        host.stack.routers, host.shards,
        split_threshold=1.0, merge_threshold=0.25)
    t0 = host.sim.now
    host.run(rebalancer.run_periodic(host.sim, 50.0, rounds=1))
    assert host.sim.now >= t0 + 50.0
    assert host.stack.sharding.routes["/hot"] == (0, (0, 1))
    # Idle rounds decay the counters until the merge side of the
    # hysteresis band triggers; the loop needs no external help.
    host.run(rebalancer.run_periodic(host.sim, 50.0, rounds=12))
    assert host.stack.sharding.entry_shards("/hot", 2) == (0,)
    check_tier_invariants(host.shards, host.stack.sharding)
