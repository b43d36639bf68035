"""The sharded metadata tier: policies, router, cross-shard protocols."""

import pytest

from repro.bench import build_flat_testbed
from repro.bench.stack import CofsStack
from repro.core.faults import check_tier_invariants
from repro.core.metaservice import MetadataService
from repro.core.shard import (
    HashDirSharding,
    ShardMetadataService,
    SubtreeSharding,
)
from repro.pfs import FsError
from repro.pfs.types import DIRECTORY, FILE, SYMLINK
from tests.core.conftest import ShardedCofs


@pytest.fixture
def split2():
    """Two shards partitioned statically: /a on shard 0, /b on shard 1."""
    host = ShardedCofs(sharding=SubtreeSharding({"/a": 0, "/b": 1}))

    def setup():
        yield from host.mounts[0].mkdir("/a")
        yield from host.mounts[0].mkdir("/b")

    host.run(setup())
    return host


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

def test_hash_sharding_is_deterministic_and_in_range():
    policy = HashDirSharding()
    for n in (1, 2, 4, 7):
        seen = set()
        for i in range(64):
            shard = policy.shard_of_dir(f"/dir{i}", n)
            assert shard == policy.shard_of_dir(f"/dir{i}", n)
            assert 0 <= shard < n
            seen.add(shard)
        if n > 1:
            assert len(seen) > 1  # spreads over more than one shard
    assert policy.shard_of_dir("/anything", 1) == 0


def test_subtree_sharding_longest_prefix_wins():
    policy = SubtreeSharding({"/p": 0, "/p/deep": 1, "/q": 2}, default=3)
    n = 4
    assert policy.shard_of_dir("/p", n) == 0
    assert policy.shard_of_dir("/p/x", n) == 0
    assert policy.shard_of_dir("/p/deep", n) == 1
    assert policy.shard_of_dir("/p/deep/more", n) == 1
    assert policy.shard_of_dir("/p/deeper", n) == 0  # not under /p/deep
    assert policy.shard_of_dir("/q/y", n) == 2
    assert policy.shard_of_dir("/elsewhere", n) == 3
    assert policy.shard_of_dir("/elsewhere", 1) == 0


# ---------------------------------------------------------------------------
# router + stack assembly
# ---------------------------------------------------------------------------

def test_one_shard_stack_keeps_the_plain_service():
    testbed = build_flat_testbed(n_clients=1, with_mds=True)
    stack = CofsStack(testbed)
    assert type(stack.mds) is MetadataService
    assert stack.n_shards == 1
    assert len(stack.testbed.mds_shards) == 1


def test_sharded_stack_builds_one_service_per_mds_machine():
    host = ShardedCofs(shards=3)
    assert len(host.shards) == 3
    assert all(type(s) is ShardMetadataService for s in host.shards)
    names = [s.machine.name for s in host.shards]
    assert names == ["mds", "mds1", "mds2"]
    # every shard has its own disk, DB service and WAL
    assert len({id(s.dbsvc) for s in host.shards}) == 3
    assert len({id(s.dbsvc.disk) for s in host.shards}) == 3


def test_router_routes_by_parent_directory(split2):
    fs0 = split2.mounts[0]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.close(fh)
        fh = yield from fs0.create("/b/g")
        yield from fs0.close(fh)

    split2.run(main())
    assert len(split2.file_vinos(0)) == 1
    assert len(split2.file_vinos(1)) == 1


def test_vino_allocation_never_collides_across_shards(split2):
    fs0 = split2.mounts[0]

    def main():
        inos = []
        for i in range(8):
            for d in ("a", "b"):
                fh = yield from fs0.create(f"/{d}/f{i}")
                yield from fs0.close(fh)
                attr = yield from fs0.stat(f"/{d}/f{i}")
                inos.append(attr.ino)
        return inos

    inos = split2.run(main())
    assert len(inos) == len(set(inos))


def test_directories_and_symlinks_replicate_to_every_shard(split2):
    fs0 = split2.mounts[0]

    def main():
        yield from fs0.mkdir("/a/sub")
        yield from fs0.symlink("/a/sub", "/b/ln")
        attr = yield from fs0.stat("/a/sub")
        return attr.ino

    sub_vino = split2.run(main())
    for shard in (0, 1):
        vinos = split2.inode_vinos(shard)
        assert sub_vino in vinos  # the directory exists on both shards

    def teardown():
        yield from fs0.unlink("/b/ln")
        yield from fs0.rmdir("/a/sub")

    split2.run(teardown())
    for shard in (0, 1):
        assert sub_vino not in split2.inode_vinos(shard)


def test_statfs_aggregates_without_double_counting(split2):
    fs0 = split2.mounts[0]

    def main():
        for path in ("/a/f1", "/a/f2", "/b/g1"):
            fh = yield from fs0.create(path)
            yield from fs0.close(fh)
        yield from fs0.mkdir("/a/d")
        stats = yield from fs0.statfs()
        return stats

    stats = split2.run(main())
    assert stats["files"] == 3
    assert stats["virtual_directories"] == 4  # /, /a, /b, /a/d


# ---------------------------------------------------------------------------
# cross-shard rename
# ---------------------------------------------------------------------------

def test_cross_shard_rename_migrates_the_inode(split2):
    fs0 = split2.mounts[0]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.write(fh, 0, data=b"payload")
        yield from fs0.close(fh)
        before = yield from fs0.stat("/a/f")
        yield from fs0.rename("/a/f", "/b/g")
        after = yield from fs0.stat("/b/g")
        return before.ino, after.ino

    before_ino, after_ino = split2.run(main())
    assert before_ino == after_ino
    assert split2.file_vinos(0) == set()
    assert split2.file_vinos(1) == {after_ino}

    def old_name():
        yield from fs0.stat("/a/f")

    with pytest.raises(FsError) as err:
        split2.run(old_name())
    assert err.value.code == "ENOENT"

    def read_back():
        fh = yield from fs0.open("/b/g")
        data = yield from fs0.read(fh, 0, 7, want_data=True)
        yield from fs0.close(fh)
        return data

    assert split2.run(read_back()) == b"payload"


def test_cross_shard_rename_replaces_and_unlinks_underlying(split2):
    fs0 = split2.mounts[0]

    def main():
        fh = yield from fs0.create("/a/src")
        yield from fs0.write(fh, 0, data=b"new")
        yield from fs0.close(fh)
        fh = yield from fs0.create("/b/dst")
        yield from fs0.write(fh, 0, data=b"old-old")
        yield from fs0.close(fh)
        old_attr = yield from fs0.stat("/b/dst")
        yield from fs0.rename("/a/src", "/b/dst")
        new_attr = yield from fs0.stat("/b/dst")
        fh = yield from fs0.open("/b/dst")
        data = yield from fs0.read(fh, 0, 16, want_data=True)
        yield from fs0.close(fh)
        return old_attr.ino, new_attr.ino, data

    old_ino, new_ino, data = split2.run(main())
    assert old_ino != new_ino
    assert data == b"new"
    # the replaced file is fully gone: one file inode total, on shard 1
    assert split2.file_vinos(0) == set()
    assert len(split2.file_vinos(1)) == 1


def test_cross_shard_rename_onto_missing_parent_compensates(split2):
    fs0 = split2.mounts[0]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.close(fh)
        try:
            yield from fs0.rename("/a/f", "/b/nosuch/dir/g")
        except FsError as exc:
            code = exc.code
        else:
            code = None
        attr = yield from fs0.stat("/a/f")  # the detach was compensated
        return code, attr

    code, attr = split2.run(main())
    assert code == "ENOENT"
    assert attr.kind == FILE
    assert split2.file_vinos(0) == {attr.ino}


def _symlink_inodes(host, shard):
    return [row["vino"] for row in
            host.shards[shard].db.table("inodes").all()
            if row["kind"] == SYMLINK]


def test_rename_over_a_symlink_removes_every_replica(split2):
    """A same-shard FILE rename replacing a SYMLINK kills all replicas."""
    fs0 = split2.mounts[0]

    def main():
        yield from fs0.mkdir("/b/t")
        yield from fs0.symlink("/b/t", "/b/s")
        fh = yield from fs0.create("/b/f")
        yield from fs0.close(fh)
        yield from fs0.rename("/b/f", "/b/s")  # both names on shard 1
        attr = yield from fs0.stat("/b/s")
        return attr

    attr = split2.run(main())
    assert attr.kind == FILE
    for shard in (0, 1):
        assert _symlink_inodes(split2, shard) == []


def test_cross_shard_rename_over_a_symlink_removes_every_replica(split2):
    """rename_install replacing a SYMLINK must broadcast the removal."""
    fs0 = split2.mounts[0]

    def main():
        yield from fs0.mkdir("/a/t")
        yield from fs0.symlink("/a/t", "/b/s")
        fh = yield from fs0.create("/a/f")
        yield from fs0.close(fh)
        yield from fs0.rename("/a/f", "/b/s")  # shard 0 -> shard 1
        attr = yield from fs0.stat("/b/s")
        return attr

    attr = split2.run(main())
    assert attr.kind == FILE
    for shard in (0, 1):
        assert _symlink_inodes(split2, shard) == []

    def read_link():
        yield from fs0.readlink("/b/s")

    with pytest.raises(FsError) as err:
        split2.run(read_link())
    assert err.value.code == "EINVAL"  # it is a file now, everywhere


def test_stale_symlink_replica_is_not_followed_after_rename():
    """Walks routed to another shard must not resolve a replaced symlink.

    With hash sharding, a path under the replaced name routes to a shard
    that did not perform the rename; its (formerly stale) replica must be
    gone, and the owner shard answers ENOTDIR for the file in the middle.
    """
    policy = HashDirSharding()
    root_shard = policy.shard_of_dir("/", 2)
    # A name whose directory routes walks to the *other* shard than the
    # one owning "/"'s entries (which is where the rename runs).
    name = next(f"s{i}" for i in range(100)
                if policy.shard_of_dir(f"/s{i}", 2) != root_shard)
    host = ShardedCofs(sharding=HashDirSharding())
    fs = host.mounts[0]

    def setup():
        yield from fs.mkdir("/t")
        fh = yield from fs.create("/t/x")
        yield from fs.close(fh)
        yield from fs.symlink("/t", f"/{name}")
        fh = yield from fs.create("/f")
        yield from fs.close(fh)
        yield from fs.rename("/f", f"/{name}")

    host.run(setup())
    for shard in (0, 1):
        assert _symlink_inodes(host, shard) == []

    def stat_through():
        yield from fs.stat(f"/{name}/x")

    with pytest.raises(FsError) as err:
        host.run(stat_through())
    assert err.value.code == "ENOTDIR"

    def create_through():
        fh = yield from fs.create(f"/{name}/y")
        yield from fs.close(fh)

    with pytest.raises(FsError):
        host.run(create_through())
    assert host.run(fs.readdir("/t")) == ["x"]  # nothing materialized


def test_hard_link_survives_cross_shard_rename_of_primary():
    """Renaming one name of a hard-linked file must not dangle the rest.

    The inode row of a file with nlink > 1 never migrates: the renamed
    name becomes a stub pointing at the inode's home shard, so surviving
    links (and their stubs' ``home`` fields) stay valid.
    """
    host = ShardedCofs(
        shards=3, sharding=SubtreeSharding({"/a": 0, "/b": 1, "/c": 2}))
    fs = host.mounts[0]

    def main():
        for d in ("/a", "/b", "/c"):
            yield from fs.mkdir(d)
        fh = yield from fs.create("/a/f")
        yield from fs.close(fh)
        yield from fs.link("/a/f", "/b/g")  # stub on shard 1, home 0
        yield from fs.rename("/a/f", "/c/h")  # must not move the inode
        g = yield from fs.stat("/b/g")
        h = yield from fs.stat("/c/h")
        return g, h

    g, h = host.run(main())
    assert g.ino == h.ino
    assert host.file_vinos(0) == {g.ino}  # the inode stayed home
    assert host.file_vinos(1) == set()
    assert host.file_vinos(2) == set()

    def drop_both():
        yield from fs.unlink("/c/h")
        attr = yield from fs.stat("/b/g")  # still alive through the stub
        yield from fs.unlink("/b/g")
        return attr

    attr = host.run(drop_both())
    assert attr.ino == g.ino
    for shard in range(3):
        assert host.file_vinos(shard) == set()  # no leaked link counts


def test_hard_link_survives_directory_rename_migration(split2):
    """A directory rename moves the hard-linked file's name with its
    directory and neither its dentry nor its inode: the stub elsewhere
    stays valid, and no link count leaks."""
    fs0 = split2.mounts[0]

    def main():
        yield from fs0.mkdir("/a/d")
        fh = yield from fs0.create("/a/d/f")
        yield from fs0.close(fh)
        yield from fs0.link("/a/d/f", "/b/g")  # stub on shard 1, home 0
        yield from fs0.rename("/a/d", "/b/d")  # pins /b/d to shard 0
        f = yield from fs0.stat("/b/d/f")
        g = yield from fs0.stat("/b/g")
        return f, g

    f, g = split2.run(main())
    assert f.ino == g.ino
    assert split2.file_vinos(0) == {f.ino}  # inode never moved
    assert split2.file_vinos(1) == set()

    def drop_both():
        yield from fs0.unlink("/b/d/f")
        yield from fs0.unlink("/b/g")

    split2.run(drop_both())
    for shard in (0, 1):
        assert split2.file_vinos(shard) == set()


def test_readlink_of_a_cross_shard_stub_is_einval(split2):
    fs0 = split2.mounts[0]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.close(fh)
        yield from fs0.link("/a/f", "/b/l")

    split2.run(main())

    def read_link():
        yield from fs0.readlink("/b/l")

    with pytest.raises(FsError) as err:
        split2.run(read_link())
    assert err.value.code == "EINVAL"


def test_directory_rename_replays_on_every_shard(split2):
    fs0 = split2.mounts[0]

    def main():
        yield from fs0.mkdir("/a/d")
        fh = yield from fs0.create("/a/d/f")
        yield from fs0.close(fh)
        yield from fs0.rename("/a/d", "/b/moved")
        attr = yield from fs0.stat("/b/moved/f")
        names = yield from fs0.readdir("/b/moved")
        return attr.kind, names

    kind, names = split2.run(main())
    assert kind == FILE
    assert names == ["f"]

    def old_path():
        yield from fs0.readdir("/a/d")

    with pytest.raises(FsError) as err:
        split2.run(old_path())
    assert err.value.code == "ENOENT"


#: a 17-directory subtree (/p, four children, three grandchildren each)
#: with three files in every directory below /p: 48 files.
SUBTREE = ["/p"] + [f"/p/d{i}" for i in range(4)] + [
    f"/p/d{i}/e{j}" for i in range(4) for j in range(3)]


@pytest.mark.parametrize("shards", [2, 4])
def test_directory_rename_moves_no_entry(shards):
    """A rename moves names, never entries: every shard keeps exactly
    the file inodes it had, and each moved directory whose static owner
    changed is pinned by one routing row to the shard holding its
    entries.  Load can still move a pinned population later: forgetting
    the pin sends it to its static owner."""
    host = ShardedCofs(n_clients=1, shards=shards, sharding=HashDirSharding())
    sharding = host.stack.sharding
    fs = host.mounts[0]

    def setup():
        for path in SUBTREE:
            yield from fs.mkdir(path)
            if path != "/p":
                for index in range(3):
                    fh = yield from fs.create(f"{path}/f{index}")
                    yield from fs.close(fh)

    host.run(setup())
    before = [host.file_vinos(shard) for shard in range(shards)]
    assert sum(map(len, before)) == 48
    pins = {}
    for path in SUBTREE:
        owner = sharding.static_shard_of_dir(path, shards)
        moved = "/q" + path[len("/p"):]
        if owner != sharding.static_shard_of_dir(moved, shards):
            pins[moved] = (owner, (owner,))
    assert pins

    host.run(fs.rename("/p", "/q"))
    assert [host.file_vinos(shard) for shard in range(shards)] == before
    assert sharding.routes == pins
    for shard in range(shards):
        assert host.route_rows(shard) == pins
    check_tier_invariants(host.shards, sharding)

    for path, (owner, _shards) in sorted(pins.items()):
        dvino = host.run(fs.stat(path)).ino
        files = host.file_vinos(owner) & {
            d["vino"] for d in host.shards[owner].db.table("dentries").all()
            if d["parent"] == dvino}
        host.run(host.shards[owner].forget_override(path, host.sim.now))
        static = sharding.static_shard_of_dir(path, shards)
        assert files <= host.file_vinos(static), path
        assert not files & host.file_vinos(owner), path
    for path in SUBTREE[1:]:
        names = host.run(fs.readdir("/q" + path[len("/p"):]))
        assert [n for n in names if n.startswith("f")] == ["f0", "f1", "f2"]
    check_tier_invariants(host.shards, sharding)


def _hold(host, shard, method, first_only=False):
    """Delay ``method`` on ``shard`` by 100 ms (only its first call when
    ``first_only``): holds a rename's broadcast window open there."""
    real = getattr(shard, method)
    calls = []

    def held(*args):
        calls.append(args)
        if len(calls) == 1 or not first_only:
            yield host.sim.timeout(100.0)
        return (yield from real(*args))

    setattr(shard, method, held)


def _staged(shard):
    """Whether ``shard`` holds a rename's staged alias dentry."""
    return any(d.get("staged") is not None
               for d in shard.db.table("dentries").all())


def _until(host, cond):
    """Coroutine: poll ``cond`` every 0.5 ms, for at most a second."""
    for _tick in range(2000):
        if cond():
            return
        yield host.sim.timeout(0.5)
    raise AssertionError("the awaited state never came")


def _mkdirs(fs, *paths):
    for path in paths:
        yield from fs.mkdir(path)


def test_directory_created_under_a_moving_subtree_is_pinned():
    """A directory created under the old name while the rename's flip
    is in flight is pinned by the rename's commit like every other moved
    directory, and entries created inside it through either name are
    reachable under the new name afterwards: until the commit, the new
    name routes as the old one.  Shard 2's stage is held back, so the
    flip stays open while shard 1 — the static owner of /b/d/new —
    already serves the new name."""
    host = ShardedCofs(shards=3,
                       sharding=SubtreeSharding({"/a": 0, "/b": 1}))
    fs0, fs1 = host.mounts
    sharding = host.stack.sharding
    host.run(_mkdirs(fs0, "/a", "/b", "/a/d"))
    _hold(host, host.shards[2], "mirror_rename_stage")

    def racer():
        yield from _until(host, lambda: _staged(host.shards[1]))
        yield from fs1.mkdir("/a/d/new")
        for path in ("/a/d/new/x", "/b/d/new/y"):
            fh = yield from fs1.create(path)
            yield from fs1.close(fh)

    host.run_all([fs0.rename("/a/d", "/b/d"), racer()])
    for name in ("x", "y"):
        assert host.run(fs1.stat(f"/b/d/new/{name}")).kind == FILE
    assert sharding.routes == {"/b/d": (0, (0,)), "/b/d/new": (0, (0,))}
    check_tier_invariants(host.shards, sharding)


def test_old_name_routes_as_the_new_one_until_every_replica_retired():
    """/a/d → /b/d pins /b/d to shard 0, where its entries are; renaming
    it back carries that row to /a/d.  Once the second rename committed,
    a replica that has not retired yet still serves /b/d, and a create
    through it must land where /a/d's entries are (shard 0), not on
    /b/d's static owner (shard 2), where the new name never looks.
    Shard 0's retire is held back so shard 0 and shard 2 both still
    serve the old name after the commit."""
    host = ShardedCofs(shards=3, sharding=SubtreeSharding(
        {"/a": 0, "/b": 1, "/b/d": 2}))
    fs0, fs1 = host.mounts
    sharding = host.stack.sharding
    host.run(_mkdirs(fs0, "/a", "/b", "/a/d"))
    host.run(fs0.rename("/a/d", "/b/d"))
    assert sharding.routes == {"/b/d": (0, (0,))}
    _hold(host, host.shards[0], "mirror_rename")

    def create():
        # Well after the rename back committed on its coordinator
        # (shard 1), while shard 0's retire is still held.
        yield from _until(host, lambda: "/a/d" in host.route_rows(1))
        yield host.sim.timeout(20.0)
        fh = yield from fs1.create("/b/d/z")
        yield from fs1.close(fh)

    host.run_all([fs0.rename("/b/d", "/a/d"), create()])
    assert host.run(fs1.stat("/a/d/z")).kind == FILE
    assert host.file_vinos(2) == set()
    check_tier_invariants(host.shards, sharding)


def test_an_overtaken_rename_keeps_the_winners_routes(split2):
    """Two renames of /a/d to /b/d race: the first stages, the second
    overtakes it and commits, so the first's commit is stale (ENOENT)
    and aborts.  Neither the loser's routing alias nor its abort may
    disturb the routing the winner committed: a directory created under
    /b/d before the loser aborts keeps its entry reachable, and the
    shared map equals the durable rows on every shard."""
    fs0, fs1 = split2.mounts
    sharding = split2.stack.sharding
    split2.run(fs0.mkdir("/a/d"))
    _hold(split2, split2.shards[1], "mirror_rename_stage", first_only=True)
    outcomes = {}

    def rename(tag, fs):
        try:
            yield from fs.rename("/a/d", "/b/d")
        except FsError as exc:
            outcomes[tag] = exc.code
        else:
            outcomes[tag] = "ok"

    def second():
        yield from _until(split2, lambda: _staged(split2.shards[0]))
        yield from rename("second", fs1)
        assert "first" not in outcomes
        yield from fs1.mkdir("/b/d/z")
        fh = yield from fs1.create("/b/d/z/w")
        yield from fs1.close(fh)

    split2.run_all([rename("first", fs0), second()])
    assert outcomes == {"first": "ENOENT", "second": "ok"}
    assert split2.run(fs0.stat("/b/d/z/w")).kind == FILE
    assert sharding.routes == {"/b/d": (0, (0,))}
    for shard in range(2):
        assert split2.route_rows(shard) == sharding.routes
    check_tier_invariants(split2.shards, sharding)


@pytest.mark.parametrize("routed", [False, True])
def test_chained_renames_retired_out_of_order_agree_on_routes(routed):
    """/x/d → /y/d → /z/d, with the first rename's retire held back on
    shard 2 until the second rename has finished: every shard ends with
    the same rows — /z/d routed to the shard holding its entries — so
    an out-of-order retire neither skips the row nor keeps a stale one.
    The directory is either unrouted (pinned by the first rename) or
    re-homed to shard 1 beforehand (its row travels)."""
    host = ShardedCofs(shards=3, sharding=SubtreeSharding(
        {"/x": 0, "/y": 1, "/z": 2}))
    fs0, fs1 = host.mounts
    sharding = host.stack.sharding
    host.run(_mkdirs(fs0, "/x", "/y", "/z", "/x/d"))
    home = 0
    if routed:
        home = 1
        assert host.run(host.shards[0].rebalance_dir(
            "/x/d", home, host.sim.now))
    _hold(host, host.shards[2], "mirror_rename", first_only=True)

    def second():
        # Once the first rename's retire landed on shard 1.
        yield from _until(host, lambda: "/y/d" in host.route_rows(1))
        yield from fs1.rename("/y/d", "/z/d")

    host.run_all([fs0.rename("/x/d", "/y/d"), second()])
    assert sharding.routes == {"/z/d": (home, (home,))}
    for shard in range(3):
        assert host.route_rows(shard) == sharding.routes
    check_tier_invariants(host.shards, sharding)


@pytest.mark.xfail(strict=True, reason=(
    "a mkdir's mirror that reaches the rename's coordinator after the "
    "commit fails on the renamed skeleton"))
def test_mkdir_racing_an_ancestor_rename_on_another_shard():
    """A mkdir under /a/d is coordinated by /a/d's entries owner (shard
    1), while the rename of /a/d is coordinated by /a's (shard 0).  With
    the mkdir's mirror to shard 0 held back past the rename's commit,
    the mkdir must still either succeed everywhere or leave no trace;
    today it answers ENOENT and the skeleton replicas diverge."""
    host = ShardedCofs(shards=3, sharding=SubtreeSharding(
        {"/a": 0, "/a/d": 1, "/b": 2}))
    fs0, fs1 = host.mounts
    host.run(_mkdirs(fs0, "/a", "/b", "/a/d"))
    _hold(host, host.shards[0], "mirror_create")

    def mkdir():
        try:
            yield from fs1.mkdir("/a/d/new")
        except FsError:
            pass

    def rename():
        yield host.sim.timeout(1.0)  # once the mkdir committed on shard 1
        yield from fs0.rename("/a/d", "/b/d")

    host.run_all([mkdir(), rename()])
    check_tier_invariants(host.shards, host.stack.sharding)


# ---------------------------------------------------------------------------
# cross-shard hard links + delegation
# ---------------------------------------------------------------------------

def test_cross_shard_link_shares_the_inode(split2):
    fs0 = split2.mounts[0]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.write(fh, 0, data=b"12345")
        yield from fs0.close(fh)
        yield from fs0.link("/a/f", "/b/l")
        via_link = yield from fs0.stat("/b/l")
        yield from fs0.chmod("/b/l", 0o600)
        via_primary = yield from fs0.stat("/a/f")
        return via_link, via_primary

    via_link, via_primary = split2.run(main())
    assert via_link.ino == via_primary.ino
    assert via_link.nlink == 2
    assert via_primary.mode == 0o600
    # the inode stays home on shard 0; shard 1 holds only the stub dentry
    assert split2.file_vinos(0) == {via_link.ino}
    assert split2.file_vinos(1) == set()


def test_unlink_of_primary_name_keeps_cross_shard_link_alive(split2):
    fs0 = split2.mounts[0]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.write(fh, 0, data=b"keep")
        yield from fs0.close(fh)
        yield from fs0.link("/a/f", "/b/l")
        yield from fs0.unlink("/a/f")
        attr = yield from fs0.stat("/b/l")
        fh = yield from fs0.open("/b/l")
        data = yield from fs0.read(fh, 0, 4, want_data=True)
        yield from fs0.close(fh)
        yield from fs0.unlink("/b/l")
        return attr.nlink, data

    nlink, data = split2.run(main())
    assert nlink == 1
    assert data == b"keep"
    assert split2.file_vinos(0) == set()
    assert split2.file_vinos(1) == set()


def test_delegation_sync_back_lands_on_the_owning_shard(split2):
    fs0 = split2.mounts[0]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.close(fh)
        yield from fs0.link("/a/f", "/b/l")
        # write through the *stub* name on the other shard
        fh = yield from fs0.open("/b/l", 0x0001)  # WRONLY
        yield from fs0.write(fh, 0, data=b"x" * 4096)
        yield from fs0.close(fh)
        attr = yield from fs0.stat("/a/f")
        return attr

    attr = split2.run(main())
    assert attr.size == 4096
    home_row = split2.shards[0].db.table("inodes").read(attr.ino)
    assert home_row["size"] == 4096
    assert home_row["delegated"] is False  # close_sync reached the home


def test_router_learns_the_home_shard_of_linked_inodes(split2):
    fs0 = split2.mounts[0]
    router = split2.stack._drivers[0]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.close(fh)
        yield from fs0.link("/a/f", "/b/l")
        view_attr = yield from fs0.stat("/b/l")
        return view_attr.ino

    vino = split2.run(main())
    assert router._vino_shard[vino] == 0  # home, not the routed shard (1)


def test_renaming_a_stub_name_keeps_the_link_working(split2):
    fs0 = split2.mounts[0]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.write(fh, 0, data=b"abc")
        yield from fs0.close(fh)
        yield from fs0.link("/a/f", "/b/l")
        # stub moves within its shard...
        yield from fs0.rename("/b/l", "/b/l2")
        via_stub = yield from fs0.stat("/b/l2")
        # ...and back home, where it becomes a plain dentry again
        yield from fs0.rename("/b/l2", "/a/g")
        via_home = yield from fs0.stat("/a/g")
        primary = yield from fs0.stat("/a/f")
        return via_stub, via_home, primary

    via_stub, via_home, primary = split2.run(main())
    assert via_stub.ino == via_home.ino == primary.ino
    assert via_home.nlink == 2
    # no stub remains anywhere: both names resolve on shard 0 now
    dentries = split2.shards[1].db.table("dentries").all()
    assert not any(d.get("home") is not None for d in dentries)


def test_using_a_stub_name_as_a_directory_is_enotdir(split2):
    fs0 = split2.mounts[0]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.close(fh)
        yield from fs0.link("/a/f", "/b/l")
        fh = yield from fs0.create("/b/l/x")  # parent is a hard-linked file

    with pytest.raises(FsError) as err:
        split2.run(main())
    assert err.value.code == "ENOTDIR"

    def listing():
        names = yield from fs0.readdir("/b/l")
        return names

    with pytest.raises(FsError) as err:
        split2.run(listing())
    assert err.value.code == "ENOTDIR"


def test_rmdir_of_a_stub_name_is_enotdir(split2):
    fs0 = split2.mounts[0]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.close(fh)
        yield from fs0.link("/a/f", "/b/l")
        yield from fs0.rmdir("/b/l")

    with pytest.raises(FsError) as err:
        split2.run(main())
    assert err.value.code == "ENOTDIR"


def test_rename_over_a_stub_unlinks_the_underlying_file(split2):
    fs0 = split2.mounts[0]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.write(fh, 0, data=b"old")
        yield from fs0.close(fh)
        yield from fs0.link("/a/f", "/b/l")
        yield from fs0.unlink("/a/f")  # the stub holds the last name
        fh = yield from fs0.create("/b/h")
        yield from fs0.write(fh, 0, data=b"new")
        yield from fs0.close(fh)
        yield from fs0.rename("/b/h", "/b/l")  # replaces the stub name
        attr = yield from fs0.stat("/b/l")
        return attr

    attr = split2.run(main())
    # the replaced inode is gone from its home shard...
    assert split2.file_vinos(0) == set()
    assert split2.file_vinos(1) == {attr.ino}
    # ...and its underlying object was reclaimed: only /b/l's remains
    remaining = [row for row in
                 split2.shards[1].db.table("inodes").all()
                 if row["kind"] == FILE]
    assert len(remaining) == 1

    def read_back():
        fh = yield from fs0.open("/b/l")
        data = yield from fs0.read(fh, 0, 8, want_data=True)
        yield from fs0.close(fh)
        return data

    assert split2.run(read_back()) == b"new"


def test_close_sync_survives_a_concurrent_cross_shard_rename(split2):
    fs0 = split2.mounts[0]
    fs1 = split2.mounts[1]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.close(fh)
        fh = yield from fs0.open("/a/f", 0x0001)  # WRONLY: delegation starts
        yield from fs0.write(fh, 0, data=b"y" * 2048)
        # another client migrates the inode to the other shard mid-write
        yield from fs1.rename("/a/f", "/b/g")
        yield from fs0.close(fh)  # write-back must chase the inode
        attr = yield from fs0.stat("/b/g")
        return attr

    attr = split2.run(main())
    assert attr.size == 2048
    row = split2.shards[1].db.table("inodes").read(attr.ino)
    assert row["size"] == 2048
    assert row["delegated"] is False


def test_statfs_counts_symlinks_once(split2):
    fs0 = split2.mounts[0]
    router = split2.stack._drivers[0]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.close(fh)
        yield from fs0.symlink("/a/f", "/b/ln")
        stats = yield from router.call("statfs")
        return stats

    stats = split2.run(main())
    assert stats["files"] == 1
    assert stats["directories"] == 3  # /, /a, /b
    # inodes = skeleton (3 dirs + 1 symlink, counted once) + 1 file
    assert stats["inodes"] == 5


def test_hard_links_to_symlinks_are_rejected_on_sharded_stacks(split2):
    fs0 = split2.mounts[0]

    def main():
        yield from fs0.symlink("/a", "/a/ln")
        yield from fs0.link("/a/ln", "/b/l")

    with pytest.raises(FsError) as err:
        split2.run(main())
    assert err.value.code == "EINVAL"


# ---------------------------------------------------------------------------
# symlink chains across shards
# ---------------------------------------------------------------------------

def test_resolution_follows_symlinks_across_shards(split2):
    fs0 = split2.mounts[0]

    def main():
        yield from fs0.mkdir("/b/d")
        fh = yield from fs0.create("/b/d/f")
        yield from fs0.write(fh, 0, data=b"deep")
        yield from fs0.close(fh)
        yield from fs0.symlink("/b/d", "/a/ln")
        attr = yield from fs0.stat("/a/ln/f")
        names = yield from fs0.readdir("/a/ln")
        return attr, names

    attr, names = split2.run(main())
    assert attr.size == 4
    assert names == ["f"]


def test_symlink_chain_crossing_shards_twice(split2):
    fs0 = split2.mounts[0]

    def main():
        yield from fs0.mkdir("/a/deep")
        fh = yield from fs0.create("/a/deep/f")
        yield from fs0.close(fh)
        # /b/hop -> /a/deep (owner: shard 0); /a/ln -> /b/hop (via shard 1)
        yield from fs0.symlink("/a/deep", "/b/hop")
        yield from fs0.symlink("/b/hop", "/a/ln")
        attr = yield from fs0.stat("/a/ln/f")
        return attr.kind

    assert split2.run(main()) == FILE


def test_cross_shard_symlink_cycle_raises(split2):
    fs0 = split2.mounts[0]

    def main():
        yield from fs0.symlink("/b/loop2", "/a/loop1")
        yield from fs0.symlink("/a/loop1", "/b/loop2")
        yield from fs0.stat("/a/loop1/x")

    with pytest.raises(FsError) as err:
        split2.run(main())
    assert err.value.code == "EINVAL"


def test_create_through_cross_shard_symlink(split2):
    fs0 = split2.mounts[0]

    def main():
        yield from fs0.symlink("/b", "/a/to-b")
        fh = yield from fs0.create("/a/to-b/f")
        yield from fs0.close(fh)
        attr = yield from fs0.stat("/b/f")
        return attr.kind

    assert split2.run(main()) == FILE
    assert len(split2.file_vinos(1)) == 1
    assert split2.file_vinos(0) == set()


# ---------------------------------------------------------------------------
# rmdir across shards
# ---------------------------------------------------------------------------

def _hash_split_names(n_shards=2):
    """A directory name whose contents hash to a different shard than its
    own dentry, under :class:`HashDirSharding` — plus one that doesn't."""
    policy = HashDirSharding()
    for i in range(256):
        name = f"/dir{i}"
        if policy.shard_of_dir(name, n_shards) != \
                policy.shard_of_dir("/", n_shards):
            return name
    raise AssertionError("no splitting name found")


def test_rmdir_sees_files_on_the_owning_shard():
    host = ShardedCofs()  # hash sharding
    fs0 = host.mounts[0]
    name = _hash_split_names()

    def main():
        yield from fs0.mkdir(name)
        fh = yield from fs0.create(f"{name}/f")
        yield from fs0.close(fh)
        try:
            yield from fs0.rmdir(name)
        except FsError as exc:
            code = exc.code
        else:
            code = None
        yield from fs0.unlink(f"{name}/f")
        yield from fs0.rmdir(name)
        names = yield from fs0.readdir("/")
        return code, names

    code, names = host.run(main())
    assert code == "ENOTEMPTY"
    assert names == []


# ---------------------------------------------------------------------------
# recovery on a shard
# ---------------------------------------------------------------------------

def test_shard_recovery_preserves_namespace_and_vino_stride(split2):
    fs0 = split2.mounts[0]

    def main():
        for d in ("a", "b"):
            fh = yield from fs0.create(f"/{d}/before")
            yield from fs0.close(fh)
        lost = yield from split2.shards[1].recover()
        survived = yield from fs0.stat("/b/before")
        fh = yield from fs0.create("/b/after")
        yield from fs0.close(fh)
        fresh = yield from fs0.stat("/b/after")
        other = yield from fs0.stat("/a/before")
        return lost, survived, fresh, other

    lost, survived, fresh, other = split2.run(main())
    assert lost == 0
    assert survived.kind == FILE
    # shard 1 allocates from the {vino % 2 == 0} class, before and after
    assert survived.ino % 2 == 0
    assert fresh.ino % 2 == 0
    assert fresh.ino > survived.ino
    assert other.ino != fresh.ino


def test_recovery_never_reissues_a_migrated_vino(split2):
    fs0 = split2.mounts[0]

    def main():
        fh = yield from fs0.create("/b/f")  # allocated from shard 1's class
        yield from fs0.close(fh)
        migrated = yield from fs0.stat("/b/f")
        yield from fs0.rename("/b/f", "/a/g")  # inode now lives on shard 0
        yield from split2.shards[1].recover()
        fh = yield from fs0.create("/b/new")
        yield from fs0.close(fh)
        fresh = yield from fs0.stat("/b/new")
        return migrated.ino, fresh.ino

    migrated_ino, fresh_ino = split2.run(main())
    assert fresh_ino != migrated_ino
    assert fresh_ino > migrated_ino


def test_renaming_a_directory_over_a_stub_is_enotdir(split2):
    fs0 = split2.mounts[0]

    def main():
        fh = yield from fs0.create("/a/f")
        yield from fs0.close(fh)
        yield from fs0.link("/a/f", "/b/g")  # stub on shard 1
        yield from fs0.mkdir("/b/d")
        yield from fs0.rename("/b/d", "/b/g")

    with pytest.raises(FsError) as err:
        split2.run(main())
    assert err.value.code == "ENOTDIR"

    def still_there():
        attr = yield from fs0.stat("/b/g")
        names = yield from fs0.readdir("/b/d")
        return attr, names

    attr, names = split2.run(still_there())
    assert attr.kind == FILE  # the link survived untouched
    assert attr.nlink == 2
    assert names == []


def test_directory_mtime_reflects_file_creates_on_other_shard():
    host = ShardedCofs()  # hash sharding
    fs0 = host.mounts[0]
    name = _hash_split_names()  # contents owned away from the dentry owner

    def main():
        yield from fs0.mkdir(name)
        before = yield from fs0.stat(name)
        fh = yield from fs0.create(f"{name}/f")
        yield from fs0.close(fh)
        after = yield from fs0.stat(name)
        return before.mtime, after.mtime

    before_mtime, after_mtime = host.run(main())
    assert after_mtime > before_mtime


def test_metarates_private_dirs_runs_on_sharded_stack():
    from repro.workloads.metarates import MetaratesConfig, run_metarates

    host = ShardedCofs(n_clients=2, shards=2)
    config = MetaratesConfig(
        nodes=2, procs_per_node=1, files_per_proc=8,
        ops=("create", "stat", "utime"), private_dirs=True,
    )
    res = run_metarates(host.stack, config)
    assert res.recorder.count("create") == 16
    assert res.recorder.count("stat") == 16
    # everything cleaned up on both shards
    assert host.file_vinos(0) == set()
    assert host.file_vinos(1) == set()


# ---------------------------------------------------------------------------
# regression: the two documented resolution windows
# ---------------------------------------------------------------------------

def test_partitioned_middle_file_is_enotdir_on_every_walk():
    """A partitioned file in the middle of a path answers ENOTDIR for
    leaf walks AND parent walks (create/mkdir/readdir) alike — the
    historical ENOENT/ENOTDIR asymmetry is closed by the final forward
    to the enclosing directory's owner."""
    policy = HashDirSharding()
    root_shard = policy.shard_of_dir("/", 2)
    name = next(f"f{i}" for i in range(100)
                if policy.shard_of_dir(f"/f{i}", 2) != root_shard)
    host = ShardedCofs(sharding=HashDirSharding())
    fs = host.mounts[0]

    def setup():
        fh = yield from fs.create(f"/{name}")
        yield from fs.close(fh)

    host.run(setup())

    def expect(code, coro):
        with pytest.raises(FsError) as err:
            host.run(coro)
        assert err.value.code == code

    expect("ENOTDIR", fs.stat(f"/{name}/y"))           # leaf walk
    expect("ENOTDIR", fs.create(f"/{name}/y"))         # parent walk
    expect("ENOTDIR", fs.mkdir(f"/{name}/y"))          # parent walk
    expect("ENOTDIR", fs.readdir(f"/{name}"))          # dir-target walk
    expect("ENOTDIR", fs.unlink(f"/{name}/y"))         # parent walk
    # a truly absent middle component stays ENOENT on every walk
    expect("ENOENT", fs.stat("/nosuch/y"))
    expect("ENOENT", fs.create("/nosuch/y"))


def test_subtree_migration_window_only_transient_enoent(split2):
    """A reader of the new path during a directory rename sees ENOENT
    (before the flip reaches its replica) or the file, never any other
    error, and the namespace settles to the post-rename image once the
    rename returns.  No entry moves, so there is no migration window
    after the flip."""
    fs0, fs1 = split2.mounts[0], split2.mounts[1]
    seen = []

    def writer():
        yield from fs0.mkdir("/a/d")
        for i in range(4):
            fh = yield from fs0.create(f"/a/d/f{i}")
            yield from fs0.close(fh)
        yield from fs0.rename("/a/d", "/b/d")
        return True

    def reader():
        for _ in range(40):
            try:
                attr = yield from fs1.stat("/b/d/f0")
                seen.append(("ok", attr.kind))
            except FsError as exc:
                seen.append(("err", exc.code))
            yield split2.sim.timeout(1.0)
        return True

    split2.run_all([writer(), reader()])
    assert set(seen) <= {("ok", FILE), ("err", "ENOENT")}

    def after():
        names = yield from fs0.readdir("/b/d")
        attr = yield from fs1.stat("/b/d/f3")
        return names, attr.kind

    names, kind = split2.run(after())
    assert names == ["f0", "f1", "f2", "f3"]
    assert kind == FILE


def test_rename_edge_cases_match_posix_across_placements():
    """Pin three rename divergences the differential oracle surfaced
    (all order-of-checks bugs in the sharded path only): a same-path
    rename of a non-empty directory is a no-op success (the cross-shard
    destination precheck must not answer ENOTEMPTY for the source
    itself); moving a directory beneath itself is EINVAL even when the
    destination name is occupied by a file on another shard (the cycle
    check precedes the destination-kind precheck, as in the
    one-transaction body); and a destination whose parent is missing is
    ENOENT — the *final* destination forward must be answered by the
    entries owner, not retried locally until the hop cap (which read as
    EINVAL "too many levels of symbolic links")."""
    for make in (
        lambda: ShardedCofs(n_clients=1, shards=4,
                            sharding=HashDirSharding()),
        lambda: ShardedCofs(n_clients=1, shards=4,
                            sharding=SubtreeSharding({"/d1": 1, "/d2": 3})),
    ):
        host = make()
        fs = host.mounts[0]

        def setup():
            yield from fs.mkdir("/d1")
            yield from fs.mkdir("/d1/x")
            fh = yield from fs.create("/d1/f")
            yield from fs.close(fh)

        host.run(setup())

        # same-path rename of a non-empty directory: no-op success
        host.run(fs.rename("/d1", "/d1"))
        assert sorted(host.run(fs.readdir("/d1"))) == ["f", "x"]

        def expect(code, coro):
            with pytest.raises(FsError) as err:
                host.run(coro)
            assert err.value.code == code

        # beneath-itself beats the occupied-destination check
        expect("EINVAL", fs.rename("/d1", "/d1/f"))
        # missing destination parent: authoritative ENOENT, dir + file src
        expect("ENOENT", fs.rename("/d1/x", "/d2/y"))
        expect("ENOENT", fs.rename("/d1/f", "/d2/y"))
        # a file occupying the destination's parent: authoritative ENOTDIR
        fh = host.run(fs.create("/d2"))
        host.run(fs.close(fh))
        expect("ENOTDIR", fs.rename("/d1/x", "/d2/y"))
        expect("ENOTDIR", fs.rename("/d1/f", "/d2/y"))
