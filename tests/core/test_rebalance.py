"""Online load-aware re-partitioning: re-homing, migration, the planner."""

import pytest

from repro.core.faults import check_tier_invariants
from repro.core.shard import HashDirSharding, Rebalancer, SubtreeSharding
from repro.core.shard.recovery import recover_tier
from repro.pfs.errors import FsError
from tests.core.conftest import ShardedCofs


@pytest.fixture
def split2():
    """Two shards, /a and /b statically assigned, files in both."""
    host = ShardedCofs(sharding=SubtreeSharding({"/a": 0, "/b": 1}))

    def setup():
        fs = host.mounts[0]
        yield from fs.mkdir("/a")
        yield from fs.mkdir("/b")
        for name in ("f", "g", "h"):
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


def test_rebalance_moves_population_and_is_transparent(split2):
    host = split2
    before = _observe(host)
    file_vinos_src = host.file_vinos(0)
    assert len(file_vinos_src) == 3

    host.run(host.shards[0].rebalance_dir("/a", 1, host.sim.now))

    # The rows physically moved to shard 1 ...
    assert host.file_vinos(0) == set()
    assert host.file_vinos(1) >= file_vinos_src
    # ... the routing row is durable everywhere and routing follows it ...
    for shard in host.shards:
        assert host.route_rows(shard.shard_id) == {"/a": (1, (1,))}
    assert host.stack.sharding.shard_of_dir("/a", 2) == 1
    # ... and nothing observable changed.
    assert _observe(host) == before


def test_rebalance_routes_new_creates_to_the_new_owner(split2):
    host = split2
    host.run(host.shards[0].rebalance_dir("/a", 1, host.sim.now))

    def create_more():
        fs = host.mounts[0]
        fh = yield from fs.create("/a/new")
        yield from fs.close(fh)
        return (yield from fs.readdir("/a"))

    names = host.run(create_more())
    assert names == ["f", "g", "h", "new"]
    # The new file's row lives on the override target, not the static owner.
    new_vinos = host.file_vinos(1)
    assert host.file_vinos(0) == set()
    assert len(new_vinos) == 4

    def drop_all():
        fs = host.mounts[0]
        for name in ("f", "g", "h", "new"):
            yield from fs.unlink(f"/a/{name}")
        yield from fs.rmdir("/a")

    host.run(drop_all())


def test_rebalance_hard_link_leaves_stub_at_home(split2):
    host = split2

    def link_it():
        yield from host.mounts[0].link("/a/f", "/b/l")

    host.run(link_it())
    host.run(host.shards[0].rebalance_dir("/a", 1, host.sim.now))

    # /a/f's inode stayed on shard 0 (the hard link pins it); the name on
    # shard 1 is a stub pointing home.
    stub = next(d for d in host.shards[1].db.table("dentries").all()
                if d["name"] == "f")
    assert stub.get("home") == 0

    def use_both():
        fs = host.mounts[0]
        a = yield from fs.stat("/a/f")
        b = yield from fs.stat("/b/l")
        return a.nlink, b.nlink

    assert host.run(use_both()) == (2, 2)


def test_rebalance_rejected_from_non_owner(split2):
    host = split2
    with pytest.raises(FsError) as exc:
        host.run(host.shards[1].rebalance_dir("/a", 0, host.sim.now))
    assert exc.value.code == "EINVAL"


def test_overrides_survive_tier_recovery(split2):
    host = split2
    host.run(host.shards[0].rebalance_dir("/a", 1, host.sim.now))
    before = _observe(host)
    # Poison the in-memory map to prove recovery restores it durably.
    host.stack.sharding.routes.clear()
    host.run(recover_tier(host.shards))
    assert host.stack.sharding.routes == {"/a": (1, (1,))}
    assert _observe(host) == before


def test_router_counts_loads_and_rebalancer_levels_them():
    host = ShardedCofs(n_clients=1, shards=2,
                       sharding=SubtreeSharding({}, default=0))

    def setup():
        fs = host.mounts[0]
        yield from fs.mkdir("/hot")
        yield from fs.mkdir("/cold")
        for index in range(8):
            fh = yield from fs.create(f"/hot/f{index}")
            yield from fs.close(fh)
        for index in range(8):
            yield from fs.stat(f"/hot/f{index}")
        yield from fs.stat("/cold")

    host.run(setup())
    router = host.stack.routers[0]
    assert router.op_loads[0] > 0
    hot_before = router.dir_loads["/hot"]
    assert hot_before >= 16  # creates + stats

    rebalancer = Rebalancer(host.stack.routers, host.shards)
    moves = host.run(rebalancer.rebalance())
    assert ("/hot", 0, 1) in moves
    # Counters decay (not reset) after the round, so a hotspot whose
    # burst straddles the boundary stays visible to the next planning
    # round; the population actually moved.
    assert router.dir_loads["/hot"] == hot_before // 2
    assert sum(router.op_loads) < hot_before
    # ...and a few more decays age one-off spikes out entirely.
    for _ in range(8):
        router.decay_loads()
    assert router.dir_loads == {}
    assert len(host.file_vinos(1)) == 8

    def still_works():
        fs = host.mounts[0]
        stats = []
        for index in range(8):
            stats.append((yield from fs.stat(f"/hot/f{index}")).nlink)
        return stats

    assert host.run(still_works()) == [1] * 8


def test_rebalancer_plan_is_deterministic_and_bounded():
    host = ShardedCofs(n_clients=1, shards=4, sharding=HashDirSharding())

    def setup():
        fs = host.mounts[0]
        for name in ("d0", "d1", "d2", "d3", "d4", "d5"):
            yield from fs.mkdir(f"/{name}")
            for index in range(4):
                fh = yield from fs.create(f"/{name}/f{index}")
                yield from fs.close(fh)

    host.run(setup())
    rebalancer = Rebalancer(host.stack.routers, host.shards, max_moves=2)
    plan_a = rebalancer.plan()
    plan_b = rebalancer.plan()
    assert plan_a == plan_b
    assert len(plan_a) <= 2
    for _path, src, dst in plan_a:
        assert src != dst


def test_rmdir_forgets_the_directorys_override(split2):
    """A routing row dies with its directory: a recreated directory at
    the same path routes by the static rule again — no surprise
    placement inherited from a dead namespace."""
    host = split2
    host.run(host.shards[0].rebalance_dir("/a", 1, host.sim.now))
    assert host.stack.sharding.shard_of_dir("/a", 2) == 1

    def drop_and_recreate():
        fs = host.mounts[0]
        for name in ("f", "g", "h"):
            yield from fs.unlink(f"/a/{name}")
        yield from fs.rmdir("/a")
        yield from fs.mkdir("/a")
        fh = yield from fs.create("/a/fresh")
        yield from fs.close(fh)

    host.run(drop_and_recreate())
    # The routing row is gone on every shard, in memory, and routing is
    # back to the static rule: the fresh file's row lives on shard 0.
    for shard in host.shards:
        assert not shard.db.table("routes").all()
    assert "/a" not in host.stack.sharding.routes
    assert host.stack.sharding.shard_of_dir("/a", 2) == 0
    assert len(host.file_vinos(0)) == 1
    assert host.file_vinos(1) == set()
    check_tier_invariants(host.shards, host.stack.sharding)


def test_forget_override_admin_entry_point(split2):
    """The admin-facing forget: the population migrates back to the
    static owner and the routing row durably names it everywhere, while
    the directory stays fully usable."""
    host = split2
    before = _observe(host)
    host.run(host.shards[0].rebalance_dir("/a", 1, host.sim.now))
    assert len(host.file_vinos(1)) == 3
    assert host.file_vinos(0) == set()

    # Any shard accepts the admin call (it self-forwards to the owner).
    host.run(host.shards[0].forget_override("/a", host.sim.now))

    # Like a merge, a forget keeps a one-element row (pointing at the
    # static owner): a dropped row could resurrect from a stale peer
    # through the restore union.
    for shard in host.shards:
        assert host.route_rows(shard.shard_id) == {"/a": (0, (0,))}
    assert host.stack.sharding.routes == {"/a": (0, (0,))}
    # The population came home and nothing observable changed.
    assert len(host.file_vinos(0)) == 3
    assert host.file_vinos(1) == set()
    assert _observe(host) == before
    check_tier_invariants(host.shards, host.stack.sharding)
    # Forgetting again is a no-op.
    assert host.run(
        host.shards[1].forget_override("/a", host.sim.now)) is False


def test_forget_override_survives_crash_at_every_boundary(split2):
    """The forget protocol is crash-redoable: its intent rolls the
    migration-home and the tier-wide row rewrite forward from any gap."""
    from repro.core.faults import (
        CrashInjected, CrashSchedule, arm_shards, disarm_shards,
    )

    def build():
        host = ShardedCofs(sharding=SubtreeSharding({"/a": 0, "/b": 1}))

        def setup():
            fs = host.mounts[0]
            yield from fs.mkdir("/a")
            yield from fs.mkdir("/b")
            for name in ("f", "g", "h"):
                fh = yield from fs.create(f"/a/{name}")
                yield from fs.close(fh)

        host.run(setup())
        host.run(host.shards[0].rebalance_dir("/a", 1, host.sim.now))
        return host

    host = build()
    schedule = CrashSchedule()
    arm_shards(host.shards, schedule)
    host.run(host.shards[1].forget_override("/a", host.sim.now))
    disarm_shards(host.shards)
    count = schedule.count
    assert count >= 4

    for k in range(count):
        host = build()
        schedule = CrashSchedule(armed=k)
        arm_shards(host.shards, schedule)

        def crashing():
            try:
                yield from host.shards[1].forget_override(
                    "/a", host.sim.now)
            except CrashInjected:
                pass
            return True

        host.run(crashing())
        disarm_shards(host.shards)
        host.run(recover_tier(host.shards))
        observed = check_tier_invariants(host.shards, host.stack.sharding)
        # Either the forget never started (re-homed row intact) or it
        # rolled forward completely (row names the static owner,
        # population home) — never a half state.
        rows = {tuple(sorted(host.route_rows(shard.shard_id).items()))
                for shard in host.shards}
        assert len(rows) == 1  # identical tables either way
        if host.stack.sharding.routes == {"/a": (1, (1,))}:
            assert len(host.file_vinos(1)) == 3
        else:
            assert host.stack.sharding.routes == {"/a": (0, (0,))}
            assert len(host.file_vinos(0)) == 3
        assert {p for p in observed} >= {"/a/f", "/a/g", "/a/h"}


def test_mirror_rmdir_refusal_still_drops_override_row(split2):
    """Even when the replay refuses the removal (entries appeared here
    since the coordinator's emptiness check — the documented divergence
    window), the routing row is dropped: the coordinator's commit is
    the authoritative removal, and a kept row would diverge the routing
    tables and be resurrected tier-wide by the next restore."""
    host = split2
    host.run(host.shards[0].rebalance_dir("/a", 1, host.sim.now))
    result = host.run(host.shards[1].mirror_rmdir("/a", host.sim.now))
    assert result is False  # refused: /a's population lives here
    assert not host.shards[1].db.table("routes").all()


def test_forget_override_respects_newer_seq(split2):
    """A forget replaying late (redo after a fence) must not overwrite
    the row a *later* re-homing installed — newest-seq-wins, or the
    newer re-homing's migrated population would be stranded behind
    static-rule routing."""
    host = split2
    host.run(host.shards[0].rebalance_dir("/a", 1, host.sim.now))
    seq = host.shards[0].db.table("routes").all()[0]["seq"]
    result = host.run(
        host.shards[0].mirror_route("/a", 0, [0], seq - 1.0))
    assert result is False
    assert host.stack.sharding.routes == {"/a": (1, (1,))}
    assert host.route_rows(0) == {"/a": (1, (1,))}


@pytest.fixture
def twelve():
    """Two shards, /a and /b statically assigned, 12 files in /a."""
    host = ShardedCofs(sharding=SubtreeSharding({"/a": 0, "/b": 1}))

    def setup():
        fs = host.mounts[0]
        yield from fs.mkdir("/a")
        yield from fs.mkdir("/b")
        for index in range(12):
            fh = yield from fs.create(f"/a/f{index}")
            yield from fs.close(fh)

    host.run(setup())
    return host


def test_forget_override_refuses_a_split_directory(twelve):
    """Forgetting the home of a re-homed-then-split directory is
    refused (EINVAL), exactly as re-homing a split directory is: its
    entries have no single source.  Moving only the coordinator's
    partition to the static owner while the split row still routes
    those names to the old home would strand them — stat answering
    ENOENT for entries readdir still lists."""
    host = twelve
    before = _observe(host)
    host.run(host.shards[0].rebalance_dir("/a", 1, host.sim.now))
    host.run(host.shards[0].split_dir("/a", [0, 1], host.sim.now))
    with pytest.raises(FsError) as err:
        host.run(host.shards[0].forget_override("/a", host.sim.now))
    assert err.value.code == "EINVAL"
    # The split survives intact, owned by its re-homed owner.
    assert host.stack.sharding.routes == {"/a": (1, (0, 1))}
    assert _observe(host) == before
    check_tier_invariants(host.shards, host.stack.sharding)


def test_merged_directory_can_be_rehomed():
    """A merge leaves a one-element row, and a row is split only when
    its fanout names more than one shard: the merged directory is
    re-homable, and the planner proposes it when it is hot."""
    host = ShardedCofs(n_clients=1, shards=2,
                       sharding=SubtreeSharding({}, default=0))

    def setup():
        fs = host.mounts[0]
        yield from fs.mkdir("/hot")
        yield from fs.mkdir("/cold")
        for index in range(8):
            fh = yield from fs.create(f"/hot/f{index}")
            yield from fs.close(fh)

    def heat():
        fs = host.mounts[0]
        for index in range(8):
            yield from fs.stat(f"/hot/f{index}")
            yield from fs.stat(f"/hot/f{index}")
        yield from fs.stat("/cold")

    host.run(setup())
    before = _observe(host)
    host.run(host.shards[0].split_dir("/hot", [0, 1], host.sim.now))
    host.run(host.shards[0].merge_dir("/hot", host.sim.now))
    assert host.stack.sharding.routes == {"/hot": (0, (0,))}
    # The planner proposes the hot merged directory ...
    for router in host.stack.routers:
        router.reset_loads()
    host.run(heat())
    rebalancer = Rebalancer(host.stack.routers, host.shards)
    assert rebalancer.plan() == [("/hot", 0, 1)]
    # ... and re-homing it succeeds: routing follows the move.
    assert host.run(host.shards[0].rebalance_dir("/hot", 1, host.sim.now))
    assert host.stack.sharding.routes == {"/hot": (1, (1,))}
    assert host.stack.sharding.shard_of_dir("/hot", 2) == 1
    assert len(host.file_vinos(1)) == 8
    assert host.file_vinos(0) == set()
    assert _observe(host) == before
    check_tier_invariants(host.shards, host.stack.sharding)


def test_rename_carries_a_rehomed_directorys_route(twelve):
    """The routing row re-keys with a rename: the renamed re-homed
    directory keeps its home (its population does not move), and a
    directory later created at the old name routes by the static rule
    instead of inheriting the stale home."""
    host = twelve
    host.run(host.shards[0].rebalance_dir("/a", 1, host.sim.now))

    def rename_and_recreate():
        fs = host.mounts[0]
        yield from fs.rename("/a", "/c")
        yield from fs.mkdir("/a")
        fh = yield from fs.create("/a/fresh")
        yield from fs.close(fh)
        return (yield from fs.readdir("/c"))

    names = host.run(rename_and_recreate())
    assert names == sorted(f"f{index}" for index in range(12))
    assert host.stack.sharding.routes == {"/c": (1, (1,))}
    for shard in host.shards:
        assert host.route_rows(shard.shard_id) == {"/c": (1, (1,))}
    # The population stayed home on shard 1; the recreated /a routes by
    # the static rule (shard 0).
    assert len(host.file_vinos(1)) == 12
    assert len(host.file_vinos(0)) == 1
    assert host.stack.sharding.shard_of_dir("/a", 2) == 0
    check_tier_invariants(host.shards, host.stack.sharding)


@pytest.mark.parametrize("flavour", ["rehomed", "forgotten", "split"])
def test_rename_over_an_empty_routed_directory_drops_its_row(flavour):
    """A rename over an empty routed directory replaces it, so the
    replaced directory's row dies with it, as on rmdir.  The moved
    population never moves: it stays on its shard, reached by the
    static rule of its new name or, where that names another shard (the
    forgotten flavour's /b/d), by the rename's pin.  A surviving row
    would route the new name to the replaced directory's home, or — for
    a split row — hash names to shards the population never reached."""
    host = ShardedCofs(sharding=SubtreeSharding({"/a": 0, "/b": 1}))
    fs = host.mounts[0]
    target = "/b/d" if flavour == "forgotten" else "/d"
    names = [f"f{index}" for index in range(8)]

    def setup():
        yield from fs.mkdir("/b")
        yield from fs.mkdir(target)
        yield from fs.mkdir("/x")
        for name in names:
            fh = yield from fs.create(f"/x/{name}")
            yield from fs.close(fh)

    host.run(setup())
    static = host.stack.sharding.static_shard_of_dir(target, 2)
    if flavour == "split":
        host.run(host.shards[0].split_dir(target, [0, 1], host.sim.now))
    else:
        host.run(host.shards[static].rebalance_dir(
            target, 1 - static, host.sim.now))
    if flavour == "forgotten":
        assert host.run(host.shards[0].forget_override(target, host.sim.now))
    assert target in host.stack.sharding.routes

    def rename_and_read():
        yield from fs.rename("/x", target)
        for name in names:
            yield from fs.stat(f"{target}/{name}")
        return (yield from fs.readdir(target))

    assert host.run(rename_and_read()) == names
    home = host.stack.sharding.static_shard_of_dir("/x", 2)
    rows = {} if home == static else {target: (home, (home,))}
    assert host.stack.sharding.routes == rows
    for shard in host.shards:
        assert host.route_rows(shard.shard_id) == rows
    assert len(host.file_vinos(home)) == len(names)
    assert host.file_vinos(1 - home) == set()
    check_tier_invariants(host.shards, host.stack.sharding)
