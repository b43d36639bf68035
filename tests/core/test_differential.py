"""Differential testing: COFS must behave like the bare FS, observably.

The paper's claim of transparency ("providing the user with standard
semantics and a classical directory layout", §V) is tested literally: random
sequences of POSIX operations are applied both to a bare parallel FS and to
COFS-over-PFS; the observable outcomes — success/errno of every call, the
final tree listing, attributes and file contents — must match exactly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shard import HashDirSharding, SubtreeSharding
from repro.pfs import FsError, OpenFlags
from tests.core.conftest import MountedCofs, ShardedCofs
from tests.pfs.conftest import MountedPfs

NAMES = st.sampled_from(["a", "b", "c", "d1", "d2"])
PAYLOADS = st.binary(min_size=0, max_size=24)

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("mkdir"), NAMES, st.none()),
        st.tuples(st.just("create"), NAMES, PAYLOADS),
        st.tuples(st.just("unlink"), NAMES, st.none()),
        st.tuples(st.just("rmdir"), NAMES, st.none()),
        st.tuples(st.just("rename"), st.tuples(NAMES, NAMES), st.none()),
        st.tuples(st.just("link"), st.tuples(NAMES, NAMES), st.none()),
        st.tuples(st.just("symlink"), st.tuples(NAMES, NAMES), st.none()),
        st.tuples(st.just("utime"), NAMES, st.none()),
        st.tuples(st.just("chmod"), NAMES, st.none()),
        st.tuples(st.just("truncate"), NAMES, st.just(None)),
        st.tuples(st.just("append"), NAMES, PAYLOADS),
    ),
    max_size=14,
)


def apply_ops(fs, ops):
    """Coroutine: run ops, returning the list of per-op outcomes."""
    outcomes = []
    for op, arg, payload in ops:
        try:
            if op == "mkdir":
                yield from fs.mkdir(f"/{arg}")
                outcomes.append(("ok", None))
            elif op == "create":
                fh = yield from fs.create(f"/{arg}")
                if payload:
                    yield from fs.write(fh, 0, data=payload)
                yield from fs.close(fh)
                outcomes.append(("ok", None))
            elif op == "unlink":
                yield from fs.unlink(f"/{arg}")
                outcomes.append(("ok", None))
            elif op == "rmdir":
                yield from fs.rmdir(f"/{arg}")
                outcomes.append(("ok", None))
            elif op == "rename":
                yield from fs.rename(f"/{arg[0]}", f"/{arg[1]}")
                outcomes.append(("ok", None))
            elif op == "link":
                yield from fs.link(f"/{arg[0]}", f"/{arg[1]}")
                outcomes.append(("ok", None))
            elif op == "symlink":
                yield from fs.symlink(f"/{arg[0]}", f"/{arg[1]}")
                outcomes.append(("ok", None))
            elif op == "utime":
                yield from fs.utime(f"/{arg}", atime=1.5, mtime=2.5)
                outcomes.append(("ok", None))
            elif op == "chmod":
                yield from fs.chmod(f"/{arg}", 0o640)
                outcomes.append(("ok", None))
            elif op == "truncate":
                yield from fs.truncate(f"/{arg}", 3)
                outcomes.append(("ok", None))
            elif op == "append":
                fh = yield from fs.open(f"/{arg}", OpenFlags.WRONLY)
                size = (yield from fs.stat(f"/{arg}")).size
                if payload:
                    yield from fs.write(fh, size, data=payload)
                yield from fs.close(fh)
                outcomes.append(("ok", None))
        except FsError as exc:
            outcomes.append(("err", exc.code))
    return outcomes


def observe(fs):
    """Coroutine: capture the observable state of the namespace."""
    state = {}

    def walk(path):
        names = yield from fs.readdir(path)
        for name in names:
            child = f"{path.rstrip('/')}/{name}"
            try:
                attr = yield from fs.stat(child)
            except FsError as exc:
                state[child] = ("stat-error", exc.code)
                continue
            record = {
                "kind": attr.kind,
                "size": attr.size,
                "nlink": attr.nlink,
                "mode": attr.mode,
            }
            if attr.is_file and attr.size:
                fh = yield from fs.open(child)
                record["data"] = yield from fs.read(
                    fh, 0, attr.size, want_data=True
                )
                yield from fs.close(fh)
            state[child] = record
            if attr.is_dir:
                yield from walk(child)

    yield from walk("/")
    return state


@settings(max_examples=40, deadline=None)
@given(OPERATIONS)
def test_cofs_matches_bare_pfs(ops):
    bare = MountedPfs(1)
    cofs = MountedCofs(1)

    bare_fs = bare.clients[0]
    cofs_fs = cofs.mounts[0]

    bare_outcomes = bare.run(apply_ops(bare_fs, ops))
    cofs_outcomes = cofs.run(apply_ops(cofs_fs, ops))
    assert cofs_outcomes == bare_outcomes

    bare_state = bare.run(observe(bare_fs))
    cofs_state = cofs.run(observe(cofs_fs))
    # Hide the root-level ".cofs" layout directory from the bare view.
    bare_state = {
        path: record for path, record in bare_state.items()
        if not path.startswith("/.cofs")
    }
    assert cofs_state == bare_state


def test_differential_smoke_two_nodes():
    """A fixed two-node interleaving matching on both systems."""
    ops_node0 = [
        ("mkdir", "work", None),
        ("create", "work", b""),  # EEXIST as a directory
        ("symlink", ("work", "w"), None),
    ]
    ops_node1 = [
        ("create", "data", b"abc"),
        ("utime", "data", None),
        ("rename", ("data", "archive"), None),
    ]

    bare = MountedPfs(2)
    cofs = MountedCofs(2)

    def run_pair(host, fs0, fs1):
        out = {}

        def first():
            out["n0"] = yield from apply_ops(fs0, ops_node0)

        def second():
            out["n1"] = yield from apply_ops(fs1, ops_node1)

        host.run_all([first(), second()])
        out["state"] = host.run(observe(fs0))
        return out

    bare_out = run_pair(bare, bare.clients[0], bare.clients[1])
    cofs_out = run_pair(cofs, cofs.mounts[0], cofs.mounts[1])
    assert bare_out["n0"] == cofs_out["n0"]
    assert bare_out["n1"] == cofs_out["n1"]
    bare_state = {
        p: r for p, r in bare_out["state"].items()
        if not p.startswith("/.cofs")
    }
    assert bare_state == cofs_out["state"]


# ---------------------------------------------------------------------------
# Sharded tier vs single shard: partitioning must be invisible
# ---------------------------------------------------------------------------

# Nested names spread directories over shards under both policies.  The
# strategy deliberately omits ``symlink``: hard links to symlinks are a
# documented sharded-tier divergence (EINVAL there, allowed on a single
# MDS); symlink transparency is pinned by the fixed scenario below.
SHARD_NAMES = st.sampled_from(["a", "b", "d1", "d2", "d1/x", "d2/y"])

SHARD_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("mkdir"), SHARD_NAMES, st.none()),
        st.tuples(st.just("create"), SHARD_NAMES, PAYLOADS),
        st.tuples(st.just("unlink"), SHARD_NAMES, st.none()),
        st.tuples(st.just("rmdir"), SHARD_NAMES, st.none()),
        st.tuples(st.just("rename"),
                  st.tuples(SHARD_NAMES, SHARD_NAMES), st.none()),
        st.tuples(st.just("link"),
                  st.tuples(SHARD_NAMES, SHARD_NAMES), st.none()),
        st.tuples(st.just("utime"), SHARD_NAMES, st.none()),
        st.tuples(st.just("chmod"), SHARD_NAMES, st.none()),
        st.tuples(st.just("append"), SHARD_NAMES, PAYLOADS),
    ),
    max_size=12,
)


def _sharded_stacks():
    """The comparison grid: 2- and 4-shard tiers under both policies,
    plus a 4-shard tier with overlapped mirror broadcasts."""
    from repro.core.config import CofsConfig

    return [
        ShardedCofs(n_clients=1, shards=2, sharding=HashDirSharding()),
        ShardedCofs(n_clients=1, shards=4, sharding=HashDirSharding()),
        ShardedCofs(n_clients=1, shards=2,
                    sharding=SubtreeSharding({"/d1": 1, "/d2": 0})),
        ShardedCofs(n_clients=1, shards=4,
                    sharding=SubtreeSharding({"/d1": 1, "/d2": 3})),
        ShardedCofs(n_clients=1, shards=4, sharding=HashDirSharding(),
                    cofs_config=CofsConfig(parallel_broadcasts=True)),
    ]


@settings(max_examples=10, deadline=None)
@given(SHARD_OPERATIONS)
def test_sharded_tiers_match_single_shard(ops):
    reference = MountedCofs(1)
    ref_outcomes = reference.run(apply_ops(reference.mounts[0], ops))
    ref_state = reference.run(observe(reference.mounts[0]))

    for host in _sharded_stacks():
        outcomes = host.run(apply_ops(host.mounts[0], ops))
        label = (host.stack.n_shards, type(host.stack.sharding).__name__)
        assert outcomes == ref_outcomes, label
        state = host.run(observe(host.mounts[0]))
        assert state == ref_state, label


@settings(max_examples=10, deadline=None)
@given(SHARD_OPERATIONS, SHARD_OPERATIONS)
def test_sharded_tiers_match_single_shard_with_rebalancing(before, after):
    """Online re-partitioning must be invisible: run ops, re-home every
    hot directory the load counters saw, run more ops — outcomes and the
    final namespace must still match the single-shard reference."""
    from repro.core.shard import Rebalancer

    reference = MountedCofs(1)
    ref_out = reference.run(apply_ops(reference.mounts[0], before))
    ref_out += reference.run(apply_ops(reference.mounts[0], after))
    ref_state = reference.run(observe(reference.mounts[0]))

    for host in _sharded_stacks():
        outcomes = host.run(apply_ops(host.mounts[0], before))
        # threshold=0 forces a migration of every sampled directory that
        # has anywhere cooler to go — the most adversarial re-homing.
        rebalancer = Rebalancer(
            host.stack.routers, host.shards, threshold=0.0)
        host.run(rebalancer.rebalance())
        outcomes += host.run(apply_ops(host.mounts[0], after))
        label = (host.stack.n_shards, type(host.stack.sharding).__name__)
        assert outcomes == ref_out, label
        assert host.run(observe(host.mounts[0])) == ref_state, label


@settings(max_examples=8, deadline=None)
@given(SHARD_OPERATIONS, SHARD_OPERATIONS)
def test_live_single_shard_recovery_matches_single_shard(before, after):
    """Mid-sequence crash+recover of one shard against a live tier.

    Shard 1 crashes and recovers *while the second half of the sequence
    keeps flowing* (requests that land during the rebuild wait at the
    admission gate; the epoch fence keeps the tier-wide completion pass
    from touching anything a live coordinator owns).  Outcomes and the
    final namespace must still match the 1-shard oracle, which never
    crashes at all — recovery must be observably free.
    """
    reference = MountedCofs(1)
    ref_out = reference.run(apply_ops(reference.mounts[0], before))
    ref_out += reference.run(apply_ops(reference.mounts[0], after))
    ref_state = reference.run(observe(reference.mounts[0]))

    for shards in (2, 4):
        host = ShardedCofs(
            n_clients=1, shards=shards, sharding=HashDirSharding())
        outcomes = host.run(apply_ops(host.mounts[0], before))
        tail = {}

        def driver(host=host, tail=tail):
            # the victim's recovery runs beside the op stream, not
            # between two quiesced halves.
            recovery = host.sim.process(host.shards[1].recover())
            tail["out"] = yield from apply_ops(host.mounts[0], after)
            yield recovery
            return True

        host.run(driver())
        outcomes += tail["out"]
        label = (shards, "live-recovery")
        assert outcomes == ref_out, label
        assert host.run(observe(host.mounts[0])) == ref_state, label


@settings(max_examples=8, deadline=None)
@given(SHARD_OPERATIONS, SHARD_OPERATIONS)
def test_kill_primary_mid_sequence_matches_crash_free_reference(before,
                                                                after):
    """The failover differential oracle: a replicated tier that loses a
    primary mid-sequence must remain observably identical to a reference
    that never crashes at all.  The second half of the sequence starts
    against the dead primary — the router's retry drives the fenced
    promotion and re-targets transparently, so every outcome and the
    final namespace must match the crash-free single-shard oracle."""
    from repro.core.faults import (
        check_group_invariants, check_tier_invariants, kill_primary,
        revive_member,
    )

    reference = MountedCofs(1)
    ref_out = reference.run(apply_ops(reference.mounts[0], before))
    ref_out += reference.run(apply_ops(reference.mounts[0], after))
    ref_state = reference.run(observe(reference.mounts[0]))

    host = ShardedCofs(
        n_clients=1, shards=2, replicas=2, sharding=HashDirSharding())
    outcomes = host.run(apply_ops(host.mounts[0], before))
    dead = kill_primary(host.groups[0])
    outcomes += host.run(apply_ops(host.mounts[0], after))
    assert outcomes == ref_out
    assert host.run(observe(host.mounts[0])) == ref_state

    # The dead member rejoins by snapshot and the whole group converges.
    group = host.groups[0]
    if group.failovers:
        revive_member(dead)
        host.run(group.rejoin(dead))
    else:
        # No op of the second half touched group 0: the kill was never
        # noticed.  Revive the member as if the glitch healed.
        revive_member(dead)
    check_group_invariants(host.groups)
    check_tier_invariants(host.primaries, host.stack.sharding)


def test_sharded_symlink_scenario_matches_single_shard():
    """Symlink transparency across shard counts (fixed scenario: no hard
    links to symlinks, the one documented divergence)."""
    ops = [
        ("mkdir", "d1", None),
        ("symlink", ("d1", "ln"), None),
        ("create", "d1/x", b"abc"),
        ("rename", ("d1/x", "d2"), None),
        ("symlink", ("d2", "d1/x"), None),
        ("unlink", "ln", None),
        ("rmdir", "d1", None),  # ENOTEMPTY: d1/x is a symlink now
    ]
    reference = MountedCofs(1)
    ref_outcomes = reference.run(apply_ops(reference.mounts[0], ops))
    ref_state = reference.run(observe(reference.mounts[0]))
    for host in _sharded_stacks():
        outcomes = host.run(apply_ops(host.mounts[0], ops))
        assert outcomes == ref_outcomes
        assert host.run(observe(host.mounts[0])) == ref_state


# ---------------------------------------------------------------------------
# Rename storm: repeated directory renames under live concurrent walkers
# ---------------------------------------------------------------------------

# Phase A shuffles a replicated subtree between parents; phase B renames
# a *split* directory back and forth (the oracle never splits — the
# partitioning must be invisible).  Both storms end where they started
# names-wise only in phase B; phase A's chain is deliberately a tour.
STORM_SETUP = [
    ("mkdir", "d1", None),
    ("mkdir", "d2", None),
    ("mkdir", "d1/sub", None),
    ("create", "d1/sub/f", b"abc"),
    ("create", "d1/p", b"x"),
    ("create", "d1/q", b"yz"),
]
STORM_A = [
    ("rename", ("d1/sub", "d2/sub"), None),
    ("rename", ("d2/sub", "d1/sub2"), None),
    ("rename", ("d1/sub2", "d2/sub"), None),
    ("rename", ("d2/sub", "d1/sub"), None),
]
STORM_B = [
    ("rename", ("d1", "d3"), None),
    ("rename", ("d3", "d1"), None),
    ("rename", ("d1", "d3"), None),
    ("rename", ("d3", "d1"), None),
]
# Every name each storm ever uses: a live walker must always resolve at
# least one alternative — the flip's "old, new, or both, never neither".
WALKS_A = [
    ["/d1/sub", "/d2/sub", "/d1/sub2"],
    ["/d1/sub/f", "/d2/sub/f", "/d1/sub2/f"],
]
WALKS_B = [
    ["/d1", "/d3"],
    ["/d1/p", "/d3/p"],
    ["/d1/sub/f", "/d3/sub/f"],
]


def _walker(fs, alternative_sets, done):
    """Coroutine: probe alternative-name sets until the storm ends."""
    while not done["flag"]:
        for alts in alternative_sets:
            codes = []
            for path in alts:
                try:
                    yield from fs.stat(path)
                    codes.append("ok")
                except FsError as exc:
                    codes.append(exc.code)
            assert "ok" in codes, (
                f"walker saw no name of {alts} resolve: {codes}")


def _storm_leg(host, renames, alternative_sets):
    """Run a rename storm beside two walkers; return storm outcomes."""
    done = {"flag": False}
    box = {}

    def storm():
        box["out"] = yield from apply_ops(host.mounts[0], renames)
        done["flag"] = True

    host.run_all([storm()] + [
        _walker(host.mounts[i], alternative_sets, done) for i in (1, 2)])
    return box["out"]


def test_rename_storm_under_live_walkers_matches_single_shard():
    """Concurrent walkers never see a directory vanish mid-rename.

    A storm of directory renames — replicated subtrees, then a split
    directory — runs beside walkers that demand at least one of each
    name's alternatives resolves at every probe.  Outcomes and the
    final namespace must match the serial 1-shard oracle, which never
    splits anything and has no walkers at all.
    """
    from repro.core.config import CofsConfig

    reference = MountedCofs(1)
    ref_out = reference.run(apply_ops(reference.mounts[0], STORM_SETUP))
    ref_out += reference.run(apply_ops(reference.mounts[0], STORM_A))
    ref_out += reference.run(apply_ops(reference.mounts[0], STORM_B))
    ref_state = reference.run(observe(reference.mounts[0]))

    hosts = [
        ShardedCofs(n_clients=3, shards=2, sharding=HashDirSharding()),
        ShardedCofs(n_clients=3, shards=4, sharding=HashDirSharding(),
                    cofs_config=CofsConfig(parallel_broadcasts=True)),
    ]
    for host in hosts:
        label = (host.stack.n_shards, "rename-storm")
        outcomes = host.run(apply_ops(host.mounts[0], STORM_SETUP))
        outcomes += _storm_leg(host, STORM_A, WALKS_A)
        # Phase B renames a split directory: partition rows re-key with
        # every flip, invisibly (the oracle never split).
        assert host.run(host.shards[0].split_dir(
            "/d1", list(range(min(2, host.stack.n_shards))), host.sim.now))
        outcomes += _storm_leg(host, STORM_B, WALKS_B)
        assert outcomes == ref_out, label
        assert host.run(observe(host.mounts[0])) == ref_state, label

        from repro.core.faults import check_tier_invariants
        check_tier_invariants(host.shards, host.stack.sharding)


# ---------------------------------------------------------------------------
# Rename ping-pong beside creates: no acknowledged create is ever lost
# ---------------------------------------------------------------------------

PING_PONG_DIRS = ["e", "e/g", "h"]
PING_PONG_NAMES = ["/a/d", "/b/d"]


def _ping_pong(seed, shards, parallel):
    """Rename /a/d to /b/d and back, six times, beside two clients that
    create files in its subdirectories through either name at random
    instants.  Returns the host, the directory's final name and the
    relative path of every create that succeeded."""
    from repro.core.config import CofsConfig

    rng = random.Random(seed)
    host = ShardedCofs(n_clients=3, shards=shards,
                       sharding=HashDirSharding(),
                       cofs_config=CofsConfig(parallel_broadcasts=parallel))
    fs = host.mounts

    def setup():
        for path in ["/a", "/b", "/a/d"] + [
                f"/a/d/{sub}" for sub in PING_PONG_DIRS]:
            yield from fs[0].mkdir(path)

    host.run(setup())
    landed = []

    def renamer():
        cur = 0
        for _round in range(6):
            yield host.sim.timeout(rng.uniform(0, 6))
            try:
                yield from fs[0].rename(PING_PONG_NAMES[cur],
                                        PING_PONG_NAMES[1 - cur])
                cur = 1 - cur
            except FsError:
                pass
        return cur

    def writer(client, tag):
        for i in range(12):
            yield host.sim.timeout(rng.uniform(0, 3))
            rel = f"{rng.choice(PING_PONG_DIRS)}/{tag}{i}"
            try:
                fh = yield from fs[client].create(
                    f"{rng.choice(PING_PONG_NAMES)}/{rel}")
                yield from fs[client].close(fh)
            except FsError:
                continue
            landed.append(rel)

    final = host.run_all([renamer(), writer(1, "x"), writer(2, "y")])[0]
    return host, PING_PONG_NAMES[final], landed


@pytest.mark.parametrize("shards,parallel", [(3, False), (4, True)])
def test_rename_ping_pong_beside_creates_loses_nothing(shards, parallel):
    """Every create that succeeded while its directory's name flipped —
    through the old name or the new one, before or after a commit, on a
    replica that had or had not retired yet — is reachable under the
    final name, and the tier passes its invariants.  Renames move no
    entry, so both names must route each entry to the shard that holds
    it for as long as any replica serves them."""
    from repro.core.faults import check_tier_invariants

    for seed in range(8):
        host, final, landed = _ping_pong(seed, shards, parallel)
        assert landed, seed

        def lost():
            missing = []
            for rel in landed:
                try:
                    yield from host.mounts[0].stat(f"{final}/{rel}")
                except FsError as exc:
                    missing.append((rel, exc.code))
            return missing

        assert host.run(lost()) == [], seed
        check_tier_invariants(host.shards, host.stack.sharding)
