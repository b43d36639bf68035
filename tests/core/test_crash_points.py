"""Exhaustive fault injection over the cross-shard protocols.

Every cross-shard mutation is a sequence of durable journal commits and
shard-to-shard RPCs.  For each scenario below, a counting pass enumerates
every such boundary the operation crosses, then the replay passes re-run
the operation on a fresh tier with a crash armed at each boundary in turn
(the in-flight operation dies there — coordinator and participants
alike), run tier-wide recovery, and assert the single invariant oracle:
no dangling dentries, no stranded inodes, consistent link counts,
identical skeleton replicas, reconciled placement counters, no leftover
coordination records, epoch/fence rows consistent, and an observable
namespace equal to either the pre-op or the post-op image.  A liveness
probe then proves the tier still serves mutations.

The **concurrent drills** exercise the epoch fence: at each boundary the
in-flight operation crosses (its *phase*), a victim shard — every shard
in turn, including the coordinator itself — crashes and runs its
single-shard ``recover()`` *while the operation keeps running* against
the live tier.  The oracle then demands the invariants AND atomicity
keyed to the client-visible outcome: a success must observe the post-op
image, a clean abort (the fence's EAGAIN) the pre-op image.  Every
(victim × phase) pair is a drilled point.

``REPRO_CRASH_POINTS=N`` bounds the replay to ~N evenly-strided
boundaries per scenario (the CI smoke job uses this); unset, every
boundary is replayed.
"""

import os

import pytest

from repro.core.config import CofsConfig
from repro.core.faults import (
    CrashInjected,
    CrashSchedule,
    arm_groups,
    arm_shards,
    check_group_invariants,
    check_tier_invariants,
    disarm_groups,
    disarm_shards,
    kill_backup,
    kill_primary,
    namespace_image,
    revive_member,
)
from repro.core.shard import SubtreeSharding, recover_tier
from repro.pfs.errors import FsError
from tests.core.conftest import ShardedCofs


def _split(n):
    """Static subtree sharding: /a → 0, /b → 1, ... (deterministic)."""
    names = ["/a", "/b", "/c", "/d"]
    return SubtreeSharding({names[i]: i for i in range(n)})


def _apply(host, ops):
    """Coroutine: drive a list of op tuples through the host's first mount.

    The routing ops (``rebalance``, ``split``, ``merge``, ``forget``)
    are tier-level rather than client calls: they run the owner shard's
    routing protocol directly (the rebalancer is a control-plane driver,
    not a filesystem client).
    """
    fs = host.mounts[0]
    for op in ops:
        kind = op[0]
        if kind == "mkdir":
            yield from fs.mkdir(op[1])
        elif kind == "create":
            fh = yield from fs.create(op[1])
            yield from fs.close(fh)
        elif kind == "symlink":
            yield from fs.symlink(op[1], op[2])
        elif kind == "link":
            yield from fs.link(op[1], op[2])
        elif kind == "unlink":
            yield from fs.unlink(op[1])
        elif kind == "rename":
            yield from fs.rename(op[1], op[2])
        elif kind == "rmdir":
            yield from fs.rmdir(op[1])
        elif kind == "chmod":
            yield from fs.chmod(op[1], 0o700)
        elif kind == "rebalance":
            _kind, path, dst = op
            sharding = host.stack.sharding
            src = sharding.shard_of_dir(path, len(host.shards))
            yield from host.shards[src].rebalance_dir(
                path, dst, host.sim.now)
        elif kind == "split":
            _kind, path, targets = op
            sharding = host.stack.sharding
            src = sharding.shard_of_dir(path, len(host.shards))
            yield from host.shards[src].split_dir(
                path, targets, host.sim.now)
        elif kind == "merge":
            _kind, path = op
            sharding = host.stack.sharding
            src = sharding.shard_of_dir(path, len(host.shards))
            yield from host.shards[src].merge_dir(path, host.sim.now)
        elif kind == "forget":
            _kind, path = op
            sharding = host.stack.sharding
            src = sharding.shard_of_dir(path, len(host.shards))
            yield from host.shards[src].forget_override(path, host.sim.now)
        else:  # pragma: no cover - scenario typo guard
            raise AssertionError(f"unknown op {kind}")
    return True


#: every scenario: shard count, deterministic setup, the one operation
#: whose boundaries are exhaustively crashed.  The three acceptance
#: protocols (cross-shard rename, cross-shard link, replicated mkdir)
#: appear first; the rest cover the remaining intent-protected paths.
SCENARIOS = {
    "rename-cross-shard": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/b"), ("create", "/a/f")],
        op=[("rename", "/a/f", "/b/g")],
    ),
    "rename-cross-shard-replace": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/b"),
               ("create", "/a/f"), ("create", "/b/g")],
        op=[("rename", "/a/f", "/b/g")],
    ),
    "rename-cross-shard-over-stub": dict(
        # /b/l is the last name of a hard-linked inode homed on shard 0:
        # the install replaces a stub and must drain a remote link drop.
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/b"), ("create", "/a/x"),
               ("link", "/a/x", "/b/l"), ("unlink", "/a/x"),
               ("create", "/a/f")],
        op=[("rename", "/a/f", "/b/l")],
    ),
    "rename-cross-shard-over-symlink": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/b"), ("mkdir", "/a/t"),
               ("symlink", "/a/t", "/b/s"), ("create", "/a/f")],
        op=[("rename", "/a/f", "/b/s")],
    ),
    "link-cross-shard": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/b"), ("create", "/a/f")],
        op=[("link", "/a/f", "/b/l")],
    ),
    "link-via-stub": dict(
        # The fetch forwards through a stub to the inode's home shard.
        shards=3,
        setup=[("mkdir", "/a"), ("mkdir", "/b"), ("mkdir", "/c"),
               ("create", "/a/f"), ("link", "/a/f", "/b/l")],
        op=[("link", "/b/l", "/c/m")],
    ),
    "mkdir-replicated": dict(
        shards=2,
        setup=[("mkdir", "/a")],
        op=[("mkdir", "/a/sub")],
    ),
    "mkdir-replicated-4shards": dict(
        shards=4,
        setup=[("mkdir", "/a")],
        op=[("mkdir", "/a/sub")],
    ),
    "symlink-replicated": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/b")],
        op=[("symlink", "/a", "/b/ln")],
    ),
    "rmdir-replicated": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/a/sub")],
        op=[("rmdir", "/a/sub")],
    ),
    "unlink-symlink-replicated": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/b"), ("symlink", "/a", "/b/ln")],
        op=[("unlink", "/b/ln")],
    ),
    "unlink-stub": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/b"), ("create", "/a/f"),
               ("link", "/a/f", "/b/l")],
        op=[("unlink", "/b/l")],
    ),
    "setattr-dir-broadcast": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/a/sub")],
        op=[("chmod", "/a/sub")],
    ),
    "rename-replicated-dir-migrates-subtree": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/b"), ("mkdir", "/a/d"),
               ("create", "/a/d/f"), ("create", "/a/d/g")],
        op=[("rename", "/a/d", "/b/d")],
    ),
    "rename-replicated-dir-same-parent": dict(
        # The simplest replicated flavor: old and new live under the same
        # parent, no entry migrates — the flip alone carries visibility.
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/a/d"), ("create", "/a/d/f")],
        op=[("rename", "/a/d", "/a/e")],
    ),
    "rename-split-dir": dict(
        # Renaming a split directory re-keys its partition rows: the
        # alias keys must route entries under the new name the moment a
        # replica can resolve it, and the old keys must survive until
        # the retire — on every shard, at every crash point.
        shards=2,
        setup=[("mkdir", "/a"), ("create", "/a/f"), ("create", "/a/g"),
               ("create", "/a/h"), ("create", "/a/i"),
               ("split", "/a", [0, 1])],
        op=[("rename", "/a", "/c")],
        # /a may legitimately be gone after the op: probe at the root.
        probe=[("create", "/probe"), ("unlink", "/probe")],
    ),
    "rename-rehomed-dir": dict(
        # Renaming a re-homed directory re-keys its routing row: the
        # population stays on its home shard under the new name, and
        # no row is left behind at the old one.
        shards=2,
        setup=[("mkdir", "/a"), ("create", "/a/f"), ("create", "/a/g"),
               ("create", "/a/h"), ("rebalance", "/a", 1)],
        op=[("rename", "/a", "/c")],
        probe=[("create", "/probe"), ("unlink", "/probe")],
    ),
    # -- renames over an empty routed directory: the replaced
    #    directory's row dies with it (as on rmdir), so the moved
    #    population stays where it is, routed by the static rule of its
    #    new name or by the rename's pin — never by the replaced row.
    "rename-over-rehomed-dir": dict(
        shards=3,
        setup=[("mkdir", "/a"), ("mkdir", "/b"), ("mkdir", "/b/d"),
               ("rebalance", "/b/d", 2), ("mkdir", "/a/x"),
               ("create", "/a/x/f"), ("create", "/a/x/g"),
               ("create", "/a/x/h")],
        op=[("rename", "/a/x", "/b/d")],
    ),
    "rename-over-forgotten-dir": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/b"), ("mkdir", "/b/d"),
               ("rebalance", "/b/d", 0), ("forget", "/b/d"),
               ("mkdir", "/a/x"), ("create", "/a/x/f"),
               ("create", "/a/x/g"), ("create", "/a/x/h")],
        op=[("rename", "/a/x", "/b/d")],
    ),
    "rename-over-split-dir": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/b"), ("mkdir", "/b/d"),
               ("split", "/b/d", [0, 1]), ("mkdir", "/a/x"),
               ("create", "/a/x/f"), ("create", "/a/x/g"),
               ("create", "/a/x/h"), ("create", "/a/x/i")],
        op=[("rename", "/a/x", "/b/d")],
    ),
    # -- online re-partitioning: the migration is namespace-invisible
    #    (paths never change), so these drills lean on the structural
    #    invariants — reachability via the re-homed routing, routing
    #    tables identical everywhere, counters reconciled.
    "rebalance-dir-population": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("create", "/a/f"), ("create", "/a/g"),
               ("create", "/a/h")],
        op=[("rebalance", "/a", 1)],
        invisible=True,
    ),
    "rebalance-dir-with-stub": dict(
        # /a/f is hard-linked from /b: its inode must stay home behind a
        # stub while the name re-homes.
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/b"), ("create", "/a/f"),
               ("link", "/a/f", "/b/l"), ("create", "/a/g")],
        op=[("rebalance", "/a", 1)],
        invisible=True,
    ),
    "rebalance-dir-parallel": dict(
        shards=3,
        setup=[("mkdir", "/a"), ("create", "/a/f"), ("create", "/a/g")],
        op=[("rebalance", "/a", 2)],
        invisible=True,
        parallel=True,
    ),
    "forget-rehomed-dir": dict(
        # The population comes home to the static owner and the row
        # is rewritten to name it.
        shards=2,
        setup=[("mkdir", "/a"), ("create", "/a/f"), ("create", "/a/g"),
               ("create", "/a/h"), ("rebalance", "/a", 1)],
        op=[("forget", "/a")],
        invisible=True,
    ),
    # -- intra-directory splits: hash-partitioning a hot directory's
    #    entries across shards.  Same invisibility rule as re-homing,
    #    plus the routing-table invariants (identical everywhere, in
    #    memory == durable) at every crash point.
    "split-dir-population": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("create", "/a/f"), ("create", "/a/g"),
               ("create", "/a/h"), ("create", "/a/i")],
        op=[("split", "/a", [0, 1])],
        invisible=True,
    ),
    "split-dir-with-stub": dict(
        # /a/f is hard-linked from /b: its inode stays home behind a
        # stub while the name partitions away.
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/b"), ("create", "/a/f"),
               ("link", "/a/f", "/b/l"), ("create", "/a/g"),
               ("create", "/a/h")],
        op=[("split", "/a", [0, 1])],
        invisible=True,
    ),
    "split-dir-parallel": dict(
        shards=3,
        setup=[("mkdir", "/a"), ("create", "/a/f"), ("create", "/a/g"),
               ("create", "/a/h")],
        op=[("split", "/a", [0, 1, 2])],
        invisible=True,
        parallel=True,
    ),
    "merge-split-dir": dict(
        # The inverse protocol: every partition's entries come home and
        # the surviving one-element row is routing-equivalent to none.
        shards=2,
        setup=[("mkdir", "/a"), ("create", "/a/f"), ("create", "/a/g"),
               ("create", "/a/h"), ("split", "/a", [0, 1])],
        op=[("merge", "/a")],
        invisible=True,
    ),
    "resplit-dir-multi-source": dict(
        # Widening an existing split stages from *multiple* pre-flip
        # sources; the intent's recorded sources make the redo complete
        # even though the live map already shows the new fanout.
        shards=3,
        setup=[("mkdir", "/a"), ("create", "/a/f"), ("create", "/a/g"),
               ("create", "/a/h"), ("create", "/a/i"),
               ("split", "/a", [0, 1])],
        op=[("split", "/a", [0, 1, 2])],
        invisible=True,
    ),
    # -- parallel mirror broadcasts: same protocols, overlapped fan-out;
    #    ≥3 shards so at least two mirrors genuinely overlap.
    "mkdir-replicated-4shards-parallel": dict(
        shards=4,
        setup=[("mkdir", "/a")],
        op=[("mkdir", "/a/sub")],
        parallel=True,
    ),
    "symlink-replicated-parallel": dict(
        shards=3,
        setup=[("mkdir", "/a"), ("mkdir", "/b")],
        op=[("symlink", "/a", "/b/ln")],
        parallel=True,
    ),
    "rmdir-replicated-parallel": dict(
        shards=3,
        setup=[("mkdir", "/a"), ("mkdir", "/a/sub")],
        op=[("rmdir", "/a/sub")],
        parallel=True,
    ),
    "setattr-dir-broadcast-parallel": dict(
        shards=4,
        setup=[("mkdir", "/a"), ("mkdir", "/a/sub")],
        op=[("chmod", "/a/sub")],
        parallel=True,
    ),
    "rename-replicated-dir-parallel": dict(
        shards=3,
        setup=[("mkdir", "/a"), ("mkdir", "/b"), ("mkdir", "/a/d"),
               ("create", "/a/d/f"), ("create", "/a/d/g")],
        op=[("rename", "/a/d", "/b/d")],
        parallel=True,
    ),
}

#: liveness probe: after recovery the tier must still serve mutations.
PROBE = [("create", "/a/probe"), ("unlink", "/a/probe")]


def _build(spec):
    cofs_config = CofsConfig(parallel_broadcasts=True) \
        if spec.get("parallel") else None
    host = ShardedCofs(
        n_clients=1, shards=spec["shards"], sharding=_split(spec["shards"]),
        cofs_config=cofs_config)
    host.run(_apply(host, spec["setup"]))
    return host


def _count_boundaries(spec):
    """The counting pass: images + total boundary count for a scenario."""
    host = _build(spec)
    sharding = host.stack.sharding
    pre = namespace_image(host.shards, sharding)
    schedule = CrashSchedule()
    arm_shards(host.shards, schedule)
    host.run(_apply(host, spec["op"]))
    disarm_shards(host.shards)
    post = namespace_image(host.shards, sharding)
    if spec.get("invisible"):
        # Re-homing migrations move rows between shards without touching
        # any path: the observable namespace must be *unchanged*.
        assert post == pre, "invisible op must not change the namespace"
    else:
        assert post != pre, "scenario op must change the namespace"
    # the clean run itself must satisfy every structural invariant
    check_tier_invariants(host.shards, sharding, images=(post,))
    return schedule.count, pre, post


def _selected(count):
    """All boundaries, or ~N per scenario under REPRO_CRASH_POINTS=N."""
    env = os.environ.get("REPRO_CRASH_POINTS")
    if not env:
        return range(count)
    bound = max(1, int(env))
    stride = max(1, -(-count // bound))
    return range(0, count, stride)


def _crash_at(spec, k):
    """Replay the scenario, crash at boundary ``k``; returns host + label."""
    host = _build(spec)
    schedule = CrashSchedule(armed=k)
    arm_shards(host.shards, schedule)
    crashed = []

    def run_op():
        try:
            yield from _apply(host, spec["op"])
        except CrashInjected as exc:
            crashed.append(exc)
        return True

    host.run(run_op())
    disarm_shards(host.shards)
    assert crashed, f"boundary {k} never fired"
    return host, crashed[0].label


def _drill(spec, k, pre, post, mode):
    host, label = _crash_at(spec, k)
    sharding = host.stack.sharding
    if mode == "all":
        host.run(recover_tier(host.shards))
    else:
        # Only the shard where the crash fired restarts; its recover()
        # drives the tier-wide repair against the survivors' live state.
        host.run(host.shards[label[1]].recover())
    check_tier_invariants(host.shards, sharding, images=(pre, post))
    host.run(_apply(host, spec.get("probe", PROBE)))
    check_tier_invariants(host.shards, sharding)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_boundary_recovers_whole_tier_crash(name):
    spec = SCENARIOS[name]
    count, pre, post = _count_boundaries(spec)
    assert count >= 2, f"{name}: expected a multi-boundary protocol"
    for k in _selected(count):
        _drill(spec, k, pre, post, mode="all")


@pytest.mark.parametrize(
    "name",
    ["rename-cross-shard", "rename-cross-shard-over-stub",
     "link-cross-shard", "mkdir-replicated"],
)
def test_single_shard_crash_recovery_repairs_the_tier(name):
    """Crashing only the shard where the boundary fired: its recover()
    alone (tier passes against live peers) must restore the invariants."""
    spec = SCENARIOS[name]
    count, pre, post = _count_boundaries(spec)
    for k in _selected(count):
        _drill(spec, k, pre, post, mode="one")


def test_boundary_enumeration_is_exhaustive_and_large():
    """The acceptance floor: the three core protocols alone cross well
    over 30 distinct crash boundaries."""
    core = ["rename-cross-shard", "rename-cross-shard-replace",
            "rename-cross-shard-over-stub", "link-cross-shard",
            "link-via-stub", "mkdir-replicated", "mkdir-replicated-4shards"]
    total = sum(_count_boundaries(SCENARIOS[name])[0] for name in core)
    assert total >= 30, total
    grand = sum(
        _count_boundaries(spec)[0] for spec in SCENARIOS.values())
    assert grand > total


def test_coordinator_crash_mid_rename_no_stranded_name():
    """The exact gap PR 2 documented: coordinator dies after the detach
    commit, before the install.  The old name must reappear (rollback) —
    never a vanished file."""
    spec = SCENARIOS["rename-cross-shard"]
    count, pre, post = _count_boundaries(spec)
    # Find the boundary right after the detach transaction commits on the
    # coordinator (shard 0): the first ("commit", 0) the op crosses.
    host, label = _crash_at(spec, 0)
    seen = [label]
    k = 0
    while label != ("commit", 0):
        k += 1
        host, label = _crash_at(spec, k)
        seen.append(label)
    host.run(recover_tier(host.shards))
    observed = check_tier_invariants(
        host.shards, host.stack.sharding, images=(pre, post))
    assert observed == pre, (
        "a crash between detach and install must roll back", seen)
    # and the file is fully usable again
    host.run(_apply(host, [("rename", "/a/f", "/a/f2"),
                           ("unlink", "/a/f2")]))


# ---------------------------------------------------------------------------
# Concurrent drills: a victim shard recovers while an op is in flight
# ---------------------------------------------------------------------------

#: scenarios whose operation stays in flight while a victim recovers.
#: Victims default to every shard of the tier — including the operation's
#: own coordinator, which turns the still-running op into a "zombie" the
#: peers must fence (EpochFenced → clean abort), and including pure
#: bystanders, whose recovery must leave the live intent alone.
CONCURRENT = [
    "rename-cross-shard",
    "rename-cross-shard-replace",
    "rename-cross-shard-over-stub",
    "link-cross-shard",
    "link-via-stub",
    "mkdir-replicated",
    "rmdir-replicated",
    "rename-replicated-dir-migrates-subtree",
    "rename-split-dir",
    "rename-rehomed-dir",
    "rename-over-rehomed-dir",
    "rename-over-forgotten-dir",
    "rename-over-split-dir",
    "rebalance-dir-population",
    "rebalance-dir-with-stub",
    "forget-rehomed-dir",
    "split-dir-population",
    "split-dir-with-stub",
    "merge-split-dir",
]


def _concurrent_pairs(spec, count):
    """Every (victim shard × selected boundary) pair of a scenario."""
    return [(victim, k)
            for victim in range(spec["shards"])
            for k in _selected(count)]


def _concurrent_drill(spec, k, victim, pre, post):
    """One pair: recover ``victim`` at boundary ``k`` of the live op."""
    host = _build(spec)
    sharding = host.stack.sharding
    recovery = []

    def fire(_label):
        recovery.append(host.sim.process(
            host.shards[victim].recover(), name=f"recover-s{victim}"))

    schedule = CrashSchedule(armed=k, action=fire)
    arm_shards(host.shards, schedule)
    outcome = []

    def run_op():
        try:
            yield from _apply(host, spec["op"])
            outcome.append("ok")
        except FsError as exc:
            outcome.append(exc.code)
        assert recovery, f"boundary {k} never fired"
        yield recovery[0]  # join: the oracle runs after both finish
        return True

    host.run(run_op())
    disarm_shards(host.shards)
    observed = check_tier_invariants(
        host.shards, sharding, images=(pre, post))
    label = (k, victim, outcome[0])
    if spec.get("invisible"):
        assert observed == pre, label
    elif outcome[0] == "ok":
        # The operation reported success: it must be fully committed
        # (possibly rolled forward by the victim's recovery).
        assert observed == post, label
    else:
        # The operation aborted (a fence answers EAGAIN): nothing of it
        # may remain visible.
        assert observed == pre, label
    host.run(_apply(host, spec.get("probe", PROBE)))
    check_tier_invariants(host.shards, sharding)


@pytest.mark.parametrize("name", CONCURRENT)
def test_single_shard_recovery_during_live_operation(name):
    """Every (crash point × in-flight-op phase) pair: a victim shard
    crashes and recovers mid-operation, the operation keeps running, and
    the tier must end consistent with the op atomically applied or not."""
    spec = SCENARIOS[name]
    count, pre, post = _count_boundaries(spec)
    for victim, k in _concurrent_pairs(spec, count):
        _concurrent_drill(spec, k, victim, pre, post)


def test_concurrent_drill_enumeration_is_large():
    """The acceptance floor: ≥ 60 distinct (victim × phase) pairs are
    drilled across the concurrent scenarios (unbounded enumeration)."""
    total = 0
    for name in CONCURRENT:
        spec = SCENARIOS[name]
        count, _pre, _post = _count_boundaries(spec)
        total += spec["shards"] * count
    assert total >= 60, total


#: migration scenarios for the reader drill, with the probes a reader
#: issues while the migration keeps running.  ``probes`` lists the
#: alternative names of each pre-existing file (one alternative for a
#: path-invisible migration, old-or-new for a rename); ``listings`` maps
#: each stable directory to the names a mid-migration readdir must list
#: exactly once each.
MIGRATION_READS = {
    "split-dir-population": dict(
        probes=[["/a/f"], ["/a/g"], ["/a/h"], ["/a/i"]],
        listings={"/a": ["f", "g", "h", "i"]},
    ),
    "merge-split-dir": dict(
        probes=[["/a/f"], ["/a/g"], ["/a/h"]],
        listings={"/a": ["f", "g", "h"]},
    ),
    "resplit-dir-multi-source": dict(
        probes=[["/a/f"], ["/a/g"], ["/a/h"], ["/a/i"]],
        listings={"/a": ["f", "g", "h", "i"]},
    ),
    "rebalance-dir-population": dict(
        probes=[["/a/f"], ["/a/g"], ["/a/h"]],
        listings={"/a": ["f", "g", "h"]},
    ),
    "rebalance-dir-with-stub": dict(
        probes=[["/a/f"], ["/a/g"], ["/b/l"]],
        listings={"/a": ["f", "g"]},
    ),
    "forget-rehomed-dir": dict(
        probes=[["/a/f"], ["/a/g"], ["/a/h"]],
        listings={"/a": ["f", "g", "h"]},
    ),
}


def _reader_drill(name, k, reads=None):
    """Spawn a reader at boundary ``k`` of the live migration: while the
    migration keeps running to completion, the reader loops stat/readdir
    probes over the pre-existing population and must never observe a
    missing entry or a double listing."""
    spec = SCENARIOS[name]
    reads = MIGRATION_READS[name] if reads is None else reads
    host = _build(spec)
    fs = host.mounts[0]
    failures, fired, done, readers = [], [], [], []

    def reader():
        while not done:
            for alternatives in reads["probes"]:
                codes = []
                for path in alternatives:
                    try:
                        yield from fs.stat(path)
                        codes.append("ok")
                    except FsError as exc:
                        codes.append(exc.code)
                if "ok" not in codes:
                    failures.append((k, alternatives, codes))
            for dir_path, names in reads["listings"].items():
                try:
                    listing = yield from fs.readdir(dir_path)
                except FsError as exc:
                    failures.append((k, dir_path, exc.code))
                    continue
                if len(listing) != len(set(listing)):
                    failures.append((k, dir_path, "duplicate", listing))
                missing = set(names) - set(listing)
                if missing:
                    failures.append((k, dir_path, "missing", missing))
        return True

    def fire(_label):
        fired.append(True)
        readers.append(host.sim.process(reader(), name="reader"))

    schedule = CrashSchedule(armed=k, action=fire)
    arm_shards(host.shards, schedule)

    def run_op():
        yield from _apply(host, spec["op"])
        done.append(True)
        if readers:
            yield readers[0]  # join: let the reader finish its pass
        return True

    host.run(run_op())
    disarm_shards(host.shards)
    assert fired, f"boundary {k} never fired"
    assert not failures, failures
    check_tier_invariants(host.shards, host.stack.sharding)


@pytest.mark.parametrize("name", sorted(MIGRATION_READS))
def test_readers_never_lose_an_entry_mid_migration(name):
    """The headline window, drilled at every boundary of every migration
    protocol: a concurrent reader must never see a transient ENOENT for
    a pre-existing entry, and a mid-migration readdir lists every entry
    exactly once."""
    spec = SCENARIOS[name]
    count, _pre, _post = _count_boundaries(spec)
    assert count >= 2
    for k in _selected(count):
        _reader_drill(name, k)


#: rename scenarios for the old-XOR-new reader drill, one per flavor:
#: same-shard replicated dir, cross-shard file, a subtree renamed under
#: another owner's parent and pinned (serial and parallel broadcasts),
#: and a split or re-homed directory re-keying its routing row.  Each
#: probe lists a name's old and new alternatives — a concurrent walk
#: must resolve at least one at every instant (old, new, or both during
#: the staged window — never neither).
RENAME_READS = {
    "rename-replicated-dir-same-parent": dict(
        probes=[["/a/d", "/a/e"], ["/a/d/f", "/a/e/f"]],
        listings={},
    ),
    "rename-cross-shard": dict(
        probes=[["/a/f", "/b/g"]],
        listings={},
    ),
    "rename-replicated-dir-migrates-subtree": dict(
        probes=[["/a/d", "/b/d"], ["/a/d/f", "/b/d/f"],
                ["/a/d/g", "/b/d/g"]],
        listings={},
    ),
    "rename-replicated-dir-parallel": dict(
        probes=[["/a/d", "/b/d"], ["/a/d/f", "/b/d/f"],
                ["/a/d/g", "/b/d/g"]],
        listings={},
    ),
    "rename-split-dir": dict(
        probes=[["/a", "/c"], ["/a/f", "/c/f"], ["/a/g", "/c/g"],
                ["/a/h", "/c/h"], ["/a/i", "/c/i"]],
        listings={},
    ),
    "rename-rehomed-dir": dict(
        probes=[["/a", "/c"], ["/a/f", "/c/f"], ["/a/g", "/c/g"],
                ["/a/h", "/c/h"]],
        listings={},
    ),
}


@pytest.mark.parametrize("name", sorted(RENAME_READS))
def test_walkers_resolve_old_or_new_at_every_rename_boundary(name):
    """The skeleton-broadcast divergence window, closed: a concurrent
    walk during a rename of any flavor resolves the old or the new name
    at every enumerated boundary — never ENOENT for both."""
    spec = SCENARIOS[name]
    count, _pre, _post = _count_boundaries(spec)
    assert count >= 2
    for k in _selected(count):
        _reader_drill(name, k, reads=RENAME_READS[name])


def test_renamed_subtree_entries_servable_the_moment_a_replica_flips():
    """The subtree-rename routing window, checked at *every* boundary
    in one pass: the instant any shard's skeleton replica resolves the
    renamed directory under its new name, the shard its entries route
    to under that new name must already hold them.  The entries never
    move, so this holds only because the shared routing map routes the
    new name as the old one before any replica serves it — and the
    rename's pin is written with the commit.  (Client-visible
    old-name/new-name flicker *between* replicas is closed by the staged
    flip — ``test_walkers_resolve_old_or_new_at_every_rename_boundary``
    drills it directly.)  Pure table reads — no simulated cost, no
    schedule perturbation."""
    spec = SCENARIOS["rename-replicated-dir-migrates-subtree"]
    host = _build(spec)
    sharding = host.stack.sharding
    n = len(host.shards)
    names = ("f", "g")
    failures = []

    def resolve_dir(shard, path):
        """vino of ``path`` on this shard's replica, or None."""
        dentries = {(d["parent"], d["name"]): d
                    for d in shard.db.table("dentries").all()}
        vino = shard.root_vino
        for part in path.strip("/").split("/"):
            dentry = dentries.get((vino, part))
            if dentry is None:
                return None
            vino = dentry["vino"]
        return vino

    class Watch:
        count = 0

        def boundary(self, label):
            Watch.count += 1
            for shard in host.shards:
                dvino = resolve_dir(shard, "/b/d")
                if dvino is None:
                    continue
                for name in names:
                    owner = host.shards[sharding.shard_of_entry(
                        "/b/d", name, n)]
                    held = any(
                        d["parent"] == dvino and d["name"] == name
                        for d in owner.db.table("dentries").all())
                    if not held:
                        failures.append(
                            (Watch.count, label, shard.shard_id, name))

    arm_shards(host.shards, Watch())
    host.run(_apply(host, spec["op"]))
    disarm_shards(host.shards)
    assert Watch.count >= 2
    assert not failures, failures
    check_tier_invariants(host.shards, sharding)


#: racer scenarios: client mutations started at a boundary of the live
#: operation.  ``moved`` maps the operation's old prefix to its new one
#: (the identity for a path-invisible routing change).  Each step runs
#: once the previous one returned; a step answering ENOENT is retried
#: once under the new prefix (the name moved under it).
_RENAMED_SUBTREE = dict(
    steps=[("chmod", "/a/d/f"), ("mkdir", "/a/d/new"),
           ("create", "/a/d/new/x"), ("create", "/b/d/new/y")],
    moved=("/a/d", "/b/d"),
)
_CHMOD_A_F = dict(steps=[("chmod", "/a/f")], moved=("/a", "/a"))
RACES = {
    "rename-replicated-dir-migrates-subtree": _RENAMED_SUBTREE,
    "rename-replicated-dir-parallel": _RENAMED_SUBTREE,
    "rebalance-dir-population": _CHMOD_A_F,
    "forget-rehomed-dir": _CHMOD_A_F,
    "split-dir-population": _CHMOD_A_F,
    "merge-split-dir": _CHMOD_A_F,
    "resplit-dir-multi-source": _CHMOD_A_F,
}
#: routing changes that still lose a racing setattr: a chmod that lands
#: on a source between its copy and its purge is purged with the stale
#: copy, because leaf attribute walks carry no ownership re-check (the
#: "Known simplifications" of ``repro.core.shard.rebalance``).
LOSES_SETATTR = {
    "rebalance-dir-population", "forget-rehomed-dir",
    "split-dir-population", "merge-split-dir", "resplit-dir-multi-source",
}


def _racer_drill(name, k):
    """Spawn a racer at boundary ``k`` of the live operation; once both
    finished, every step that returned success must be visible at its
    final name, and the tier must pass its invariants."""
    spec, race = SCENARIOS[name], RACES[name]
    old, new = race["moved"]
    host = _build(spec)
    fs = host.mounts[0]
    landed, racers = [], []

    def racer():
        for op, path in race["steps"]:
            final = path.replace(old, new, 1)
            for attempt in dict.fromkeys([path, final]):  # retry if moved
                try:
                    yield from _apply(host, [(op, attempt)])
                except FsError as exc:
                    if exc.code == "ENOENT":
                        continue
                    break
                landed.append((op, final))
                break
        return True

    def fire(_label):
        racers.append(host.sim.process(racer(), name="racer"))

    schedule = CrashSchedule(armed=k, action=fire)
    arm_shards(host.shards, schedule)

    def run_op():
        yield from _apply(host, spec["op"])
        if racers:
            yield racers[0]  # join: the oracle runs after both finish
        return True

    host.run(run_op())
    disarm_shards(host.shards)
    assert racers, f"boundary {k} never fired"

    def lost_steps():
        lost = []
        for op, path in landed:
            try:
                attr = yield from fs.stat(path)
            except FsError as exc:
                lost.append((op, path, exc.code))
                continue
            if op == "chmod" and attr.mode != 0o700:
                lost.append((op, path, oct(attr.mode)))
        return lost

    lost = host.run(lost_steps())
    assert not lost, (k, lost)
    check_tier_invariants(host.shards, host.stack.sharding)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="setattr vs purge: a racing chmod is lost"))
    if name in LOSES_SETATTR else name
    for name in RACES
])
def test_mutations_racing_an_operation_are_never_lost(name):
    """At every boundary of a directory rename, a racer's chmod of a
    moved file, mkdir under the moving directory and creates inside that
    new directory (through its old and its new name) are all visible
    under the new name once the rename returns: a rename moves names,
    never entries, so no entry can be stranded or reverted by a copy.
    The routing changes still move entries, and lose a racing chmod
    (pinned as expected failures until every source is sealed before
    the flip)."""
    spec = SCENARIOS[name]
    count, _pre, _post = _count_boundaries(spec)
    for k in _selected(count):
        _racer_drill(name, k)


def test_fenced_zombie_coordinator_aborts_cleanly():
    """Pin the fence semantics end-to-end: the coordinator's own shard
    recovers right after the cross-shard rename's detach commit; the
    still-running rename must be fenced — never half-applied — and a
    fresh retry of the same rename must succeed under the new epoch."""
    spec = SCENARIOS["rename-cross-shard"]
    count, pre, post = _count_boundaries(spec)
    host = _build(spec)
    # Boundary 0 is the coordinator's detach commit ("commit", 0): the
    # intent is durable, nothing has reached the destination yet.
    recovery = []

    def fire(label):
        assert label == ("commit", 0), label
        recovery.append(host.sim.process(host.shards[0].recover()))

    schedule = CrashSchedule(armed=0, action=fire)
    arm_shards(host.shards, schedule)
    outcome = []

    def run_op():
        try:
            yield from _apply(host, spec["op"])
            outcome.append("ok")
        except FsError as exc:
            outcome.append(exc.code)
        yield recovery[0]
        return True

    host.run(run_op())
    disarm_shards(host.shards)
    observed = check_tier_invariants(
        host.shards, host.stack.sharding, images=(pre, post))
    if outcome[0] != "ok":
        assert outcome[0] == "EAGAIN"
        assert observed == pre
    # Either way the rename is retriable to completion afterwards.
    if observed == pre:
        host.run(_apply(host, spec["op"]))
        assert namespace_image(host.shards, host.stack.sharding) == post
    check_tier_invariants(host.shards, host.stack.sharding, images=(post,))


def test_live_ops_flow_across_single_shard_recovery():
    """Sixteen clients ping-pong cross-shard renames while shard 1
    crashes and recovers mid-stream.  Requests that land in the rebuild
    window wait at the admission gate; the completion pass gathers the
    open intents of the in-flight renames and must spare every one of
    them (their coordinators are alive).  Every op must succeed and the
    tier must end fully consistent."""
    host = ShardedCofs(n_clients=1, shards=2, sharding=_split(2))
    files = 16
    host.run(_apply(host, [("mkdir", "/a"), ("mkdir", "/b")] +
                    [("create", f"/a/f{i}") for i in range(files)]))
    outcomes = []

    def one(i):
        fs = host.mounts[0]
        try:
            for _round in range(12):
                yield from fs.rename(f"/a/f{i}", f"/b/g{i}")
                yield from fs.rename(f"/b/g{i}", f"/a/f{i}")
            outcomes.append("ok")
        except FsError as exc:
            outcomes.append(exc.code)
        return True

    def driver():
        procs = [host.sim.process(one(i)) for i in range(files)]
        recovery = host.sim.process(host.shards[1].recover())
        yield host.sim.all_of(procs + [recovery])
        return True

    host.run(driver())
    assert outcomes == ["ok"] * files
    check_tier_invariants(host.shards, host.stack.sharding)
    host.run(_apply(host, [("unlink", f"/a/f{i}") for i in range(files)]))
    check_tier_invariants(host.shards, host.stack.sharding)


def test_reentrant_recoveries_of_one_shard_serialize():
    """Two overlapping recoveries of the same shard must serialize on
    the admission gate — neither may open the other's gate early — and
    leave the tier consistent with the epoch bumped twice."""
    host = ShardedCofs(n_clients=1, shards=2, sharding=_split(2))
    host.run(_apply(host, [("mkdir", "/a"), ("mkdir", "/b"),
                           ("create", "/a/f")]))

    def driver():
        first = host.sim.process(host.shards[1].recover())
        second = host.sim.process(host.shards[1].recover())
        yield host.sim.all_of([first, second])
        return True

    host.run(driver())
    assert host.shards[1].epoch == 2
    assert host.shards[1]._admission is None
    check_tier_invariants(host.shards, host.stack.sharding)
    host.run(_apply(host, PROBE))
    check_tier_invariants(host.shards, host.stack.sharding)


def test_completion_pass_spares_a_live_coordinators_intent():
    """The exact hazard the old quiesced-tier caveat documented: a peer
    recovers while this shard's coordinator has an intent open.  The
    completion pass must leave the record alone (the coordinator is
    alive and will finish it), never abort it out from under the op."""
    host = ShardedCofs(n_clients=1, shards=2, sharding=_split(2))
    host.run(_apply(host, [("mkdir", "/a"), ("mkdir", "/b")]))
    coord = host.shards[0]
    tid = coord._new_tid()  # registers the tid as live (an op is driving)

    def plant(txn):
        return coord._txn_intent(txn, coord.epoch, {
            "id": tid, "role": "coord", "op": "rename_post",
            "new": "/b/x", "now": 0.0, "pending": [],
            "replaced_symlink": False,
        })

    host.run(coord.dbsvc.execute(plant))
    host.run(host.shards[1].recover())
    survivors = [row["id"] for row in coord.db.table("intents").all()]
    assert survivors == [tid], survivors
    # ... and the op finishes on its own afterwards.
    coord._done_tids(tid)
    host.run(coord.intent_forget(tid))
    check_tier_invariants(host.shards, host.stack.sharding)


def test_completion_pass_reclaims_a_dead_coordinators_intent():
    """Same shape, but no live process drives the tid (its coroutine was
    killed): the peer's recovery must resolve the record — the behavior
    the old quiesced-tier pass applied to everything."""
    host = ShardedCofs(n_clients=1, shards=2, sharding=_split(2))
    host.run(_apply(host, [("mkdir", "/a"), ("mkdir", "/b")]))
    coord = host.shards[0]
    tid = coord._new_tid()

    def plant(txn):
        return coord._txn_intent(txn, coord.epoch, {
            "id": tid, "role": "coord", "op": "rename_post",
            "new": "/b/x", "now": 0.0, "pending": [],
            "replaced_symlink": False,
        })

    host.run(coord.dbsvc.execute(plant))
    coord._done_tids(tid)  # the driving process died without cleanup
    host.run(host.shards[1].recover())
    assert not coord.db.table("intents").all()
    check_tier_invariants(host.shards, host.stack.sharding)


def test_zombie_coordinator_is_fenced_and_aborts_cleanly():
    """A coordinated step that captured its epoch before this shard's
    recovery (a zombie) must be refused at its very first stamped
    transaction and leave no partial state."""
    spec = SCENARIOS["rename-cross-shard"]
    host = _build(spec)
    sharding = host.stack.sharding
    pre = namespace_image(host.shards, sharding)
    stale = host.shards[0].epoch
    host.run(host.shards[0].recover())  # bumps the epoch, fences the tier
    assert host.shards[0].epoch == stale + 1
    outcome = []

    def zombie():
        try:
            yield from host.shards[0]._rename_cross_shard(
                "/a/f", "/b/g", 0, None, 1, host.sim.now, 0, epoch=stale)
        except FsError as exc:
            outcome.append(exc.code)
        return True

    host.run(zombie())
    assert outcome == ["EAGAIN"]
    observed = check_tier_invariants(host.shards, sharding, images=(pre,))
    assert observed == pre
    # the fenced tid was deregistered (no ghost liveness entries) ...
    assert not host.shards[0]._live_tids
    # ... and a fresh (current-epoch) retry of the same rename succeeds.
    host.run(_apply(host, spec["op"]))
    check_tier_invariants(host.shards, sharding)
    assert not host.shards[0]._live_tids


def test_peers_refuse_stale_epoch_rpcs():
    """The participant-side fence: any coordination RPC stamped with an
    epoch below the coordinator's fence answers EAGAIN and writes
    nothing."""
    host = ShardedCofs(n_clients=1, shards=2, sharding=_split(2))
    host.run(_apply(host, [("mkdir", "/a"), ("mkdir", "/b"),
                           ("create", "/a/f")]))
    stale = host.shards[1].epoch
    host.run(host.shards[1].recover())
    image = namespace_image(host.shards, host.stack.sharding)
    outcomes = []

    def stale_rpcs():
        for call in (
            host.shards[0].mirror_rmdir("/a", host.sim.now, (1, stale)),
            host.shards[0].unlink_vino(999, host.sim.now, None, (1, stale)),
            host.shards[0].rename_install(
                "/a/z", None, {"vino": 7, "home": 1}, host.sim.now,
                "s1.99", (1, stale)),
            host.shards[0].mirror_route("/a", 1, [1], host.sim.now,
                                        (1, stale)),
        ):
            try:
                yield from call
                outcomes.append("ok")
            except FsError as exc:
                outcomes.append(exc.code)
        return True

    host.run(stale_rpcs())
    assert outcomes == ["EAGAIN"] * 4
    assert namespace_image(host.shards, host.stack.sharding) == image
    check_tier_invariants(host.shards, host.stack.sharding, images=(image,))


def test_double_recovery_crash_during_completion_pass():
    """Recovery itself can crash: arm a fresh schedule during the tier
    recovery, let it die mid-completion, recover again — invariants must
    hold at every recovery boundary too."""
    spec = SCENARIOS["rename-cross-shard-over-stub"]
    count, pre, post = _count_boundaries(spec)
    # Crash mid-operation somewhere in the middle of the protocol.
    mid = count // 2
    # Counting pass for the recovery itself.
    host, _label = _crash_at(spec, mid)
    rec_schedule = CrashSchedule()
    arm_shards(host.shards, rec_schedule)
    host.run(recover_tier(host.shards))
    disarm_shards(host.shards)
    rec_count = rec_schedule.count
    assert rec_count >= 1
    for rk in _selected(rec_count):
        host, _label = _crash_at(spec, mid)
        schedule = CrashSchedule(armed=rk)
        arm_shards(host.shards, schedule)

        def recover_once():
            try:
                yield from recover_tier(host.shards)
            except CrashInjected:
                pass
            return True

        host.run(recover_once())
        disarm_shards(host.shards)
        # second, undisturbed recovery
        host.run(recover_tier(host.shards))
        check_tier_invariants(
            host.shards, host.stack.sharding, images=(pre, post))
        host.run(_apply(host, PROBE))

# ---------------------------------------------------------------------------
# Failover drills: kill a group member at every boundary of a live op
# ---------------------------------------------------------------------------

#: operations drilled against a 2×2 replicated tier.  ``create-file``
#: is the pure log-shipping path (no mirror broadcast); the mkdir rides
#: a mirror broadcast *and* ships on both groups, so its boundary set
#: covers "primary dies before/after the ship", "backup dies
#: mid-catch-up", and every coordination gap in between.
GROUP_SCENARIOS = {
    "create-file": dict(
        shards=2,
        setup=[("mkdir", "/a"), ("mkdir", "/b")],
        op=[("create", "/a/f")],
    ),
    "mkdir-replicated": dict(
        shards=2,
        setup=[("mkdir", "/a")],
        op=[("mkdir", "/a/sub")],
    ),
}


def _build_replicated(spec):
    host = ShardedCofs(
        n_clients=1, shards=spec["shards"], replicas=2,
        sharding=_split(spec["shards"]))
    host.run(_apply(host, spec["setup"]))
    return host


def _count_group_boundaries(spec):
    """Counting pass on the replicated tier: every member's durable
    commits (backup applies included) and every RPC — peer, mirror, and
    intra-group ship — is a boundary."""
    host = _build_replicated(spec)
    pre = namespace_image(host.primaries, host.stack.sharding)
    schedule = CrashSchedule()
    arm_groups(host.groups, schedule)
    host.run(_apply(host, spec["op"]))
    disarm_groups(host.groups)
    post = namespace_image(host.primaries, host.stack.sharding)
    assert post != pre
    check_group_invariants(host.groups)
    return schedule.count, pre, post


def _member_kill_drill(spec, k, victim, pre, post):
    """Kill group 0's ``victim`` at boundary ``k`` of the live op.

    The operation keeps running (a kill refuses *new* dispatches; the
    in-flight handler is the zombie window).  The router's retry path is
    expected to absorb a dead primary — drive the promotion, re-target,
    and leave the client with a clean outcome.  Afterwards the dead
    member is revived and rejoined, and the whole tier must satisfy the
    group and namespace invariants.
    """
    host = _build_replicated(spec)
    group = host.groups[0]
    dead = []

    def fire(_label):
        if victim == "primary":
            dead.append(kill_primary(group))
        else:
            dead.append(kill_backup(group))

    schedule = CrashSchedule(armed=k, action=fire)
    arm_groups(host.groups, schedule)
    outcome = []

    def run_op():
        try:
            yield from _apply(host, spec["op"])
            outcome.append("ok")
        except FsError as exc:
            outcome.append(exc.code)
        return True

    host.run(run_op())
    disarm_groups(host.groups)
    assert dead, f"boundary {k} never fired"
    label = (k, victim, outcome[0])

    # A dead backup must be invisible to the client (quorum shrinks to
    # the primary alone); a dead primary is absorbed by the transparent
    # failover the router drives on retry.
    assert outcome[0] == "ok", label
    if group.primary.down:
        # The op never touched group 0 again after the kill: promote now
        # so the oracle (and the probe) run against a serving tier.
        host.run(group.ensure_failover())
    observed = check_tier_invariants(
        host.primaries, host.stack.sharding, images=(pre, post))
    assert observed == post, label

    # Revive the victim as a zombie, rejoin it, and demand full equality.
    revive_member(dead[0])
    assert dead[0] is not group.primary
    host.run(group.rejoin(dead[0]))
    host.run(_apply(host, PROBE))
    check_tier_invariants(host.primaries, host.stack.sharding)
    check_group_invariants(host.groups)


@pytest.mark.parametrize("victim", ["primary", "backup"])
@pytest.mark.parametrize("name", sorted(GROUP_SCENARIOS))
def test_member_killed_at_every_boundary_of_a_live_op(name, victim):
    spec = GROUP_SCENARIOS[name]
    count, pre, post = _count_group_boundaries(spec)
    assert count >= 4, f"{name}: expected a multi-boundary protocol"
    for k in _selected(count):
        _member_kill_drill(spec, k, victim, pre, post)


def test_trace_invariants_hold_across_member_kill_drills():
    """A bounded subset of the member-kill drills, run traced.

    Each drill's full history — the op's spans, the failover the router
    drives mid-op, the promotion, the rejoin — must satisfy the trace
    invariants (quorum-before-ack, promotion ordering, no follower-served
    mutations).  Three boundaries per (scenario × victim) keep the traced
    sweep cheap; the exhaustive untraced sweep lives above.
    """
    from repro import obs

    for name in sorted(GROUP_SCENARIOS):
        spec = GROUP_SCENARIOS[name]
        count, pre, post = _count_group_boundaries(spec)
        picks = sorted({0, count // 2, count - 1})
        for victim in ("primary", "backup"):
            for k in picks:
                tracer, _metrics = obs.enable()
                try:
                    _member_kill_drill(spec, k, victim, pre, post)
                    obs.TraceChecker(tracer).check_all()
                finally:
                    obs.disable()


def test_failover_boundary_enumeration_is_large():
    """Acceptance floor: the replicated drills cover ≥ 20 distinct
    (victim × boundary) pairs (unbounded enumeration)."""
    total = 0
    for spec in GROUP_SCENARIOS.values():
        count, _pre, _post = _count_group_boundaries(spec)
        total += 2 * count  # primary and backup victims
    assert total >= 20, total
