"""Rename visibility: the seq-guarded skeleton flip, pinned edge by edge.

The crash drills in ``test_crash_points.py`` prove the two-phase flip
survives failures; these tests pin the *protocol rules* directly —
newest-seq-wins retires (a stale replay must never un-rename), refused
stale stages (a redo must never resurrect a dead alias), back-to-back
and concurrent renames of the same object, and the split-directory
owner clock that keeps a partitioned directory's times on one ordered
history instead of a per-shard free-for-all.
"""

import pytest

from repro.core.faults import check_tier_invariants
from repro.core.shard import HashDirSharding, SubtreeSharding
from repro.core.shard.routing import entry_slot
from repro.pfs.errors import FsError
from repro.pfs.types import FILE
from tests.core.conftest import ShardedCofs


def _codes(host, paths):
    """stat every path through the mount: "ok" or the errno."""
    fs = host.mounts[0]

    def body():
        out = {}
        for path in paths:
            try:
                yield from fs.stat(path)
                out[path] = "ok"
            except FsError as exc:
                out[path] = exc.code
        return out

    return host.run(body())


def _inode(host, shard, vino):
    rows = host.shards[shard].db.table("inodes").match(vino=vino)
    assert len(rows) == 1, f"vino {vino} not unique on shard {shard}"
    return rows[0]


# ---------------------------------------------------------------------------
# back-to-back renames: no stale alias may outlive its flip
# ---------------------------------------------------------------------------

def test_back_to_back_renames_leave_no_stale_alias():
    """A rename chain retires every intermediate name and alias.

    The regression this pins: an un-guarded retire racing a later flip
    of the same directory could leak the earlier flip's staged alias —
    a ghost dentry serving a dead name forever.  The tier oracle now
    asserts no ``staged`` dentry survives a quiesced tier.
    """
    host = ShardedCofs(n_clients=1, shards=3, sharding=HashDirSharding())
    fs = host.mounts[0]

    def chain():
        yield from fs.mkdir("/a")
        fh = yield from fs.create("/a/f")
        yield from fs.close(fh)
        yield from fs.rename("/a", "/b")
        yield from fs.rename("/b", "/c")
        yield from fs.rename("/c", "/d")

    host.run(chain())
    codes = _codes(host, ["/a", "/b", "/c", "/d", "/d/f"])
    assert codes == {"/a": "ENOENT", "/b": "ENOENT", "/c": "ENOENT",
                     "/d": "ok", "/d/f": "ok"}
    check_tier_invariants(host.shards, host.stack.sharding)


def test_rename_cycle_returns_to_the_original_name():
    """a -> b -> a: the second flip's seq outranks the first's retire."""
    host = ShardedCofs(n_clients=1, shards=2, sharding=HashDirSharding())
    fs = host.mounts[0]

    def cycle():
        yield from fs.mkdir("/a")
        fh = yield from fs.create("/a/f")
        yield from fs.close(fh)
        yield from fs.rename("/a", "/b")
        yield from fs.rename("/b", "/a")

    host.run(cycle())
    codes = _codes(host, ["/a", "/a/f", "/b"])
    assert codes == {"/a": "ok", "/a/f": "ok", "/b": "ENOENT"}
    check_tier_invariants(host.shards, host.stack.sharding)


def test_concurrent_renames_of_one_source_admit_exactly_one_winner():
    """Two clients rename the same directory; one wins, one ENOENTs."""
    host = ShardedCofs(n_clients=2, shards=2, sharding=HashDirSharding())
    host.run(host.mounts[0].mkdir("/d"))
    outcomes = {}

    def racer(idx, new):
        fs = host.mounts[idx]

        def body():
            try:
                yield from fs.rename("/d", new)
                outcomes[new] = "ok"
            except FsError as exc:
                outcomes[new] = exc.code

        return body()

    host.run_all([racer(0, "/x"), racer(1, "/y")])
    assert sorted(outcomes.values()) == ["ENOENT", "ok"]
    winner = next(new for new, code in outcomes.items() if code == "ok")
    loser = next(new for new, code in outcomes.items() if code != "ok")
    codes = _codes(host, ["/d", winner, loser])
    assert codes == {"/d": "ENOENT", winner: "ok", loser: "ENOENT"}
    check_tier_invariants(host.shards, host.stack.sharding)


# ---------------------------------------------------------------------------
# stale replays: newest-seq-wins on both phases
# ---------------------------------------------------------------------------

def test_stale_stage_replay_is_refused():
    """A stage at or below the retire high-water mark lands nothing."""
    host = ShardedCofs(n_clients=1, shards=2, sharding=HashDirSharding())
    fs = host.mounts[0]

    def setup():
        yield from fs.mkdir("/a")
        vino = (yield from fs.stat("/a")).ino
        yield from fs.rename("/a", "/b")
        return vino

    vino = host.run(setup())
    rseq = _inode(host, 1, vino).get("rseq", 0)
    assert rseq > 0, "the flip must have advanced the retire high-water mark"

    # A redo replaying the committed flip's stage (same seq) — or any
    # older one — must refuse: resurrected aliases are forever.
    for seq in (rseq, rseq - 1):
        landed = host.run(
            host.shards[1].mirror_rename_stage("/b", "/zombie", seq, vino))
        assert landed is False
    codes = _codes(host, ["/a", "/b", "/zombie"])
    assert codes == {"/a": "ENOENT", "/b": "ok", "/zombie": "ENOENT"}
    check_tier_invariants(host.shards, host.stack.sharding)


def test_stale_retire_replay_does_not_unrename():
    """A late retire of an earlier rename cannot undo a newer one.

    rename a->b (seq1) then b->c (seq2 > seq1); a crashed coordinator's
    redo re-broadcasts the *first* retire after the second committed.
    The replica's rseq high-water mark (= seq2) outranks seq1: the
    replay is a no-op, /c survives, /b stays dead.
    """
    host = ShardedCofs(n_clients=1, shards=2, sharding=HashDirSharding())
    fs = host.mounts[0]

    def setup():
        yield from fs.mkdir("/a")
        vino = (yield from fs.stat("/a")).ino
        yield from fs.rename("/a", "/b")
        return vino

    vino = host.run(setup())
    seq1 = _inode(host, 1, vino).get("rseq", 0)
    assert seq1 > 0
    host.run(fs.rename("/b", "/c"))
    seq2 = _inode(host, 1, vino).get("rseq", 0)
    assert seq2 > seq1

    host.run(host.shards[1].mirror_rename(
        "/a", "/b", host.sim.now, seq1, vino, []))
    codes = _codes(host, ["/a", "/b", "/c"])
    assert codes == {"/a": "ENOENT", "/b": "ENOENT", "/c": "ok"}
    assert _inode(host, 1, vino).get("rseq", 0) == seq2
    check_tier_invariants(host.shards, host.stack.sharding)


# ---------------------------------------------------------------------------
# split-directory times: one ordered clock at the contents owner
# ---------------------------------------------------------------------------

def test_split_dir_times_follow_the_owner_clock():
    """A split directory's mtime is the owner's ordered history.

    Entry mutations land on whichever partition shard the name hashes
    to; each used to bump only its local replica of the directory
    inode, invisible to stat (which the owner serves).  The fix routes
    every bump through the owner's single clock — so (1) a mutation on
    a *non-owner* partition shard is visible in stat, and (2) a later
    mutation with a smaller timestamp *wins* (arrival order at the
    owner), where a max-merge of per-shard copies would keep the
    larger, disagreeing with the ordered history.
    """
    host = ShardedCofs(n_clients=1, shards=2,
                       sharding=SubtreeSharding({"/a": 0, "/b": 1}))
    fs = host.mounts[0]

    def setup():
        yield from fs.mkdir("/a")
        for name in ("seed0", "seed1"):
            fh = yield from fs.create(f"/a/{name}")
            yield from fs.close(fh)

    host.run(setup())
    assert host.run(host.shards[0].split_dir("/a", [0, 1], host.sim.now))

    names = [f"n{i}" for i in range(32)]
    remote = next(n for n in names if entry_slot(n, 2) == 1)
    local = next(n for n in names if entry_slot(n, 2) == 0)

    # (1) create on the non-owner partition shard, t=100: stat sees it.
    host.run(host.shards[1].create_node(
        f"/a/{remote}", FILE, 0o644, 0, 0, "n0", 1, 100))
    attr = host.run(fs.stat("/a"))
    assert (attr.mtime, attr.ctime) == (100, 100)

    # (2) owner-side create stamped *earlier*, t=60: last-writer-in-
    # arrival-order wins.  A max-merge would still report 100.
    host.run(host.shards[0].create_node(
        f"/a/{local}", FILE, 0o644, 0, 0, "n0", 1, 60))
    attr = host.run(fs.stat("/a"))
    assert (attr.mtime, attr.ctime) == (60, 60)

    # (3) unlink rides the same owner clock.
    host.run(host.shards[1].unlink(f"/a/{remote}", 200))
    attr = host.run(fs.stat("/a"))
    assert (attr.mtime, attr.ctime) == (200, 200)

    check_tier_invariants(host.shards, host.stack.sharding)
