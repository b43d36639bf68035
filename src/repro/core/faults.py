"""Fault injection and tier-wide invariants for the sharded metadata tier.

Crash-consistency is proven, not argued: every cross-shard mutation is a
sequence of durable journal commits and shard-to-shard RPCs, and a crash
can land in any gap between them.  :class:`CrashSchedule` makes those gaps
enumerable — each durable commit and each RPC send/receive is a *boundary*;
a counting pass records how many boundaries an operation crosses, and a
replay pass re-runs the operation with the schedule armed at each boundary
in turn, killing the in-flight operation right there (the strongest model:
coordinator and participants all die, so recovery must restore consistency
from durable state alone, with no live compensation).

:func:`check_tier_invariants` is the single oracle every crash drill runs
after tier-wide recovery: no dangling dentries, no stranded inodes,
consistent link counts, identical skeleton replicas, reconciled placement
counters, no leftover coordination records — and the observable namespace
equal to either the pre-operation or the post-operation image.
"""

from repro.pfs.types import DIRECTORY, FILE, SYMLINK, split


class CrashInjected(Exception):
    """Control flow: the armed crash boundary fired; the op dies here."""

    def __init__(self, index, label):
        super().__init__(index, label)
        self.index = index
        self.label = label


class CrashSchedule:
    """Counts RPC/journal boundaries; optionally crashes at one of them.

    With ``armed is None`` the schedule only counts (and records a trace of
    labels); arming it at index *k* raises :class:`CrashInjected` the *k*-th
    time a boundary is crossed.  With an ``action``, the armed boundary
    calls ``action(label)`` instead of raising — the in-flight operation
    *keeps running* while the action (typically: spawn a concurrent
    single-shard recovery) unfolds beside it.  That is the concurrent
    drill mode: crash-the-op is the strongest model for whole-tier power
    loss, recover-beside-the-op is the model for one shard restarting
    inside a live tier.
    """

    def __init__(self, armed=None, action=None):
        self.armed = armed
        self.action = action
        self.count = 0
        self.trace = []

    def boundary(self, label):
        index = self.count
        self.count += 1
        self.trace.append(label)
        if self.armed is not None and index == self.armed:
            if self.action is not None:
                self.action(label)
            else:
                raise CrashInjected(index, label)


def arm_shards(shards, schedule):
    """Attach ``schedule`` to every shard: peer RPCs and durable commits
    become crash boundaries (see :meth:`ShardMetadataService._peer` and
    :meth:`repro.db.service.DbService.execute`)."""
    for shard in shards:
        shard.faults = schedule
        shard.dbsvc.fault_hook = (
            lambda sid=shard.shard_id: schedule.boundary(("commit", sid))
        )


def disarm_shards(shards):
    for shard in shards:
        shard.faults = None
        shard.dbsvc.fault_hook = None


def arm_force_boundaries(shards, schedule):
    """Attach ``schedule`` to every shard's *force* boundaries.

    Only meaningful with asynchronous group commit: the batcher calls
    the hook right after each force (and, on replicated tiers, its
    quorum ship) completes, labelled ``("force", sid)``.  Crashing there
    exercises the bounded-loss model — everything below that force's
    head is durable, every later record is the journal tail a crash
    loses.  Force boundaries are strictly coarser than the per-commit
    boundaries :func:`arm_shards` enumerates; the two can be armed
    together (distinct hooks, one shared schedule counter).
    """
    for shard in shards:
        shard.dbsvc.force_hook = (
            lambda sid=shard.shard_id: schedule.boundary(("force", sid))
        )


def disarm_force_boundaries(shards):
    for shard in shards:
        shard.dbsvc.force_hook = None


def arm_groups(groups, schedule):
    """Attach ``schedule`` to every member of every group.

    Backups get boundaries too: their ``repl_apply`` commits are labelled
    ``("commit", sid)`` like any durable commit, and the primary's ship
    RPCs trace as ``("send"/"recv", sid, "m<i>", "repl_apply")`` — so
    the crash-point harness enumerates "primary dies before/after the
    ship" and "backup dies mid-catch-up" for free.
    """
    arm_shards([m for g in groups for m in g.members], schedule)


def disarm_groups(groups):
    disarm_shards([m for g in groups for m in g.members])


# ---------------------------------------------------------------------------
# Member kill / revive hooks (primary/backup groups)
# ---------------------------------------------------------------------------

def kill_member(member):
    """Fail-stop a group member: every *new* dispatch is refused with
    :class:`~repro.core.shard.routing.MemberDown`.

    Deliberately does not cancel in-flight handlers — they keep running
    to completion, which is exactly the zombie window epoch fencing
    exists for.  (A kill is therefore slightly *optimistic* about how
    much work a dying node finishes; the crash-point drills cover the
    pessimistic die-mid-operation model with :class:`CrashInjected`.)
    A network partition is modelled identically from the tier's point of
    view: an unreachable member and a dead member refuse the same RPCs,
    and a partition that heals is ``revive_member`` + group
    :meth:`~repro.core.shard.replication.ReplicatedShard.rejoin`.
    """
    member.down = True


def kill_primary(group):
    """Kill the group's current primary; returns it (for later revival)."""
    primary = group.primary
    kill_member(primary)
    return primary


def kill_backup(group, index=None):
    """Kill a live backup (the first one, or the member at ``index``)."""
    if index is not None:
        backup = group.members[index]
    else:
        live = group.live_backups()
        assert live, f"group s{group.shard_id} has no live backup to kill"
        backup = live[0]
    kill_member(backup)
    return backup


def revive_member(member):
    """Bring a killed member back up — as a *zombie*: its state is
    whatever it held at the kill (possibly a divergent, never-acked
    journal suffix).  It serves nothing useful until the group
    :meth:`~repro.core.shard.replication.ReplicatedShard.rejoin`\\ s it;
    until then every stamped action it attempts is epoch-fenced.  Split
    from ``rejoin`` so tests can probe the zombie window explicitly.
    """
    member.down = False


def check_group_invariants(groups):
    """Assert every in-sync member of every group holds identical data.

    Compares the replicated data tables (inodes, dentries, buckets,
    intents, routes) between each group's primary and its in-sync
    backups.  ``epochs`` is excluded — fence installs reach members both
    directly (promotion fences its fellow members) and via shipping, so
    row-for-row equality is not an invariant there (the stamp checks
    only need every member's fence to be *at least* the shipped one) —
    as is the member-local ``repl`` pointer.
    """
    for group in groups:
        primary = group.primary
        reference = {
            name: {row[primary.db.table(name).key]: dict(row)
                   for row in primary.db.table(name).all()}
            for name in ("inodes", "dentries", "buckets",
                         "intents", "routes")
        }
        head = group.lsn
        for backup in group.live_backups():
            assert group.acked[backup] == head, (
                f"group s{group.shard_id}: backup m{backup.member_index} "
                f"acked {group.acked[backup]} but group head is {head}"
            )
            for name, want in reference.items():
                have = {row[backup.db.table(name).key]: dict(row)
                        for row in backup.db.table(name).all()}
                assert have == want, (
                    f"group s{group.shard_id}: table {name!r} diverges on "
                    f"backup m{backup.member_index}: "
                    f"{_dict_diff(want, have)}"
                )


# ---------------------------------------------------------------------------
# Table-level views (no simulation cost: these are test/recovery oracles)
# ---------------------------------------------------------------------------

def _dentries_by_parent(shard):
    by_parent = {}
    for dentry in shard.db.table("dentries").all():
        by_parent.setdefault(dentry["parent"], []).append(dentry)
    return by_parent


def skeleton_view(shard):
    """``{path: (vino, kind, mode, uid, gid, target)}`` of this shard's
    replica of the directory/symlink skeleton, walked from the root.

    Times and sizes are deliberately excluded: a directory's times are
    authoritative only on its contents-owner shard (a documented
    simplification), so replicas legitimately differ there.
    """
    inodes = {row["vino"]: row for row in shard.db.table("inodes").all()}
    by_parent = _dentries_by_parent(shard)
    view = {}
    frontier = [("", shard.root_vino)]
    while frontier:
        dir_path, dvino = frontier.pop()
        for dentry in by_parent.get(dvino, ()):
            if dentry.get("home") is not None:
                continue  # cross-shard hard-link stub: never skeleton
            if dentry.get("staged") is not None:
                continue  # mid-flip rename alias: transient by design
            row = inodes.get(dentry["vino"])
            if row is None or row["kind"] == FILE:
                continue
            path = f"{dir_path}/{dentry['name']}"
            view[path] = (row["vino"], row["kind"], row["mode"],
                          row["uid"], row["gid"], row["target"])
            if row["kind"] == DIRECTORY:
                frontier.append((path, row["vino"]))
    return view


def _authoritative_entries(by_parent, sharding, n, dir_path, dvino):
    """Yield ``(owner, dentry)`` for the directory's authoritative entries.

    Resolves exactly the way the router routes: each entry is read on the
    shard :meth:`ShardingPolicy.shard_of_entry` names for it.  A split
    directory's entries therefore come from several shards, and an entry
    mid-migration (present on both its old and its new shard) is listed
    exactly once — a copy residing on a shard that routing no longer (or
    does not yet) name for that entry is invisible, which is the
    exactly-once guarantee readdir's fan-out merge relies on.
    """
    for owner in sharding.entry_shards(dir_path or "/", n):
        for dentry in by_parent[owner].get(dvino, ()):
            if sharding.shard_of_entry(
                    dir_path or "/", dentry["name"], n) != owner:
                continue
            yield owner, dentry


def namespace_image(shards, sharding):
    """The observable namespace, resolved the way the router routes it.

    A directory's entries are read on the shard(s) owning them — the
    directory's own shard, or the per-entry partition shard for a split
    directory; a stub dentry's inode is read at its recorded home shard.
    The result maps each path to a structural record — exactly what a
    client walking the tree could observe (times excluded; delegation can
    change them without the metadata tier seeing it).
    """
    n = len(shards)
    inodes = [
        {row["vino"]: row for row in shard.db.table("inodes").all()}
        for shard in shards
    ]
    by_parent = [_dentries_by_parent(shard) for shard in shards]
    image = {}
    frontier = [("", shards[0].root_vino)]
    while frontier:
        dir_path, dvino = frontier.pop()
        for owner, dentry in _authoritative_entries(
                by_parent, sharding, n, dir_path, dvino):
            path = f"{dir_path}/{dentry['name']}"
            home = dentry.get("home")
            row = inodes[owner if home is None else home].get(dentry["vino"])
            if row is None:
                image[path] = ("#dangling", dentry["vino"])
                continue
            image[path] = (row["kind"], row["vino"], row["mode"],
                           row["nlink"], row["size"], row["target"],
                           row["upath"])
            if row["kind"] == DIRECTORY:
                frontier.append((path, row["vino"]))
    return image


def _reachable_file_refs(shards, sharding):
    """Reference count per ``(holding shard, FILE vino)``, walking as the
    router does — a copy of an inode on a shard routing never reaches
    counts as unreferenced, however many names reach its twin."""
    n = len(shards)
    refs = {}
    by_parent = [_dentries_by_parent(shard) for shard in shards]
    inodes = [
        {row["vino"]: row for row in shard.db.table("inodes").all()}
        for shard in shards
    ]
    frontier = [("", shards[0].root_vino)]
    while frontier:
        dir_path, dvino = frontier.pop()
        for owner, dentry in _authoritative_entries(
                by_parent, sharding, n, dir_path, dvino):
            holder = owner if dentry.get("home") is None else dentry["home"]
            row = inodes[holder].get(dentry["vino"])
            if row is None:
                continue
            if row["kind"] == FILE:
                key = (holder, row["vino"])
                refs[key] = refs.get(key, 0) + 1
            elif row["kind"] == DIRECTORY:
                frontier.append((f"{dir_path}/{dentry['name']}", row["vino"]))
    return refs


def check_tier_invariants(shards, sharding, images=()):
    """Assert every namespace invariant across the whole tier.

    ``images`` is the set of acceptable observable namespaces (typically
    the pre-op and post-op images); pass ``()`` to skip the atomicity
    check and verify only structural consistency.  Returns the observed
    image so callers can chain further checks.
    """
    n = len(shards)

    # 1. Identical skeleton replicas on every shard.
    skeletons = [skeleton_view(shard) for shard in shards]
    for shard_id in range(1, n):
        assert skeletons[shard_id] == skeletons[0], (
            f"skeleton replica diverges on shard {shard_id}: "
            f"{_dict_diff(skeletons[0], skeletons[shard_id])}"
        )

    # 2. Recovery epochs and fences.  Each shard's own durable epoch row
    #    matches its live epoch; every fence row is honest (never above
    #    the fenced coordinator's actual epoch — a fence must only ever
    #    seal off epochs that coordinator has abandoned); the in-memory
    #    fence maps mirror the durable rows; and no surviving record is
    #    stamped with an epoch below its coordinator's fence (a fenced
    #    coordinator must leave no partial state behind).  The
    #    stale-record scan runs *before* the blanket no-leftover check
    #    below so a fencing failure reports itself precisely.
    current = {shard.shard_id: shard.epoch for shard in shards}
    for shard in shards:
        rows = {row["shard"]: row["epoch"]
                for row in shard.db.table("epochs").all()}
        own = rows.get(shard.shard_id)
        assert own == shard.epoch, (
            f"shard {shard.shard_id}: durable epoch {own} != "
            f"live epoch {shard.epoch}"
        )
        for coord, fence in rows.items():
            assert fence <= current[coord], (
                f"shard {shard.shard_id} fences s{coord} at {fence}, above "
                f"its actual epoch {current[coord]}"
            )
            assert shard.fences.get(coord, 0) == fence, (
                f"shard {shard.shard_id}: in-memory fence for s{coord} is "
                f"{shard.fences.get(coord, 0)}, durable row says {fence}"
            )
        for coord, fence in shard.fences.items():
            assert fence == rows.get(coord, 0), (
                f"shard {shard.shard_id}: fence map entry s{coord}={fence} "
                f"has no matching durable row"
            )
        for rec in shard.db.table("intents").all():
            coord = int(rec["id"][1:].split(".", 1)[0])
            fence = rows.get(coord, 0)
            assert rec.get("epoch", 0) >= fence, (
                f"stale-epoch record survived on shard {shard.shard_id}: "
                f"{dict(rec)} (fence for s{coord} is {fence})"
            )

    # 2a. No leftover coordination records (intents/prepares/dedups).
    for shard in shards:
        leftover = shard.db.table("intents").all()
        assert not leftover, (
            f"shard {shard.shard_id} holds unresolved intents: {leftover}"
        )

    # 2b. The routing map: identical durable tables on every shard, the
    #     shared in-memory map (what routing consults) reflects exactly
    #     the durable rows, and no rename's routing alias outlived it.
    route_tables = [
        {row["path"]: (row["owner"], tuple(row["shards"]), row["seq"])
         for row in shard.db.table("routes").all()}
        for shard in shards
    ]
    for shard_id in range(1, n):
        assert route_tables[shard_id] == route_tables[0], (
            f"routes table diverges on shard {shard_id}: "
            f"{_dict_diff(route_tables[0], route_tables[shard_id])}"
        )
    in_memory = dict(getattr(sharding, "routes", {}))
    durable = {path: rec[:2] for path, rec in route_tables[0].items()}
    assert in_memory == durable, (
        f"in-memory routing map diverges from durable rows: "
        f"{_dict_diff(durable, in_memory)}"
    )
    renaming = getattr(sharding, "renaming", {})
    assert not renaming, f"finished renames left routing aliases: {renaming}"

    # 3. Dentry/inode structural consistency per shard + stub homes.
    inodes = [
        {row["vino"]: row for row in shard.db.table("inodes").all()}
        for shard in shards
    ]
    for shard_id, shard in enumerate(shards):
        for dentry in shard.db.table("dentries").all():
            # Rename transients never outlive their operation: a staged
            # alias dies with the flip's retire (or abort), a
            # retiring-marked ghost with the cross-shard rename's
            # post-install retire — recovery resolves either way, so a
            # quiesced tier holds none.
            assert dentry.get("staged") is None, (
                f"leaked staged rename alias on shard {shard_id}: "
                f"{dict(dentry)}"
            )
            assert dentry.get("retiring") is None, (
                f"leaked retiring rename ghost on shard {shard_id}: "
                f"{dict(dentry)}"
            )
            home = dentry.get("home")
            if home is None:
                assert dentry["vino"] in inodes[shard_id], (
                    f"dangling dentry on shard {shard_id}: {dict(dentry)}"
                )
            else:
                row = inodes[home].get(dentry["vino"])
                assert row is not None and row["kind"] == FILE, (
                    f"stub on shard {shard_id} points at missing/non-file "
                    f"inode {dentry['vino']} on shard {home}"
                )

    # 4. Every FILE inode is reachable, and nlink matches the tier-wide
    #    reference count; directory nlink is 2 + its subdirectory count
    #    (checked on every replica); symlinks always have nlink 1.
    refs = _reachable_file_refs(shards, sharding)
    for shard_id, shard in enumerate(shards):
        by_parent = _dentries_by_parent(shard)
        for row in inodes[shard_id].values():
            if row["kind"] == FILE:
                count = refs.get((shard_id, row["vino"]), 0)
                assert count >= 1, (
                    f"stranded file inode {row['vino']} on shard {shard_id}"
                )
                assert row["nlink"] == count, (
                    f"file {row['vino']} nlink={row['nlink']} but "
                    f"{count} reachable names"
                )
            elif row["kind"] == DIRECTORY:
                subdirs = 0
                for dentry in by_parent.get(row["vino"], ()):
                    if dentry.get("home") is not None:
                        continue
                    if dentry.get("staged") is not None:
                        continue  # an alias is not a second child
                    child = inodes[shard_id].get(dentry["vino"])
                    if child is not None and child["kind"] == DIRECTORY:
                        subdirs += 1
                assert row["nlink"] == 2 + subdirs, (
                    f"dir {row['vino']} on shard {shard_id}: "
                    f"nlink={row['nlink']}, expected {2 + subdirs}"
                )
            elif row["kind"] == SYMLINK:
                assert row["nlink"] == 1, (
                    f"symlink {row['vino']} on shard {shard_id} has "
                    f"nlink={row['nlink']}"
                )

    # 5. Placement counters equal a recount of the files placed here.
    for shard_id, shard in enumerate(shards):
        want = {}
        for row in inodes[shard_id].values():
            if row["kind"] == FILE and row["upath"]:
                bucket, _slash, _leaf = row["upath"].rpartition("/")
                want[bucket] = want.get(bucket, 0) + 1
        have = {
            row["path"]: row["count"]
            for row in shard.db.table("buckets").all()
            if row["count"]
        }
        assert have == want, (
            f"bucket counters diverge on shard {shard_id}: "
            f"have {have}, recount {want}"
        )

    # 6. Atomicity: the observable namespace is one of the given images.
    observed = namespace_image(shards, sharding)
    assert not any(
        record[0] == "#dangling" for record in observed.values()
    ), f"dangling names in observable namespace: {observed}"
    if images:
        assert any(observed == image for image in images), (
            "observable namespace is neither the pre-op nor the post-op "
            f"image: {_image_diffs(observed, images)}"
        )
    return observed


def _dict_diff(a, b):
    keys = set(a) | set(b)
    return {k: (a.get(k), b.get(k)) for k in keys if a.get(k) != b.get(k)}


def _image_diffs(observed, images):
    return [_dict_diff(observed, image) for image in images]
