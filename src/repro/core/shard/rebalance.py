"""Online load-aware re-partitioning of the sharded namespace.

Both partition functions are static — hash-by-parent spreads directories
uniformly but cannot react when several hot directories collide on one
shard, and static subtrees concentrate whole projects by design.  This
module closes the ROADMAP "dynamic re-partitioning" item, HopsFS-style:
hot directories are *re-homed* under load — and, GIGA+-style, a
directory too hot for *any* single shard is *split*: its entries are
hash-partitioned across shards by name, so one giant directory's
create/stat load scales with the tier instead of pinning one shard at
its ceiling.

**One routing map.** Every routing change writes one row ``{path,
owner, shards, seq}`` of the map the partition function consults before
its static rule
(:attr:`repro.core.shard.routing.ShardingPolicy.routes`): a re-home
writes ``(dst, [dst])``, a split ``(owner, targets)``, a merge
``(owner, [owner])`` and a forget ``(static owner, [static owner])``.
rmdir drops the row; a rename carries it to the new name, drops the
row of the empty directory it replaces, and *pins* each moved
directory whose static owner changes at ``(owner, [owner])``, so
renames move no entry (:mod:`repro.core.shard.coordination`).

**Protocol** (:meth:`ShardRebalancePart._route`, behind
:meth:`~ShardRebalancePart.rebalance_dir`, :meth:`split_dir`,
:meth:`merge_dir` and :meth:`forget_override`, run on the directory's
owner): one transaction journals a ``route`` intent holding the new row
and the pre-flip *sources* (the shards that may hold entries now); the
population then moves with the crash-safe copy → import → purge triple
(the tier's only migration engine: renames pin instead), and the routing
flip is *last*, not first, and **verified**: the flip
transaction re-scans the local directory and commits the durable routing
row (plus the shared in-memory map, inside the same atomic body) only
when every entry assigned away has already been imported at its
destination; otherwise it returns the stragglers for another
copy→import round (:meth:`_verified_flip`).  Paired with the ownership
re-check every mutating parent walk performs inside its own transaction
(:meth:`repro.core.shard.routing.ShardRoutingPart._txn_resolve_parent`),
this closes the migration visibility window: a reader routed by the old
map finds the entry still on the source (purge runs only after the
flip), a reader routed by the new map finds it imported, and a write
that races the flip is forwarded to the new owner instead of stranding a
row routing no longer reaches.  Every step is idempotent, so recovery
rolls a half-done routing change *forward* by redoing the intent
(:meth:`redo_route`); a crash before the intent committed leaves no
durable trace and routing is unchanged.

**Durability**: every shard persists the map in its ``routes`` table;
the shared in-memory map on the
:class:`~repro.core.shard.routing.ShardingPolicy` (what routers and
resolution hooks actually consult, at zero simulated cost — the
partition function has always been free to evaluate) is rebuilt from
the durable rows on recovery (:meth:`restore_routes`, newest ``seq``
wins), so a shard restored from an older journal prefix converges with
its peers.  A merge or a forget *keeps* a one-element row rather than
deleting it: a dropped row could resurrect from a stale recovering peer
through the restore union, while a newer one-element row wins
everywhere.  Only a directory's removal deletes its row — tier-wide,
with the directory (see
:meth:`~repro.core.shard.replication.ShardReplicationPart.mirror_rmdir`
and :meth:`_txn_rekey_routes`) — so a recreated directory routes by the
static rule again.

**Known simplifications**: re-splitting an already-split directory (and
merging one) stages from *multiple* source shards, and only the
coordinator's own partition is covered by the flip transaction's
verification — an entry created on another source during staging is
invisible between the flip and the post-flip catch-up round (bounded:
one copy→import round later it is servable; never lost).  A ``setattr``
that lands on the source between copy and purge is lost with the purged
copy (leaf attribute walks carry no ownership re-check); the racer
drills of ``tests/core/test_crash_points.py`` pin that loss as an
expected failure.  Both windows exist only for entries mutated *during*
a migration; anything that existed when the migration began is
continuously visible.  A split directory can be neither re-homed nor
forgotten (EINVAL): its entries have no single source to move, so it is
merged first.

**Policy** (:class:`Rebalancer`): the client-side routers already
compute the (directory → shard) decision for every op and keep
per-directory load counters
(:class:`~repro.core.shard.routing.ShardRouter`); the rebalancer
aggregates them, finds shards above ``threshold ×`` the mean load, and
greedily re-homes their hottest directories to the least-loaded shard.
A directory whose own load exceeds ``split_threshold ×`` the per-shard
mean is split across the tier; a split directory cooling below
``merge_threshold ×`` is merged back (the gap between the two
thresholds is the hysteresis band that prevents flapping).
:meth:`Rebalancer.run_periodic` drives rounds from a simulated timer, so
the tier re-partitions continuously without an administrative call.
"""

from repro import obs
from repro.core.shard.routing import EpochFenced, entry_slot
from repro.pfs.errors import FsError
from repro.pfs.types import DIRECTORY, FILE, normalize


class ShardRebalancePart:
    """Mixin: the routing-change protocol and routing-map durability RPCs."""

    def rebalance_dir(self, dir_path, dst, now):
        """Coroutine/RPC: re-home ``dir_path``'s file population to ``dst``.

        Must run on the directory's *current* owner (the shard that holds
        its file entries); routes the directory to ``(dst, [dst])``.
        """
        yield from self._dispatch()
        epoch = self.epoch
        dir_path = normalize(dir_path)
        if not 0 <= dst < self.n_shards:
            raise FsError.einval(f"no such shard: {dst}")
        if self.sharding.is_split(dir_path):
            raise FsError.einval(
                f"{dir_path} is split: re-split or merge it instead")
        if self._dir_owner(dir_path) != self.shard_id:
            raise FsError.einval(
                f"shard {self.shard_id} does not own {dir_path}")
        if dst == self.shard_id:
            return False
        result = yield from self._route(dir_path, dst, [dst], now, epoch)
        return result

    def split_dir(self, dir_path, targets, now, _hops=0):
        """Coroutine/RPC: hash-partition ``dir_path``'s entries across
        ``targets``.

        Runs on the directory's owner (self-forwarding), which stays the
        whole-directory owner.  Each entry's post-split home is
        ``targets[entry_slot(name, len(targets))]``; a one-element target
        list *merges* a split directory back to a single shard.
        """
        self._check_hops(_hops, dir_path)
        yield from self._dispatch()
        epoch = self.epoch
        norm = normalize(dir_path)
        targets = [int(t) for t in targets]
        if not targets or any(
                not 0 <= t < self.n_shards for t in targets):
            raise FsError.einval(f"bad partition targets: {targets}")
        owner = self._dir_owner(norm)
        if owner != self.shard_id:
            result = yield from self._peer(
                owner, "split_dir", norm, targets, now, _hops + 1)
            return result
        route = self.sharding.routes.get(norm)
        if route is not None and route[1] == tuple(targets):
            return False
        result = yield from self._route(norm, owner, targets, now, epoch)
        return result

    def merge_dir(self, dir_path, now, _hops=0):
        """Coroutine/RPC: collapse a split directory back to its owner.

        A split to a single target: every entry re-routes to the
        directory's whole-directory owner.
        """
        norm = normalize(dir_path)
        if norm not in self.sharding.routes:
            return False
        owner = self.sharding.shard_of_dir(norm, self.n_shards)
        result = yield from self.split_dir(norm, [owner], now, _hops)
        return result

    def forget_override(self, dir_path, now, _hops=0):
        """Coroutine/RPC: send a re-homed ``dir_path`` back to its static
        owner.

        The administrative complement of :meth:`rebalance_dir`: a
        re-home to the static owner, run on the directory's current
        owner (self-forwarding).  False when the routing already names
        the static owner; EINVAL for a split directory, whose entries
        have no single source to move.
        """
        self._check_hops(_hops, dir_path)
        norm = normalize(dir_path)
        route = self.sharding.routes.get(norm)
        static = self.sharding.static_shard_of_dir(norm, self.n_shards)
        if route is None or route[0] == static:
            return False
        if route[0] != self.shard_id:
            result = yield from self._peer(
                route[0], "forget_override", norm, now, _hops + 1)
            return result
        result = yield from self.rebalance_dir(norm, static, now)
        return result

    def _route(self, norm, owner, shards, seq, epoch):
        """Coroutine: journal a ``route`` intent, then run its tail.

        The intent commits before any state moves: every later step is
        idempotent, so a crash anywhere is rolled *forward* by
        :meth:`redo_route`.  It records the pre-flip ``sources`` (the
        shards that may hold entries now): a redo after the flip would
        otherwise consult the new map and miss them.
        """
        sources = list(self.sharding.entry_shards(norm, self.n_shards))
        tids = []

        def body(txn):
            row = self._txn_resolve(txn, norm)
            if row["kind"] != DIRECTORY:
                raise FsError.enotdir(norm)
            tids.append(self._txn_intent(txn, epoch, {
                "id": self._new_tid(), "role": "coord", "op": "route",
                "dir": norm, "vino": row["vino"], "owner": owner,
                "shards": list(shards), "sources": sources, "seq": seq,
            }))
            return row["vino"]

        # The walk stays on the local skeleton replica: the owner holds
        # everything it needs, and a forward here would misroute the
        # intent.
        try:
            vino = yield from self.dbsvc.execute(self._local_body(body))
        except BaseException:
            self._done_tids(tids)
            raise
        try:
            yield from self._finish_route(
                norm, vino, owner, shards, sources, seq, self._stamp(epoch))
            yield from self.intent_forget(tids[0])
        except EpochFenced:
            pass  # the intent is durable; recovery rolls it forward
        finally:
            self._done_tids(tids)
        return True

    def _finish_route(self, norm, vino, owner, shards, sources, seq, stamp):
        """Coroutine: the idempotent tail of a routing change (shared
        with redo).

        Stage every remote source's assigned-away entries → verified
        flip at the coordinator (routing row + in-memory map, atomic
        with the proof that *this* shard's stragglers are shipped) →
        ``mirror_route`` broadcast → catch-up-and-purge round per remote
        source → purge local copies.  For the common single-source
        change the flip's verification is complete and the visibility
        window is exactly zero; with remote sources the post-flip
        catch-up bounds it to entries created there mid-staging (see
        the module notes).  The flip is newest-``seq``-wins like
        :meth:`mirror_route`, so a redo replaying late cannot clobber a
        later routing change.
        """
        fanout = tuple(shards)

        def dest_of(name):
            return fanout[entry_slot(name, len(fanout))] % self.n_shards

        for src in sources:
            if src != self.shard_id:
                yield from self._stage_partition(src, vino, dest_of, stamp)

        def flip(txn):
            if self._txn_write_route(txn, norm, owner, fanout, seq):
                self.sharding.routes[norm] = (owner, fanout)

        keys, vinos = yield from self._verified_flip(
            vino, dest_of, flip, stamp)
        yield from self._broadcast(
            "mirror_route", norm, owner, list(fanout), seq, stamp=stamp)
        for src in sources:
            if src != self.shard_id:
                yield from self._stage_partition(
                    src, vino, dest_of, stamp, purge=True)
        if keys:
            yield from self._call_shard(
                self.shard_id, "purge_dir_children", vino, keys, vinos,
                stamp)
        return True

    def _verified_flip(self, vino, dest_of, flip, stamp):
        """Coroutine: move assigned-away entries, then atomically flip.

        ``dest_of(name)`` is the post-flip owner of entry ``name``; the
        loop copies every local entry assigned away to its destination
        (idempotent imports), and the flip transaction re-scans: finding
        stragglers (entries created since the last round), it returns
        them for another import round; finding none, it runs ``flip(txn)``
        — the durable routing row *and* the shared in-memory map — inside
        the same atomic body.  Transaction bodies on one shard serialize,
        and every mutating parent walk re-checks ownership inside its own
        body, so when the flip commits the destinations provably hold
        everything and any later write here is forwarded: no entry is
        ever stranded, and no reader ever sees a transient ENOENT.
        Returns the ``(keys, vinos)`` this shard shipped, for the
        post-flip purge.
        """
        all_keys, all_vinos = [], []
        sent = set()

        def body(txn):
            groups = {}
            for dentry, inode in self._txn_collect_children(txn, vino):
                key = tuple(dentry["key"])
                dst = dest_of(dentry["name"])
                if dst == self.shard_id or key in sent:
                    continue
                dentries, inodes = groups.setdefault(dst, ([], []))
                dentries.append(dentry)
                if inode is not None:
                    inodes.append(inode)
            if groups:
                return groups
            flip(txn)
            return None

        while True:
            groups = yield from self.dbsvc.execute(self._local_body(body))
            if groups is None:
                return all_keys, all_vinos
            for dst in sorted(groups):
                dentries, inodes = groups[dst]
                yield from self._call_shard(
                    dst, "import_dir_children", vino, dentries, inodes,
                    stamp)
                for dentry in dentries:
                    sent.add(tuple(dentry["key"]))
                    all_keys.append(dentry["key"])
                all_vinos.extend(row["vino"] for row in inodes)

    def _stage_partition(self, src, vino, dest_of, stamp, purge=False):
        """Coroutine: ship ``src``'s assigned-away entries of ``vino``.

        One copy→import round from a remote source, grouped by each
        entry's post-flip destination; with ``purge`` the shipped
        originals are then dropped at ``src`` (the post-flip catch-up
        round — by then routing no longer reaches them there).
        """
        dentries, inodes = yield from self._call_shard(
            src, "copy_dir_children", vino, stamp)
        by_vino = {row["vino"]: row for row in inodes}
        groups = {}
        keys, moved_vinos = [], []
        for dentry in dentries:
            dst = dest_of(dentry["name"])
            if dst == src:
                continue
            group_dentries, group_inodes = groups.setdefault(dst, ([], []))
            group_dentries.append(dentry)
            row = by_vino.get(dentry["vino"])
            if row is not None:
                group_inodes.append(row)
                moved_vinos.append(row["vino"])
            keys.append(dentry["key"])
        for dst in sorted(groups):
            group_dentries, group_inodes = groups[dst]
            yield from self._call_shard(
                dst, "import_dir_children", vino, group_dentries,
                group_inodes, stamp)
        if purge and keys:
            yield from self._call_shard(
                src, "purge_dir_children", vino, keys, moved_vinos, stamp)
        return True

    def redo_route(self, rec):
        """Coroutine: roll a surviving ``route`` intent forward.

        Re-stages from the intent's recorded *pre-flip* sources (the
        live map may already show the new row), re-commits the
        newest-wins flip, and re-purges — all idempotent, so re-running
        it under the recovering coordinator's fresh epoch converges from
        any crash point.
        """
        yield from self._finish_route(
            rec["dir"], rec["vino"], rec["owner"], rec["shards"],
            rec["sources"], rec["seq"], self._stamp())
        yield from self.intent_forget(rec["id"])
        return True

    # -- the migration triple (copy → import → purge) -----------------------

    def _txn_collect_children(self, txn, vino):
        """Txn fragment: this shard's movable entries of directory ``vino``.

        ``(dentry, inode)`` pairs shaped exactly as
        :meth:`import_dir_children` consumes them: replicated skeleton
        children (directories, symlinks) are excluded, a hard-linked
        file's inode stays home behind a stub (``inode`` is None), and
        pre-existing stubs travel as-is.  Read-only — shared between the
        copy RPC and the verified-flip transaction's straggler scan
        (:meth:`_verified_flip`), so placement and its atomic proof can
        never disagree about what counts as movable.
        """
        pairs = []
        for dentry in txn.index_read("dentries", "parent", vino):
            dentry = dict(dentry)
            # A mid-flight cross-shard rename's retiring marker is local
            # bookkeeping; a migrated copy must not carry it (the source
            # retire is marker-guarded and the abort falls back to
            # re-attaching when the ghost moved away).
            dentry.pop("retiring", None)
            inode = None
            if dentry.get("home") is None:
                row = txn.read("inodes", dentry["vino"])
                if row is None or row["kind"] != FILE:
                    continue  # replicated skeleton stays put
                if row["nlink"] > 1:
                    # Hard-linked under other names: the inode stays
                    # home (see _rename_cross_shard's detach); only
                    # the name moves, shipped as a stub back here.
                    dentry["home"] = self.shard_id
                else:
                    inode = dict(row)
            pairs.append((dentry, inode))
        return pairs

    def copy_dir_children(self, vino, stamp=None):
        """RPC (shard-to-shard): read a directory's file entries here.

        Read-only: the entries stay until :meth:`purge_dir_children`
        confirms the destination holds them, so no crash point between
        the migration RPCs can lose an entry.
        """
        yield from self._dispatch()
        self._check_stamp(stamp)

        def body(txn):
            dentries, inodes = [], []
            for dentry, inode in self._txn_collect_children(txn, vino):
                dentries.append(dentry)
                if inode is not None:
                    inodes.append(inode)
            return (dentries, inodes)

        result = yield from self.dbsvc.execute(body)
        return result

    def import_dir_children(self, vino, dentries, inodes, stamp=None):
        """RPC (shard-to-shard): adopt re-homed file entries (idempotent)."""
        yield from self._dispatch()

        def body(txn):
            self._check_stamp(stamp)
            for row in inodes:
                if txn.read("inodes", row["vino"]) is None:
                    txn.insert("inodes", dict(row))
                    if row["upath"]:
                        self._txn_bucket_adjust(txn, row["upath"], 1)
            for dentry in dentries:
                dentry = dict(dentry)
                if dentry.get("home") == self.shard_id:
                    del dentry["home"]  # the stub came home
                if txn.read("dentries", tuple(dentry["key"])) is None:
                    txn.insert("dentries", dentry)
            self._invalidate_resolve(vino)
            return True

        result = yield from self.dbsvc.execute(body)
        return result

    def purge_dir_children(self, vino, keys, vinos, stamp=None):
        """RPC (shard-to-shard): drop migrated entries once the new owner
        holds them (idempotent: deletes only what is still here)."""
        yield from self._dispatch()

        def body(txn):
            self._check_stamp(stamp)
            changed = False
            for key in keys:
                if txn.read("dentries", tuple(key)) is not None:
                    txn.delete("dentries", tuple(key))
                    changed = True
            for moved in vinos:
                row = txn.read("inodes", moved)
                if row is not None and row["kind"] == FILE:
                    txn.delete("inodes", moved)
                    if row["upath"]:
                        self._txn_bucket_adjust(txn, row["upath"], -1)
                    changed = True
            if changed:
                self._invalidate_resolve(vino)
            return changed

        result = yield from self.dbsvc.execute(body)
        return result


    # -- the durable routing rows -------------------------------------------

    @staticmethod
    def _txn_write_route(txn, norm, owner, shards, seq):
        """Txn fragment: upsert a routing row unless a newer one won."""
        row = txn.read("routes", norm)
        if row is not None and row["seq"] > seq:
            return False
        txn.write("routes", {"path": norm, "owner": owner,
                             "shards": list(shards), "seq": seq})
        return True

    @staticmethod
    def _txn_drop_route(txn, norm, seq):
        """Txn fragment: delete the routing row unless a newer one won."""
        row = txn.read("routes", norm)
        if row is None or row["seq"] > seq:
            return False
        txn.delete("routes", norm)
        return True

    def mirror_route(self, dir_path, owner, shards, seq, stamp=None):
        """RPC (shard-to-shard): persist a routing row here.

        A row with a newer ``seq`` wins (two successive routing changes
        of one directory replay in either order during recovery).
        """
        yield from self._dispatch()

        def body(txn):
            self._check_stamp(stamp)
            return self._txn_write_route(txn, dir_path, owner, shards, seq)

        result = yield from self.dbsvc.execute(body)
        if result:
            self.sharding.routes[dir_path] = (owner, tuple(shards))
        return result

    def _txn_rekey_routes(self, txn, old, new, seq, rows):
        """Txn fragment: a directory rename's routing rows.

        Every row under ``old`` older than the rename's ``seq`` dies with
        the old name.  Then, unless ``rows`` is None (a stale retire: a
        newer rename of the directory applied here first and wrote its
        own rows), a row at ``new`` the rename does not carry dies too —
        it belongs to the empty directory the rename destroys, as rmdir
        drops it — and the coordinator's ``rows`` ``[path, owner,
        shards]`` for the moved subtree are written at ``seq``,
        newest-seq-wins: the same rows on every replica, whatever its
        own table held.  Returns ``(path, route)`` updates for the
        in-memory map — ``route`` None for a drop — which the caller
        applies once nothing in its transaction body can raise.
        """
        carried = {row[0] for row in rows or ()}
        updates = []
        for row in list(txn.match("routes")):
            path = row["path"]
            if row["seq"] < seq and (
                    path == old or path.startswith(old + "/")
                    or (rows is not None and path == new
                        and path not in carried)):
                txn.delete("routes", path)
                updates.append((path, None))
        for path, owner, shards in rows or ():
            if self._txn_write_route(txn, path, owner, shards, seq):
                updates.append((path, (owner, tuple(shards))))
        return updates

    def _rekey_routes_mem(self, updates):
        """Apply a rename's routing updates to the shared in-memory map."""
        for path, route in updates:
            if route is None:
                self.sharding.routes.pop(path, None)
            else:
                self.sharding.routes[path] = route

    # -- recovery ----------------------------------------------------------

    def route_rows(self):
        """RPC (shard-to-shard): this shard's durable routing rows."""
        yield from self._dispatch()

        def body(txn):
            return [dict(row) for row in txn.match("routes")]

        rows = yield from self.dbsvc.execute(body)
        return rows

    def sync_routes(self, rows):
        """RPC (shard-to-shard): make this table exactly the given rows."""
        yield from self._dispatch()

        def body(txn):
            want = {row["path"]: row for row in rows}
            for row in txn.match("routes"):
                if row["path"] not in want:
                    txn.delete("routes", row["path"])
            for path, row in want.items():
                cur = txn.read("routes", path)
                if cur is None or dict(cur) != row:
                    txn.write("routes", dict(row))
            return True

        result = yield from self.dbsvc.execute(body)
        return result

    def restore_routes(self):
        """Coroutine: rebuild the tier's routing map from durable rows.

        Union over every shard's table, newest ``(seq, owner, shards)``
        winning per path; the merged set is pushed back to every shard
        and becomes the shared in-memory map.  Runs after intent
        completion — a surviving ``route`` intent has just re-installed
        its row everywhere — and before the skeleton resync, whose
        authority function routes through the map.  Under the default
        synchronous journal a row is durable before the in-memory flip,
        so the union is exact; with ``sync_updates=False`` a row every
        shard lost reverts to the previous routing (like any other lost
        update under the async policy).
        """
        best = {}
        for shard in range(self.n_shards):
            rows = yield from self._call_shard(shard, "route_rows")
            for row in rows:
                cur = best.get(row["path"])
                if cur is None or \
                        (row["seq"], row["owner"], row["shards"]) > \
                        (cur["seq"], cur["owner"], cur["shards"]):
                    best[row["path"]] = dict(row)
        for shard in range(self.n_shards):
            yield from self._call_shard(
                shard, "sync_routes", list(best.values()))
        self.sharding.routes.clear()
        self.sharding.routes.update(
            {path: (row["owner"], tuple(row["shards"]))
             for path, row in best.items()})
        return len(best)


# ---------------------------------------------------------------------------
# The load-aware re-balancer
# ---------------------------------------------------------------------------

class Rebalancer:
    """Samples router load counters; re-homes and splits hot directories.

    ``routers`` are the stack's :class:`ShardRouter` instances (one per
    client node); ``shards`` the tier's services.  ``threshold`` is the
    overload factor: a shard is rebalanced only while its dir-attributed
    load exceeds ``threshold ×`` the tier mean.  The planner is greedy and
    deterministic: hottest directory first, moved to the least-loaded
    shard, never moving more load onto the destination than would just
    swap the hotspot.

    ``split_threshold`` (off by default, keeping pre-split stacks
    byte-identical) arms directory splitting: a directory whose own
    sampled load exceeds ``split_threshold ×`` the per-shard mean is too
    hot for *any* single placement — re-homing merely moves the ceiling —
    so its entries are hash-partitioned across the whole tier.  A split
    directory cooling below ``merge_threshold ×`` the per-shard mean is
    merged back; keeping ``merge_threshold`` well under
    ``split_threshold`` leaves a hysteresis band so a directory
    oscillating around one threshold never flaps.
    """

    def __init__(self, routers, shards, threshold=1.25, max_moves=None,
                 split_threshold=None, merge_threshold=0.25):
        self.routers = list(routers)
        self.shards = list(shards)
        self.threshold = threshold
        self.max_moves = max_moves
        self.split_threshold = split_threshold
        self.merge_threshold = merge_threshold

    def sampled_loads(self):
        """Aggregate per-directory op counts across every router."""
        dir_load = {}
        for router in self.routers:
            for path, count in router.dir_loads.items():
                dir_load[path] = dir_load.get(path, 0) + count
        return dir_load

    def plan(self):
        """``[(dir_path, src, dst)]`` migrations that would level the load."""
        n = len(self.shards)
        if n <= 1:
            return []
        dir_load = self.sampled_loads()
        if not dir_load:
            return []
        sharding = self.shards[0].sharding
        owner = {path: sharding.shard_of_dir(path, n) for path in dir_load}
        shard_load = [0] * n
        for path, count in dir_load.items():
            if sharding.is_split(path):
                # A split directory's load is already spread over its
                # partitions; attribute it evenly and never plan a move
                # for it (its entries have no single source to move).
                parts = sharding.entry_shards(path, n)
                for shard in parts:
                    shard_load[shard] += count // len(parts)
                continue
            shard_load[owner[path]] += count
        mean = sum(shard_load) / n
        limit = self.max_moves if self.max_moves is not None \
            else len(dir_load)
        moves = []
        for path in sorted(dir_load, key=lambda p: (-dir_load[p], p)):
            if len(moves) >= limit:
                break
            if sharding.is_split(path):
                continue
            src = owner[path]
            if shard_load[src] <= self.threshold * mean:
                continue
            dst = min(range(n), key=lambda s: (shard_load[s], s))
            if dst == src:
                continue
            if shard_load[dst] + dir_load[path] >= shard_load[src]:
                continue  # moving this one would just relocate the hotspot
            moves.append((path, src, dst))
            shard_load[src] -= dir_load[path]
            shard_load[dst] += dir_load[path]
            owner[path] = dst
        return moves

    def plan_splits(self):
        """``[(dir_path, targets)]`` splits and merges for one-dir hotspots.

        A single directory hotter than ``split_threshold ×`` the
        per-shard mean load is split across every shard; a split
        directory cooled below ``merge_threshold ×`` (including one whose
        counters decayed away entirely) merges back to its
        whole-directory owner.  Disabled while ``split_threshold`` is
        None.
        """
        n = len(self.shards)
        if n <= 1 or self.split_threshold is None:
            return []
        dir_load = self.sampled_loads()
        total = sum(dir_load.values())
        sharding = self.shards[0].sharding
        if not total:
            # Nothing is hot; any still-split directory has fully cooled
            # and merges back to its whole-directory owner.
            return [(path, [sharding.shard_of_dir(path, n)])
                    for path in sorted(sharding.routes)
                    if sharding.is_split(path)]
        per_shard = total / n
        plans = []
        candidates = set(dir_load) | set(sharding.routes)
        for path in sorted(candidates,
                           key=lambda p: (-dir_load.get(p, 0), p)):
            load = dir_load.get(path, 0)
            split = sharding.is_split(path)
            if not split and load > self.split_threshold * per_shard:
                plans.append((path, list(range(n))))
            elif split and load < self.merge_threshold * per_shard:
                plans.append(
                    (path, [sharding.shard_of_dir(path, n)]))
        return plans

    def rebalance(self):
        """Coroutine: plan and execute splits + migrations; returns what ran.

        Splits run first (a directory hot enough to split would dominate
        any re-homing plan anyway), each on its owner shard's crash-safe
        :meth:`ShardRebalancePart.split_dir`; then each re-homing move
        runs the owner's :meth:`ShardRebalancePart.rebalance_dir`.  The
        sampled counters are only advisory — a planned directory may
        have been removed (or re-homed) since the load was observed,
        even by an op that *failed* against it (the router counts the
        attempt); such plans are skipped.  Counters *decay* afterwards
        (exponential halving, not a reset): the next round still reacts
        mostly to post-migration load, but a hotspot whose burst
        straddles a round boundary keeps enough weight to be seen — a
        full reset made the planner blind to any load pattern shorter
        than one whole round.
        """
        if obs.METRICS is not None:
            self._observe_loads()
        tracer = obs.TRACER
        executed = []
        for path, targets in self.plan_splits():
            sharding = self.shards[0].sharding
            owner = sharding.shard_of_dir(path, len(self.shards))
            shard = self.shards[owner]
            span = None
            if tracer is not None:
                span = tracer.start(
                    "split_dir", path, shard.sim.now, shard=owner,
                    target=len(targets))
            try:
                if len(targets) == 1:
                    yield from shard.merge_dir(path, shard.sim.now)
                else:
                    yield from shard.split_dir(path, targets, shard.sim.now)
            except FsError as exc:
                if span is not None:
                    tracer.finish(span, shard.sim.now, outcome=exc.code)
                continue  # vanished (or re-planned) since sampling
            except BaseException as exc:
                if span is not None:
                    tracer.finish(span, shard.sim.now,
                                  outcome=type(exc).__name__)
                raise
            if span is not None:
                tracer.finish(span, shard.sim.now)
            if obs.METRICS is not None:
                obs.METRICS.incr("split_moves", owner)
            executed.append((path, owner, tuple(targets)))
        moves = self.plan()
        for path, src, dst in moves:
            span = None
            if tracer is not None:
                span = tracer.start(
                    "rebalance_move", path, self.shards[src].sim.now,
                    shard=src, target=dst)
            try:
                yield from self.shards[src].rebalance_dir(
                    path, dst, self.shards[src].sim.now)
            except FsError as exc:
                if span is not None:
                    tracer.finish(span, self.shards[src].sim.now,
                                  outcome=exc.code)
                continue  # vanished or re-homed since sampling
            except BaseException as exc:
                if span is not None:
                    tracer.finish(span, self.shards[src].sim.now,
                                  outcome=type(exc).__name__)
                raise
            if span is not None:
                tracer.finish(span, self.shards[src].sim.now)
            if obs.METRICS is not None:
                obs.METRICS.incr("rebalance_moves", src)
            executed.append((path, src, dst))
        for router in self.routers:
            router.decay_loads()
        return executed

    def run_periodic(self, sim, interval_ms, rounds=None):
        """Coroutine: the continuous re-balancing loop.

        Schedule with ``sim.process(rebalancer.run_periodic(sim, t))``:
        every ``interval_ms`` of simulated time one :meth:`rebalance`
        round runs — sampling, splitting, re-homing, decaying — so the
        tier adapts to load without an administrative call.  ``rounds``
        bounds the loop for finite experiments; None runs until the
        simulation stops scheduling it.
        """
        done = 0
        while rounds is None or done < rounds:
            yield sim.timeout(interval_ms)
            yield from self.rebalance()
            done += 1

    def _observe_loads(self):
        """Record each shard's dir-attributed load at planning time."""
        n = len(self.shards)
        dir_load = self.sampled_loads()
        sharding = self.shards[0].sharding
        shard_load = [0] * n
        for path, count in dir_load.items():
            shard_load[sharding.shard_of_dir(path, n)] += count
        for shard, load in enumerate(shard_load):
            obs.METRICS.observe("rebalancer_load", shard, load)
