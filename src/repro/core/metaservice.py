"""The COFS metadata service.

A dedicated node runs the virtual-namespace authority: database tables for
inodes, directory entries and placement counters (Mnesia tables in the
paper).  Pure metadata operations are transactions against these tables —
*never* against the underlying file system — and the service keeps no
block-location information whatsoever: the only link to the data is the
underlying path assigned by the placement policy at creation time.

Read transactions cost CPU only; update transactions also force the
database log on the service node's local disk (group-committed).  This is
the cost asymmetry behind the paper's COFS numbers: stat ≈ 1 ms (round trip
+ query) versus utime ≈ 4 ms (round trip + query + log force).

Attribute delegation: while a file is open for writing somewhere, its size
and times change underneath COFS without the service seeing them ("there is
no need to contact the COFS metadata server if a file is written or
resized", §V).  The service marks such files *delegated*; a stat of a
delegated file merges the underlying file's size/times, and the close of
the writing handle syncs them back.
"""

import itertools

from repro.cluster.disk import Disk
from repro.core.placement import HashPlacementPolicy
from repro.db import Database, DbService
from repro.pfs.errors import FsError
from repro.pfs.types import (
    DIRECTORY, FILE, SYMLINK, components, normalize, split,
)
from repro.sim.rand import RandomStreams

_MAX_SYMLINK_DEPTH = 8

#: seed of the fallback stream namespace used when a stack is built without
#: shared :class:`~repro.sim.rand.RandomStreams` (direct unit constructions).
_FALLBACK_SEED = 0x0C0F5


class MetadataService:
    """The MDS: runs on its own machine, registered as service ``cofsmds``."""

    def __init__(self, machine, config, policy=None, streams=None):
        self.machine = machine
        self.sim = machine.sim
        self.config = config
        self.policy = policy or HashPlacementPolicy(config)
        if streams is None:
            streams = RandomStreams(_FALLBACK_SEED)
        self.rng = streams.stream(self._placement_stream())
        disk = Disk(
            self.sim, f"{machine.name}:ext3",
            seek_ms=config.mds_disk_seek_ms, bandwidth=config.mds_disk_bw,
        )
        machine.add_disk("ext3", disk)
        database = Database("cofsmeta")
        database.create_table("inodes", key="vino")
        database.create_table("dentries", key="key", indexes=("parent",))
        database.create_table("buckets", key="path")
        # Cross-shard coordination records (intent/prepare/dedup), the
        # routing map, and the recovery epoch/fence rows; always present
        # in the schema so recovery rebuilds are uniform, but only the
        # sharded service ever writes to them.
        database.create_table("intents", key="id")
        database.create_table("routes", key="path")
        database.create_table("epochs", key="shard")
        # Replication bookkeeping (the backup's durable applied-LSN
        # pointer); only group *backups* ever write to it — see
        # :mod:`repro.core.shard.replication`.
        database.create_table("repl", key="slot")
        self.dbsvc = DbService(machine, database, disk, config.db,
                               async_commit=config.async_commit)
        self._resolve_cache = {}      # parent-path tuple -> (vino, walked vinos)
        self._resolve_by_parent = {}  # dir vino -> prefix keys reading from it
        self._vino = itertools.count(1)
        self._bootstrap_root()
        self.dbsvc.journal.mark_durable()  # schema + root survive any crash
        machine.register("cofsmds", self)

    def _placement_stream(self):
        """Name of this service's placement-randomization stream."""
        return "cofs.placement"

    @property
    def db(self):
        """The live database (rebuilt in place after a crash recovery)."""
        return self.dbsvc.db

    def _bootstrap_root(self):
        root_vino = next(self._vino)
        self.root_vino = root_vino
        self.db.transaction(
            lambda txn: txn.insert("inodes", {
                "vino": root_vino, "kind": DIRECTORY, "mode": 0o755,
                "uid": 0, "gid": 0, "nlink": 2, "size": 0,
                "atime": 0.0, "mtime": 0.0, "ctime": 0.0,
                "target": None, "upath": None, "delegated": False,
            })
        )

    def _dispatch(self):
        return self.machine.compute(self.config.mds_dispatch_cpu_ms)

    # ------------------------------------------------------------------
    # in-transaction helpers (synchronous; run inside a txn body)
    # ------------------------------------------------------------------

    def _txn_resolve(self, txn, path, follow=True, _depth=0):
        """Walk ``path`` through the dentry table; returns the inode row.

        Repeated walks of the same parent directory consult a prefix cache
        mapping the parent path to its inode number, skipping the per-
        component dentry/inode queries.  The skipped reads are still
        *counted* on the transaction (``txn.reads``), so the service's
        CPU-cost accounting — and therefore every simulated time — is
        unchanged; only the Python work is saved.  The cache is bypassed
        whenever the transaction has staged writes (read-your-writes), is
        invalidated on every namespace mutation touching a walked
        directory, and is cleared wholesale on crash recovery.
        """
        if _depth > _MAX_SYMLINK_DEPTH:
            raise FsError.einval(f"too many levels of symbolic links: {path}")
        parts = components(path)
        n = len(parts)
        row = None
        start = 0
        walked = None
        prefix_key = None
        cacheable = _depth == 0 and n > 1 and not txn._staged
        if cacheable:
            prefix_key = parts[:-1]
            hit = self._resolve_cache.get(prefix_key)
            if hit is not None:
                # Bypass txn.read (no staged writes here) so a stale hit
                # costs nothing; on success, count exactly the reads the
                # step-by-step walk would have issued for the prefix.
                row = self.db.table("inodes").read(hit[0])
                if row is not None:
                    txn.reads += 2 * (n - 1) + 1
                    start = n - 1
                else:  # pragma: no cover - invalidation keeps this fresh
                    self._forget_resolve(prefix_key)
                    row = None
            if start == 0:
                walked = []
        if row is None or start == 0:
            row = txn.read("inodes", self.root_vino)
        for index in range(start, n):
            name = parts[index]
            if row["kind"] != DIRECTORY:
                raise FsError.enotdir(path)
            if walked is not None and index == n - 1:
                # The whole parent prefix resolved without symlinks:
                # remember it before the (possibly failing) leaf step.
                self._remember_resolve(prefix_key, row["vino"], walked)
            dentry = txn.read("dentries", (row["vino"], name))
            if dentry is None:
                self._absent_dentry(txn, path, parts, index)
            child = txn.read("inodes", dentry["vino"])
            if child is None:
                child = self._missing_child(txn, path, dentry, index == n - 1)
            last = index == n - 1
            if child["kind"] == SYMLINK and (follow or not last):
                target = child["target"]
                if not target.startswith("/"):
                    target = "/" + "/".join(parts[:index]) + "/" + target
                rest = "/".join(parts[index + 1:])
                if rest:
                    target = f"{target}/{rest}"
                return self._resolve_retarget(txn, target, follow, _depth + 1)
            if walked is not None and not last:
                walked.append(row["vino"])
            row = child
        return row

    def _resolve_retarget(self, txn, target, follow, depth):
        """Continue resolution at a symlink's rewritten target path.

        The sharded service overrides this to forward the walk when the
        target's owner is another shard; here it simply recurses.
        """
        return self._txn_resolve(txn, target, follow, _depth=depth)

    def _absent_dentry(self, txn, path, parts, index):
        """No dentry for ``parts[index]``: plain ENOENT on a single service.

        The sharded service overrides this — a *middle* component absent
        here may be a partitioned file on the shard owning the enclosing
        directory's entries, which must answer (ENOTDIR) authoritatively.
        """
        raise FsError.enoent(path)

    def _missing_child(self, txn, path, dentry, last):
        """A dentry whose inode is absent: dangling on a single service.

        The sharded service overrides this — a dentry may point at an inode
        homed on another shard (cross-shard hard links).
        """
        raise FsError.enoent(path)

    #: bound on cached resolution prefixes; overflow clears the cache.
    _RESOLVE_CACHE_MAX = 512

    def _remember_resolve(self, prefix_key, parent_vino, walked):
        if len(self._resolve_cache) >= self._RESOLVE_CACHE_MAX:
            self._resolve_cache.clear()
            self._resolve_by_parent.clear()
        self._resolve_cache[prefix_key] = (parent_vino, walked)
        by_parent = self._resolve_by_parent
        for vino in walked:
            bucket = by_parent.get(vino)
            if bucket is None:
                bucket = by_parent[vino] = set()
            bucket.add(prefix_key)

    def _forget_resolve(self, prefix_key):
        self._resolve_cache.pop(prefix_key, None)

    def _invalidate_resolve(self, parent_vino):
        """Drop cached prefixes that read a dentry under ``parent_vino``."""
        keys = self._resolve_by_parent.pop(parent_vino, None)
        if keys:
            cache = self._resolve_cache
            for key in keys:
                cache.pop(key, None)

    def _txn_resolve_parent(self, txn, path):
        parent_path, name = split(path)
        if not name:
            raise FsError.einval(f"path has no leaf component: {path}")
        parent = self._txn_resolve(txn, parent_path)
        if parent["kind"] != DIRECTORY:
            raise FsError.enotdir(parent_path)
        return parent, name

    def _txn_assign_bucket(self, txn, node, parent_vino, pid):
        """Pick (and count) the underlying directory for a new file."""
        cap = self.config.max_entries_per_dir
        bucket = self.policy.bucket_for(node, parent_vino, pid, self.rng)
        overflow = self.policy.overflow_candidates(bucket)
        chosen = None
        for candidate in itertools.chain([bucket], overflow):
            row = txn.read_for_update("buckets", candidate) \
                or {"path": candidate, "count": 0}
            if cap <= 0 or not overflow or row["count"] < cap:
                row["count"] += 1
                txn.write("buckets", row)
                chosen = candidate
                break
        if chosen is None:  # pragma: no cover - overflow space exhausted
            raise FsError.einval("placement space exhausted")
        return chosen

    def _txn_bucket_adjust(self, txn, upath, delta):
        """Adjust the placement counter charged for ``upath``'s bucket.

        The single accounting primitive shared by unlink, rename-replace
        and the sharded tier's row migrations.  A missing counter row is
        created for a positive charge and skipped for a release (nothing
        to give back).
        """
        bucket, _slash, _leaf = upath.rpartition("/")
        row = txn.read_for_update("buckets", bucket)
        if row is None:
            if delta <= 0:
                return
            row = {"path": bucket, "count": 0}
        row["count"] = max(0, row["count"] + delta)
        txn.write("buckets", row)

    def _attr_view(self, row):
        """The wire form of an inode row (a plain dict)."""
        return {
            "vino": row["vino"], "kind": row["kind"], "mode": row["mode"],
            "uid": row["uid"], "gid": row["gid"], "nlink": row["nlink"],
            "size": row["size"], "atime": row["atime"], "mtime": row["mtime"],
            "ctime": row["ctime"], "upath": row["upath"],
            "delegated": row["delegated"], "target": row["target"],
        }

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------

    def getattr(self, path):
        yield from self._dispatch()
        row = yield from self.dbsvc.execute(
            lambda txn: self._txn_resolve(txn, path)
        )
        return self._attr_view(row)

    def create_node(self, path, kind, mode, uid, gid, node, pid, now,
                    target=None):
        """Create a file/directory/symlink in the virtual namespace.

        For regular files, assigns the underlying path via the placement
        policy.  Returns the new inode's wire view.
        """
        yield from self._dispatch()
        row = yield from self.dbsvc.execute(
            self._create_body(path, kind, mode, uid, gid, node, pid, now,
                              target))
        return self._attr_view(row)

    def _create_body(self, path, kind, mode, uid, gid, node, pid, now,
                     target):
        """The create transaction body (wrapped by the sharded service so
        a replication intent commits atomically with the create)."""

        def body(txn):
            parent, name = self._txn_resolve_parent(txn, path)
            if txn.read("dentries", (parent["vino"], name)) is not None:
                raise FsError.eexist(path)
            vino = next(self._vino)
            upath = None
            if kind == FILE and node is not None:
                # ``node is None`` marks a metadata-only create (mknod):
                # no underlying object exists, so no placement slot is
                # assigned or charged — the file lives purely in the
                # virtual namespace (the MDS-ceiling probe of the
                # ``mdcreate`` benchmark op).
                bucket = self._txn_assign_bucket(txn, node, parent["vino"], pid)
                upath = f"{bucket}/v{vino:08d}"
            row = {
                "vino": vino, "kind": kind, "mode": mode, "uid": uid,
                "gid": gid, "nlink": 2 if kind == DIRECTORY else 1,
                "size": 0, "atime": now, "mtime": now, "ctime": now,
                "target": target, "upath": upath, "delegated": False,
            }
            txn.insert("inodes", row)
            self._invalidate_resolve(parent["vino"])
            txn.insert("dentries", {
                "key": (parent["vino"], name), "parent": parent["vino"],
                "name": name, "vino": vino,
            })
            parent = dict(parent)  # reads are read-only views; copy to mutate
            parent["mtime"] = parent["ctime"] = now
            if kind == DIRECTORY:
                parent["nlink"] += 1
            txn.write("inodes", parent)
            return row

        return body

    #: inode fields a client may set directly.
    _SETTABLE = frozenset({"mode", "uid", "gid", "atime", "mtime", "size"})

    def _check_setattr(self, changes):
        bad = set(changes) - self._SETTABLE
        if bad:
            raise FsError.einval(f"setattr of non-settable fields: {bad}")

    def setattr(self, path, changes, now):
        """Update mode/uid/gid/times of the object at ``path``."""
        yield from self._dispatch()
        self._check_setattr(changes)
        row = yield from self.dbsvc.execute(
            self._setattr_body(path, changes, now))
        return self._attr_view(row)

    def _setattr_body(self, path, changes, now):
        """The setattr transaction body (wrapped by the sharded service)."""

        def body(txn):
            row = dict(self._txn_resolve(txn, path))
            row.update(changes)
            row["ctime"] = now
            txn.write("inodes", row)
            return row

        return body

    def unlink(self, path, now):
        """Remove a non-directory name; returns (upath, last_link)."""
        yield from self._dispatch()
        outcome = yield from self.dbsvc.execute(self._unlink_body(path, now))
        return outcome[1]

    def _unlink_stub_home(self, dentry):
        """Hook: the home shard of a remote-inode stub dentry (None here)."""
        return None

    def _unlink_body(self, path, now):
        """The unlink transaction body, returning ``(kind, (upath, last))``
        — or ``("#stub", vino, home)`` on a sharded service's stub name."""

        def body(txn):
            parent, name = self._txn_resolve_parent(txn, path)
            dentry = txn.read("dentries", (parent["vino"], name))
            if dentry is None:
                raise FsError.enoent(path)
            home = self._unlink_stub_home(dentry)
            if home is not None:
                # Stub name: remove it here, adjust the inode at home.
                self._invalidate_resolve(parent["vino"])
                txn.delete("dentries", (parent["vino"], name))
                up = dict(parent)
                up["mtime"] = up["ctime"] = now
                txn.write("inodes", up)
                return ("#stub", dentry["vino"], home)
            row = txn.read_for_update("inodes", dentry["vino"])
            if row is None:
                raise FsError.enoent(path)
            if row["kind"] == DIRECTORY:
                raise FsError.eisdir(path)
            self._invalidate_resolve(parent["vino"])
            txn.delete("dentries", (parent["vino"], name))
            upath, last = self._drop_link(txn, row, now)
            parent = dict(parent)
            parent["mtime"] = parent["ctime"] = now
            txn.write("inodes", parent)
            return (row["kind"], (upath, last))

        return body

    def _drop_link(self, txn, row, now):
        """Drop one link from ``row`` (already read for update): on the
        last link, delete the inode and release its placement slot.
        Returns ``(upath, last)``.  Shared with the sharded service's
        vino-addressed unlink so the two paths can never diverge."""
        row["nlink"] -= 1
        row["ctime"] = now
        last = row["nlink"] <= 0
        if last:
            txn.delete("inodes", row["vino"])
            if row["upath"] is not None:
                self._txn_bucket_adjust(txn, row["upath"], -1)
        else:
            txn.write("inodes", row)
        return (row["upath"], last)

    def rmdir(self, path, now):
        yield from self._dispatch()
        result = yield from self.dbsvc.execute(self._rmdir_body(path, now))
        return result

    def _rmdir_body(self, path, now):
        """The rmdir transaction body (wrapped by the sharded service)."""

        def body(txn):
            parent, name = self._txn_resolve_parent(txn, path)
            dentry = txn.read("dentries", (parent["vino"], name))
            if dentry is None:
                raise FsError.enoent(path)
            row = txn.read("inodes", dentry["vino"])
            if row is None:
                # No local inode: on a sharded service this is a hard-link
                # stub (whose inode lives on its home shard) — never a dir.
                raise FsError.enotdir(path)
            if row["kind"] != DIRECTORY:
                raise FsError.enotdir(path)
            if txn.index_read("dentries", "parent", row["vino"]):
                raise FsError.enotempty(path)
            self._invalidate_resolve(parent["vino"])
            self._invalidate_resolve(row["vino"])
            txn.delete("dentries", (parent["vino"], name))
            txn.delete("inodes", row["vino"])
            parent = dict(parent)
            parent["nlink"] -= 1
            parent["mtime"] = parent["ctime"] = now
            txn.write("inodes", parent)
            return True

        return body

    def readdir(self, path):
        yield from self._dispatch()

        def body(txn):
            row = self._txn_resolve(txn, path)
            if row["kind"] != DIRECTORY:
                raise FsError.enotdir(path)
            names = [d["name"] for d in
                     txn.index_read("dentries", "parent", row["vino"])]
            return sorted(names)

        names = yield from self.dbsvc.execute(body)
        return names

    def rename(self, old, new, now):
        """Move a name in the virtual tree; the underlying path is untouched
        (placement is decoupled from naming — renames never move data)."""
        yield from self._dispatch()
        result = yield from self._rename_local(old, new, now)
        return result

    def _rename_replace_stub(self, txn, existing, pending):
        """Hook: is ``existing`` a remote-inode stub some other shard owns?

        Always false on a single service; the sharded override queues the
        remote link-count adjustment on ``pending`` and answers true.
        """
        return False

    def _resolve_rename_old(self, txn, old):
        """Hook: resolve the rename *source*'s parent directory.

        The sharded service pins this walk to the local replica of the
        skeleton: its peek already fixed the source on that shard, and a
        forward raised while re-walking the source would be mistaken for
        a *destination* forward by rename's redispatch handlers.
        """
        return self._txn_resolve_parent(txn, old)

    def _rename_local(self, old, new, now, pending=None, replaced=None):
        """Coroutine: the rename transaction against this service's tables.

        ``pending`` (sharded callers) collects remote inode adjustments the
        body cannot perform in-transaction; the caller drains it on commit.
        ``replaced`` collects the kinds of inodes the rename destroyed, so
        a sharded caller can tell when a replicated symlink died and its
        replicas on other shards must be removed too.
        """
        result = yield from self.dbsvc.execute(
            self._rename_body(old, new, now, pending, replaced))
        return result

    def _rename_body(self, old, new, now, pending=None, replaced=None):
        """The rename transaction body (reused by sharded mirror replays)."""

        def body(txn):
            old_parent, old_name = self._resolve_rename_old(txn, old)
            dentry = txn.read("dentries", (old_parent["vino"], old_name))
            if dentry is None:
                raise FsError.enoent(old)
            moving = txn.read_for_update("inodes", dentry["vino"])
            if moving is not None and moving["kind"] == DIRECTORY:
                # POSIX: a directory cannot become its own descendant
                # (the insert would cycle the tree and strand the whole
                # subtree from the root).  A path-prefix test suffices
                # for canonical paths; reaching the moving directory
                # through a symlink is not detected (known limitation —
                # real implementations walk the new parent's ancestry).
                norm_old, norm_new = normalize(old), normalize(new)
                if norm_new.startswith(norm_old + "/"):
                    raise FsError.einval(
                        f"cannot move a directory beneath itself: "
                        f"{old} -> {new}")
            new_parent, new_name = self._txn_resolve_parent(txn, new)
            # Always two distinct copies, even for a same-directory rename:
            # the original read-as-copy semantics kept them independent.
            old_parent = dict(old_parent)
            new_parent = dict(new_parent)
            existing = txn.read("dentries", (new_parent["vino"], new_name))
            replaced_upath, replaced_last = None, False
            if existing is not None:
                if existing["vino"] == moving["vino"]:
                    return (None, False)
                if self._rename_replace_stub(txn, existing, pending):
                    # The stub is never a directory, so replacing it with
                    # one is ENOTDIR, exactly like replacing a plain file;
                    # the remote inode is adjusted by the sharded caller.
                    if moving["kind"] == DIRECTORY:
                        raise FsError.enotdir(new)
                else:
                    target = txn.read_for_update("inodes", existing["vino"])
                    if target["kind"] == DIRECTORY:
                        if moving["kind"] != DIRECTORY:
                            raise FsError.eisdir(new)
                        if txn.index_read("dentries", "parent", target["vino"]):
                            raise FsError.enotempty(new)
                        self._invalidate_resolve(target["vino"])
                        txn.delete("inodes", target["vino"])
                        new_parent["nlink"] -= 1
                        if new_parent["vino"] == old_parent["vino"]:
                            # Read-as-copy: both names share one parent
                            # row, but a same-parent rename writes back
                            # only the old_parent copy — mirror the
                            # replaced subdirectory's drop there too.
                            old_parent["nlink"] -= 1
                        if replaced is not None:
                            replaced.append(target["kind"])
                    else:
                        if moving["kind"] == DIRECTORY:
                            raise FsError.enotdir(new)
                        target["nlink"] -= 1
                        if target["nlink"] <= 0:
                            txn.delete("inodes", target["vino"])
                            if target["upath"] is not None:
                                # Release the replaced file's placement
                                # slot, exactly as unlink's _drop_link does.
                                self._txn_bucket_adjust(
                                    txn, target["upath"], -1)
                            replaced_upath, replaced_last = target["upath"], True
                            if replaced is not None:
                                replaced.append(target["kind"])
                        else:
                            txn.write("inodes", target)
                txn.delete("dentries", (new_parent["vino"], new_name))
            self._invalidate_resolve(old_parent["vino"])
            self._invalidate_resolve(new_parent["vino"])
            txn.delete("dentries", (old_parent["vino"], old_name))
            txn.insert("dentries", {
                "key": (new_parent["vino"], new_name),
                "parent": new_parent["vino"], "name": new_name,
                "vino": moving["vino"],
            })
            if moving["kind"] == DIRECTORY and \
                    old_parent["vino"] != new_parent["vino"]:
                old_parent["nlink"] -= 1
                new_parent["nlink"] += 1
            moving["ctime"] = now
            txn.write("inodes", moving)
            old_parent["mtime"] = old_parent["ctime"] = now
            txn.write("inodes", old_parent)
            if new_parent["vino"] != old_parent["vino"]:
                new_parent["mtime"] = new_parent["ctime"] = now
                txn.write("inodes", new_parent)
            return (replaced_upath, replaced_last)

        return body

    def link(self, src, dst, now):
        """Hard link: a second virtual name for the same inode (and thus the
        same underlying file — nothing happens beneath)."""
        yield from self._dispatch()

        def body(txn):
            row = dict(self._txn_resolve(txn, src, follow=False))
            if row["kind"] == DIRECTORY:
                raise FsError.eisdir(src)
            parent, name = self._txn_resolve_parent(txn, dst)
            if txn.read("dentries", (parent["vino"], name)) is not None:
                raise FsError.eexist(dst)
            self._invalidate_resolve(parent["vino"])
            txn.insert("dentries", {
                "key": (parent["vino"], name), "parent": parent["vino"],
                "name": name, "vino": row["vino"],
            })
            row["nlink"] += 1
            row["ctime"] = now
            txn.write("inodes", row)
            parent = dict(parent)
            parent["mtime"] = parent["ctime"] = now
            txn.write("inodes", parent)
            return row

        row = yield from self.dbsvc.execute(body)
        return self._attr_view(row)

    def readlink(self, path):
        yield from self._dispatch()

        def body(txn):
            row = self._txn_resolve(txn, path, follow=False)
            if row["kind"] != SYMLINK:
                raise FsError.einval(f"not a symlink: {path}")
            return row["target"]

        target = yield from self.dbsvc.execute(body)
        return target

    def open_map(self, path, for_write, now):
        """Resolve for open: returns the wire view, marking write delegation."""
        yield from self._dispatch()

        def body(txn):
            row = self._txn_resolve(txn, path)
            if for_write:
                if row["kind"] == DIRECTORY:
                    raise FsError.eisdir(path)
                row = dict(row)
                row["delegated"] = True
                txn.write("inodes", row)
            return row

        row = yield from self.dbsvc.execute(body)
        return self._attr_view(row)

    def close_sync(self, vino, size, mtime, now):
        """Write-back of delegated size/mtime when a writer closes."""
        yield from self._dispatch()

        def body(txn):
            row = txn.read_for_update("inodes", vino)
            if row is None:
                return False  # unlinked while open; nothing to sync
            row["size"] = max(row["size"], size)
            row["mtime"] = mtime
            row["ctime"] = now
            row["delegated"] = False
            txn.write("inodes", row)
            return True

        result = yield from self.dbsvc.execute(body)
        return result

    def live_upaths(self):
        """Every underlying path a live file references (one read txn).

        The underlying-object scrubber (:mod:`repro.core.scrub`) compares
        these against actual bucket contents to find objects orphaned by
        client-side cleanup that died after the metadata commit.
        """
        yield from self._dispatch()

        def body(txn):
            return sorted(
                row["upath"] for row in txn.match("inodes")
                if row["kind"] == FILE and row["upath"]
            )

        paths = yield from self.dbsvc.execute(body)
        return paths

    def statfs(self):
        """Namespace-level statistics (one read transaction)."""
        yield from self._dispatch()

        def body(txn):
            rows = txn.match("inodes")
            files = sum(1 for r in rows if r["kind"] == FILE)
            dirs = sum(1 for r in rows if r["kind"] == DIRECTORY)
            return {"files": files, "directories": dirs,
                    "inodes": len(rows)}

        stats = yield from self.dbsvc.execute(body)
        return stats

    # -- fault injection / recovery -------------------------------------------

    def recover(self):
        """Coroutine: crash the service node and recover from the journal.

        Rebuilds the tables from the durable journal prefix (Mnesia log
        replay), then re-seats the inode-number allocator above every
        surviving inode.  Returns the number of lost update transactions
        (0 under the default synchronous log policy).
        """
        lost = yield from self.dbsvc.crash_and_recover()
        self._resolve_cache.clear()
        self._resolve_by_parent.clear()
        vinos = [row["vino"] for row in self.db.table("inodes").all()]
        next_vino = (max(vinos) + 1) if vinos else 1
        self._vino = itertools.count(next_vino)
        return lost

    # -- diagnostics -----------------------------------------------------------

    def bucket_counts(self):
        """Snapshot of placement counters (tests / reports)."""
        return {
            row["path"]: row["count"] for row in self.db.table("buckets").all()
        }
