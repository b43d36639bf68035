"""Coordination: intent/prepare/dedup records and cross-shard protocols.

The 2-phase prepare/commit layer of the sharded tier:

- **Records** (table ``intents``): coordinator *intents* journaled
  atomically with the first local change, participant *prepare* records
  journaled atomically with install/bump, and *dedup* records guarding
  each remote link-count drop so redo applies it exactly once.
- **Cross-shard rename**: detach → ``rename_install`` (the commit point:
  its transaction carries the prepare record) → compensate on failure.
  Renames of replicated objects are a two-phase skeleton flip replayed
  on every shard (``docs/rename-visibility.md``).  A renamed directory
  moves names, never entries: each moved directory whose static owner
  changes is *pinned* by a routing row where its entries already are,
  and only load moves them later (:mod:`repro.core.shard.rebalance`).
- **Cross-shard link**: intent before any remote bump; the coordinator's
  dentry-insert transaction atomically deletes the intent (the commit
  point); ``link_abort`` rolls an optimistic bump back.

Recovery's completion pass (:mod:`repro.core.shard.recovery`) resolves
every surviving record — but only records whose coordinator is provably
dead.  Every record carries its coordinator's **recovery epoch**
(captured when the operation started), every coordinated peer RPC carries
the same ``(coordinator, epoch)`` stamp, and participants refuse stamps
older than the fence a recovery installed
(:class:`~repro.core.shard.routing.EpochFenced`).  The coordinator turns
a fence into a clean abort: compensations are record-guarded, so a
recovery that already resolved the intent makes them no-ops, and work
past the commit point is abandoned to the recovery's idempotent redo.
"""

from inspect import isgenerator

from repro import obs
from repro.core.shard.routing import (
    EpochFenced,
    MemberDown,
    ResolveForward,
    VinoForward,
)
from repro.pfs.errors import FsError
from repro.pfs.types import DIRECTORY, FILE, SYMLINK, normalize


class ShardCoordinationPart:
    """Mixin: coordination records + cross-shard rename/link protocols."""

    # -- coordination records (intent / prepare / dedup) -------------------

    def _new_tid(self):
        """A fresh intent id, unique per shard and across recoveries.

        The id is also registered as *live*: a coordinator process is now
        driving this transaction.  The caller must pair it with a
        ``finally: self._done_tids(...)`` so a finished (or killed)
        operation stops answering recovery's liveness probe.
        """
        tid = f"s{self.shard_id}.{next(self._intent_seq)}"
        self._live_tids.add(tid)
        return tid

    def _done_tids(self, *tids):
        """The coordinator process for these intents has ended (any way)."""
        for tid in tids:
            if isinstance(tid, (list, tuple, set)):
                self._live_tids.difference_update(tid)
            else:
                self._live_tids.discard(tid)

    def _coordinated(self, tids, body=None, run=None, tail=None, local=False,
                     swallow=(EpochFenced,), on_forward=None, on_vino=None,
                     on_fserror=None):
        """Coroutine: one coordinated mutation under a single tid lifecycle.

        The scaffold every intent-journaling operation used to hand-roll,
        in two shapes:

        - **txn mode** (``body``): run the intent-journaling transaction
          ``body``, then the post-commit side-effect ``tail``.  Any
          exception out of the transaction deregisters ``tids`` before it
          propagates: a forward restarts the operation through
          ``on_forward``/``on_vino`` (their return value becomes the
          result), a non-fence :class:`FsError` is handed to
          ``on_fserror`` (compensate and re-raise, or swallow and return
          a substitute), and everything else — including a fence, which
          must surface so the caller retries under the live epoch — is
          re-raised as-is.  ``tail`` is a coroutine taking a one-element
          result *box* ``[result]`` that it mutates as side effects land;
          an exception in ``swallow`` (default :class:`EpochFenced`:
          fenced past the commit point, the journaled intent hands the
          remaining side effects to recovery's redo) is absorbed and the
          box returns exactly what had landed by then.  Handlers may be
          plain functions or coroutines.
        - **protocol mode** (``run``): drive a multi-transaction protocol
          coroutine to completion with ``tids`` deregistered however it
          exits (cross-shard rename and link, whose fence handling lives
          with their commit points).
        """
        if run is not None:
            try:
                result = yield from run
            finally:
                self._done_tids(tids)
            return result
        try:
            result = yield from self.dbsvc.execute(
                self._local_body(body) if local else body)
        except ResolveForward as fwd:
            self._done_tids(tids)
            if on_forward is None:
                raise
            result = on_forward(fwd)
            if isgenerator(result):
                result = yield from result
            return result
        except VinoForward as fwd:
            self._done_tids(tids)
            if on_vino is None:
                raise
            result = on_vino(fwd)
            if isgenerator(result):
                result = yield from result
            return result
        except EpochFenced:
            self._done_tids(tids)
            raise
        except FsError as exc:
            self._done_tids(tids)
            if on_fserror is None:
                raise
            result = on_fserror(exc)
            if isgenerator(result):
                result = yield from result
            return result
        except BaseException:
            self._done_tids(tids)
            raise
        box = [result]
        try:
            if tail is not None:
                yield from tail(box)
        except swallow:
            pass
        finally:
            self._done_tids(tids)
        return box[0]

    def _txn_intent(self, txn, epoch, rec):
        """Journal a coordinator intent stamped with the op's epoch.

        The self-fence check makes the whole transaction atomic with the
        epoch: an operation that captured its epoch before a recovery of
        this very shard (a "zombie" coordinator) aborts here, before any
        stale record or local change can commit.  The fenced tid is
        deregistered on the spot — the aborting transaction means no
        caller list ever learns the id, so the ``finally`` handlers at
        the call sites could not release it.
        """
        fence = self.fences.get(self.shard_id, 0)
        if epoch < fence:
            self._done_tids(rec["id"])
            if obs.METRICS is not None:
                obs.METRICS.incr("epoch_fenced", self.shard_id)
            raise EpochFenced(self.shard_id, epoch, fence)
        rec["epoch"] = epoch
        txn.insert("intents", rec)
        if obs.TRACER is not None:
            obs.TRACER.event("intent_journaled", self.sim.now,
                             tid=rec["id"], op=rec.get("op"))
        return rec["id"]

    @staticmethod
    def _stamp_epoch(stamp):
        """The coordinator epoch to record for a participant record."""
        return 0 if stamp is None else stamp[1]

    def tid_live(self, tid):
        """RPC (shard-to-shard): is a coordinator process still driving
        ``tid`` here?  Recovery asks before reclaiming a record it cannot
        prove dead by epoch: a live answer means a healthy coordinator
        will finish (or compensate) the operation itself."""
        yield from self._dispatch()
        return tid in self._live_tids

    @staticmethod
    def _part_id(tid):
        """The participant (prepare) record id derived from ``tid``."""
        return f"{tid}@p"

    @staticmethod
    def _dedup_id(tid, vino):
        """The dedup record id guarding one remote link-count drop."""
        return f"{tid}#d{vino}"

    def intent_forget(self, rid):
        """RPC (also used locally): durably drop one coordination record."""
        yield from self._dispatch()

        def body(txn):
            if txn.read("intents", rid) is None:
                return False
            txn.delete("intents", rid)
            return True

        result = yield from self.dbsvc.execute(body)
        return result

    def open_intents(self):
        """RPC: every unresolved coordination record on this shard."""
        yield from self._dispatch()

        def body(txn):
            return [dict(row) for row in txn.match("intents")]

        rows = yield from self.dbsvc.execute(body)
        return rows

    def has_record(self, rid):
        """RPC (also used locally): does this coordination record still
        exist here?  Recovery's freshness checks — a gather snapshot goes
        stale the moment a live coordinator progresses, so every
        resolution decision re-reads the records it hinges on *after*
        the coordinator is known dead (a dead coordinator's records can
        no longer change; its in-flight RPC handlers died with it)."""
        yield from self._dispatch()

        def body(txn):
            return txn.read("intents", rid) is not None

        exists = yield from self.dbsvc.execute(body)
        return exists

    def _find_record(self, rid):
        """Coroutine: which shard (if any) currently holds ``rid``."""
        for shard in range(self.n_shards):
            if (yield from self._call_shard(shard, "has_record", rid)):
                return shard
        return None

    def _gather_intents(self):
        """Coroutine: ``(shard, record)`` for every open record tier-wide."""
        records = []
        for shard in range(self.n_shards):
            rows = yield from self._call_shard(shard, "open_intents")
            records.extend((shard, row) for row in rows)
        return records

    def _forget_dedups(self, tid, pending):
        """Coroutine: drop the dedup records a drained op left at homes."""
        for home, vino in pending:
            yield from self._peer(
                home, "intent_forget", self._dedup_id(tid, vino))
        return True

    def _drain_pending(self, pending, now, tid=None, stamp=None):
        """Coroutine: run remote inode adjustments a txn body queued.

        ``pending`` is the caller-owned list its transaction body filled
        (never instance state: bodies of concurrent operations must not
        see each other's queues).  Returns the remote ``(upath, last)``
        outcomes so a rename that replaced a stub name can report the
        underlying path to unlink.  With ``tid``, each drop is guarded by
        a dedup record at its home shard so a post-crash redo applies it
        exactly once.  ``stamp`` is the *originating coordinator's*
        ``(shard, epoch)`` — threaded through even when a participant
        drains on the coordinator's behalf, so the drop (and its dedup
        record) lives and dies with the operation that owns ``tid``.
        """
        outcomes = []
        for home, vino in pending:
            dedup = None if tid is None else self._dedup_id(tid, vino)
            outcomes.append(
                (yield from self._peer(home, "unlink_vino", vino, now,
                                       dedup, stamp)))
        return outcomes

    @staticmethod
    def _merge_replaced(result, outcomes):
        """Fold remote unlink outcomes into a rename's (upath, last)."""
        replaced_upath, replaced_last = result
        for outcome in outcomes:
            if outcome and outcome[0] is not None and outcome[1]:
                replaced_upath, replaced_last = outcome[0], outcome[1]
        return (replaced_upath, replaced_last)

    # -- base-service hooks -------------------------------------------------

    def _rename_replace_stub(self, txn, existing, pending):
        home = existing.get("home")
        if home is None or home == self.shard_id:
            return False
        pending.append((home, existing["vino"]))
        return True

    def _unlink_stub_home(self, dentry):
        home = dentry.get("home")
        if home is None or home == self.shard_id:
            return None
        return home

    # -- rename: local, replicated, and cross-shard ------------------------

    def rename(self, old, new, now, _hops=0):
        self._check_hops(_hops, old)
        yield from self._dispatch()
        epoch = self.epoch

        def peek(txn):
            parent, name = self._txn_resolve_parent(txn, old)
            dentry = txn.read("dentries", (parent["vino"], name))
            if dentry is None:
                raise FsError.enoent(old)
            home = dentry.get("home")
            if home is not None and home != self.shard_id:
                return (None, dentry["vino"], home, 0)
            row = txn.read("inodes", dentry["vino"])
            if row is None:
                raise FsError.enoent(old)
            # The flip's seq floor: the replica's high-water retire seq,
            # or — when ``old`` resolved through a staged alias whose
            # retire has not landed here yet — that alias's seq, so a
            # chained rename orders strictly after the flip it rides on.
            rseq = max(row.get("rseq", 0), dentry.get("staged") or 0)
            return (row["kind"], row["vino"], None, rseq)

        try:
            kind, vino, home, rseq = yield from self.dbsvc.execute(peek)
        except ResolveForward as fwd:
            result = yield from self._redispatch(
                fwd, "rename", fwd.path, new, now, _hops + 1)
            return result

        if normalize(old) == normalize(new):
            # POSIX: renaming a name onto itself (same dentry) succeeds
            # without doing anything.  The transaction body's same-vino
            # check would answer this too, but the replicated/cross-shard
            # branches run destination prechecks (peer ENOTEMPTY/ENOTDIR)
            # *before* any transaction — and the "occupied" destination
            # is the moving inode itself, so those must not fire.
            return (None, False)
        dst = self._owner_of(new)
        if kind in (DIRECTORY, SYMLINK):
            return (yield from self._rename_replicated(
                kind, vino, old, new, dst, now, _hops, epoch, rseq))
        if dst != self.shard_id or home is not None:
            # Cross-shard (or stub) file rename: the destination parent is
            # walked only *after* the detach removed the old name, so a
            # destination beneath the source itself would read as ENOENT.
            # The one-transaction local rename sees the still-attached
            # source on that walk and answers ENOTDIR — do the same here,
            # before any state moves.  (A symlink source never takes this
            # branch: walking through it follows its target.)
            norm_old, norm_new = normalize(old), normalize(new)
            if norm_new.startswith(norm_old + "/"):
                raise FsError.enotdir(new)
        if dst == self.shard_id and home is None:
            # Entirely this shard's business: the base transaction, plus
            # an intent when it leaves redoable remote work behind (a
            # replaced stub's link drop, a replaced symlink's replicas).
            pending, replaced, tids = [], [], []
            inner = self._rename_body(old, new, now, pending, replaced)

            def body(txn):
                result = inner(txn)
                if pending or SYMLINK in replaced:
                    tids.append(self._txn_intent(txn, epoch, {
                        "id": self._new_tid(), "role": "coord",
                        "op": "rename_post", "new": new, "now": now,
                        "pending": list(pending),
                        "replaced_symlink": SYMLINK in replaced,
                    }))
                return result

            def on_forward(fwd):
                if fwd.final:
                    # The retry below walks the same local skeleton, so
                    # it cannot answer what only the entries owner can;
                    # the probe raises the authoritative error.
                    yield from self._probe_dst_parent(fwd, _hops)
                retried = yield from self.rename(old, fwd.path, now, _hops + 1)
                return retried

            def tail(box):
                if not tids:
                    return
                tid = tids[0]
                drained = yield from self._drain_pending(
                    pending, now, tid, self._stamp(epoch))
                box[0] = self._merge_replaced(box[0], drained)
                if SYMLINK in replaced:
                    # The rename destroyed a replicated symlink at
                    # ``new``; its replicas on every other shard must
                    # die with it (as unlink does), or stale replicas
                    # keep resolving.
                    yield from self._broadcast(
                        "mirror_unlink", new, now,
                        stamp=self._stamp(epoch))
                yield from self.intent_forget(tid)
                yield from self._forget_dedups(tid, pending)

            return (yield from self._coordinated(
                tids, body=body, tail=tail, on_forward=on_forward))
        return (yield from self._rename_cross_shard(
            old, new, vino, home, dst, now, _hops, epoch))

    def _probe_dst_parent(self, fwd, _hops):
        """Coroutine: answer a *final* destination-parent forward in place.

        rename is pinned to its source's shard (the peek fixed the
        source here), so a final forward from the destination's parent
        walk cannot restart the whole operation on the forward's target
        the way self-contained ops are re-dispatched — the source's
        dentry would not be visible there.  Ask that shard to run the
        walk instead: its ENOENT/ENOTDIR is the operation's answer, and
        a clean return means the component landed meanwhile (a mirror
        broadcast), so the caller's local retry can make progress.
        """
        shard, path = fwd.shard, fwd.path
        while True:
            self._check_hops(_hops, path)
            outcome = yield from self._call_shard(
                shard, "probe_parent", path)
            if outcome is None:
                return
            _tag, shard, path = outcome
            _hops += 1

    # -- the skeleton flip (replicated rename) ------------------------------

    def _txn_stage_alias(self, txn, old, new, seq, vino):
        """Txn fragment: plant the staged alias for ``new`` (flip phase 1).

        The alias is a plain dentry carrying ``staged`` (the flip's seq)
        and ``prev`` (the old path it shadows): resolution falls through
        it like any dentry, so the new name answers during the broadcast
        window, but nothing else changes — no inode move, no nlink, no
        parent-time bumps.  Skipped when the destination name is already
        taken (the commit's rename body pronounces on replacements).
        """
        parent, name = self._txn_resolve_parent(txn, new)
        if txn.read("dentries", (parent["vino"], name)) is not None:
            return False
        txn.insert("dentries", {
            "key": (parent["vino"], name), "parent": parent["vino"],
            "name": name, "vino": vino, "staged": seq, "prev": old,
        })
        self._invalidate_resolve(parent["vino"])
        return True

    def _txn_gc_alias(self, txn, new, seq, vino):
        """Txn fragment: drop a staged alias for ``new`` (unstage, or a
        stale retire's garbage collection), leaving anything real — or
        staged by a newer flip — alone."""
        try:
            parent, name = self._txn_resolve_parent(txn, new)
        except FsError:
            return False
        dentry = txn.read("dentries", (parent["vino"], name))
        if (dentry is None or dentry.get("staged") is None
                or dentry["vino"] != vino or dentry["staged"] > seq):
            return False
        txn.delete("dentries", (parent["vino"], name))
        self._invalidate_resolve(parent["vino"])
        return True

    def _txn_collapse_chain(self, txn, old, vino):
        """Txn fragment: make ``old`` a real dentry before a fresh retire.

        A chained rename (a→b→c) can deliver this flip's retire while an
        *earlier* flip's retire is still in flight: ``old`` then holds a
        staged alias rather than the real dentry.  Follow the aliases'
        ``prev`` links back to the canonical name, drop the intermediate
        aliases, and move the real dentry (with the cross-parent
        directory-nlink transfer the skipped retires would have done)
        under ``old``'s key, so the rename body applies exactly as if
        the earlier retires had landed first — newest-seq-wins makes
        them no-ops when they do arrive.  Bails out untouched on any
        broken link (a concurrent retire landed mid-walk); replays
        converge regardless.
        """
        parent, name = self._txn_resolve_parent(txn, old)
        head = txn.read("dentries", (parent["vino"], name))
        if head is None or head.get("staged") is None or head["vino"] != vino:
            return False
        chain = [(parent["vino"], name)]
        cur_parent, cur_name, cur = parent, name, head
        for _hop in range(64):
            prev_path = cur.get("prev")
            if prev_path is None:
                return False
            try:
                cur_parent, cur_name = self._txn_resolve_parent(
                    txn, prev_path)
            except FsError:
                return False
            cur = txn.read("dentries", (cur_parent["vino"], cur_name))
            if cur is None or cur["vino"] != vino:
                return False
            if cur.get("staged") is None:
                break
            chain.append((cur_parent["vino"], cur_name))
        else:
            return False
        for alias_parent, alias_name in chain:
            txn.delete("dentries", (alias_parent, alias_name))
            self._invalidate_resolve(alias_parent)
        txn.delete("dentries", (cur_parent["vino"], cur_name))
        self._invalidate_resolve(cur_parent["vino"])
        moved = dict(cur)
        moved["key"] = (parent["vino"], name)
        moved["parent"] = parent["vino"]
        moved["name"] = name
        txn.insert("dentries", moved)
        if cur_parent["vino"] != parent["vino"]:
            row = txn.read("inodes", vino)
            if row is not None and row["kind"] == DIRECTORY:
                src = txn.read_for_update("inodes", cur_parent["vino"])
                if src is not None:
                    src["nlink"] -= 1
                    txn.write("inodes", src)
                dst = txn.read_for_update("inodes", parent["vino"])
                if dst is not None:
                    dst["nlink"] += 1
                    txn.write("inodes", dst)
        return True

    def _txn_flip_apply(self, txn, old, new, now, seq, vino, pending):
        """Txn fragment: one replica's seq-guarded flip commit (retire).

        Shared between the coordinator's commit transaction and the
        ``mirror_rename`` replay, so both judge freshness — and
        normalize chained renames — identically.  Returns the rename
        body's result, or None when this flip is stale here (a newer
        rename of the same object already applied; only this flip's
        staged alias is GC'd — the old name may legitimately be current
        again after a→b→a, so it is never touched on the stale path).
        """
        row = txn.read("inodes", vino)
        if row is None or row.get("rseq", 0) >= seq:
            self._txn_gc_alias(txn, new, seq, vino)
            return None
        self._txn_collapse_chain(txn, old, vino)
        # Drop any staged alias at the destination before the rename
        # body looks at it: our own alias would read as "old and new
        # are already the same inode" (a silent no-op), and a foreign
        # flip's alias as a real replacement with inode bookkeeping.
        try:
            nparent, nname = self._txn_resolve_parent(txn, new)
        except FsError:
            nparent = None
        if nparent is not None:
            ndentry = txn.read("dentries", (nparent["vino"], nname))
            if ndentry is not None and ndentry.get("staged") is not None:
                txn.delete("dentries", (nparent["vino"], nname))
                self._invalidate_resolve(nparent["vino"])
        result = self._rename_body(old, new, now, pending)(txn)
        moved = txn.read_for_update("inodes", vino)
        if moved is not None:
            moved["rseq"] = seq
            txn.write("inodes", moved)
        return result

    def _txn_renamed_routes(self, txn, vino, old, new):
        """Txn fragment: the routing rows directory ``vino``'s subtree
        needs under ``new``, so a rename moves no entry.

        Partitioning is by path, so a rename changes the static owner of
        every moved directory whose new path hashes (or prefixes)
        elsewhere.  Instead of moving its entries — the cost HopsFS
        sidesteps by partitioning on immutable inode ids — every moved
        directory keeps routing where its entries are: a routed one
        carries its row (a split places by name hash, a re-home keeps
        its home), and an unrouted one whose static owner changes is
        *pinned* by a row ``(owner, [owner])``.  The commit transaction
        walks the subtree once, so the walk includes every directory
        created under either name while the flip was in flight.  Returns
        ``[path, owner, shards]`` rows; only load moves entries
        afterwards, through the verified flip of
        :mod:`repro.core.shard.rebalance`.
        """
        sharding, rows = self.sharding, []
        frontier = [(vino, old, new)]
        while frontier:
            dvino, old_path, new_path = frontier.pop()
            route, path = sharding.route_of(old_path)
            if route is None:
                owner = sharding.static_shard_of_dir(path, self.n_shards)
                if owner != sharding.static_shard_of_dir(
                        new_path, self.n_shards):
                    route = (owner, (owner,))
            if route is not None:
                rows.append([new_path, route[0], list(route[1])])
            for dentry in txn.index_read("dentries", "parent", dvino):
                if dentry.get("home") is not None \
                        or dentry.get("staged") is not None:
                    continue
                row = txn.read("inodes", dentry["vino"])
                if row is not None and row["kind"] == DIRECTORY:
                    frontier.append((dentry["vino"],
                                     f"{old_path}/{dentry['name']}",
                                     f"{new_path}/{dentry['name']}"))
        return rows

    def _abort_flip(self, flip_tid, new, seq, vino, stamp):
        """Coroutine: unwind phase 1 of a skeleton flip.

        Remote aliases die first (seq-guarded unstage broadcast), then
        the local alias, the flip intent and the flip's routing alias in
        one transaction — so no instant leaves a replica serving a new
        name the tier can no longer route.  Shared with recovery's
        :meth:`redo_flip`.
        """
        try:
            yield from self._broadcast(
                "mirror_rename_unstage", new, seq, vino, stamp=stamp)

            def body(txn):
                self.sharding.renaming.pop(flip_tid, None)
                if txn.read("intents", flip_tid) is None:
                    return False
                self._txn_gc_alias(txn, new, seq, vino)
                txn.delete("intents", flip_tid)
                return True

            yield from self.dbsvc.execute(self._local_body(body))
        except (EpochFenced, MemberDown):
            pass  # the surviving flip intent hands cleanup to recovery
        finally:
            self._done_tids([flip_tid])
        return True

    def redo_flip(self, rec):
        """Coroutine: resolve a surviving ``rename_flip`` intent — by
        aborting.  The commit transaction deletes the flip intent
        atomically with the rename itself, so this record's survival
        proves the flip never committed: unstage the alias everywhere
        (seq-guarded, so a newer rename's state survives a replayed
        abort) and retire the intent."""
        yield from self._abort_flip(
            rec["id"], rec["new"], rec["seq"], rec["vino"], self._stamp())
        return True

    def _rename_replicated(self, kind, vino, old, new, dst, now, _hops,
                           epoch=None, rseq=0):
        """Coroutine: rename of a directory/symlink — a two-phase,
        seq-guarded skeleton flip replayed on all shards.

        Phase 1 (*stage*) journals a durable ``rename_flip`` intent and
        plants an alias dentry for the new name — locally, then on every
        replica via ``mirror_rename_stage`` — so both names resolve
        while the broadcast is in flight.  Phase 2 (*commit*) applies
        the rename locally, deleting the flip intent atomically with it
        (the commit point), then *retires* old names with
        newest-seq-wins ``mirror_rename`` broadcasts.  At every instant
        each replica serves the old name, the new name, or both — never
        neither; the flip intent's survival proves the flip never
        committed, so any crash unwinds to the old name everywhere.
        """
        if epoch is None:
            epoch = self.epoch
        if kind == DIRECTORY:
            # The one-transaction rename tests the cycle (a directory
            # cannot move beneath itself) before it ever looks at the
            # destination; the remote prechecks below must not answer
            # ENOTDIR/ENOTEMPTY for a rename the body would EINVAL.
            norm_old, norm_new = normalize(old), normalize(new)
            if norm_new.startswith(norm_old + "/"):
                raise FsError.einval(
                    f"cannot move a directory beneath itself: "
                    f"{old} -> {new}")
        if dst != self.shard_id:
            entry = yield from self._peer(dst, "peek_entry", new)
            if entry is not None and entry["kind"] not in (DIRECTORY, SYMLINK):
                if kind == DIRECTORY:
                    # A file (or stub) occupies the target name on its owner.
                    raise FsError.enotdir(new)
        if kind == DIRECTORY:
            # Replacing a directory: its file population lives on its
            # entries owner — or, when it is split, across every
            # partition shard, each of which must report empty.
            for content_owner in self.sharding.entry_shards(
                    normalize(new), self.n_shards):
                if content_owner == self.shard_id:
                    continue  # the rename transaction checks locally
                entries = yield from self._peer(
                    content_owner, "count_children_of", new)
                if entries:
                    raise FsError.enotempty(new)
        stamp = self._stamp(epoch)
        norm_old, norm_new = normalize(old), normalize(new)
        seq = max(now, rseq + 1)

        # -- phase 1: stage -------------------------------------------------
        # One transaction journals the flip intent and plants this
        # shard's alias dentry; then the alias is broadcast.  From here
        # to the commit both names resolve everywhere a stage landed; a
        # refused stage (a newer flip's rseq won, or the destination is
        # taken) just keeps that replica old-only.  A renamed directory
        # also gets a prefix alias in the shared routing map (pure
        # python), so its new name routes every entry — of directories
        # created meanwhile too — to where the old name places it.
        flip_tid = self._new_tid()

        def stage(txn):
            # The staged alias legitimately writes ``new`` into this
            # shard's skeleton replica; the parent walk's ownership
            # re-check must not bounce the coordinator to the entries
            # owner.
            prev = self._skip_owner_guard
            self._skip_owner_guard = True
            try:
                planted = self._txn_stage_alias(
                    txn, norm_old, new, seq, vino)
            finally:
                self._skip_owner_guard = prev
            self._txn_intent(txn, epoch, {
                "id": flip_tid, "role": "coord", "op": "rename_flip",
                "old": old, "new": new, "seq": seq, "vino": vino,
            })
            if planted and kind == DIRECTORY:
                # Last: nothing in this body can raise after it.
                self.sharding.renaming[flip_tid] = (
                    norm_new, norm_old, vino, seq, epoch)
            return True

        staged = False
        try:
            yield from self.dbsvc.execute(stage)
            staged = True
            yield from self._broadcast(
                "mirror_rename_stage", old, new, seq, vino, stamp=stamp)
        except ResolveForward as fwd:
            # Only the (atomically aborted) stage transaction forwards:
            # nothing was staged anywhere yet.
            self._done_tids([flip_tid])
            if fwd.final:
                yield from self._probe_dst_parent(fwd, _hops)
            retried = yield from self.rename(old, fwd.path, now, _hops + 1)
            return retried
        except EpochFenced:
            # Zombie coordinator: a journaled flip intent hands the
            # unstage (and the routing alias) to recovery; a self-fenced
            # stage transaction journaled and aliased nothing.
            self._done_tids([flip_tid])
            raise
        except FsError:
            if staged:
                yield from self._abort_flip(
                    flip_tid, new, seq, vino, stamp)
            else:
                self._done_tids([flip_tid])
            raise
        except BaseException:
            self._done_tids([flip_tid])
            raise

        # -- phase 2: commit + retire ---------------------------------------
        pending, rows = [], []
        tids = [flip_tid]

        def body(txn):
            prev = self._skip_owner_guard
            self._skip_owner_guard = True
            try:
                result = self._txn_flip_apply(
                    txn, norm_old, new, now, seq, vino, pending)
            finally:
                self._skip_owner_guard = prev
            if result is None:
                # A newer rename of the same object won the race between
                # our stage and this commit: the old name is no longer
                # ours to move.
                raise FsError.enoent(old)
            txn.delete("intents", flip_tid)
            updates = []
            if kind == DIRECTORY:
                # No entry moves: the subtree's routing rows are computed
                # in one walk and written durably with the rename.
                rows[:] = self._txn_renamed_routes(
                    txn, vino, norm_old, norm_new)
                updates = self._txn_rekey_routes(
                    txn, norm_old, norm_new, seq, rows)
            tids.append(self._txn_intent(txn, epoch, {
                "id": self._new_tid(), "role": "coord",
                "op": "rename_replicated", "kind": kind, "vino": vino,
                "old": old, "new": new, "now": now, "seq": seq,
                "pending": list(pending), "rows": list(rows),
            }))
            # Last, so a fenced body rolls back with the shared map
            # untouched: the map takes the committed rows and drops the
            # routing alias of this flip — and of any older flip of the
            # same directory, which can no longer commit here.  Until
            # every replica retired the old name, the old name routes
            # as the new one.
            self._rekey_routes_mem(updates)
            renaming = self.sharding.renaming
            for tid, alias in list(renaming.items()):
                if alias[2] == vino and alias[3] <= seq:
                    del renaming[tid]
            if kind == DIRECTORY:
                renaming[tids[-1]] = (norm_old, norm_new, vino, seq, epoch)
            return result

        def on_forward(fwd):
            yield from self._abort_flip(flip_tid, new, seq, vino, stamp)
            if fwd.final:
                # Same pinning as the same-shard branch: only the
                # entries owner can pronounce on the missing component.
                yield from self._probe_dst_parent(fwd, _hops)
            retried = yield from self.rename(old, fwd.path, now, _hops + 1)
            return retried

        def on_fserror(exc):
            # A fence never reaches here (the wrapper re-raises it
            # first): compensation RPCs would be refused too, and the
            # surviving flip intent hands the cleanup to recovery.
            yield from self._abort_flip(flip_tid, new, seq, vino, stamp)
            raise exc

        def tail(box):
            # Fenced past the commit point (the local flip + intent are
            # durable): recovery's redo re-broadcasts the retires.
            tid = tids[-1]
            drained = yield from self._drain_pending(pending, now, tid, stamp)
            box[0] = self._merge_replaced(box[0], drained)
            mirrored = yield from self._broadcast(
                "mirror_rename", old, new, now, seq, vino, rows,
                stamp=stamp)
            box[0] = self._merge_replaced(
                box[0], [m for m in mirrored if m is not None])
            self.sharding.renaming.pop(tid, None)
            yield from self.intent_forget(tid)
            yield from self._forget_dedups(tid, pending)

        return (yield from self._coordinated(
            tids, body=body, tail=tail,
            on_forward=on_forward, on_fserror=on_fserror))

    def mirror_rename(self, old, new, now, seq, vino, rows, stamp=None):
        """RPC (shard-to-shard): retire a replicated rename's old name.

        Phase 2 of the skeleton flip: the staged alias (phase 1) already
        serves the new name here, so this replay applies the real rename
        and consumes the alias in one transaction — a reader at any
        instant resolves old, new, or both, never neither.  Newest-seq
        wins (the per-replica ``rseq`` high-water mark on the moving
        inode) makes replays idempotent and lets chained renames land in
        any order; a stale retire only collects its own staged alias and
        the old name's routing rows older than its seq.  ``rows`` are
        the coordinator's routing rows for the moved subtree
        (see :meth:`_txn_renamed_routes`): every replica writes the same
        rows, whatever its own table held under the old name.

        A replay that replaces a stub queues a remote link-count drop;
        that drop gets its own intent here (this shard coordinates it),
        because the *caller's* intent only redoes the broadcast — and a
        replayed ``mirror_rename`` whose rename already applied answers
        stale, so it would never re-reach this drop.
        """
        yield from self._dispatch()
        epoch = self.epoch
        pending, tids = [], []

        def body(txn):
            self._check_stamp(stamp)
            result = self._txn_flip_apply(
                txn, normalize(old), new, now, seq, vino, pending)
            # The routing rows land with the replay (the coordinator
            # wrote its own atomically with the rename).  A stale retire
            # still drops the old name's durable rows — a chained rename
            # retired out of order here skipped them; the shared map
            # lost them at this flip's commit.
            updates = self._txn_rekey_routes(
                txn, normalize(old), normalize(new), seq,
                None if result is None else rows)
            if result is None:
                return (None, False)
            if pending:
                tids.append(self._txn_intent(txn, epoch, {
                    "id": self._new_tid(), "role": "coord",
                    "op": "rename_post", "new": new, "now": now,
                    "pending": list(pending), "replaced_symlink": False,
                }))
            self._rekey_routes_mem(updates)  # last: nothing raises after
            return result

        def tail(box):
            # A fence here strands the rename_post intent for recovery.
            if not tids:
                return
            tid = tids[0]
            drained = yield from self._drain_pending(
                pending, now, tid, self._stamp(epoch))
            box[0] = self._merge_replaced(box[0], drained)
            yield from self.intent_forget(tid)
            yield from self._forget_dedups(tid, pending)

        return (yield from self._coordinated(
            tids, body=body, tail=tail, local=True,
            on_fserror=lambda exc: (None, False)))

    # -- cross-shard file rename --------------------------------------------

    def _rename_cross_shard(self, old, new, vino, home, dst, now, _hops,
                            epoch=None):
        """Coroutine: move a file's name (and inode) to another shard.

        Two-phase: the detach transaction journals an intent record —
        carrying the detached inode row itself, so no crash point can
        lose it — atomically with the detach; the destination's install
        transaction journals a prepare record atomically with the
        install and is the commit point.  Afterwards the coordinator
        drops its intent, then the participant's prepare record.  A
        crash anywhere is resolved by recovery's completion pass: the
        prepare record's existence decides commit (roll forward) vs
        abort (re-attach from the intent's payload).
        """
        if epoch is None:
            epoch = self.epoch
        tid = self._new_tid()
        return (yield from self._coordinated(
            tid, run=self._rename_cross_shard_fenced(
                old, new, vino, home, dst, now, tid, epoch)))

    def _rename_cross_shard_fenced(self, old, new, vino, home, dst, now,
                                   tid, epoch):
        """Coroutine: the cross-shard rename body under one live tid."""

        def detach(txn):
            # Dual residence: the old name is only *marked* retiring —
            # dentry and inode stay servable here until the install at
            # the destination commits and :meth:`_retire_rename_src`
            # drops them, so no instant of the rename resolves neither
            # name.  A second rename of a mid-move name reads ENOENT,
            # exactly as if the move had already finished.
            parent, name = self._txn_resolve_parent(txn, old)
            dentry = txn.read("dentries", (parent["vino"], name))
            if dentry is None or dentry.get("retiring") is not None:
                raise FsError.enoent(old)
            marked = dict(dentry)
            marked["retiring"] = tid
            txn.delete("dentries", (parent["vino"], name))
            txn.insert("dentries", marked)
            self._invalidate_resolve(parent["vino"])
            if dentry.get("home") is not None:
                out = (None, dentry["home"])
            else:
                row = txn.read_for_update("inodes", dentry["vino"])
                if row is None:
                    raise FsError.enoent(old)
                if row["nlink"] > 1:
                    # Other names — local hard links or remote stubs —
                    # still reference this inode; moving the row would
                    # dangle every one of them.  It stays home and the
                    # renamed name becomes a stub pointing here.
                    row["ctime"] = now
                    txn.write("inodes", row)
                    out = (None, self.shard_id)
                else:
                    # The row itself is *copied* to the destination; the
                    # local original (and its placement charge) retires
                    # with the marked name after the commit.
                    row["ctime"] = now
                    out = (row, None)
            moved, stub_home = out
            self._txn_intent(txn, epoch, {
                "id": tid, "role": "coord", "op": "rename",
                "old": old, "new": new, "dst": dst, "now": now,
                "row": dict(moved) if moved is not None else None,
                "stub": None if stub_home is None
                else {"vino": dentry["vino"], "home": stub_home},
            })
            return out

        # The peek above already pinned ``old``'s canonical resolution to
        # this shard; the detach — and any compensation — walks the local
        # replica of the skeleton (_local_body), so a cross-shard symlink
        # installed concurrently on the path can neither leak a forward
        # exception to the client nor strand the detached inode.
        row, stub_home = yield from self.dbsvc.execute(
            self._local_body(detach))
        if row is None:
            payload, stub = None, {"vino": vino, "home": stub_home}
        else:
            payload, stub = row, None
        stamp = self._stamp(epoch)
        try:
            result = yield from self._call_shard(
                dst, "rename_install", new, payload, stub, now, tid, stamp)
        except FsError:
            # EpochFenced lands here too: the rollback is record-guarded,
            # so if a recovery already resolved this intent it no-ops and
            # the clean abort surfaces to the client (EAGAIN on a fence).
            yield from self._rename_rollback(tid, old, payload, stub, now)
            raise
        if result == "#same":
            # Old and new name already point at the same inode: POSIX says
            # do nothing, so undo the detach (the install wrote no prepare
            # record, so a crash before this lands rolls back the same way).
            yield from self._rename_rollback(tid, old, payload, stub, now)
            return (None, False)
        try:
            yield from self._retire_rename_src(tid, old, payload, stub, now)
            yield from self._call_shard(
                result[2], "retire_rename_part", tid, stamp)
        except EpochFenced:
            # Fenced after the commit point: the surviving records are
            # retired by recovery's completion pass (the intent by
            # finish_rename_intent — which applies this same source
            # retire — the prepare by pass B).
            pass
        return (result[0], result[1])

    def _retire_rename_src(self, tid, old, row, stub, now):
        """Coroutine: drop a committed cross-shard rename's source
        residue — the retiring-marked dentry, the inode copy a full move
        left behind (with its placement charge), the parent-time bump
        the detach deferred, and the intent — in one transaction.
        Record-guarded and idempotent: recovery's
        :meth:`~repro.core.shard.recovery.ShardRecoveryPart.
        finish_rename_intent` applies the same retire when the
        coordinator dies between install and this."""

        def body(txn):
            if txn.read("intents", tid) is None:
                return False
            vino = row["vino"] if row is not None else stub["vino"]
            try:
                parent, name = self._txn_resolve_parent(txn, old)
            except FsError:
                parent = None
            if parent is not None:
                dentry = txn.read("dentries", (parent["vino"], name))
                if (dentry is not None and dentry["vino"] == vino
                        and dentry.get("retiring") is not None):
                    txn.delete("dentries", (parent["vino"], name))
                    self._invalidate_resolve(parent["vino"])
                    up = dict(parent)
                    up["mtime"] = up["ctime"] = now
                    txn.write("inodes", up)
            if row is not None:
                stored = txn.read("inodes", row["vino"])
                if stored is not None and stored["kind"] == FILE:
                    txn.delete("inodes", row["vino"])
                    if stored["upath"]:
                        self._txn_bucket_adjust(txn, stored["upath"], -1)
            txn.delete("intents", tid)
            return True

        result = yield from self.dbsvc.execute(self._local_body(body))
        return result

    def _rename_rollback(self, tid, old, row, stub, now):
        """Coroutine: abort a cross-shard rename — clear the retiring
        marker (or re-attach, if a migration moved the ghost meanwhile)
        and drop the intent in one transaction (idempotent: recovery
        may race or repeat it)."""

        def body(txn):
            if txn.read("intents", tid) is None:
                return False
            parent, name = self._txn_resolve_parent(txn, old)
            dentry = txn.read("dentries", (parent["vino"], name))
            if dentry is None:
                self._txn_reattach(txn, old, row, stub, now)
            elif dentry.get("retiring") is not None:
                cleared = dict(dentry)
                del cleared["retiring"]
                txn.delete("dentries", (parent["vino"], name))
                txn.insert("dentries", cleared)
                self._invalidate_resolve(parent["vino"])
            txn.delete("intents", tid)
            return True

        result = yield from self.dbsvc.execute(self._local_body(body))
        return result

    def _txn_reattach(self, txn, path, row, stub, now):
        """Compensation: put a detached name (and inode) back."""
        parent, name = self._txn_resolve_parent(txn, path)
        vino = row["vino"] if row is not None else stub["vino"]
        dentry = {
            "key": (parent["vino"], name), "parent": parent["vino"],
            "name": name, "vino": vino,
        }
        if stub is not None and stub["home"] != self.shard_id:
            dentry["home"] = stub["home"]
        self._invalidate_resolve(parent["vino"])
        txn.insert("dentries", dentry)
        if row is not None and txn.read("inodes", row["vino"]) is None:
            # Dual residence: a rolled-back detach usually still holds
            # the row (only the marker is stale); re-insert only when a
            # racing migration really moved it away.
            txn.insert("inodes", dict(row))
            if row["upath"]:
                self._txn_bucket_adjust(txn, row["upath"], 1)
        up = dict(parent)
        up["mtime"] = up["ctime"] = now
        txn.write("inodes", up)
        return True

    def rename_install(self, new, row, stub, now, tid, stamp=None, _hops=0):
        """RPC (shard-to-shard): attach a renamed file at its new shard.

        The install transaction is the rename's commit point: it journals
        a prepare record (under ``tid``) atomically with the attach, so
        recovery can tell a committed rename (roll the coordinator's
        intent forward) from an aborted one (re-attach the old name).
        The coordinator's epoch stamp is checked *inside* the transaction
        — atomically against fence installation — so no stale-epoch
        prepare record can commit after its coordinator was fenced.
        Returns ``(replaced_upath, replaced_last, installer_shard)``, or
        ``"#same"`` without writing a prepare record.
        """
        self._check_hops(_hops, new)
        yield from self._dispatch()
        moving_vino = row["vino"] if row is not None else stub["vino"]
        pending, replaced = [], []

        def body(txn):
            self._check_stamp(stamp)
            new_parent, new_name = self._txn_resolve_parent(txn, new)
            existing = txn.read("dentries", (new_parent["vino"], new_name))
            if existing is not None and existing.get("staged") is not None:
                # A skeleton flip's staged alias occupies the name: it
                # is a resolution shadow, not a reference — drop it
                # without inode bookkeeping and install over it (the
                # flip's retire replays as a rename over this install,
                # identically on every replica).
                txn.delete("dentries", (new_parent["vino"], new_name))
                existing = None
            replaced_upath, replaced_last = None, False
            if existing is not None:
                if existing["vino"] == moving_vino:
                    return "#same"
                ehome = existing.get("home")
                if ehome is not None and ehome != self.shard_id:
                    pending.append((ehome, existing["vino"]))
                else:
                    target = txn.read_for_update("inodes", existing["vino"])
                    if target is not None:
                        if target["kind"] == DIRECTORY:
                            raise FsError.eisdir(new)
                        target["nlink"] -= 1
                        if target["nlink"] <= 0:
                            txn.delete("inodes", target["vino"])
                            if target["kind"] == FILE and target["upath"]:
                                self._txn_bucket_adjust(
                                    txn, target["upath"], -1)
                            replaced_upath = target["upath"]
                            replaced_last = True
                            replaced.append(target["kind"])
                        else:
                            txn.write("inodes", target)
                txn.delete("dentries", (new_parent["vino"], new_name))
            self._invalidate_resolve(new_parent["vino"])
            dentry = {
                "key": (new_parent["vino"], new_name),
                "parent": new_parent["vino"], "name": new_name,
                "vino": moving_vino,
            }
            if stub is not None and stub["home"] != self.shard_id:
                dentry["home"] = stub["home"]
            txn.insert("dentries", dentry)
            if row is not None:
                txn.insert("inodes", dict(row))
                if row["upath"]:
                    self._txn_bucket_adjust(txn, row["upath"], 1)
            np = dict(new_parent)
            np["mtime"] = np["ctime"] = now
            txn.write("inodes", np)
            txn.insert("intents", {
                "id": self._part_id(tid), "role": "part", "op": "rename",
                "new": new, "now": now, "pending": list(pending),
                "replaced_symlink": SYMLINK in replaced,
                "epoch": self._stamp_epoch(stamp),
            })
            return (replaced_upath, replaced_last)

        try:
            result = yield from self.dbsvc.execute(body)
        except ResolveForward as fwd:
            result = yield from self._redispatch(
                fwd, "rename_install", fwd.path, row, stub, now, tid,
                stamp, _hops + 1)
            return result
        if result == "#same":
            return result
        try:
            outcomes = yield from self._drain_pending(
                pending, now, tid, stamp)
            if SYMLINK in replaced:
                # The install destroyed a replicated symlink at ``new``;
                # kill its replicas everywhere else (including the
                # coordinator) so no stale replica keeps resolving the
                # dead link.
                yield from self._broadcast(
                    "mirror_unlink", new, now, stamp=stamp)
        except EpochFenced:
            # The coordinator was fenced after this commit point: its
            # recovery redoes the surviving prepare record's side effects.
            outcomes = ()
        merged = self._merge_replaced(result, outcomes)
        return (merged[0], merged[1], self.shard_id)

    # -- link: possibly cross-shard ---------------------------------------

    def link(self, src, dst, now, _hops=0):
        """Coroutine: hard link, two-phase when it crosses shards.

        The coordinator (destination-parent owner) journals an intent
        *before* any link count moves; the bump transaction at the
        source's home journals a prepare record atomically with the
        bump; the coordinator's dentry-insert transaction atomically
        deletes the intent — that deletion is the commit point.  On any
        failure (or crash) the bump is rolled back by
        :meth:`link_abort`, which drops the count and the prepare record
        in one transaction, so neither a repeat nor a crash mid-rollback
        can double-revert it.
        """
        self._check_hops(_hops, src)
        yield from self._dispatch()
        epoch = self.epoch
        tid = self._new_tid()
        return (yield from self._coordinated(
            tid, run=self._link_fenced(src, dst, now, _hops, tid, epoch)))

    def _link_fenced(self, src, dst, now, _hops, tid, epoch):
        """Coroutine: the link protocol body under one live tid."""
        stamp = self._stamp(epoch)
        src_owner = self._owner_of(src)
        try:
            if src_owner == self.shard_id:
                view, home = yield from self._link_fetch_local(
                    src, now, tid, coordinate=True, stamp=stamp)
            else:
                # The intent must be durable before any *remote* bump:
                # a prepare record without a coordinator intent reads as
                # committed to recovery.  (The local-fetch path instead
                # folds the intent into the bump transaction itself.)
                yield from self.dbsvc.execute(
                    lambda txn: self._txn_intent(
                        txn, epoch, self._link_intent(tid, src, dst, now)))
                view, home = yield from self._peer(
                    src_owner, "link_fetch", src, now, tid, stamp)
        except ResolveForward as fwd:
            yield from self.intent_forget(tid)
            result = yield from self._redispatch(
                fwd, "link", fwd.path, dst, now, _hops + 1)
            return result
        except FsError:
            # The bump transaction aborted: no prepare record anywhere.
            # (EpochFenced lands here too; the forget is record-guarded,
            # so a recovery that already resolved the intent wins.)
            yield from self.intent_forget(tid)
            raise

        def body(txn):
            # The commit is valid only while this coordinator's epoch is
            # live *and* its intent record still exists: a recovery that
            # fenced this coordinator has already rolled the bump back,
            # and committing the dentry now would resurrect half the op.
            fence = self.fences.get(self.shard_id, 0)
            if epoch < fence or txn.read("intents", tid) is None:
                raise EpochFenced(self.shard_id, epoch, fence)
            parent, name = self._txn_resolve_parent(txn, dst)
            if txn.read("dentries", (parent["vino"], name)) is not None:
                raise FsError.eexist(dst)
            self._invalidate_resolve(parent["vino"])
            dentry = {
                "key": (parent["vino"], name), "parent": parent["vino"],
                "name": name, "vino": view["vino"],
            }
            if home != self.shard_id:
                dentry["home"] = home
            txn.insert("dentries", dentry)
            up = dict(parent)
            up["mtime"] = up["ctime"] = now
            txn.write("inodes", up)
            txn.delete("intents", tid)  # the commit point
            if home == self.shard_id:
                # The prepare record sits on this very shard: retire it
                # with the commit instead of in a follow-up transaction.
                txn.delete("intents", self._part_id(tid))
            return True

        try:
            yield from self.dbsvc.execute(body)
        except ResolveForward as fwd:
            # Destination parent crossed shards: undo the bump, move the
            # whole operation to the right coordinator.
            yield from self._link_undo(home, tid, now, stamp)
            result = yield from self._redispatch(
                fwd, "link", src, fwd.path, now, _hops + 1)
            return result
        except FsError:
            yield from self._link_undo(home, tid, now, stamp)
            raise
        if home != self.shard_id:
            try:
                yield from self._peer(
                    home, "intent_forget", self._part_id(tid))
            except EpochFenced:  # pragma: no cover - forgets are unfenced
                pass
        return view

    def _link_undo(self, home, tid, now, stamp):
        """Coroutine: compensate an aborted link (fence-tolerant).

        Both steps are record-guarded and idempotent; if this coordinator
        was fenced mid-abort, the recovery that fenced it resolves the
        surviving records the same way, so a fence here is swallowed.
        """
        try:
            yield from self._call_shard(home, "link_abort", tid, now, stamp)
            yield from self.intent_forget(tid)
        except EpochFenced:
            pass

    def _link_intent(self, tid, src, dst, now):
        return {"id": tid, "role": "coord", "op": "link",
                "src": src, "dst": dst, "now": now}

    def _link_fetch_local(self, src, now, tid, coordinate=False, stamp=None):
        """Coroutine: bump the link count of ``src``'s inode on this shard.

        With ``coordinate`` (this shard is the link's coordinator), the
        coordinator intent rides the bump transaction alongside the
        prepare record — one durable commit covers both; when the source
        turns out to be a stub, the intent is journaled alone *before*
        the remote bump instead.  A remote coordinator (``link_fetch``)
        already journaled its intent and passes ``coordinate=False``.
        """
        epoch = self._stamp_epoch(stamp)

        def body(txn):
            self._check_stamp(stamp)
            row = self._txn_resolve(txn, src, follow=False)
            if row["kind"] == DIRECTORY:
                raise FsError.eisdir(src)
            if row["kind"] == SYMLINK:
                raise FsError.einval(
                    f"hard link to a symlink on a sharded namespace: {src}")
            row = dict(row)
            row["nlink"] += 1
            row["ctime"] = now
            txn.write("inodes", row)
            if coordinate:
                self._txn_intent(
                    txn, epoch, self._link_intent(tid, src, None, now))
            txn.insert("intents", {
                "id": self._part_id(tid), "role": "part", "op": "link",
                "vino": row["vino"], "now": now, "epoch": epoch,
            })
            return row

        try:
            row = yield from self.dbsvc.execute(body)
        except VinoForward as fwd:
            if coordinate:
                yield from self.dbsvc.execute(
                    lambda txn: self._txn_intent(
                        txn, epoch, self._link_intent(tid, src, None, now)))
            view = yield from self._peer(
                fwd.shard, "link_vino", fwd.vino, now, tid, stamp)
            return (view, fwd.shard)
        return (self._attr_view(row), self.shard_id)

    def link_fetch(self, src, now, tid, stamp=None, _hops=0):
        """RPC (shard-to-shard): resolve + bump a link source for a peer
        (the caller coordinates: its intent is already durable)."""
        self._check_hops(_hops, src)
        yield from self._dispatch()
        try:
            result = yield from self._link_fetch_local(
                src, now, tid, stamp=stamp)
        except ResolveForward as fwd:
            result = yield from self._redispatch(
                fwd, "link_fetch", fwd.path, now, tid, stamp, _hops + 1)
        return result

    def link_abort(self, tid, now, stamp=None):
        """RPC (shard-to-shard): roll back an optimistic link-count bump.

        Atomic with the prepare record's deletion, so it is idempotent:
        recovery (or a repeated live rollback) finds no record and does
        nothing.  Uses the full ``_drop_link`` semantics — if every other
        name vanished while the link was in flight, the rollback is the
        last drop and must reclaim the inode and its placement slot.
        """
        yield from self._dispatch()
        pid = self._part_id(tid)

        def body(txn):
            self._check_stamp(stamp)
            rec = txn.read("intents", pid)
            if rec is None:
                return False
            txn.delete("intents", pid)
            row = txn.read_for_update("inodes", rec["vino"])
            if row is None:
                return False
            self._drop_link(txn, row, now)
            return True

        result = yield from self.dbsvc.execute(body)
        return result

    # -- vino-addressed mutations (forward / drain targets) -----------------

    def link_vino(self, vino, now, tid, stamp=None):
        """RPC: bump a link count at the inode's home, with the prepare
        record journaled atomically (the stub-mediated fetch path)."""
        yield from self._dispatch()

        def body(txn):
            self._check_stamp(stamp)
            row = txn.read_for_update("inodes", vino)
            if row is None:
                raise FsError.enoent(f"vino {vino}")
            if row["kind"] == SYMLINK:
                raise FsError.einval(
                    f"hard link to a symlink on a sharded namespace: "
                    f"vino {vino}")
            row["nlink"] += 1
            row["ctime"] = now
            txn.write("inodes", row)
            txn.insert("intents", {
                "id": self._part_id(tid), "role": "part", "op": "link",
                "vino": vino, "now": now,
                "epoch": self._stamp_epoch(stamp),
            })
            return row

        row = yield from self.dbsvc.execute(body)
        return self._attr_view(row)

    def unlink_vino(self, vino, now, dedup=None, stamp=None):
        """RPC: drop one link at the inode's home shard.

        With ``dedup``, the drop is exactly-once: a dedup record commits
        atomically with it (storing the outcome), and a repeat — live
        retry or recovery redo — returns the recorded outcome instead of
        dropping again.  The dedup record carries the owning operation's
        coordinator epoch, so recovery can tell an abandoned guard from
        one a live (or newer-epoch) operation still needs.
        """
        yield from self._dispatch()

        def body(txn):
            self._check_stamp(stamp)
            if dedup is not None:
                rec = txn.read("intents", dedup)
                if rec is not None:
                    return tuple(rec["outcome"])
            row = txn.read_for_update("inodes", vino)
            if row is None:
                outcome = (None, False)
            else:
                outcome = self._drop_link(txn, row, now)
            if dedup is not None:
                txn.insert("intents", {
                    "id": dedup, "role": "dedup",
                    "outcome": list(outcome),
                    "epoch": self._stamp_epoch(stamp),
                })
            return outcome

        result = yield from self.dbsvc.execute(body)
        return result
