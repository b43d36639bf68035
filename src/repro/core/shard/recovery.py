"""Recovery: epoch fencing, tier-wide completion, resync, reconcile, reseat.

The crash-recovery layer of the sharded tier.  One shard's
:meth:`ShardRecoveryPart.recover` — or the module-level
:func:`recover_tier` after a whole-tier crash — runs, in order:

1. local journal rebuild + **epoch bump** + allocator reseat
   (``recover_local``; incoming requests wait on the admission gate
   until the rebuilt tables and the new epoch are durable);
2. :meth:`fence_tier` — install the bumped epoch as a *fence* on every
   peer (durable ``epochs`` row + in-memory map): records and RPCs
   stamped with an older epoch of this shard are now provably dead;
3. :meth:`complete_tier_intents` — resolve every surviving
   intent/prepare/dedup record **whose coordinator is provably dead**
   (epoch below the fence just installed, or — for coordinators this
   recovery cannot fence — whose own shard reports no live process
   driving the transaction).  Records of healthy in-flight operations
   are left alone: their coordinators finish or compensate themselves,
   which is what makes recovery safe to admit into a *live* tier.
   Completion must precede resync: a half-replicated change's surviving
   intent re-broadcasts it, whereas resyncing first would read it as
   divergence and erase both sides;
4. :meth:`~repro.core.shard.rebalance.ShardRebalancePart.restore_routes`
   and :meth:`resync_skeleton` — **only when the rebuild actually lost
   journaled transactions** (``sync_updates=False`` restores an older
   prefix).  Under the default synchronous journal nothing is lost, the
   replicas already match, and skipping the passes keeps single-shard
   recovery from racing a live peer's in-flight broadcast (the fast
   path a live tier needs);
5. :meth:`reconcile_tier_buckets` — recount placement counters from the
   surviving rows (always safe live: each recount transaction matches
   the rows it sees, and subsequent operations adjust incrementally);
6. a second allocator reseat (completion can re-attach rows that
   travelled inside intent records, invisible to the first reseat).
"""

import itertools

from repro import obs
from repro.pfs.errors import FsError
from repro.pfs.types import DIRECTORY, FILE, split
from repro.sim.events import Event


class ShardRecoveryPart:
    """Mixin: crash recovery of one shard plus the tier-wide passes."""

    def recover(self):
        """Coroutine: crash/recover this shard, then repair the tier.

        Safe to run against a **live** tier: after the local rebuild this
        shard bumps its durable recovery epoch and installs it as a fence
        on every peer, so the completion pass touches only records whose
        coordinator is provably dead — a healthy peer's in-flight
        cross-shard operation keeps its intent and finishes (or cleanly
        aborts) under its own coordinator, while any still-running
        operation this shard coordinated *before* the crash is fenced at
        its next step (:class:`~repro.core.shard.routing.EpochFenced`)
        and its durable records are rolled forward or back here.  Every
        pass is idempotent — a crash *during* recovery is recovered from
        by simply recovering again.
        """
        tracer = obs.TRACER
        span = None
        if tracer is not None:
            span = tracer.start("recover", f"s{self.shard_id}", self.sim.now,
                                shard=self.shard_id, epoch=self.epoch)
        try:
            lost = yield from self._recovery_pass(
                "local_rebuild", self.recover_local(fence_peers=True))
            dead = {self.shard_id: self.epoch}
            yield from self._recovery_pass(
                "complete_intents", self.complete_tier_intents(dead))
            if lost:
                # Journal loss (async log policy): replicas may genuinely
                # diverge, so repair them.  These passes assume the touched
                # paths are quiescent — with the synchronous journal (the
                # default) they are skipped and recovery never rewrites
                # state a live operation is mid-way through.
                yield from self._recovery_pass(
                    "restore_routes", self.restore_routes())
                yield from self._recovery_pass(
                    "resync_skeleton", self.resync_skeleton())
            yield from self._recovery_pass(
                "reconcile_buckets", self.reconcile_tier_buckets())
            # The completion pass can re-attach rows a rolled-back rename
            # had detached (they travelled inside the intent record,
            # invisible to the first reseat): reseat again against the
            # settled tables.
            yield from self._recovery_pass(
                "reseat_allocators", self.reseat_allocators())
        except BaseException as exc:
            if span is not None:
                tracer.finish(span, self.sim.now,
                              outcome=getattr(exc, "code", None)
                              or type(exc).__name__)
            raise
        if span is not None:
            tracer.finish(span, self.sim.now)
        return lost

    def _recovery_pass(self, name, gen):
        """Run one recovery pass, under a ``recover_pass`` span when
        tracing is on (the pass generator is untouched when off)."""
        if obs.TRACER is None:
            return gen
        return self._traced_recovery_pass(name, gen)

    def _traced_recovery_pass(self, name, gen):
        tracer = obs.TRACER
        if tracer is None:  # disabled between creation and first resume
            result = yield from gen
            return result
        span = tracer.start("recover_pass", name, self.sim.now,
                            shard=self.shard_id, epoch=self.epoch)
        try:
            result = yield from gen
        except BaseException as exc:
            tracer.finish(span, self.sim.now,
                          outcome=getattr(exc, "code", None)
                          or type(exc).__name__)
            raise
        tracer.finish(span, self.sim.now)
        return result

    def recover_local(self, fence_peers=False):
        """Coroutine: rebuild this shard only, keeping its vino stride.

        With ``fence_peers`` (single-shard recovery into a live tier),
        the bumped epoch is installed on every peer before the gate
        reopens.  A whole-tier recovery passes False: its peers are
        conceptually still down — fencing them mid-sequence would write
        (and, under the async journal, checkpoint) their *pre-crash*
        state — and :func:`recover_tier`'s driver installs the full dead
        map once every rebuild is done.

        The admission gate closes for the duration: requests that arrive
        while the journal replays (or before the epoch bump, the tier
        fence and the allocator reseat are done) wait instead of racing
        the rebuild — the moral equivalent of a restarting node not
        serving yet.  The epoch bump is atomic with the start of
        recovery: one durable transaction, before any request is
        admitted, so every operation admitted afterwards captures the
        new epoch; and the fence is installed on every peer *before*
        serving resumes, so a pre-crash ("zombie") operation of this
        shard that was waiting on the gate finds itself fenced at its
        very next stamped transaction.  Recoveries of *different* shards
        may overlap: the recovery control-plane RPCs (fence installs and
        allocator probes) bypass the admission gate
        (:meth:`~repro.core.shard.routing.ShardRoutingPart.
        _recovery_dispatch`), so two shards recovering concurrently
        serve each other's fences instead of deadlocking on their closed
        gates.

        Reentrant crashes of the *same* shard serialize here: a second
        recovery waits for the running one's gate before installing its
        own, so neither can open the other's gate early or strand its
        waiters.
        """
        while self._admission is not None:
            yield self._admission
        self._admission = Event(self.sim)
        try:
            lost = yield from super().recover()
            yield from self._bump_epoch()
            if fence_peers:
                yield from self.fence_tier({self.shard_id: self.epoch})
            yield from self.reseat_allocators()
        finally:
            gate, self._admission = self._admission, None
            gate.succeed()
        return lost

    def promote(self, group):
        """Coroutine: promotion path — this backup becomes its group's
        primary (driven by :meth:`~repro.core.shard.replication.
        ReplicatedShard.failover`).

        Reuses the single-shard recovery sequence minus the journal
        replay: under synchronous shipping the candidate's tables
        already hold every acknowledged record, so there is nothing to
        rebuild — the availability gap is the fencing work alone.
        Behind the admission gate (requests landing mid-promotion wait,
        they are not refused):

        1. bump the group's durable recovery epoch — the ``epochs`` row
           arrived here via log shipping, so the bump continues the
           *group's* epoch sequence, not a member-local one;
        2. install the fence on every other group's primary
           (:meth:`fence_tier`) **and** on the fellow members of this
           group — the latter closes the second zombie door: a dead
           ex-primary that resurrects and ships its divergent journal
           suffix is refused by its own backups' stamp checks, not just
           by tier peers;
        3. reseat the vino/intent allocators against the tier (the
           gate-bypassing probes), since the dead primary may have
           migrated vinos of this class outward mid-flight.

        The tier-wide completion pass for the dead coordinator's records
        runs *after* the gate reopens (see ``failover``): it is cleanup
        the new primary coordinates as a live shard, and keeping it
        outside the outage window keeps the availability gap minimal.
        """
        while self._admission is not None:
            yield self._admission
        self._admission = Event(self.sim)
        tracer, metrics = obs.TRACER, obs.METRICS
        span = None
        ok = False
        # ``marks`` decomposes the gap into promotion sub-steps — one
        # ``(step, sim_time)`` per completed step; both the promote span's
        # events and the ``failover_step_ms.*`` histograms read it.
        marks = [("gate_close", self.sim.now)]
        if tracer is not None:
            span = tracer.start("promote", f"s{self.shard_id}", self.sim.now,
                                shard=self.shard_id, epoch=self.epoch)
        try:
            yield from self._bump_epoch()
            marks.append(("epoch_bump", self.sim.now))
            yield from self.fence_tier({self.shard_id: self.epoch})
            marks.append(("tier_fence", self.sim.now))
            rows = [(self.shard_id, self.epoch)]
            for member in group.members:
                if member is self or member.down:
                    continue
                yield from self._member_call(
                    member, "install_fences", rows)
                marks.append(("member_fence", self.sim.now))
            yield from self.reseat_allocators()
            marks.append(("reseat", self.sim.now))
            ok = True
        finally:
            gate, self._admission = self._admission, None
            gate.succeed()
            marks.append(("gate_open", self.sim.now))
            if span is not None:
                span.events.extend(
                    (name, when, {}) for name, when in marks)
                tracer.finish(span, self.sim.now,
                              outcome="ok" if ok else "error")
            if ok and metrics is not None:
                for (_p, t0), (step, t1) in zip(marks, marks[1:]):
                    metrics.observe(
                        f"failover_step_ms.{step}", self.shard_id, t1 - t0)
        return self.epoch

    def _bump_epoch(self):
        """Coroutine: durably advance this shard's recovery epoch.

        Also reloads the in-memory fence map from the durable ``epochs``
        rows (a restarted node's memory is empty; here the map survives
        the simulated crash, so the reload keeps both honest).
        """

        def body(txn):
            row = txn.read("epochs", self.shard_id)
            nxt = (row["epoch"] if row is not None else 0) + 1
            txn.write("epochs", {"shard": self.shard_id, "epoch": nxt})
            self.epoch = nxt
            self.fences[self.shard_id] = nxt
            for peer_row in txn.match("epochs"):
                if self.fences.get(peer_row["shard"], 0) < peer_row["epoch"]:
                    self.fences[peer_row["shard"]] = peer_row["epoch"]
            return nxt

        epoch = yield from self.dbsvc.execute(body)
        yield from self._force_fence_row()
        return epoch

    def _force_fence_row(self):
        """Coroutine: make the last epoch/fence write durable even under
        the async journal policy.

        Fences are the one write whose durability other shards *rely on*
        ("once a fence commits, no stale record can commit here"), so
        under ``sync_updates=False`` they get an explicit checkpoint —
        otherwise a crash could restore a journal prefix without the row
        while the in-memory map (which survives a simulated crash) runs
        ahead of it.
        """
        if not self.dbsvc.config.sync_updates:
            yield from self.dbsvc.checkpoint()
        return True

    def _fence_body(self, fences):
        """The fence-install transaction: durable row + in-memory map in
        one body, atomic with respect to every stamped coordination
        transaction — once this commits, no older-epoch record of the
        fenced coordinators can commit here."""

        def body(txn):
            for shard, epoch in fences:
                row = txn.read("epochs", shard)
                if row is None or row["epoch"] < epoch:
                    txn.write("epochs", {"shard": shard, "epoch": epoch})
                if self.fences.get(shard, 0) < epoch:
                    self.fences[shard] = epoch
            return True

        return body

    def install_fences(self, fences):
        """RPC (shard-to-shard): fence the given coordinators here.

        ``fences`` is ``[(coordinator_shard, minimum_live_epoch)]``.
        Served through the gate-bypassing recovery dispatch so that
        concurrently recovering (or failing-over) shards can fence each
        other without deadlocking on their closed admission gates.
        """
        yield from self._recovery_dispatch()
        result = yield from self.dbsvc.execute(self._fence_body(fences))
        yield from self._force_fence_row()
        return result

    def fence_tier(self, dead):
        """Coroutine: install ``dead`` (shard -> new epoch) everywhere.

        After this returns, every shard refuses coordination traffic
        stamped with an older epoch of those shards, and any record such
        a coordinator had journaled is provably abandoned — the
        precondition for :meth:`complete_tier_intents` resolving it.
        The local install bypasses the RPC handler (and therefore the
        admission gate): a recovering shard fences itself while still
        not serving.
        """
        rows = sorted(dead.items())
        yield from self.dbsvc.execute(self._fence_body(rows))
        yield from self._force_fence_row()
        peers = [shard for shard in range(self.n_shards)
                 if shard != self.shard_id]
        if self.config.parallel_broadcasts and len(peers) > 1:
            # The fence phase sits inside the admission-gate outage:
            # overlap the installs (max, not sum, of the round trips),
            # exactly like the mirror broadcasts.
            procs = [
                self.sim.process(
                    self._peer(shard, "install_fences", rows),
                    name=f"fence-s{self.shard_id}to{shard}",
                )
                for shard in peers
            ]
            yield self.sim.all_of(procs)
        else:
            for shard in peers:
                yield from self._peer(shard, "install_fences", rows)
        return True

    def reseat_allocators(self):
        """Coroutine: reseat the vino and intent-id allocators.

        Cross-shard renames migrate inodes (with their vinos) to other
        shards, so the local tables alone under-estimate how far this
        shard's allocation class has advanced: the peers are asked for
        their highest vino in this class before the allocator reseats.
        The intent-id allocator reseats the same way (prepare and dedup
        records derived from this shard's ids live on peers).
        """
        base, step = self.shard_id + 1, self.n_shards
        vinos = [row["vino"] for row in self.db.table("inodes").all()]
        top = max(vinos) if vinos else 0
        seq = self._max_local_intent_seq()
        for shard in range(self.n_shards):
            if shard != self.shard_id:
                peak = yield from self._peer(
                    shard, "max_vino_in_class", base, step)
                top = max(top, peak)
                speak = yield from self._peer(
                    shard, "max_intent_seq", f"s{self.shard_id}.")
                seq = max(seq, speak)
        if top >= base:
            base += ((top - base) // step + 1) * step
        self._vino = itertools.count(base, step)
        self._intent_seq = itertools.count(seq + 1)
        return True

    def _max_local_intent_seq(self, prefix=None):
        """Highest intent sequence number with ``prefix`` in this table."""
        prefix = prefix or f"s{self.shard_id}."
        peak = 0
        for row in self.db.table("intents").all():
            base = row["id"].split("@")[0].split("#")[0]
            if base.startswith(prefix):
                try:
                    peak = max(peak, int(base[len(prefix):]))
                except ValueError:
                    pass
        return peak

    def max_vino_in_class(self, base, step):
        """RPC (shard-to-shard): highest local vino ≡ base (mod step)."""
        yield from self._recovery_dispatch()

        def body(txn):
            peak = 0
            for row in txn.match("inodes"):
                vino = row["vino"]
                if vino >= base and (vino - base) % step == 0:
                    peak = max(peak, vino)
            return peak

        peak = yield from self.dbsvc.execute(body)
        return peak

    def max_intent_seq(self, prefix):
        """RPC (shard-to-shard): highest intent seq with ``prefix`` here."""
        yield from self._recovery_dispatch()

        def body(txn):
            return self._max_local_intent_seq(prefix)

        peak = yield from self.dbsvc.execute(body)
        return peak

    # -- tier-wide recovery passes -----------------------------------------

    def resync_skeleton(self):
        """Coroutine: make every skeleton replica match its authority.

        The authoritative copy of the entry at path P lives on the shard
        owning P's parent's entries — the shard that coordinated its
        creation.  A shard that recovered from an older journal prefix
        may be missing newer entries (copy them in) or still hold entries
        whose authority lost them (remove them).  Runs *after* the intent
        completion pass, which already re-broadcast every half-finished
        replication — what remains diverging here is journal loss, and
        the authority's survived prefix is the truth.

        The per-shard ``skeleton_map`` gather is a read-only fan-out;
        with ``config.parallel_broadcasts`` the RPCs overlap (recovery
        latency is max, not sum, of the shard round trips).
        """
        maps = yield from self._gather_maps()
        auth = {}
        every = set()
        for view in maps:
            every.update(view)
        for path in sorted(every, key=lambda p: p.count("/")):
            row = maps[self._owner_of(path)].get(path)
            if row is None:
                continue  # the authority lost it: everyone drops it
            parent, _name = split(path)
            if parent != "/" and parent not in auth:
                continue  # orphaned subtree: its parent is gone
            auth[path] = row
        ordered = sorted(auth, key=lambda p: p.count("/"))
        structural = ("kind", "mode", "uid", "gid", "target")
        for shard in range(self.n_shards):
            local = maps[shard]
            adds, rewrites = [], []
            for path in ordered:
                row = auth[path]
                mine = local.get(path)
                if mine is None or mine["vino"] != row["vino"]:
                    # Missing — or a *different* object reused the path
                    # (divergent histories): replace, don't keep both.
                    adds.append((path, row))
                elif any(mine[f] != row[f] for f in structural):
                    rewrites.append((path, row))
            removes = sorted(
                (path for path, mine in local.items()
                 if path not in auth or auth[path]["vino"] != mine["vino"]),
                key=lambda p: -p.count("/"))
            if adds or removes or rewrites:
                yield from self._call_shard(
                    shard, "skeleton_apply", adds, removes, rewrites)
        return True

    def _gather_maps(self):
        """Coroutine: every shard's skeleton replica, in shard order."""
        if not self.config.parallel_broadcasts or self.n_shards <= 2:
            maps = []
            for shard in range(self.n_shards):
                maps.append(
                    (yield from self._call_shard(shard, "skeleton_map")))
            return maps
        local = yield from self.skeleton_map()
        procs = [
            self.sim.process(
                self._peer(shard, "skeleton_map"),
                name=f"skelmap-s{self.shard_id}to{shard}",
            )
            for shard in range(self.n_shards) if shard != self.shard_id
        ]
        remote = yield self.sim.all_of(procs)
        maps = []
        for shard in range(self.n_shards):
            if shard == self.shard_id:
                maps.append(local)
            else:
                maps.append(remote.pop(0))
        return maps

    def skeleton_map(self):
        """RPC (shard-to-shard): this shard's skeleton replica by path."""
        yield from self._dispatch()

        def body(txn):
            view = {}
            frontier = [("", self.root_vino)]
            while frontier:
                dir_path, dvino = frontier.pop()
                for dentry in txn.index_read("dentries", "parent", dvino):
                    if dentry.get("home") is not None:
                        continue
                    if dentry.get("staged") is not None:
                        # A mid-flip alias is transient by design, not
                        # divergence: resync must neither copy it to
                        # peers nor strip it here (the flip's own
                        # retire/abort owns its lifecycle).
                        continue
                    row = txn.read("inodes", dentry["vino"])
                    if row is None or row["kind"] == FILE:
                        continue
                    path = f"{dir_path}/{dentry['name']}"
                    view[path] = dict(row)
                    if row["kind"] == DIRECTORY:
                        frontier.append((path, row["vino"]))
            return view

        view = yield from self.dbsvc.execute(body)
        return view

    def skeleton_apply(self, adds, removes, rewrites):
        """RPC (shard-to-shard): reshape this replica to the authority.

        ``removes`` (deepest first) drop stale skeleton entries — along
        with any local file entries under a dropped directory, which are
        unreachable once the directory is gone everywhere.  ``adds``
        (shallowest first) copy in authoritative rows.  ``rewrites``
        overwrite same-vino rows whose attributes diverged (a lost
        setattr broadcast).  Directory link counts are recomputed from
        the final dentry set afterwards — authoritative rows already
        count children the same apply may add or remove, so incremental
        bookkeeping would double-count.  One transaction: a crash
        mid-resync leaves the old replica, and the next recovery resyncs
        again.
        """
        yield from self._dispatch()

        def body(txn):
            for path in removes:
                try:
                    parent, name = self._txn_resolve_parent(txn, path)
                except FsError:
                    continue
                dentry = txn.read("dentries", (parent["vino"], name))
                if dentry is None:
                    continue
                self._invalidate_resolve(parent["vino"])
                txn.delete("dentries", (parent["vino"], name))
                row = txn.read("inodes", dentry["vino"])
                if row is not None:
                    if row["kind"] == DIRECTORY:
                        for child in txn.index_read(
                                "dentries", "parent", row["vino"]):
                            txn.delete("dentries", child["key"])
                            crow = txn.read("inodes", child["vino"])
                            if crow is not None and crow["kind"] == FILE \
                                    and child.get("home") is None:
                                txn.delete("inodes", crow["vino"])
                                if crow["upath"]:
                                    self._txn_bucket_adjust(
                                        txn, crow["upath"], -1)
                        self._invalidate_resolve(row["vino"])
                    txn.delete("inodes", row["vino"])
            for path, auth_row in adds:
                try:
                    parent, name = self._txn_resolve_parent(txn, path)
                except FsError:
                    continue
                if txn.read("dentries", (parent["vino"], name)) is not None:
                    continue
                txn.write("inodes", dict(auth_row))
                self._invalidate_resolve(parent["vino"])
                txn.insert("dentries", {
                    "key": (parent["vino"], name), "parent": parent["vino"],
                    "name": name, "vino": auth_row["vino"],
                })
            for _path, auth_row in rewrites:
                txn.write("inodes", dict(auth_row))
            self._txn_fix_dir_nlinks(txn)
            return True

        result = yield from self.dbsvc.execute(self._local_body(body))
        return result

    def _txn_fix_dir_nlinks(self, txn):
        """Recompute every directory's nlink (2 + subdirectories) from
        the transaction's final dentry set."""
        for row in txn.match("inodes"):
            if row["kind"] != DIRECTORY:
                continue
            subdirs = 0
            for dentry in txn.index_read("dentries", "parent", row["vino"]):
                if dentry.get("home") is not None:
                    continue
                if dentry.get("staged") is not None:
                    continue  # an alias is not a second child
                child = txn.read("inodes", dentry["vino"])
                if child is not None and child["kind"] == DIRECTORY:
                    subdirs += 1
            if row["nlink"] != 2 + subdirs:
                fixed = dict(row)
                fixed["nlink"] = 2 + subdirs
                txn.write("inodes", fixed)

    def complete_tier_intents(self, dead=None):
        """Coroutine: resolve abandoned coordination records tier-wide.

        Three idempotent passes: (A) every coordinator intent is rolled
        forward (its prepare record exists → the operation committed) or
        back; (B) surviving prepare records — their coordinator already
        committed and dropped its intent — redo their post-commit side
        effects (dedup-guarded) and retire; (C) dedup records whose
        operation is fully resolved are garbage-collected.  A crash at
        any point leaves records a re-run resolves the same way.

        A record is touched only when its coordinator is **provably
        dead**: its epoch is below the fence in ``dead`` (shard → fenced
        epoch, the set this recovery just installed), or — when the
        coordinator shard is not in ``dead`` (it never crashed) — that
        shard answers that no live process is driving the transaction
        any more (``tid_live``).  A live in-flight operation on a healthy
        peer is therefore never aborted under its coordinator; with no
        ``dead`` map (legacy quiesced call) only the liveness probe
        applies.
        """
        if dead is None:
            dead = {}
        abandoned = {}  # base tid -> (verdict, by_epoch), cached per pass
        records = yield from self._gather_intents()
        parts = {rec["id"]: shard for shard, rec in records
                 if rec["role"] == "part"}
        for shard, rec in records:
            if rec["role"] != "coord":
                continue
            verdict, by_epoch = yield from self._abandoned(
                rec, dead, abandoned)
            if not verdict:
                continue  # a live coordinator still owns this operation
            if not by_epoch:
                # Dead by the liveness probe only: the gather's snapshot
                # may be stale — the coordinator could have progressed
                # (and died) after it — so re-read the records the
                # decision hinges on.  Once dead, nothing can change
                # them (its in-flight handlers died with its process).
                # An epoch-dead coordinator was fenced *before* the
                # gather, so its snapshot is provably fresh and the
                # whole-tier path pays no extra round trips.
                if not (yield from self._call_shard(
                        shard, "has_record", rec["id"])):
                    continue  # resolved/completed since the gather
            if rec["op"] == "rename":
                pid = self._part_id(rec["id"])
                if by_epoch:
                    committed = pid in parts
                else:
                    committed = (yield from self._find_record(pid)) \
                        is not None
                yield from self._call_shard(
                    shard, "finish_rename_intent", rec, committed)
            elif rec["op"] == "link":
                # The intent is deleted atomically with the commit, so
                # its survival means abort: revert the bump if it landed.
                pid = self._part_id(rec["id"])
                if by_epoch:
                    pshard = parts.get(pid)
                else:
                    pshard = yield from self._find_record(pid)
                if pshard is not None:
                    yield from self._call_shard(
                        pshard, "link_abort", rec["id"], rec["now"],
                        self._stamp())
                yield from self._call_shard(
                    shard, "intent_forget", rec["id"])
            else:
                yield from self._call_shard(shard, "redo_intent", rec)
        records = yield from self._gather_intents()
        abandoned.clear()  # liveness can change between passes: re-probe
        for shard, rec in records:
            if rec["role"] != "part":
                continue
            verdict, _by_epoch = yield from self._abandoned(
                rec, dead, abandoned)
            if not verdict:
                continue
            if rec["op"] == "rename":
                yield from self._call_shard(shard, "redo_rename_part", rec)
            else:  # a committed link's prepare record: the bump stands
                yield from self._call_shard(shard, "intent_forget",
                                            rec["id"])
        records = yield from self._gather_intents()
        abandoned.clear()
        open_ids = {rec["id"].split("@")[0].split("#")[0]
                    for _shard, rec in records if rec["role"] != "dedup"}
        for shard, rec in records:
            if rec["role"] != "dedup":
                continue
            if rec["id"].split("#")[0] in open_ids:
                continue  # its operation's records are still being settled
            verdict, _by_epoch = yield from self._abandoned(
                rec, dead, abandoned)
            if verdict:
                yield from self._call_shard(shard, "intent_forget",
                                            rec["id"])
        # A flip whose record an asynchronous journal lost leaves its
        # routing alias with nothing to drop it: drop every alias a
        # fenced coordinator registered (a live flip's epoch is newer).
        renaming = self.sharding.renaming
        for tid, alias in list(renaming.items()):
            if alias[4] < dead.get(self._coord_of(tid), 0):
                del renaming[tid]
        return True

    def _abandoned(self, rec, dead, cache):
        """Coroutine: ``(dead?, by_epoch?)`` for this record's coordinator.

        Dead by epoch — the record is stamped below the fence in
        ``dead`` — or, for a coordinator shard that never crashed, dead
        by the shard's own testimony that no live process drives the
        transaction (``tid_live``); only an injected mid-operation kill
        leaves records that way, and those are fair game exactly as
        under the old quiesced-tier assumption.  ``by_epoch`` tells the
        caller whether the verdict predates the gather (fence installed
        first — snapshot provably fresh) or needs freshness re-reads.
        Verdicts are cached per base tid for one pass (all of an
        operation's records carry the same coordinator epoch).
        """
        base = rec["id"].split("@")[0].split("#")[0]
        cached = cache.get(base)
        if cached is not None:
            return cached
        coord = self._coord_of(base)
        fence = dead.get(coord)
        if fence is not None:
            cached = (rec.get("epoch", 0) < fence, True)
        elif coord == self.shard_id:
            cached = (base not in self._live_tids, False)
        else:
            alive = yield from self._peer(coord, "tid_live", base)
            cached = (not alive, False)
        cache[base] = cached
        return cached

    def finish_rename_intent(self, rec, committed):
        """RPC (shard-to-shard): resolve a cross-shard rename intent here.

        Committed (the destination holds the prepare record): retire the
        source residue the dual-residence detach left behind — the
        retiring-marked ghost dentry, the full move's inode copy, the
        deferred parent-time bump — atomically with the intent.  Aborted:
        clear the retiring marker (or re-attach the old name from the
        intent's payload if the ghost is gone) atomically with the
        intent's deletion.  Both paths reuse the coordinator's own
        record-guarded transactions, so racing or repeating them is safe.
        """
        yield from self._dispatch()
        if committed:
            result = yield from self._retire_rename_src(
                rec["id"], rec["old"], rec["row"], rec["stub"], rec["now"])
        else:
            result = yield from self._rename_rollback(
                rec["id"], rec["old"], rec["row"], rec["stub"], rec["now"])
        return result

    def redo_intent(self, rec):
        """RPC (shard-to-shard): roll a coordinator intent forward here.

        Every redo is idempotent (mirror replays no-op when already
        applied; link drops are dedup-guarded; the rebalance migration
        converges), so the record is deleted only after its effects are
        re-applied.  The record's continued existence is re-checked
        first: the gather's snapshot may be stale — a *live* coordinator
        can finish (and retire) the operation between the gather and the
        liveness probe that judged it dead, and redoing from the stale
        snapshot would re-apply drops whose dedup guards the finished
        operation already collected.
        """
        if not (yield from self.has_record(rec["id"])):
            return False
        op = rec["op"]
        stamp = self._stamp()  # redo acts under the current (live) epoch
        if op == "mirror":
            yield from self._broadcast(rec["mirror"], *rec["args"])
            yield from self.intent_forget(rec["id"])
        elif op == "rename_post":
            pending = [tuple(p) for p in rec["pending"]]
            yield from self._drain_pending(
                pending, rec["now"], rec["id"], stamp)
            if rec["replaced_symlink"]:
                yield from self._broadcast(
                    "mirror_unlink", rec["new"], rec["now"])
            yield from self.intent_forget(rec["id"])
            yield from self._forget_dedups(rec["id"], pending)
        elif op == "rename_replicated":
            pending = [tuple(p) for p in rec["pending"]]
            yield from self._drain_pending(
                pending, rec["now"], rec["id"], stamp)
            yield from self._broadcast(
                "mirror_rename", rec["old"], rec["new"], rec["now"],
                rec["seq"], rec["vino"], rec["rows"])
            self.sharding.renaming.pop(rec["id"], None)
            yield from self.intent_forget(rec["id"])
            yield from self._forget_dedups(rec["id"], pending)
        elif op == "rename_flip":
            # The flip record survived ⟺ its commit transaction (which
            # deletes it) never ran: abort — unstage the alias everywhere
            # and drop the flip's routing alias.
            yield from self.redo_flip(rec)
        elif op == "unlink_stub":
            dedup = self._dedup_id(rec["id"], rec["vino"])
            yield from self._peer(
                rec["home"], "unlink_vino", rec["vino"], rec["now"], dedup,
                stamp)
            yield from self.intent_forget(rec["id"])
            yield from self._peer(rec["home"], "intent_forget", dedup)
        elif op == "route":
            yield from self.redo_route(rec)
        return True

    def retire_rename_part(self, tid, stamp=None):
        """RPC (shard-to-shard): drop a committed install's prepare record
        and then its dedup guards (in that order: a crash in between
        leaves only garbage the completion pass collects)."""
        yield from self._dispatch()
        pid = self._part_id(tid)

        def body(txn):
            self._check_stamp(stamp)
            rec = txn.read("intents", pid)
            if rec is None:
                return None
            txn.delete("intents", pid)
            return [tuple(p) for p in rec["pending"]]

        pending = yield from self.dbsvc.execute(body)
        if pending:
            yield from self._forget_dedups(tid, pending)
        return True

    def redo_rename_part(self, rec):
        """RPC (shard-to-shard): redo a committed install's side effects.

        The prepare record survives only when the coordinator committed
        but the forget never arrived; the drains are dedup-guarded and
        the symlink-replica removal idempotent, so redoing is safe.  The
        record is deleted before its dedup guards so a crash between the
        deletions leaves only garbage pass C collects.  As in
        :meth:`redo_intent`, a record retired since the gather's
        snapshot (its coordinator finished live) is left alone.
        """
        if not (yield from self.has_record(rec["id"])):
            return False
        pending = [tuple(p) for p in rec["pending"]]
        tid = rec["id"].rsplit("@", 1)[0]
        yield from self._drain_pending(
            pending, rec["now"], tid, self._stamp())
        if rec["replaced_symlink"]:
            yield from self._broadcast(
                "mirror_unlink", rec["new"], rec["now"])
        yield from self.intent_forget(rec["id"])
        yield from self._forget_dedups(tid, pending)
        return True

    def reconcile_tier_buckets(self):
        """Coroutine: recount placement counters on every shard."""
        for shard in range(self.n_shards):
            yield from self._call_shard(shard, "reconcile_buckets")
        return True

    def reconcile_buckets(self):
        """RPC (shard-to-shard): recount this shard's placement counters
        from its surviving file rows (counters travel with inode rows;
        a crash between a migration's transactions can leave them a step
        behind — the recount is the authoritative repair)."""
        yield from self._dispatch()

        def body(txn):
            want = {}
            for row in txn.match("inodes"):
                if row["kind"] == FILE and row["upath"]:
                    bucket, _slash, _leaf = row["upath"].rpartition("/")
                    want[bucket] = want.get(bucket, 0) + 1
            changed = 0
            for brow in txn.match("buckets"):
                target = want.pop(brow["path"], 0)
                if brow["count"] != target:
                    fixed = dict(brow)
                    fixed["count"] = target
                    txn.write("buckets", fixed)
                    changed += 1
            for path, count in want.items():
                txn.write("buckets", {"path": path, "count": count})
                changed += 1
            return changed

        result = yield from self.dbsvc.execute(body)
        return result


# ---------------------------------------------------------------------------
# Tier-wide crash recovery
# ---------------------------------------------------------------------------

def recover_tier(shards):
    """Coroutine: recover a whole crashed tier.

    Rebuilds *every* shard from its durable journal prefix first — a
    whole-tier power failure leaves no live peer to ask — then runs the
    tier-wide repair passes exactly once, driven by shard 0.  Every shard
    bumped its epoch during its local rebuild, so the whole tier is in
    the ``dead`` set: the completion pass resolves *all* surviving
    records, exactly the old quiesced-tier behavior (nothing can be in
    flight after a tier-wide power failure).  The skeleton resync runs
    only when some journal actually lost transactions — with the default
    synchronous log the replicas already match and the resync pass is
    pure fan-out cost (the ``recover_tier`` fast path).  Single-shard
    crashes use :meth:`ShardRecoveryPart.recover`, which runs the fenced
    passes against the surviving peers' live tables.
    """
    driver = shards[0]
    tracer = obs.TRACER
    span = None
    if tracer is not None:
        span = tracer.start("recover", "tier", driver.sim.now,
                            shard=driver.shard_id, epoch=driver.epoch)
    try:
        lost = 0
        for shard in shards:
            lost += yield from driver._recovery_pass(
                f"local_rebuild_s{shard.shard_id}", shard.recover_local())
        dead = {shard.shard_id: shard.epoch for shard in shards}
        yield from driver._recovery_pass(
            "fence_tier", driver.fence_tier(dead))
        yield from driver._recovery_pass(
            "complete_intents", driver.complete_tier_intents(dead))
        yield from driver._recovery_pass(
            "restore_routes", driver.restore_routes())
        if lost:
            yield from driver._recovery_pass(
                "resync_skeleton", driver.resync_skeleton())
        yield from driver._recovery_pass(
            "reconcile_buckets", driver.reconcile_tier_buckets())
        for shard in shards:
            # intent completion may have re-attached rows that travelled
            # inside intent records; reseat against the settled tables.
            yield from shard.reseat_allocators()
    except BaseException as exc:
        if span is not None:
            tracer.finish(span, driver.sim.now,
                          outcome=getattr(exc, "code", None)
                          or type(exc).__name__)
        raise
    if span is not None:
        tracer.finish(span, driver.sim.now)
    return lost
