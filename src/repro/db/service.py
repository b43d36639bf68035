"""Simulation wrapper charging virtual-time costs for database work.

Models the Mnesia node of the paper: queries cost CPU on the hosting machine
(Erlang handles its own multicore scheduling, so concurrent transactions use
all CPU slots), and update transactions force a write-ahead log on the node's
local disk — with group commit, so concurrent updaters share forces.  Read
transactions never touch the disk, which is why COFS ``stat`` stays near the
network round-trip time while ``utime`` pays a few milliseconds.
"""

from dataclasses import dataclass

from repro import obs
from repro.cluster.disk import GroupCommitLog
from repro.db.errors import DbError
from repro.db.recovery import RedoJournal, rebuild


@dataclass
class DbConfig:
    """Cost model for the database service.

    Defaults are calibrated so a simple read transaction costs ~0.1–0.2 ms of
    CPU and an update transaction ~2.5–3 ms including the log force, matching
    the COFS stat (~1 ms incl. network) and utime (~4 ms) anchors from the
    paper's evaluation (section IV-A).
    """

    base_cpu_ms: float = 0.03        # per-transaction dispatch overhead
    read_op_cpu_ms: float = 0.02     # per read query inside a transaction
    write_op_cpu_ms: float = 0.05    # per write query inside a transaction
    log_force_ms: float = 1.2        # ext3 journal force on the local disk
    log_per_member_ms: float = 0.05  # marginal cost per batched committer
    log_group_max: int = 32          # Mnesia dumps batches of transactions
    sync_updates: bool = True        # ablation hook: skip log forces if False
    recovery_base_ms: float = 200.0  # process restart + log open
    recovery_per_record_ms: float = 0.02  # redo-apply per journal record
    #: the async-commit batcher's coalescing window: how long it lets
    #: redo records accumulate before issuing the next force.
    async_force_window_ms: float = 0.25


class DbService:
    """Hosts a :class:`~repro.db.database.Database` on a simulated machine.

    ``async_commit`` selects asynchronous group commit: updates commit to
    volatile tables and are acknowledged as soon as *dependency* rules
    allow, while a per-node batcher coalesces outstanding redo records
    into one log force per window.  The crash model becomes bounded
    loss: the journal tail since the last completed force is gone.  Off
    by default — synchronous forces are what every reference figure was
    measured with.
    """

    def __init__(self, machine, database, disk, config=None,
                 async_commit=False):
        self.machine = machine
        self.db = database
        self.config = config or DbConfig()
        self.disk = disk
        self.log = GroupCommitLog(
            machine.sim,
            disk,
            force_ms=self.config.log_force_ms,
            per_member_ms=self.config.log_per_member_ms,
            group_max=self.config.log_group_max,
        )
        self.journal = RedoJournal()
        self.db.journal = self.journal
        self.read_txns = 0
        self.update_txns = 0
        self.recoveries = 0
        #: optional fault-injection hook, called after every update
        #: transaction's commit boundary (once it is as durable as the log
        #: policy makes it).  Raising from the hook models a crash in the
        #: gap after that commit; see :mod:`repro.core.faults`.
        self.fault_hook = None
        #: optional replication hook (coroutine function taking the
        #: committed transaction's LSN — the journal length right after
        #: its commit), driven after every update transaction is locally
        #: durable and *before* the caller regains control: synchronous
        #: journal shipping — the client is only acknowledged once a
        #: quorum holds the change (see
        #: :class:`repro.core.shard.replication.ReplicatedShard`).  The
        #: hook runs after ``fault_hook`` so the locally-durable-but-
        #: unshipped gap is an enumerable crash boundary.
        self.replicator = None
        # Update-transaction quiesce barrier: ``crash_and_recover`` must
        # not truncate the journal tail while a commit's log force is in
        # flight (the force would mark the *rebuilt* journal durable past
        # records the rebuild never saw).  Pure Python counters on the
        # no-crash path.
        self._updates_inflight = 0
        self._update_drain = None  # event a pending rebuild waits on
        self._rebuilding = None    # event new updates wait on
        #: optional fault hook at *force* boundaries (async mode): called
        #: by the batcher after each force (and quorum ship) completes.
        #: Raising models a crash with exactly that force's records
        #: durable; see :func:`repro.core.faults.arm_force_boundaries`.
        self.force_hook = None
        #: shard id used as the observability key (set by the sharded
        #: service; falls back to the machine name).
        self.obs_shard = None
        #: updates acknowledged before their own redo record was durable.
        self.deferred_acks = 0
        self._async = bool(async_commit)
        if self._async:
            database.track_reads = True
        # -- async group-commit state (untouched in sync mode) ----------
        self._ack_horizon = 0     # LSNs <= this are ack-clean (durable,
                                  # and quorum-held when replicated)
        self._ack_waiters = []    # (need_lsn, gate) parked in _async_ack
        self._deferred_pending = []  # (lsn, ack time) for ack_to_durable_ms
        self._last_writer = {}    # (table, pk) -> [lsn, owner, prev lsn]
        self._table_writer = {}   # table -> [lsn, owner, prev lsn]
        self._batcher_started = False
        self._batch_wake = None   # parked batcher's wake-up gate
        self._batch_gen = 0       # bumped by every crash: stale forces
                                  # must not mark the new journal durable
        self._crashed = None      # force-boundary crash exception, until
                                  # recovery clears it

    def execute(self, body):
        """Coroutine: run transaction ``body`` with full cost accounting.

        The transaction body itself executes atomically (no yields inside);
        CPU time proportional to its query counts is charged afterwards,
        then the log is forced if anything was written.
        """
        cfg = self.config
        while self._rebuilding is not None:
            # A journal rebuild is swapping tables: admitting this
            # transaction would commit against the table set about to be
            # discarded.  Bounded wait — the rebuild never blocks on a
            # transaction of this node.
            yield self._rebuilding
        self._updates_inflight += 1
        try:
            outcome = self.db.transaction(lambda txn: (body(txn), txn))
            result, txn = outcome
            # This transaction's redo record (if it wrote) is the newest
            # journal entry; its LSN is what the replicator must prove
            # quorum-durable before the caller may be acknowledged.
            commit_lsn = len(self.journal._records)
            if self._async:
                # Dependency bookkeeping must happen before the first
                # yield: registered atomically with the commit, or a
                # concurrent transaction could read this one's effects
                # without seeing it as a dependency.
                dep = self._dep_of(txn)
                if txn.is_update:
                    self._record_writers(txn, commit_lsn)
            cpu = (
                cfg.base_cpu_ms
                + cfg.read_op_cpu_ms * txn.reads
                + cfg.write_op_cpu_ms * txn.writes
            )
            yield from self.machine.compute(cpu)
            if txn.is_update:
                self.update_txns += 1
                if self._async:
                    if self.fault_hook is not None:
                        self.fault_hook()
                    if self.replicator is not None or self._must_force(txn):
                        # Replicated tiers ack at quorum granularity (the
                        # batcher's force epoch covers the ship), and
                        # recovery-protocol records (intents, prepares,
                        # epochs, the applied pointer) must never sit in
                        # the loss window: other shards already hold
                        # state that references them.
                        need = commit_lsn
                    else:
                        need = dep
                    yield from self._async_ack(need, commit_lsn)
                else:
                    if cfg.sync_updates:
                        yield from self.log.force()
                        self.journal.mark_durable()
                    if self.fault_hook is not None:
                        self.fault_hook()
                    if self.replicator is not None:
                        yield from self.replicator(commit_lsn)
                        if obs.TRACER is not None:
                            # The replicator returned without raising: a
                            # quorum holds this commit; the caller may now
                            # be acked.
                            obs.TRACER.event("quorum_ack",
                                             self.machine.sim.now,
                                             lsn=commit_lsn)
            else:
                self.read_txns += 1
                if self._async and dep > self._ack_horizon:
                    # Externalization gate: this read observed state whose
                    # redo is not yet durable.  Acking it would let the
                    # client act on a namespace a crash can still revoke,
                    # so the ack waits for the dependency's force.
                    yield from self._async_ack(dep, 0)
        finally:
            self._updates_inflight -= 1
            if not self._updates_inflight and self._update_drain is not None:
                drain, self._update_drain = self._update_drain, None
                drain.succeed()
        return result

    # -- asynchronous group commit ------------------------------------------

    #: tables whose records other shards may already reference when the
    #: committing operation is acknowledged (coordination intents and
    #: prepares, dedup records, epoch fences, the routing map, the
    #: backup's applied pointer).  Losing them would break the recovery
    #: protocols, not just lose the op — so they always wait for their
    #: force, never ride the deferred-ack path.
    _FORCE_TABLES = frozenset(("intents", "epochs", "repl", "routes"))

    def _must_force(self, txn):
        staged = txn._staged
        for table in self._FORCE_TABLES:
            if table in staged:
                return True
        return False

    def _obs_key(self):
        return self.machine.name if self.obs_shard is None else self.obs_shard

    def _dep_of(self, txn):
        """Highest un-durable LSN this transaction's reads depend on.

        A dependency is a record written by a *different* op chain (the
        executing :class:`~repro.sim.kernel.Process` is the identity —
        RPC handlers run inline in their caller's process) whose redo is
        not yet ack-clean.  A client re-reading its own deferred writes
        owes nobody a force; observing another client's does.
        """
        keys = txn.read_keys
        if not keys:
            return 0
        me = self.machine.sim.current
        dep = 0
        last_writer = self._last_writer
        table_writer = self._table_writer
        for key in keys:
            if key[1] is None:
                entry = table_writer.get(key[0])
            else:
                entry = last_writer.get(key)
            if entry is None:
                continue
            # entry[0] is the newest writer's LSN; when that writer is
            # the reader itself, entry[2] is the newest *foreign* one.
            lsn = entry[0] if entry[1] is not me else entry[2]
            if lsn > dep:
                dep = lsn
        del keys[:]
        return dep

    def _record_writers(self, txn, lsn):
        """Stamp this commit's write set into the last-writer maps.

        Each entry keeps the two most recent distinct-owner writers
        ``[lsn, owner, previous foreign lsn]`` so :meth:`_dep_of` can
        exclude the reader's own writes without losing an older foreign
        one hiding behind them.  Entries are pruned once the horizon
        passes them (:meth:`_advance_horizon`).
        """
        me = self.machine.sim.current
        last_writer = self._last_writer
        table_writer = self._table_writer
        for table, overlay in txn._staged.items():
            entry = table_writer.get(table)
            if entry is None:
                table_writer[table] = [lsn, me, 0]
            elif entry[1] is me:
                entry[0] = lsn
            else:
                entry[2] = entry[0]
                entry[0] = lsn
                entry[1] = me
            for pk in overlay:
                key = (table, pk)
                entry = last_writer.get(key)
                if entry is None:
                    last_writer[key] = [lsn, me, 0]
                elif entry[1] is me:
                    entry[0] = lsn
                else:
                    entry[2] = entry[0]
                    entry[0] = lsn
                    entry[1] = me

    def _async_ack(self, need, commit_lsn):
        """Coroutine: hold the caller until LSN ``need`` is ack-clean.

        ``commit_lsn`` is the caller's own record (0 for a dependent
        read).  The caller is released as soon as the horizon covers
        ``need`` — for most updates that is immediately, the deferred
        ack that makes the async path fast.
        """
        self._kick_batcher()
        sim = self.machine.sim
        if self._crashed is not None:
            # The node died at a force boundary: nothing is acked until
            # recovery, however far the horizon had advanced before.
            raise self._crashed
        if need > self._ack_horizon:
            gate = sim.event()
            self._ack_waiters.append((need, gate))
            yield gate
        deferred = commit_lsn > self._ack_horizon
        if deferred:
            self.deferred_acks += 1
            if obs.METRICS is not None:
                obs.METRICS.incr("deferred_acks", self._obs_key())
                self._deferred_pending.append((commit_lsn, sim.now))
        if obs.TRACER is not None:
            obs.TRACER.event(
                "commit_ack", sim.now, shard=self._obs_key(),
                lsn=commit_lsn, dep=need, deferred=deferred)
            if self.replicator is not None and commit_lsn:
                # The horizon only covers a replicated commit once its
                # force epoch shipped to a quorum.
                obs.TRACER.event("quorum_ack", sim.now, lsn=commit_lsn)

    def _kick_batcher(self):
        wake = self._batch_wake
        if wake is not None:
            self._batch_wake = None
            wake.succeed()
        elif not self._batcher_started:
            self._batcher_started = True
            proc = self.machine.sim.process(
                self._batcher(), name=f"force-batcher:{self.machine.name}")
            # Force spans are roots of their own traces, not children of
            # whichever client op happened to start the batcher.
            proc.ctx = None

    def _batcher(self):
        """The per-node force batcher: one ``log.force()`` per window.

        Parked while nothing is outstanding.  Each round sleeps the
        coalescing window, captures the journal head, forces the log
        once for every record below it, and — on replicated tiers —
        ships the forced span to a quorum; only then does the ack
        horizon advance and release the parked committers.  A crash
        (generation bump) anywhere in flight voids the round: a torn
        force must not mark the rebuilt journal durable.
        """
        sim = self.machine.sim
        while True:
            if self._crashed is not None or (
                    not self._ack_waiters
                    and not self.journal.lost_on_crash):
                gate = sim.event()
                self._batch_wake = gate
                yield gate
                continue
            gen = self._batch_gen
            window = self.config.async_force_window_ms
            if window > 0.0:
                yield sim.timeout(window)
                if gen != self._batch_gen:
                    continue
            head = len(self.journal._records)
            base = self.journal.durable_upto
            started = sim.now
            tracer = obs.TRACER
            span = None
            if tracer is not None:
                span = tracer.start(
                    "force", "group_force", started,
                    shard=self._obs_key(), base=base, head=head)
            try:
                yield from self.log.force()
                if gen != self._batch_gen:
                    if span is not None:
                        tracer.finish(span, sim.now, outcome="stale")
                    continue
                self.journal.mark_durable(head)
                if self.replicator is not None:
                    yield from self.replicator(head)
                    if gen != self._batch_gen:
                        if span is not None:
                            tracer.finish(span, sim.now, outcome="stale")
                        continue
            except BaseException as exc:
                if span is not None:
                    tracer.finish(span, sim.now, outcome=type(exc).__name__)
                if gen == self._batch_gen:
                    # Quorum lost or fenced mid-ship: the batch's waiters
                    # see the failure exactly as sync committers would
                    # from their own inline ship.
                    self._fail_waiters(exc)
                continue
            if span is not None:
                tracer.finish(span, sim.now)
            self._advance_horizon(head, base, started)
            hook = self.force_hook
            if hook is not None:
                try:
                    hook()
                except BaseException as exc:
                    self._async_crash(exc)

    def _advance_horizon(self, head, base, started):
        sim = self.machine.sim
        if head > self._ack_horizon:
            self._ack_horizon = head
        horizon = self._ack_horizon
        if obs.METRICS is not None:
            key = self._obs_key()
            obs.METRICS.observe("commit_batch_size", key, head - base)
            obs.METRICS.observe("group_force_ms", key, sim.now - started)
            if self._deferred_pending:
                keep = []
                for lsn, acked_at in self._deferred_pending:
                    if lsn <= horizon:
                        obs.METRICS.observe(
                            "ack_to_durable_ms", key, sim.now - acked_at)
                    else:
                        keep.append((lsn, acked_at))
                self._deferred_pending = keep
        if self._ack_waiters:
            keep = []
            for entry in self._ack_waiters:
                if entry[0] <= horizon:
                    entry[1].succeed()
                else:
                    keep.append(entry)
            self._ack_waiters = keep
        # Writers below the horizon can no longer be anyone's dependency.
        last_writer = self._last_writer
        if last_writer:
            dead = [k for k, e in last_writer.items() if e[0] <= horizon]
            for k in dead:
                del last_writer[k]
        table_writer = self._table_writer
        if table_writer:
            dead = [t for t, e in table_writer.items() if e[0] <= horizon]
            for t in dead:
                del table_writer[t]

    def _fail_waiters(self, exc):
        waiters, self._ack_waiters = self._ack_waiters, []
        for _need, gate in waiters:
            gate.fail(exc)

    def _async_crash(self, exc):
        """A force-boundary fault hook fired: the node is down.

        Waiters get the crash thrown at their ack gate (their client
        conversations die with the node); the generation bump voids any
        force still in flight; the batcher parks until
        :meth:`crash_and_recover` clears :attr:`_crashed`.
        """
        self._batch_gen += 1
        self._crashed = exc
        self._fail_waiters(exc)

    def checkpoint(self):
        """Coroutine: force the log and make the whole journal durable.

        Under ``sync_updates=False`` this is the lazy Mnesia dump: the only
        point at which recently committed transactions become crash-safe.
        """
        yield from self.log.force()
        self.journal.mark_durable()

    def crash_and_recover(self):
        """Coroutine: crash the node and rebuild tables from the journal.

        Returns the number of committed-but-lost transactions (always 0
        when updates are forced synchronously).  Costs restart time plus
        redo replay proportional to the durable journal length.

        Before touching the journal it *quiesces*: new transactions wait
        on :attr:`_rebuilding`, in-flight ones drain, and the commit log's
        outstanding forces complete.  Without the barrier a commit whose
        force was still in flight when the tail truncation ran would mark
        the rebuilt journal durable past records the rebuild never saw —
        a silently lost committed transaction.  The admission gate above
        this layer leaves exactly that window open for requests it cannot
        see (gate-bypassing recovery RPCs, and the op admitted on the
        gate's closing edge).
        """
        self._rebuilding = self.machine.sim.event()
        if self._async:
            # Void any force in flight (its completion must not mark the
            # rebuilt journal durable) and fail commits still parked on
            # their ack gate — their records are in the tail about to be
            # truncated, and their conversations die with the node.  The
            # thrown gates unwind through ``execute``'s finally, so the
            # drain loop below sees them leave.
            self._batch_gen += 1
            self._crashed = None
            if self._ack_waiters:
                self._fail_waiters(
                    DbError("node crashed before the commit became durable"))
        try:
            while self._updates_inflight:
                if self._update_drain is None:
                    self._update_drain = self.machine.sim.event()
                yield self._update_drain
            yield from self.log.drain()
            lost = yield from self._rebuild_tables()
        finally:
            gate, self._rebuilding = self._rebuilding, None
            gate.succeed()
        return lost

    def _rebuild_tables(self):
        """Coroutine: the rebuild proper (callers hold the quiesce gate)."""
        lost = self.journal.lost_on_crash
        self.recoveries += 1
        records = self.journal.durable_upto
        yield from self.machine.compute(
            self.config.recovery_base_ms
            + self.config.recovery_per_record_ms * records
        )
        yield from self.disk.read(max(1, records) * 256)
        rebuilt = rebuild(self.db, self.journal)
        # The journal's durable prefix carries over; the lost tail is gone.
        del self.journal._records[self.journal.durable_upto:]
        rebuilt.journal = self.journal
        self.db.journal = None
        self.db = rebuilt
        if self._async:
            rebuilt.track_reads = True
            # Nothing above the (truncated) durable prefix exists any
            # more: the dependency maps restart empty and the horizon
            # restarts at the recovered journal head.
            self._last_writer.clear()
            self._table_writer.clear()
            self._deferred_pending = []
            self._ack_horizon = self.journal.durable_upto
        return lost
