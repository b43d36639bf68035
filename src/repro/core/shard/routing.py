"""Routing: partitioning policies, the client router, and forwards.

This module is the "where does this operation belong" layer of the sharded
tier:

- :class:`ShardingPolicy` / :class:`HashDirSharding` /
  :class:`SubtreeSharding` — the partition function (which shard owns a
  directory's entries), with the *routing map* consulted first: one
  ``path → (owner, shards)`` row per directory the online re-balancer
  (:mod:`repro.core.shard.rebalance`) re-homed, split or merged, or a
  rename pinned, so the base policy stays static while ownership
  follows load and renames move no entry.
- :class:`ShardRouter` — the client-side replacement for the single-target
  :class:`~repro.core.metadriver.MetadataDriver`, routing each op by path
  (or learned vino home), and keeping per-shard / per-directory load
  counters the re-balancer samples.
- :class:`ResolveForward` / :class:`VinoForward` — control-flow exceptions
  a shard raises when a walk crosses onto another shard.
- :class:`ShardRoutingPart` — the service-side mixin: shard arithmetic,
  peer RPC plumbing, the resolution hooks that raise forwards, and every
  read-only forwarded handler (getattr/readdir/readlink/open_map, the
  vino-addressed ops, close_sync chasing, peer queries).
"""

import hashlib

from repro import obs
from repro.core.metadriver import MetadataDriver
from repro.core.metaservice import _MAX_SYMLINK_DEPTH
from repro.pfs.errors import FsError
from repro.pfs.types import DIRECTORY, normalize, split


class ResolveForward(Exception):
    """Control flow: continue this operation on ``shard`` at ``path``.

    ``final`` marks a forward to the shard that *authoritatively* owns
    the missing component's enclosing directory: the redispatch target
    must not be re-derived from the path (that would bounce the op right
    back to the shard that raised the forward).
    """

    def __init__(self, shard, path, final=False):
        super().__init__(shard, path)
        self.shard = shard
        self.path = path
        self.final = final


class VinoForward(Exception):
    """Control flow: the leaf's inode lives on ``shard`` under ``vino``."""

    def __init__(self, shard, vino):
        super().__init__(shard, vino)
        self.shard = shard
        self.vino = vino


class EpochFenced(FsError):
    """A coordination request carried an epoch a recovery has fenced off.

    Raised by a participant when a coordinator's stamp — or by a
    coordinator's own transaction when its captured epoch — is older than
    the fence a recovery installed for that shard.  Subclasses
    :class:`FsError` (errno ``EAGAIN``) so every existing compensation
    path treats it as a clean abort; a client seeing it may simply retry
    (the retried operation captures the current epoch).
    """

    def __init__(self, coord, epoch, fence):
        super().__init__(
            "EAGAIN",
            f"coordinator s{coord} epoch {epoch} fenced below {fence}")
        self.coord = coord
        self.epoch = epoch
        self.fence = fence


class MemberDown(FsError):
    """The targeted replica-group member is dead (or partitioned away).

    Raised at the dispatch edge of a killed member: a crashed node
    refuses new requests outright.  Subclasses :class:`FsError` with
    errno ``EAGAIN`` so every coordination compensation path treats it
    as a clean abort; the router reacts by driving (or awaiting) the
    group's failover and retrying against the promoted primary.
    """

    def __init__(self, shard):
        super().__init__("EAGAIN", f"shard s{shard}: member is down")
        self.shard = shard


# ---------------------------------------------------------------------------
# Partitioning policies
# ---------------------------------------------------------------------------

def entry_slot(name, fanout):
    """Which of ``fanout`` partition slots entry ``name`` hashes to.

    Depends only on the entry's *name* — never on the directory's path —
    so a split directory can be renamed without moving a single entry.
    The split protocol uses the same function to decide what moves where,
    so routing and placement can never disagree.
    """
    digest = hashlib.blake2b(name.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % fanout


class ShardingPolicy:
    """Interface: which shard owns the entries of a directory.

    ``routes`` is the routing map: a normalized directory path maps to
    ``(owner, shards)``, written by every routing change (re-home,
    split, merge, forget — see :mod:`repro.core.shard.rebalance`) and
    by a rename's pins (:mod:`repro.core.shard.coordination`).
    ``owner`` is the directory's whole-directory owner (its times and
    getattr, further routing changes); ``shards`` the tuple its entries
    are hash-partitioned across by name (GIGA+-style — one element for
    an unsplit directory).  A path without a row falls to the static
    partition function.  The map is shared by every router and shard of
    one stack (modeling the small replicated routing table a real tier
    pushes to its clients); the durable copy lives in each shard's
    ``routes`` table and is restored on recovery.

    ``renaming`` holds one prefix alias per live directory rename, keyed
    by its intent id: ``(src, dst, vino, seq, epoch)`` — a path under
    ``src`` without a row of its own routes as the matching path under
    ``dst`` (see :meth:`route_of`).  Until the rename commits, ``src``
    is the new name and ``dst`` the old one, which places every entry
    where it is; from the commit until every replica retired the old
    name, the old name routes as the new one, whose rows the commit
    wrote.  Both names thus agree on every entry throughout, including
    entries of directories created under either name during the flip.
    """

    def __init__(self):
        self.routes = {}
        self.renaming = {}

    def route_of(self, norm):
        """``(route, path)`` for normalized directory path ``norm``: the
        routing row it routes by (None when the static rule applies) and
        the path the static rule reads.  A path without a row that lies
        under a live rename's aliased name is read as the matching path
        under the other name, in turn for chained renames."""
        route = self.routes.get(norm)
        for _hop in range(len(self.renaming)):
            if route is not None:
                break
            for src, dst, *_flip in self.renaming.values():
                if norm == src or norm.startswith(src + "/"):
                    norm = dst + norm[len(src):]
                    break
            else:
                break
            route = self.routes.get(norm)
        return route, norm

    def shard_of_dir(self, dir_path, n_shards):
        """The shard (int in ``range(n_shards)``) owning ``dir_path``'s
        entries."""
        if n_shards <= 1:
            return 0
        norm = normalize(dir_path)
        route = self.routes.get(norm)
        if route is None and self.renaming:
            route, norm = self.route_of(norm)
        if route is not None:
            return route[0] % n_shards
        return self._base_shard(norm, n_shards)

    def shard_of_entry(self, dir_path, name, n_shards):
        """The shard owning entry ``name`` of directory ``dir_path``.

        A split directory routes each entry by the hash of its *name*
        (path-independent, so renaming the directory re-keys the map but
        never moves an entry); an unsplit directory falls back to the
        whole-directory rule.  Pure in-memory arithmetic — zero simulated
        cost, exactly like :meth:`shard_of_dir`.
        """
        if n_shards <= 1:
            return 0
        norm = normalize(dir_path)
        route = self.routes.get(norm)
        if route is None and self.renaming:
            route, norm = self.route_of(norm)
        if route is None:
            return self._base_shard(norm, n_shards)
        fanout = route[1]
        if len(fanout) == 1:
            return fanout[0] % n_shards
        return fanout[entry_slot(name, len(fanout))] % n_shards

    def entry_shards(self, dir_path, n_shards):
        """Every shard that may own entries of ``dir_path`` (fan-out set).

        ``(owner,)`` for an unsplit directory; the de-duplicated partition
        tuple for a split one.  readdir fans out over this set, and rmdir
        consults each member for emptiness.
        """
        if n_shards <= 1:
            return (0,)
        norm = normalize(dir_path)
        route = self.routes.get(norm)
        if route is None and self.renaming:
            route, norm = self.route_of(norm)
        if route is None:
            return (self._base_shard(norm, n_shards),)
        seen = []
        for shard in route[1]:
            shard %= n_shards
            if shard not in seen:
                seen.append(shard)
        return tuple(seen)

    def is_split(self, norm):
        """Whether the row for normalized ``norm`` fans out over more
        than one shard (a merged or re-homed directory's does not)."""
        route = self.routes.get(norm)
        return route is not None and len(set(route[1])) > 1

    def static_shard_of_dir(self, dir_path, n_shards):
        """The shard the *static* rule names, ignoring the routing map.

        The explicit bypass the forget protocol needs (where a
        directory's entries go once its re-homing is forgotten), and a
        rename's pins (whether the new path's static owner differs).
        """
        if n_shards <= 1:
            return 0
        return self._base_shard(normalize(dir_path), n_shards)

    def _base_shard(self, norm, n_shards):
        """The static partition function over a normalized path."""
        raise NotImplementedError


class HashDirSharding(ShardingPolicy):
    """Hash-by-parent-directory (HopsFS-style).

    Entries of one directory always co-locate; distinct directories spread
    uniformly, so workloads touching many directories scale with shards.
    """

    def _base_shard(self, norm, n_shards):
        digest = hashlib.blake2b(norm.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") % n_shards


class SubtreeSharding(ShardingPolicy):
    """Static subtree partitioning: longest matching prefix wins.

    ``assignments`` maps a directory prefix to a shard; everything below it
    (unless a longer rule overrides) is served there.  Unmatched paths fall
    to ``default``.  This is the administrator-controlled alternative to
    hashing: whole projects stay on one shard.
    """

    def __init__(self, assignments, default=0):
        super().__init__()
        self.rules = sorted(
            ((normalize(prefix), int(shard))
             for prefix, shard in dict(assignments).items()),
            key=lambda rule: len(rule[0]), reverse=True,
        )
        self.default = default

    def _base_shard(self, norm, n_shards):
        for prefix, shard in self.rules:
            if norm == prefix or prefix == "/" \
                    or norm.startswith(prefix + "/"):
                return shard % n_shards
        return self.default % n_shards


# ---------------------------------------------------------------------------
# Client-side router
# ---------------------------------------------------------------------------

class ShardRouter:
    """Routes each metadata op to the shard owning its leaf's directory.

    Drop-in replacement for a single :class:`MetadataDriver`: exposes the
    same ``call(method, *args)`` coroutine.  With one shard it degenerates
    to a pure pass-through (zero simulated and zero accounting difference),
    which is what keeps 1-shard stacks byte-identical to the pre-sharding
    system.

    The router also keeps *load counters* — ops per shard and ops per
    target directory — as pure Python bookkeeping (no simulated cost).
    They are the sampling source for
    :class:`repro.core.shard.rebalance.Rebalancer`: the router is the one
    place that already computes the (directory → shard) decision for every
    op, so counting here attributes load to the unit the re-balancer can
    actually move.
    """

    #: methods whose first argument is a path routed by its parent dir.
    _LEAF_OPS = frozenset({
        "getattr", "create_node", "setattr", "unlink", "rmdir",
        "readlink", "open_map",
    })

    #: read-only methods a replica group's in-sync backup may serve
    #: (follower reads; open_map is excluded — it flips delegation).
    _FOLLOWER_OPS = frozenset({"getattr", "readlink", "readdir"})

    #: retry budget for a group call that hits a dead member (each retry
    #: first drives/awaits the failover of any group with a dead primary).
    _FAILOVER_RETRIES = 4

    def __init__(self, machine, shard_machines, config, sharding,
                 groups=None):
        self.machine = machine
        self.config = config
        self.sharding = sharding
        self.groups = groups
        if groups is None:
            self.drivers = [
                MetadataDriver(machine, m, config) for m in shard_machines
            ]
            self.n_shards = len(self.drivers)
        else:
            # Replicated tier: one driver per group *member*; each call
            # re-resolves the group's current primary (or an in-sync
            # follower for reads), so a failover transparently re-targets
            # without touching the routing logic above.
            self._member_drivers = [
                {member: MetadataDriver(machine, member.machine, config)
                 for member in group.members}
                for group in groups
            ]
            self.drivers = None
            self.n_shards = len(groups)
        self._vino_shard = {}  # vino -> home shard (learned from views)
        self.op_loads = [0] * self.n_shards
        self.dir_loads = {}    # normalized dir path -> op count

    @property
    def calls(self):
        if self.groups is None:
            return sum(driver.calls for driver in self.drivers)
        return sum(driver.calls
                   for drivers in self._member_drivers
                   for driver in drivers.values())

    # -- replica-group targeting ------------------------------------------

    def _primary_driver(self, shard):
        return self._member_drivers[shard][self.groups[shard].primary]

    def _read_driver(self, shard):
        """Driver for a read-only op: an in-sync follower when allowed.

        Follower reads are bounded-staleness: a backup serves only while
        its applied LSN lags the group head by at most
        ``config.follower_staleness`` records (0 = fully caught up, which
        under synchronous shipping means the read is current).
        """
        group = self.groups[shard]
        member = None
        if self.config.follower_reads:
            member = group.follower_for_read(self.config.follower_staleness)
        if member is None:
            member = group.primary
        return self._member_drivers[shard][member]

    def _call_group(self, shard, method, args, read_only=False):
        """Coroutine: call a group; drive failover + retry on dead members.

        ``EAGAIN`` covers both a dead member's refusal
        (:class:`MemberDown`) and a coordinator that tripped over one
        mid-protocol and cleanly aborted (:class:`EpochFenced` / abort
        compensation).  Either way the cure is the same: make sure every
        group with a dead primary has failed over, then retry — the
        retried operation captures the promoted primary and its fresh
        epoch.
        """
        group = self.groups[shard]
        for attempt in range(self._FAILOVER_RETRIES + 1):
            member = None
            if read_only and self.config.follower_reads:
                member = group.follower_for_read(
                    self.config.follower_staleness)
            follower = member is not None
            if member is None:
                member = group.primary
            driver = self._member_drivers[shard][member]
            tracer = obs.TRACER
            span = None
            if tracer is not None:
                span = tracer.start(
                    "group_rpc", method, self.machine.sim.now, shard=shard,
                    epoch=member.epoch, attempt=attempt,
                    member=member.member_index,
                    role="backup" if follower else "primary")
            if follower and obs.METRICS is not None:
                obs.METRICS.incr("follower_reads", shard)
                obs.METRICS.observe(
                    "follower_staleness", shard,
                    group.lsn - group.acked[member])
            try:
                result = yield from driver.call(method, *args)
                if span is not None:
                    tracer.finish(span, self.machine.sim.now)
                return result
            except FsError as exc:
                if span is not None:
                    tracer.finish(span, self.machine.sim.now,
                                  outcome=exc.code)
                if exc.code != "EAGAIN" or attempt == self._FAILOVER_RETRIES:
                    raise
                if obs.METRICS is not None:
                    obs.METRICS.incr("router_retry", shard)
                for other in self.groups:
                    if other.primary.down:
                        yield from other.ensure_failover()
            except BaseException as exc:
                if span is not None:
                    tracer.finish(span, self.machine.sim.now,
                                  outcome=type(exc).__name__)
                raise

    def shard_for_dir(self, dir_path):
        return self.sharding.shard_of_dir(dir_path, self.n_shards)

    def shard_for_leaf(self, path):
        parent, name = split(path)
        return self.sharding.shard_of_entry(parent, name, self.n_shards)

    def call(self, method, *args):
        """Coroutine: one (possibly fanned-out) metadata RPC."""
        if self.n_shards == 1 and self.groups is None:
            if obs.TRACER is None and obs.METRICS is None:
                return self.drivers[0].call(method, *args)
            return self._observed(
                self.drivers[0].call(method, *args), method, 0)
        if method == "statfs":
            shard = None
            coro = self._statfs()
        elif method == "close_sync":
            shard = self._vino_shard.get(args[0], 0)
            self._note_load(shard, None)
            if self.groups is not None:
                coro = self._call_group(shard, method, args)
            else:
                coro = self.drivers[shard].call(method, *args)
        else:
            fanout = None
            if method == "readdir":
                dir_path = normalize(args[0])
                owners = self.sharding.entry_shards(dir_path, self.n_shards)
                shard = owners[0]
                if len(owners) > 1:
                    fanout = owners
            elif method == "rename":
                dir_path, name = split(args[0])
                shard = self.sharding.shard_of_entry(
                    dir_path, name, self.n_shards)
            elif method == "link":
                dir_path, name = split(args[1])
                shard = self.sharding.shard_of_entry(
                    dir_path, name, self.n_shards)
            elif method in self._LEAF_OPS:
                dir_path, name = split(args[0])
                shard = self.sharding.shard_of_entry(
                    dir_path, name, self.n_shards)
            else:
                dir_path = None
                shard = 0
            self._note_load(shard, dir_path)
            if fanout is not None:
                coro = self._readdir_fanout(fanout, args)
            else:
                coro = self._tracked(shard, method, args)
        if obs.TRACER is None and obs.METRICS is None:
            return coro
        return self._observed(coro, method, shard)

    def _observed(self, coro, method, shard):
        """Coroutine: run one client op under a ``client_op`` span.

        Pure Python bookkeeping around the inner coroutine — the same
        zero-simulated-cost discipline as :meth:`_note_load` (no events,
        no yields of its own, no sequence numbers).
        """
        tracer, metrics = obs.TRACER, obs.METRICS
        sim = self.machine.sim
        start = sim.now
        span = None
        if tracer is not None:
            span = tracer.start("client_op", method, start, shard=shard)
        try:
            result = yield from coro
        except FsError as exc:
            if span is not None:
                tracer.finish(span, sim.now, outcome=exc.code)
            if metrics is not None:
                metrics.observe(f"op_ms.{method}", shard, sim.now - start)
            raise
        except BaseException as exc:
            if span is not None:
                tracer.finish(span, sim.now, outcome=type(exc).__name__)
            raise
        if span is not None:
            tracer.finish(span, sim.now)
        if metrics is not None:
            metrics.observe(f"op_ms.{method}", shard, sim.now - start)
        return result

    #: bound on learned vino homes; overflow clears (close_sync then
    #: falls back to shard 0 and the service fans out on a miss).
    _VINO_MAP_MAX = 4096

    #: bound on per-directory load counters; overflow keeps the hot half
    #: so sustained skew survives the trim.
    _DIR_LOADS_MAX = 8192

    def _note_load(self, shard, dir_path):
        """Count one op against its shard and (when known) its directory."""
        self.op_loads[shard] += 1
        if dir_path is None:
            return
        loads = self.dir_loads
        if len(loads) >= self._DIR_LOADS_MAX and dir_path not in loads:
            hot = sorted(loads.items(), key=lambda kv: (-kv[1], kv[0]))
            loads.clear()
            loads.update(hot[:self._DIR_LOADS_MAX // 2])
        loads[dir_path] = loads.get(dir_path, 0) + 1

    def reset_loads(self):
        """Forget the sampled load entirely (tests, cold restarts)."""
        self.op_loads = [0] * self.n_shards
        self.dir_loads = {}

    def decay_loads(self, factor=0.5):
        """Age the sampled load (after a re-balancing round).

        Decaying instead of resetting keeps a *persistent* hotspot
        visible to the very next planning round: a cold counter right
        after a snapshot would make the re-balancer blind until a full
        sampling window refills it, while stale one-off spikes still
        fade geometrically.  Directories whose aged count rounds to zero
        are dropped so the map never grows without bound.
        """
        self.op_loads = [int(count * factor) for count in self.op_loads]
        self.dir_loads = {
            path: aged for path, count in self.dir_loads.items()
            if (aged := int(count * factor)) > 0
        }

    def _readdir_fanout(self, owners, args):
        """Coroutine: merged readdir over a split directory's partitions.

        Each partition shard lists only its *local* entries
        (``readdir_shard``); the union dedups the replicated skeleton
        names and any entry a migration transiently left on two shards,
        so every name appears exactly once in the merged listing.
        """
        names = set()
        for shard in owners:
            part = yield from self._tracked(shard, "readdir_shard", args)
            names.update(part)
        return sorted(names)

    def _tracked(self, shard, method, args):
        """Coroutine: call one shard; learn vino homes from returned views."""
        if self.groups is None:
            view = yield from self.drivers[shard].call(method, *args)
        else:
            view = yield from self._call_group(
                shard, method, args,
                read_only=method in self._FOLLOWER_OPS)
        if type(view) is dict and "vino" in view:
            if len(self._vino_shard) >= self._VINO_MAP_MAX:
                self._vino_shard.clear()
            self._vino_shard[view["vino"]] = view.get("shard", shard)
        return view

    def _statfs(self):
        """Coroutine: namespace stats aggregated across every shard.

        The replicated skeleton (directories, symlinks) is counted once
        via shard 0's totals; files sum across shards.
        """
        merged = None
        files = 0
        for shard in range(self.n_shards):
            if self.groups is None:
                stats = yield from self.drivers[shard].call("statfs")
            else:
                stats = yield from self._call_group(shard, "statfs", ())
            if merged is None:
                merged = dict(stats)
            files += stats["files"]
        # shard 0's inode count covers the whole skeleton plus its own
        # files; the other shards contribute only their files.
        merged["inodes"] = merged["inodes"] + files - merged["files"]
        merged["files"] = files
        return merged

    def call_all(self, method, *args):
        """Coroutine: invoke ``method`` on every shard; list of results.

        Tier-wide maintenance fan-out (the scrubber's live-upath gather);
        not a data-path operation, so it is deliberately serial and
        unrouted.
        """
        results = []
        for shard in range(self.n_shards):
            if self.groups is None:
                results.append(
                    (yield from self.drivers[shard].call(method, *args)))
            else:
                results.append(
                    (yield from self._call_group(shard, method, args)))
        return results


# ---------------------------------------------------------------------------
# Service-side routing mixin
# ---------------------------------------------------------------------------

class ShardRoutingPart:
    """Shard arithmetic, peer RPCs, forwards, and forwarded read handlers.

    Mixin for :class:`repro.core.shard.service.ShardMetadataService`; every
    ``super()`` call resolves through the composed class to
    :class:`repro.core.metaservice.MetadataService`.
    """

    # -- recovery epochs and fences ---------------------------------------

    def _stamp(self, epoch=None):
        """The ``(coordinator, epoch)`` pair a coordinated RPC carries.

        ``epoch`` is the value the operation captured at its start;
        without one (recovery-driven calls, which are always current) the
        live :attr:`epoch` is used.  Captured-at-start matters: after a
        mid-operation recovery the service object's epoch has moved on,
        and the still-running ("zombie") operation must keep presenting
        its stale epoch so peers can fence it.
        """
        return (self.shard_id, self.epoch if epoch is None else epoch)

    def _check_stamp(self, stamp):
        """Refuse a stale-epoch coordinator (no stamp = unfenced caller).

        Zero simulated cost: fences are kept in memory (mirroring the
        durable ``epochs`` rows) exactly like the partition function's
        routing map, so the no-crash path pays a dict lookup and
        nothing else.  Call this *inside* the transaction body for
        mutating handlers — bodies are atomic with respect to
        ``install_fences``, which closes the race between a fence landing
        and a stale write committing.
        """
        if stamp is None:
            return
        coord, epoch = stamp
        fence = self.fences.get(coord, 0)
        if epoch < fence:
            if obs.METRICS is not None:
                obs.METRICS.incr("epoch_fenced", self.shard_id)
            raise EpochFenced(coord, epoch, fence)

    @staticmethod
    def _coord_of(rid):
        """The coordinator shard encoded in a record id (``s<k>....``)."""
        return int(rid[1:].split(".", 1)[0])

    # -- admission gate ----------------------------------------------------

    def _dispatch(self):
        """Dispatch cost, gated while this shard's local rebuild runs.

        A real node refuses service between crash and restart; here the
        rebuild is a few cooperative yields, so requests that land in the
        window simply wait on the admission event instead of racing the
        journal replay.  A *killed* member (``down``, set by the fault
        hooks in :mod:`repro.core.faults`) refuses outright instead of
        queueing: its requests must fail fast so callers re-target the
        group's promoted primary.  The no-crash path pays two attribute
        tests.
        """
        if self.down:
            if obs.METRICS is not None:
                obs.METRICS.incr("member_down", self.shard_id)
            raise MemberDown(self.shard_id)
        if self._admission is None:
            return super()._dispatch()
        return self._gated_dispatch()

    def _gated_dispatch(self):
        entered = self.sim.now
        while self._admission is not None:
            yield self._admission
        if obs.METRICS is not None:
            obs.METRICS.observe(
                "admission_wait_ms", self.shard_id, self.sim.now - entered)
        if self.down:
            if obs.METRICS is not None:
                obs.METRICS.incr("member_down", self.shard_id)
            raise MemberDown(self.shard_id)
        yield from super()._dispatch()

    def _recovery_dispatch(self):
        """Dispatch for recovery control-plane RPCs, bypassing the gate.

        ``install_fences`` / ``max_vino_in_class`` / ``max_intent_seq``
        are served *during* a local recovery's admission outage: they
        touch only durable control tables (never the namespace a rebuild
        is replaying — the journal-swap window itself is closed by the
        transaction quiesce in
        :meth:`repro.db.service.DbService.crash_and_recover`).  Routing
        them through the gate would deadlock two shards recovering
        concurrently: each holds its own gate closed while waiting for
        the other to serve its fence install / allocator probe.
        """
        if self.down:
            if obs.METRICS is not None:
                obs.METRICS.incr("member_down", self.shard_id)
            raise MemberDown(self.shard_id)
        return super()._dispatch()

    def _rejoin_dispatch(self):
        """Dispatch for the snapshot install that revives a dead member.

        Deliberately ignores both the ``down`` flag and the admission
        gate: the install *is* the restart — the member is marked down
        for the whole resync window precisely so it serves nothing else
        until the snapshot is in place.
        """
        return super()._dispatch()

    # -- shard arithmetic -------------------------------------------------

    def _owner_of(self, path):
        """The shard owning ``path``'s leaf entry.

        Entry-aware: in a split directory each entry routes by the hash
        of its own name; otherwise by the parent directory as before.
        """
        parent, name = split(path)
        return self.sharding.shard_of_entry(parent, name, self.n_shards)

    def _dir_owner(self, dir_path):
        return self.sharding.shard_of_dir(dir_path, self.n_shards)

    def _check_hops(self, hops, path):
        if hops > _MAX_SYMLINK_DEPTH:
            raise FsError.einval(
                f"too many levels of symbolic links: {path}")

    # -- peer communication ----------------------------------------------

    def _peer(self, shard, method, *args):
        """Coroutine: an internal shard-to-shard RPC (full network cost)."""
        call = self.machine.call(
            self.shard_machines[shard], "cofsmds", method, args=args,
            req_size=self.config.rpc_bytes, resp_size=self.config.rpc_bytes,
        )
        if self.faults is not None:
            call = self._peer_traced(call, shard, method)
        if obs.TRACER is None:
            return call
        return self._peer_span(call, "peer_rpc", shard, method)

    def _peer_traced(self, call, shard, method):
        """Coroutine: a peer RPC whose send/receive are crash boundaries."""
        self.faults.boundary(("send", self.shard_id, shard, method))
        result = yield from call
        self.faults.boundary(("recv", self.shard_id, shard, method))
        return result

    def _peer_span(self, call, kind, target, method):
        """Coroutine: run a shard-to-shard (or member) RPC under a span.

        Created in the issuing process but possibly *executed* in a
        spawned child (parallel broadcasts / fence fan-outs): the span
        opens on first resume, inside the child, whose inherited ``ctx``
        parents it correctly.
        """
        tracer = obs.TRACER
        if tracer is None:  # disabled between creation and first resume
            result = yield from call
            return result
        sim = self.sim
        span = tracer.start(kind, method, sim.now, shard=self.shard_id,
                            epoch=self.epoch, target=target)
        try:
            result = yield from call
        except FsError as exc:
            tracer.finish(span, sim.now, outcome=exc.code)
            raise
        except BaseException as exc:
            tracer.finish(span, sim.now, outcome=type(exc).__name__)
            raise
        tracer.finish(span, sim.now)
        return result

    def _call_shard(self, shard, method, *args):
        """Coroutine: invoke an internal op on a shard (maybe this one)."""
        if shard == self.shard_id:
            return getattr(self, method)(*args)
        return self._peer(shard, method, *args)

    def _redispatch(self, fwd, method, *args):
        """Coroutine: restart ``method`` where a forward says it belongs."""
        return self._call_shard(fwd.shard, method, *args)

    # -- resolution hooks -------------------------------------------------

    def _attr_view(self, row):
        view = super()._attr_view(row)
        view["shard"] = self.shard_id
        return view

    def _resolve_retarget(self, txn, target, follow, depth):
        if not self._local_only:
            # Walking toward a directory whose *contents* matter (a parent
            # walk, or readdir) routes by the target directory itself;
            # walking to a leaf routes by the leaf's parent.
            owner = self._dir_owner(target) if self._parent_walk \
                else self._owner_of(target)
            if owner != self.shard_id:
                raise ResolveForward(owner, target)
        # The walk continues locally on a rewritten path: remember it, so
        # the ownership guard in _txn_resolve_parent knows the textual
        # path no longer names the resolved entry (and readdir knows the
        # real directory to merge partitions for).
        self._walk_target = target
        return super()._resolve_retarget(txn, target, follow, depth)

    def _absent_dentry(self, txn, path, parts, index):
        if not self._local_only:
            dir_path = "/" + "/".join(parts[:index])
            owner = self.sharding.shard_of_entry(
                dir_path, parts[index], self.n_shards)
            if owner != self.shard_id:
                # A component with no local dentry may still be a
                # partitioned file (or stub) on the shard owning this
                # *entry* (its name's partition in a split directory,
                # the directory's owner otherwise) — which must then
                # answer ENOTDIR, not ENOENT.  Forward; the owner
                # resolves authoritatively and never re-forwards.  Parent
                # walks mark the forward ``final``: their redispatch must
                # go to this owner verbatim, since re-deriving the shard
                # from the leaf's parent would route straight back here.
                # A leaf walk's *last* component forwards too: the
                # router's snapshot may predate a migration flip whose
                # purge already ran here — the shard the *current* map
                # names provably holds the entry, and a genuinely
                # missing name is ENOENT there just the same.
                raise ResolveForward(
                    owner, path, final=self._parent_walk)
        super()._absent_dentry(txn, path, parts, index)

    def _missing_child(self, txn, path, dentry, last):
        home = dentry.get("home")
        if home is None or home == self.shard_id or self._local_only:
            return super()._missing_child(txn, path, dentry, last)
        if not last or self._parent_walk:
            # A cross-shard hard link is never a directory; using it as a
            # path component (or as a parent/readdir target) is ENOTDIR —
            # only leaf inode ops forward to the home shard.
            raise FsError.enotdir(path)
        raise VinoForward(home, dentry["vino"])

    def _txn_resolve_parent(self, txn, path):
        # Transaction bodies never yield, so these flags are scoped to the
        # synchronous walk: no other handler can observe them mid-flight.
        prev = self._parent_walk
        prev_target = self._walk_target
        self._parent_walk = True
        self._walk_target = None
        try:
            try:
                result = super()._txn_resolve_parent(txn, path)
            except ResolveForward as fwd:
                # The *parent* walk crossed shards: re-attach the leaf so
                # the re-dispatched operation carries the full rewritten
                # path.  An authoritative (final) forward keeps its target
                # shard; a symlink-retarget forward re-routes by the
                # rewritten parent.
                _parent, name = split(path)
                base = normalize(fwd.path)
                full = f"/{name}" if base == "/" else f"{base}/{name}"
                if fwd.final:
                    raise ResolveForward(
                        fwd.shard, full, final=True) from None
                raise ResolveForward(self._owner_of(full), full) from None
            retargeted = self._walk_target is not None
        finally:
            self._parent_walk = prev
            self._walk_target = prev_target
        if not self._local_only and not self._skip_owner_guard \
                and not retargeted:
            owner = self._owner_of(path)
            if owner != self.shard_id:
                # Ownership re-check, atomic with the mutation: routing
                # flipped between the router's decision and this
                # transaction (a concurrent split/re-homing committed its
                # flip on this very dbsvc).  Land the mutation where the
                # entry now lives instead of writing a row routing no
                # longer reaches — this is what lets a migration's flip
                # transaction guarantee no entry is ever stranded on the
                # source.  Pure Python (no reads charged): the no-race
                # path costs nothing.  Suppressed for replicated-rename
                # replays, which legitimately walk every shard's skeleton.
                raise ResolveForward(owner, path, final=True)
        return result

    def _resolve_rename_old(self, txn, old):
        # rename's peek already pinned the source to this shard; walk the
        # local skeleton replica so a concurrently-installed cross-shard
        # symlink can't raise a source forward that the redispatch
        # handlers would misread as a destination forward.
        prev = self._local_only
        self._local_only = True
        try:
            return super()._resolve_rename_old(txn, old)
        finally:
            self._local_only = prev

    # -- forwarded single-path read handlers --------------------------------

    def getattr(self, path, _hops=0):
        self._check_hops(_hops, path)
        try:
            view = yield from super().getattr(path)
        except ResolveForward as fwd:
            view = yield from self._redispatch(
                fwd, "getattr", fwd.path, _hops + 1)
            return view
        except VinoForward as fwd:
            view = yield from self._peer(fwd.shard, "getattr_vino", fwd.vino)
            return view
        if view["kind"] == DIRECTORY:
            # File creates/unlinks touch a directory's times only on its
            # contents-owner shard — the authoritative replica for stat.
            owner = self._dir_owner(path)
            if owner != self.shard_id:
                view = yield from self._peer(
                    owner, "getattr", path, _hops + 1)
        return view

    def bump_dir_times(self, path, now):
        """Apply a split directory's advisory time bump (owner clock).

        The owner's arrival order *is* the split directory's single
        ordered clock: partition shards forward the mtime/ctime bump of
        each entry mutation they serve, and bumps apply last-writer-wins
        in arrival order here — so stat (answered by this owner) reads
        one totally-ordered history rather than a per-partition merge.

        Plain python, deliberately outside the transaction and RPC
        machinery: timestamps are advisory (POSIX latitude), so the
        propagation is modeled free — like the shared routing map —
        and must stay charge-preserving (no simulated events, no
        journal records; a crash of this shard loses unjournaled
        bumps).  The walk follows this shard's own skeleton replica,
        so staged rename aliases resolve like any other dentry.
        """
        vino = self.root_vino
        for name in normalize(path).strip("/").split("/"):
            if not name:
                continue
            dentry = self.db.table("dentries").read((vino, name))
            if dentry is None:
                return False
            vino = dentry["vino"]
        row = self.db.table("inodes").read(vino)
        if row is None:
            return False
        row = dict(row)
        row["mtime"] = row["ctime"] = now
        self.db.table("inodes").write(row)
        return True

    def open_map(self, path, for_write, now, _hops=0):
        self._check_hops(_hops, path)
        try:
            view = yield from super().open_map(path, for_write, now)
        except ResolveForward as fwd:
            view = yield from self._redispatch(
                fwd, "open_map", fwd.path, for_write, now, _hops + 1)
        except VinoForward as fwd:
            view = yield from self._peer(
                fwd.shard, "open_vino", fwd.vino, for_write, now)
        return view

    def readdir(self, path, _hops=0):
        self._check_hops(_hops, path)
        yield from self._dispatch()

        def body(txn):
            # Like a parent walk: a symlink on the way must route by the
            # target directory itself (whose entries live on its owner).
            prev = self._parent_walk
            prev_target = self._walk_target
            self._parent_walk = True
            self._walk_target = None
            try:
                row = self._txn_resolve(txn, path)
                # A symlink may have rewritten the path mid-walk; the
                # partition merge below must consult the *resolved*
                # directory, not the textual argument.
                resolved = normalize(self._walk_target or path)
            finally:
                self._parent_walk = prev
                self._walk_target = prev_target
            if row["kind"] != DIRECTORY:
                raise FsError.enotdir(path)
            names = [d["name"] for d in
                     txn.index_read("dentries", "parent", row["vino"])]
            return resolved, sorted(names)

        try:
            resolved, names = yield from self.dbsvc.execute(body)
        except ResolveForward as fwd:
            names = yield from self._redispatch(
                fwd, "readdir", fwd.path, _hops + 1)
            return names
        owners = self.sharding.entry_shards(resolved, self.n_shards)
        if owners == (self.shard_id,):
            return names
        # Split directory (or ownership moved after the router chose us):
        # union every partition's local listing.  Names dedup the
        # replicated skeleton and any entry a migration transiently left
        # on two shards — each entry appears exactly once.  Our own local
        # names count only while we are an authoritative partition; a
        # shard the routing no longer reaches may hold stale, already
        # purge-bound copies.
        merged = set(names) if self.shard_id in owners else set()
        for shard in owners:
            if shard == self.shard_id:
                continue
            part = yield from self._peer(shard, "readdir_shard", resolved)
            merged.update(part)
        return sorted(merged)

    def readdir_shard(self, path, _hops=0):
        """RPC: this shard's *local* listing of directory ``path``.

        One partition's contribution to a merged readdir over a split
        directory: resolve against the local skeleton replica (no
        forwards — every shard replicates the directory tree) and list
        only locally-present dentries.  The caller unions partitions and
        dedups by name.
        """
        self._check_hops(_hops, path)
        yield from self._dispatch()

        def body(txn):
            prev = self._local_only
            self._local_only = True
            try:
                row = self._txn_resolve(txn, path)
            finally:
                self._local_only = prev
            if row["kind"] != DIRECTORY:
                raise FsError.enotdir(path)
            return sorted(d["name"] for d in
                          txn.index_read("dentries", "parent", row["vino"]))

        names = yield from self.dbsvc.execute(body)
        return names

    def readlink(self, path, _hops=0):
        self._check_hops(_hops, path)
        try:
            target = yield from super().readlink(path)
        except ResolveForward as fwd:
            target = yield from self._redispatch(
                fwd, "readlink", fwd.path, _hops + 1)
        except VinoForward:
            # A cross-shard hard-link stub: its inode is never a symlink
            # (hard links to symlinks are rejected on sharded stacks), so
            # answer directly instead of leaking the control-flow exception.
            raise FsError.einval(f"not a symlink: {path}")
        return target

    # -- delegated write-back ----------------------------------------------

    def close_sync(self, vino, size, mtime, now):
        """Delegated write-back; chases an inode a rename migrated away.

        The router targets the learned home shard, but a concurrent
        cross-shard rename can move the inode after a client learned its
        home.  A miss here fans out to the peers before giving up, so the
        delegated size/mtime are never silently dropped.
        """
        result = yield from super().close_sync(vino, size, mtime, now)
        if result:
            return True
        for shard in range(self.n_shards):
            if shard == self.shard_id:
                continue
            found = yield from self._peer(
                shard, "close_sync_local", vino, size, mtime, now)
            if found:
                return True
        return False

    def close_sync_local(self, vino, size, mtime, now):
        """RPC (shard-to-shard): close_sync without the fan-out retry."""
        result = yield from super().close_sync(vino, size, mtime, now)
        return result

    # -- vino-addressed inode ops (forward targets) ------------------------

    def getattr_vino(self, vino):
        yield from self._dispatch()

        def body(txn):
            row = txn.read("inodes", vino)
            if row is None:
                raise FsError.enoent(f"vino {vino}")
            return row

        row = yield from self.dbsvc.execute(body)
        return self._attr_view(row)

    def setattr_vino(self, vino, changes, now):
        yield from self._dispatch()
        self._check_setattr(changes)

        def body(txn):
            row = txn.read_for_update("inodes", vino)
            if row is None:
                raise FsError.enoent(f"vino {vino}")
            row.update(changes)
            row["ctime"] = now
            txn.write("inodes", row)
            return row

        row = yield from self.dbsvc.execute(body)
        return self._attr_view(row)

    def open_vino(self, vino, for_write, now):
        yield from self._dispatch()

        def body(txn):
            row = txn.read("inodes", vino)
            if row is None:
                raise FsError.enoent(f"vino {vino}")
            if for_write:
                if row["kind"] == DIRECTORY:
                    raise FsError.eisdir(f"vino {vino}")
                row = dict(row)
                row["delegated"] = True
                txn.write("inodes", row)
            return row

        row = yield from self.dbsvc.execute(body)
        return self._attr_view(row)

    # -- peer queries ------------------------------------------------------

    def count_children_of(self, path):
        """RPC (shard-to-shard): how many entries this shard holds under
        ``path`` (0 when the path does not resolve here)."""
        yield from self._dispatch()

        def body(txn):
            try:
                row = self._txn_resolve(txn, path)
            except (FsError, ResolveForward):
                return 0
            if row["kind"] != DIRECTORY:
                return 0
            return len(txn.index_read("dentries", "parent", row["vino"]))

        count = yield from self.dbsvc.execute(body)
        return count

    def probe_parent(self, path):
        """RPC (shard-to-shard): walk ``path``'s parent here, authoritatively.

        A rename coordinator is pinned to its source's shard, so it
        cannot follow a *final* destination forward the way
        self-contained ops are re-dispatched wholesale; it asks the
        forward's target to run the walk instead.  Returns None when the
        parent resolves, raises the walk's FsError otherwise — terminal
        here, because a component the caller's skeleton lacks can only
        be a partitioned file, a stub, or nothing on the entries owner
        (directories and symlinks are replicated everywhere).  A walk
        that forwards *again* (a symlink rewrote the path, or a deeper
        component is owned elsewhere) reports the hand-off as
        ``("forward", shard, path)`` for the caller to chase.
        """
        yield from self._dispatch()

        def body(txn):
            try:
                self._txn_resolve_parent(txn, path)
            except ResolveForward as fwd:
                return ("forward", fwd.shard, fwd.path)
            return None

        outcome = yield from self.dbsvc.execute(body)
        return outcome

    def peek_entry(self, path):
        """RPC (shard-to-shard): this shard's dentry at ``path``, if any.

        ``kind`` is None for a stub whose inode lives elsewhere.
        """
        yield from self._dispatch()

        def body(txn):
            try:
                parent, name = self._txn_resolve_parent(txn, path)
            except (FsError, ResolveForward):
                return None
            dentry = txn.read("dentries", (parent["vino"], name))
            if dentry is None:
                return None
            home = dentry.get("home")
            if home is not None and home != self.shard_id:
                return {"vino": dentry["vino"], "kind": None, "home": home}
            row = txn.read("inodes", dentry["vino"])
            if row is None:
                return None
            return {"vino": row["vino"], "kind": row["kind"],
                    "home": self.shard_id}

        entry = yield from self.dbsvc.execute(body)
        return entry
