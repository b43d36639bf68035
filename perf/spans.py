"""Per-layer tracing of one repetition, from outside the program.

:class:`Tracer` replaces public entry points of each layer with wrappers.
A wrapper calls the original eagerly and returns a delegating generator
that records a span: name, layer, simulated start and end, parent span
and client-operation id.  The parent is the innermost open span of the
simulated process that runs the call; a call whose generator runs as a
process of its own (parallel broadcasts, revocation fan-outs) hangs under
the span that was innermost where the call was made.

Calling the original eagerly is what keeps tracing charge-preserving:
several entry points (``Machine.compute``, ``Network.transfer`` inside
``rpc``) create their timeout events at call time, and deferring the call
to the first resume would shift sequence numbers.  The wrappers add no
events, so a traced repetition reproduces the untraced one's simulated
clock and event count exactly; the benchmark checks that.

A layer's *self time* in a span is the span's duration minus the part its
children cover.  CPU spans give their requested duration to the layer
that asked for the CPU and their queueing to ``cpu_wait``; disk spans give
theirs to the layer that issued the I/O.  Spans stay in memory until
:meth:`Tracer.write` stores them.
"""

import cProfile
import json
import pstats

from repro.cluster.disk import Disk, GroupCommitLog
from repro.cluster.machine import Machine
from repro.core.cofs import CofsFileSystem
from repro.core.shard.routing import ShardRouter
from repro.db.service import DbService
from repro.fuse.mount import FuseMount
from repro.net.transport import Network
from repro.pfs.client import PfsClient
from repro.pfs.pagecache import DataPath
from repro.pfs.tokenclient import TokenClient

#: client VFS entry points wrapped on the FUSE, COFS and parallel-FS layers
VFS_METHODS = ("mkdir", "rmdir", "create", "mknod", "open", "close",
               "unlink", "stat", "utime", "readdir", "rename", "read",
               "write", "fsync", "truncate")
#: the layers an operation's latency is split into
SPLIT = ("fuse", "core", "net", "cpu_wait", "db", "log", "shard", "pfs",
         "other")
#: handler services of the parallel FS (everything else is the MDS)
PFS_SERVICES = frozenset(("nsd", "tokmgr", "tokens", "rangemgr", "ranges"))
#: cProfile attribution: the first matching path fragment names the package
PACKAGES = (("/repro/core/shard/", "shard"), ("/repro/core/", "core"),
            ("/repro/sim/", "sim"), ("/repro/net/", "net"),
            ("/repro/cluster/", "cluster"), ("/repro/fuse/", "fuse"),
            ("/repro/db/", "db"), ("/repro/pfs/", "pfs"))

NAME, LAYER, START, END, PARENT, OP, INFO = range(7)


def machine_class(machine):
    """``client``, ``mds`` or ``server`` from a testbed machine's name."""
    name = machine.name
    if name.startswith("node"):
        return "client"
    return "mds" if name.startswith("mds") else "server"


class Tracer:
    """Span recorder for one traced repetition (install, start, stop)."""

    def __init__(self):
        self.active = False
        self.sim = None
        self.spans = []      # [name, layer, start, end, parent, op, info]
        self._open = {}      # simulated process -> open span indexes
        self._patches = []
        self._logs = {}      # GroupCommitLog -> (forces, commits) at sight
        self._profile = None
        self._stack = None   # the stack whose timed phase is traced
        self._counters = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, cls, attr, describe):
        original = cls.__dict__[attr]
        tracer = self

        def wrapper(obj, *args, **kwargs):
            inner = original(obj, *args, **kwargs)
            if not tracer.active:
                return inner
            name, layer, info = describe(obj, args, kwargs)
            return tracer._span(inner, name, layer, info)

        wrapper.__wrapped__ = original
        setattr(cls, attr, wrapper)
        self._patches.append((cls, attr, original))

    def _span(self, inner, name, layer, info, root=False):
        """A generator delegating to ``inner`` inside one recorded span.

        The parent is taken when the span starts, from the process that
        runs it; when that process is not the one that made the call (the
        call's generator was spawned as a process of its own), it is the
        caller's innermost span at call time instead.
        """
        caller = self.sim.current
        stack = self._open.get(caller)
        spawner = None if root or not stack else stack[-1]
        return self._record(inner, name, layer, info, root, caller, spawner)

    def _record(self, inner, name, layer, info, root, caller, spawner):
        sim = self.sim
        spans = self.spans
        index = len(spans)
        proc = sim.current
        stack = self._open.get(proc)
        if stack is None:
            stack = self._open[proc] = []
        if root:
            parent, op = None, index
        else:
            if proc is not caller:
                parent = spawner
            else:
                parent = stack[-1] if stack else None
            op = spans[parent][OP] if parent is not None else None
        record = [name, layer, sim.now, None, parent, op, info]
        spans.append(record)
        stack.append(index)
        try:
            return (yield from inner)
        finally:
            record[END] = sim.now
            stack.remove(index)
            if not stack:
                del self._open[proc]

    def client_op(self, body, name):
        """Wrap one client operation of a workload as a root span."""
        if not self.active:
            return body
        return self._span(body, name, "other", None, root=True)

    def install(self):
        """Patch every layer entry point (a no-op until :meth:`start`)."""
        for cls, prefix, layer in ((FuseMount, "fuse", "fuse"),
                                   (CofsFileSystem, "cofs", "core"),
                                   (PfsClient, "pfs", "pfs")):
            for method in VFS_METHODS:
                if method in cls.__dict__:
                    self._wrap(cls, method, lambda obj, args, kw,
                               name=f"{prefix}.{method}", layer=layer:
                               (name, layer, None))
        self._wrap(ShardRouter, "call", lambda obj, args, kw: (
            f"route.{args[0]}", "shard" if obj.n_shards > 1 else "core",
            None))
        self._wrap(Network, "rpc", self._describe_rpc)
        self._wrap(Machine, "compute", lambda obj, args, kw: (
            "cpu", "cpu", (machine_class(obj), args[0])))
        self._wrap(DbService, "execute", lambda obj, args, kw: (
            "db.execute", "db", None))
        self._wrap(GroupCommitLog, "force", self._describe_force)
        for method in ("read", "write"):
            self._wrap(Disk, method, lambda obj, args, kw, m=method: (
                f"disk.{m}", "disk",
                obj.service_time(args[0], *args[1:], **kw)))
            self._wrap(DataPath, method, lambda obj, args, kw, m=method: (
                f"pfs.data.{m}", "pfs", args[2]))
        self._wrap(TokenClient, "hold", lambda obj, args, kw: (
            "pfs.token", "pfs", None))
        self._wrap_handlers()

    def _describe_rpc(self, network, args, kwargs):
        src, dst, service, method = args[:4]
        if machine_class(src) == "mds" and machine_class(dst) == "mds":
            return f"peer.{method}", "shard", method
        return f"rpc.{service}.{method}", "net", None

    def _describe_force(self, log, args, kwargs):
        if log not in self._logs:
            self._logs[log] = (log.forces, log.commits)
        return "log.force", "log", None

    def _wrap_handlers(self):
        """RPC handlers: each service call becomes a span under its rpc."""
        original = Machine.__dict__["handler"]
        tracer = self

        def handler(machine, service, method):
            found = original(machine, service, method)
            if not tracer.active:
                return found

            def call(*args, **kwargs):
                inner = found(*args, **kwargs)
                # Handlers run inline in the rpc's process, under its span.
                stack = tracer._open.get(tracer.sim.current)
                if service in PFS_SERVICES:
                    layer = "pfs"
                elif stack and tracer.spans[stack[-1]][LAYER] == "shard":
                    layer = "shard"
                else:
                    layer = "core"
                return tracer._span(inner, f"{service}.{method}", layer,
                                    None)
            return call

        Machine.handler = handler
        self._patches.append((Machine, "handler", original))

    def uninstall(self):
        """Restore every patched entry point."""
        for cls, attr, original in reversed(self._patches):
            setattr(cls, attr, original)
        self._patches = []

    # -- one traced phase -------------------------------------------------

    def _snapshot(self, stack):
        services = []
        if getattr(stack, "groups", None):
            services = [m for group in stack.groups for m in group.members]
        elif hasattr(stack, "shards"):
            services = list(stack.shards)
        tokens = stack.pfs.token_server
        return {
            "events": stack.testbed.sim.events_processed,
            "net.bytes": stack.testbed.network.bytes_sent,
            "db.txns.read": sum(s.dbsvc.read_txns for s in services),
            "db.txns.update": sum(s.dbsvc.update_txns for s in services),
            "db.deferred_acks": sum(s.dbsvc.deferred_acks for s in services),
            "pfs.token.acquires": tokens.acquires,
            "pfs.token.revokes": tokens.revocations,
        }

    def start(self, stack):
        """Begin recording: the timed phase on ``stack`` starts now."""
        self.sim = stack.testbed.sim
        self._stack = stack
        self._counters = self._snapshot(stack)
        self.active = True
        self._profile = cProfile.Profile()
        self._profile.enable()

    def stop(self):
        """End recording; counters become deltas over the timed phase."""
        self._profile.disable()
        self.active = False
        end = self._snapshot(self._stack)
        self._counters = {k: end[k] - v for k, v in self._counters.items()}
        forces = commits = 0
        for log, (forces0, commits0) in self._logs.items():
            forces += log.forces - forces0
            commits += log.commits - commits0
        self._counters["cluster.log.forces"] = forces
        self._counters["log.commits"] = commits

    # -- analysis ---------------------------------------------------------

    def wall_fractions(self):
        """Share of profiled ``tottime`` per ``repro`` package."""
        stats = pstats.Stats(self._profile).stats
        total = 0.0
        shares = {package: 0.0 for _fragment, package in PACKAGES}
        for (filename, _line, _func), row in stats.items():
            tottime = row[2]
            total += tottime
            for fragment, package in PACKAGES:
                if fragment in filename:
                    shares[package] += tottime
                    break
        return {package: value / total if total else 0.0
                for package, value in shares.items()}

    def analyse(self):
        """Per-layer metrics plus the layer-sum check of every client op.

        Returns ``(metrics, check)`` where ``check`` counts the ops whose
        self times were checked to sum to their latency, the ops with
        fan-out (overlapping or escaping children, reported by the union
        of their children's intervals) and the worst sum error seen.
        """
        spans = self.spans
        children = [[] for _ in spans]
        for index, record in enumerate(spans):
            if record[PARENT] is not None:
                children[record[PARENT]].append(index)
        fanout_ops = set()
        own = [0.0] * len(spans)
        for index, record in enumerate(spans):
            start, end = record[START], record[END]
            covered = 0.0
            reach = start
            for child in sorted(children[index],
                                key=lambda c: spans[c][START]):
                lo, hi = spans[child][START], spans[child][END]
                if (lo < reach or hi > end) and record[OP] is not None:
                    fanout_ops.add(record[OP])
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            own[index] = (end - start) - covered

        # Attribute self time to layers: CPU and disk spans give their
        # service time to the layer that issued them, CPU queueing to
        # cpu_wait.
        attributed = {}     # op -> {layer: ms}
        kind_self = {}      # span kind -> self ms inside client ops
        busy = {"client": 0.0, "mds": 0.0, "server": 0.0}
        wait = dict(busy)
        disk_ios, disk_wait = 0, 0.0
        for index, record in enumerate(spans):
            layer, info = record[LAYER], record[INFO]
            duration = record[END] - record[START]
            target_layer, target = layer, index
            if layer == "cpu":
                cls, requested = info
                busy[cls] += requested
                wait[cls] += duration - requested
            elif layer == "disk":
                disk_ios += 1
                disk_wait += duration - info
            op = record[OP]
            if op is None:
                continue
            parts = attributed.setdefault(op, dict.fromkeys(SPLIT, 0.0))
            value = own[index]
            if layer in ("cpu", "disk"):
                target = record[PARENT]
                target_layer = spans[target][LAYER]
                if layer == "cpu":
                    served = min(info[1], value)
                    parts["cpu_wait"] += value - served
                    value = served
            parts[target_layer] += value
            kind = spans[target][NAME].split(".", 1)[0]
            kind_self[kind] = kind_self.get(kind, 0.0) + value

        checked, worst = 0, 0.0
        for op, parts in attributed.items():
            if op in fanout_ops:
                continue
            root = spans[op]
            error = abs(sum(parts.values()) - (root[END] - root[START]))
            worst = max(worst, error)
            checked += 1
        ops = len(attributed)

        def count(prefix):
            return sum(1 for record in spans
                       if record[NAME].startswith(prefix))

        def total(prefix):
            return sum(record[END] - record[START] for record in spans
                       if record[NAME].startswith(prefix))

        counters = self._counters
        per_op = max(ops, 1)
        frac = self.wall_fractions()
        layer_ms = dict.fromkeys(SPLIT, 0.0)
        for parts in attributed.values():
            for layer, value in parts.items():
                layer_ms[layer] += value
        rpc_ms = total("rpc.")
        handler_ms = sum(
            spans[c][END] - spans[c][START]
            for index, record in enumerate(spans)
            if record[NAME].startswith("rpc.")
            for c in children[index])
        peer = [r for r in spans if r[NAME].startswith("peer.")]
        peer_ms = {"mirror": 0.0, "ship": 0.0, "other": 0.0}
        for record in peer:
            method = record[INFO]
            key = ("mirror" if method.startswith("mirror_")
                   else "ship" if method == "repl_apply" else "other")
            peer_ms[key] += record[END] - record[START]
        mds_in_ops = sum(
            1 for record in spans
            if record[NAME].startswith("cofsmds.") and record[OP] is not None)
        cofs_pfs = sum(
            1 for record in spans
            if record[NAME].startswith("pfs.") and record[PARENT] is not None
            and spans[record[PARENT]][NAME].startswith("cofs."))
        pfs_calls = sum(
            1 for record in spans
            if record[NAME].startswith("pfs.")
            and not record[NAME].startswith(("pfs.token", "pfs.data")))
        forces = counters["cluster.log.forces"]
        events = counters["events"]
        metrics = {
            "sim.events": (events, "count"),
            "sim.events_per_op": (events / per_op, "events/op"),
            "sim.wall_frac": (frac["sim"], "ratio"),
            "net.rpc.calls": (count("rpc."), "count"),
            "net.rpc.wire_ms": (rpc_ms - handler_ms, "ms"),
            "net.bytes": (counters["net.bytes"], "bytes"),
            "net.wall_frac": (frac["net"], "ratio"),
            "cluster.disk.ios": (disk_ios, "count"),
            "cluster.disk.wait_ms": (disk_wait, "ms"),
            "cluster.log.forces": (forces, "count"),
            "cluster.log.commits_per_force": (
                counters["log.commits"] / forces if forces else 0.0,
                "commits/force"),
            "cluster.log.force_wait_ms": (total("log.force"), "ms"),
            "cluster.wall_frac": (frac["cluster"], "ratio"),
            "fuse.calls": (count("fuse."), "count"),
            "fuse.self_ms": (kind_self.get("fuse", 0.0), "ms"),
            "fuse.wall_frac": (frac["fuse"], "ratio"),
            "core.cofs.calls": (count("cofs."), "count"),
            "core.cofs.self_ms": (kind_self.get("cofs", 0.0), "ms"),
            "core.cofs.pfs_calls_per_op": (cofs_pfs / per_op, "calls/op"),
            "core.mds.calls": (count("cofsmds."), "count"),
            "core.mds.self_ms": (kind_self.get("cofsmds", 0.0), "ms"),
            "core.wall_frac": (frac["core"], "ratio"),
            "shard.rpcs_per_op": (mds_in_ops / per_op, "calls/op"),
            "shard.peer_rpc.calls": (len(peer), "count"),
            "shard.peer_rpc_ms.mirror": (peer_ms["mirror"], "ms"),
            "shard.peer_rpc_ms.ship": (peer_ms["ship"], "ms"),
            "shard.peer_rpc_ms.other": (peer_ms["other"], "ms"),
            "shard.wall_frac": (frac["shard"], "ratio"),
            "db.txns.read": (counters["db.txns.read"], "count"),
            "db.txns.update": (counters["db.txns.update"], "count"),
            "db.execute_ms": (total("db.execute"), "ms"),
            "db.deferred_acks": (counters["db.deferred_acks"], "count"),
            "db.wall_frac": (frac["db"], "ratio"),
            "pfs.calls": (pfs_calls, "count"),
            "pfs.self_ms": (layer_ms["pfs"], "ms"),
            "pfs.token.acquires": (counters["pfs.token.acquires"], "count"),
            "pfs.token.revokes": (counters["pfs.token.revokes"], "count"),
            "pfs.token.wait_ms": (total("pfs.token"), "ms"),
            "pfs.nsd.calls": (count("nsd."), "count"),
            "pfs.nsd_ms": (total("nsd."), "ms"),
            "pfs.data.bytes": (sum(r[INFO] for r in spans
                                   if r[NAME].startswith("pfs.data.")),
                               "bytes"),
            "pfs.wall_frac": (frac["pfs"], "ratio"),
            "trace.spans": (len(spans), "count"),
            "trace.fanout_ops": (len(fanout_ops), "count"),
        }
        for cls in ("client", "mds", "server"):
            metrics[f"cluster.cpu.{cls}.busy_ms"] = (busy[cls], "ms")
            metrics[f"cluster.cpu.{cls}.wait_ms"] = (wait[cls], "ms")
        for layer in SPLIT:
            metrics[f"split.{layer}_ms"] = (layer_ms[layer] / per_op, "ms/op")
        check = {"ops": ops, "checked": checked,
                 "fanout": len(fanout_ops), "worst_error": worst}
        return metrics, check

    def write(self, path):
        """Store the spans as JSON lines: a header naming the fields, then
        one array per span; a span's id is its line number after the
        header, and ``parent`` and ``op`` refer to those ids."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"fields": [
                "name", "layer", "start", "end", "parent", "op", "info"]})
                + "\n")
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
