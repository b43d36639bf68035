"""Span-context propagation across the metadata tier's hard paths.

The two scenarios the span model must survive: a cross-shard rename
(router → owning shard → peer RPCs to the other shard, all inline in the
client's process) and a failover absorbed mid-op (the router's retry
drives promotion *inside* the client op, so the failover and promote
spans must nest under the op that triggered them).
"""

from repro import obs
from repro.core.shard import SubtreeSharding
from repro.sim import Simulator
from tests.core.conftest import ShardedCofs


def _host(replicas=1):
    return ShardedCofs(
        n_clients=1, shards=2, replicas=replicas,
        sharding=SubtreeSharding({"/a": 0, "/b": 1}))


def _seed(host):
    def body():
        fs = host.mounts[0]
        yield from fs.mkdir("/a")
        yield from fs.mkdir("/b")
        fh = yield from fs.create("/a/f")
        yield from fs.close(fh)

    host.run(body())


def _rename(host):
    def body():
        yield from host.mounts[0].rename("/a/f", "/b/f")

    host.run(body())


def _subtree(tracer, root):
    children = {}
    for span in tracer.spans:
        if span.parent is not None:
            children.setdefault(span.parent.span_id, []).append(span)
    out, stack = [], [root]
    while stack:
        span = stack.pop()
        out.append(span)
        stack.extend(children.get(span.span_id, ()))
    return out


def test_cross_shard_rename_spans_both_shards(traced):
    tracer, _metrics = traced
    host = _host()
    _seed(host)
    mark = len(tracer.spans)
    _rename(host)

    ops = [s for s in tracer.spans[mark:]
           if s.kind == "client_op" and s.name == "rename"]
    assert len(ops) == 1
    op = ops[0]
    assert op.outcome == "ok"
    subtree = _subtree(tracer, op)
    # Everything the rename caused shares its trace id and nests inside
    # its simulated-time window.
    assert all(s.trace_id == op.trace_id for s in subtree)
    assert all(op.start <= s.start and s.end <= op.end for s in subtree)
    # The source shard owns the op; the peer leg reaches the other shard.
    peers = [s for s in subtree if s.kind == "peer_rpc"]
    assert peers, "cross-shard rename produced no peer RPC spans"
    origins = {s.shard for s in peers}
    targets = {s.extra["target"] for s in peers}
    assert len(origins | targets) == 2, (origins, targets)


def test_replicated_rename_ships_before_ack(traced):
    tracer, _metrics = traced
    host = _host(replicas=2)
    _seed(host)
    mark = len(tracer.spans)
    _rename(host)

    op = [s for s in tracer.spans[mark:]
          if s.kind == "client_op" and s.name == "rename"][0]
    subtree = _subtree(tracer, op)
    ships = [s for s in subtree if s.kind == "ship"]
    assert ships, "replicated rename never shipped its journal"
    acks = [ev for s in subtree for ev in s.find_events("quorum_ack")]
    assert acks, "replicated rename was acked without a quorum_ack event"
    # The quorum ack precedes the client op's completion.
    assert min(t for _n, t, _x in acks) <= op.end
    obs.TraceChecker(tracer).check_all()


def test_failover_nests_inside_the_op_that_absorbs_it(traced):
    from repro.core.faults import kill_primary

    tracer, metrics = traced
    host = _host(replicas=2)
    _seed(host)
    kill_primary(host.groups[0])
    mark = len(tracer.spans)

    def body():
        fh = yield from host.mounts[0].create("/a/g")
        yield from host.mounts[0].close(fh)

    host.run(body())

    creates = [s for s in tracer.spans[mark:]
               if s.kind == "client_op" and s.name == "create_node"]
    assert creates and all(s.outcome == "ok" for s in creates)
    failovers = [s for s in tracer.spans[mark:] if s.kind == "failover"]
    promotes = [s for s in tracer.spans[mark:] if s.kind == "promote"]
    assert len(failovers) == 1, "the retry path must drive exactly one failover"
    assert len(promotes) == 1
    assert failovers[0].duration > 0
    # The failover was driven *inside* whichever client op first hit the
    # dead primary — it has a client_op ancestor, and the promotion ran
    # under the failover's single-flight gate in the same trace.
    ancestor = failovers[0].parent
    while ancestor is not None and ancestor.kind != "client_op":
        ancestor = ancestor.parent
    assert ancestor is not None, "failover span has no client_op ancestor"
    assert promotes[0].trace_id == failovers[0].trace_id
    assert metrics.counter("router_retry") >= 1
    obs.TraceChecker(tracer).check_all()


def test_spawned_process_inherits_ambient_context(traced):
    """A process spawned while a span is active lands under that span."""
    tracer, _metrics = traced
    sim = Simulator()
    seen = []

    def child():
        yield sim.timeout(1.0)
        seen.append(tracer.active())

    def parent():
        span = tracer.start("client_op", "outer", sim.now)
        sim.process(child(), name="child")
        yield sim.timeout(2.0)
        tracer.finish(span, sim.now)
        return span

    outer = sim.run_process(parent())
    assert seen == [outer]


def test_disabled_tracing_leaves_processes_bare():
    from repro.sim import kernel

    assert obs.TRACER is None
    assert kernel.TRACE is None
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return True

    assert sim.run_process(proc()) is True
