"""TraceChecker: green on real runs, loud on doctored histories.

The synthetic cases build span trees by hand — one per invariant — and
prove the checker actually rejects the histories the prose invariants
forbid; the real-run cases prove the instrumented tier emits histories
the checker accepts.
"""

import pytest

from repro import obs
from repro.core.shard import SubtreeSharding
from repro.obs.trace import Span
from tests.core.conftest import ShardedCofs


class _FakeTracer:
    def __init__(self, spans):
        self.spans = spans


def _span(spans, kind, name, parent=None, outcome="ok", start=0.0, end=1.0,
          events=(), **extra):
    span = Span(len(spans) + 1, parent, 1, kind, name, None, None, start,
                extra or None)
    span.end = end
    span.outcome = outcome
    span.events.extend(events)
    spans.append(span)
    return span


def _checker(spans):
    return obs.TraceChecker(_FakeTracer(spans))


# ---------------------------------------------------------------------------
# Synthetic histories, one per invariant
# ---------------------------------------------------------------------------

def test_ack_without_quorum_is_a_violation():
    spans = []
    op = _span(spans, "client_op", "create_node", end=4.0)
    _span(spans, "group_rpc", "create_node", parent=op, end=3.0)
    with pytest.raises(obs.TraceViolation, match="quorum_ack"):
        _checker(spans).check_quorum_ack()


def test_quorum_ack_anywhere_in_the_subtree_satisfies():
    spans = []
    op = _span(spans, "client_op", "create_node", end=4.0)
    rpc = _span(spans, "group_rpc", "create_node", parent=op, end=3.0)
    _span(spans, "ship", "s0", parent=rpc, end=2.5,
          events=[("quorum_ack", 2.5, {})])
    _checker(spans).check_quorum_ack()


def test_failed_or_unreplicated_ops_need_no_quorum():
    spans = []
    # Unreplicated pass-through: no group_rpc in the subtree.
    _span(spans, "client_op", "create_node", end=1.0)
    # Failed op: never acked, so nothing to prove.
    failed = _span(spans, "client_op", "unlink", outcome="ENOENT", end=2.0)
    _span(spans, "group_rpc", "unlink", parent=failed, outcome="ENOENT")
    # rename may legally no-op (no ship → no commit to prove).
    ren = _span(spans, "client_op", "rename", end=3.0)
    _span(spans, "group_rpc", "rename", parent=ren, end=2.5)
    _checker(spans).check_quorum_ack()


def test_shipped_rename_must_still_ack():
    spans = []
    op = _span(spans, "client_op", "rename", end=4.0)
    rpc = _span(spans, "group_rpc", "rename", parent=op, end=3.0)
    _span(spans, "ship", "s0", parent=rpc, end=2.5)
    with pytest.raises(obs.TraceViolation, match="quorum_ack"):
        _checker(spans).check_quorum_ack()


def _promote(spans, names, times=None):
    times = times or list(range(len(names)))
    return _span(spans, "promote", "s0", end=float(len(names)),
                 events=[(n, float(t), {}) for n, t in zip(names, times)])


def test_promotion_order_enforced():
    spans = []
    _promote(spans, ["epoch_bump", "gate_close", "tier_fence",
                     "reseat", "gate_open"])
    with pytest.raises(obs.TraceViolation, match="sub-steps"):
        _checker(spans).check_promotion_order()


def test_promotion_order_accepts_repeated_member_fences():
    spans = []
    _promote(spans, ["gate_close", "epoch_bump", "tier_fence",
                     "member_fence", "member_fence", "reseat", "gate_open"])
    _promote(spans, ["gate_close", "epoch_bump", "tier_fence",
                     "reseat", "gate_open"])  # zero live fellows
    _checker(spans).check_promotion_order()


def test_promotion_timestamps_must_be_monotonic():
    spans = []
    _promote(spans, ["gate_close", "epoch_bump", "tier_fence",
                     "reseat", "gate_open"], times=[0, 2, 1, 3, 4])
    with pytest.raises(obs.TraceViolation, match="time order"):
        _checker(spans).check_promotion_order()


def test_failed_promotion_is_not_checked():
    spans = []
    span = _promote(spans, ["gate_close", "epoch_bump"])
    span.outcome = "error"
    _checker(spans).check_promotion_order()


def test_resync_before_intent_completion_is_a_violation():
    spans = []
    rec = _span(spans, "recover", "s0", end=10.0)
    _span(spans, "recover_pass", "complete_intents", parent=rec,
          start=4.0, end=6.0)
    _span(spans, "recover_pass", "resync_skeleton", parent=rec,
          start=5.0, end=8.0)
    with pytest.raises(obs.TraceViolation, match="resync_skeleton"):
        _checker(spans).check_recovery_order()


def test_resync_after_completion_passes():
    spans = []
    rec = _span(spans, "recover", "s0", end=10.0)
    _span(spans, "recover_pass", "complete_intents", parent=rec,
          start=4.0, end=6.0)
    _span(spans, "recover_pass", "resync_skeleton", parent=rec,
          start=6.0, end=8.0)
    _checker(spans).check_recovery_order()


def test_resync_without_completion_is_a_violation():
    spans = []
    rec = _span(spans, "recover", "s0", end=10.0)
    _span(spans, "recover_pass", "resync_skeleton", parent=rec,
          start=5.0, end=8.0)
    with pytest.raises(obs.TraceViolation, match="without"):
        _checker(spans).check_recovery_order()


def test_follower_served_mutation_is_a_violation():
    spans = []
    _span(spans, "group_rpc", "setattr", role="backup")
    with pytest.raises(obs.TraceViolation, match="backup"):
        _checker(spans).check_no_follower_mutations()


def test_follower_served_read_passes():
    spans = []
    _span(spans, "group_rpc", "getattr", role="backup")
    _span(spans, "group_rpc", "setattr", role="primary")
    _checker(spans).check_no_follower_mutations()


# ---------------------------------------------------------------------------
# Real runs
# ---------------------------------------------------------------------------

def test_real_replicated_run_passes_all_checks(traced):
    tracer, _metrics = traced
    host = ShardedCofs(
        n_clients=2, shards=2, replicas=2,
        sharding=SubtreeSharding({"/a": 0, "/b": 1}))

    def body(fs, root):
        yield from fs.mkdir(root)
        for i in range(4):
            fh = yield from fs.create(f"{root}/f{i}")
            yield from fs.close(fh)
        yield from fs.utime(f"{root}/f0", mtime=1.0)
        yield from fs.unlink(f"{root}/f3")
        yield from fs.rename(f"{root}/f1", f"{root}/g1")

    host.run_all([body(host.mounts[0], "/a"), body(host.mounts[1], "/b")])
    checker = obs.TraceChecker(tracer).check_all()
    # The run actually exercised the rules: replicated mutations shipped.
    assert any(s.kind == "ship" for s in checker.spans)
    assert any(s.kind == "client_op" and s.name == "create_node"
               for s in checker.spans)


def test_recovery_trace_orders_completion_before_resync(traced):
    """Crash-and-recover a shard; the recover span's passes obey order.

    The resync passes only run when the crash actually lost journal
    records, so the shard runs with the async (lazy-dump) log policy and
    crashes past a checkpoint.
    """
    from repro.core.config import CofsConfig
    from repro.db.service import DbConfig

    tracer, _metrics = traced
    host = ShardedCofs(
        n_clients=1, shards=2, replicas=1,
        sharding=SubtreeSharding({"/a": 0, "/b": 1}),
        cofs_config=CofsConfig(db=DbConfig(sync_updates=False)))

    def seed():
        fs = host.mounts[0]
        yield from fs.mkdir("/a")
        yield from fs.mkdir("/b")
        fh = yield from fs.create("/a/durable")
        yield from fs.close(fh)
        yield from host.shards[0].dbsvc.checkpoint()
        fh = yield from fs.create("/a/volatile")
        yield from fs.close(fh)

    host.run(seed())
    host.run(host.shards[0].recover())
    recovers = [s for s in tracer.spans if s.kind == "recover"]
    assert recovers, "recover() opened no recover span"
    passes = {s.name for s in tracer.spans if s.kind == "recover_pass"}
    assert "complete_intents" in passes
    assert "resync_skeleton" in passes
    obs.TraceChecker(tracer).check_all()


def test_retire_overlapping_stage_is_a_violation():
    """Phase 2 starting before phase 1 finished reopens the window."""
    spans = []
    op = _span(spans, "client_op", "rename", end=10.0)
    _span(spans, "peer_rpc", "mirror_rename_stage", parent=op,
          start=1.0, end=6.0)
    _span(spans, "peer_rpc", "mirror_rename", parent=op,
          start=5.0, end=8.0)
    with pytest.raises(obs.TraceViolation, match="phase-1"):
        _checker(spans).check_rename_visibility()
    # The same history with the stage safely finished first is clean.
    spans[1].end = 4.0
    _checker(spans).check_rename_visibility()


def test_real_replicated_rename_stages_before_it_retires(traced):
    """A live directory rename emits both phases, in order."""
    tracer, _metrics = traced
    host = ShardedCofs(
        n_clients=1, shards=3,
        sharding=SubtreeSharding({"/a": 0, "/b": 1}))

    def body():
        fs = host.mounts[0]
        yield from fs.mkdir("/a")
        yield from fs.mkdir("/a/d")
        fh = yield from fs.create("/a/d/f")
        yield from fs.close(fh)
        yield from fs.rename("/a/d", "/b")

    host.run(body())
    checker = obs.TraceChecker(tracer).check_all()
    names = {s.name for s in checker.spans if s.kind == "peer_rpc"}
    assert "mirror_rename_stage" in names, "the flip never staged"
    assert "mirror_rename" in names, "the flip never retired"
