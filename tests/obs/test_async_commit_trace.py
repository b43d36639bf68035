"""Durable-before-dependent-ack: the async group commit trace rule.

Synthetic histories prove the checker rejects acks that externalize
un-forced state; the real-run case drives an async-commit tier with a
genuine cross-client dependency and shows the instrumented path emits a
history the checker accepts — with the dependency actually exercised.
"""

import pytest

from repro import obs
from repro.core.config import CofsConfig
from repro.core.shard import SubtreeSharding
from repro.obs.trace import Span
from repro.pfs.errors import FsError
from tests.core.conftest import ShardedCofs


class _FakeTracer:
    def __init__(self, spans):
        self.spans = spans


def _span(spans, kind, name, parent=None, outcome="ok", start=0.0, end=1.0,
          shard=None, events=(), **extra):
    span = Span(len(spans) + 1, parent, 1, kind, name, shard, None, start,
                extra or None)
    span.end = end
    span.outcome = outcome
    span.events.extend(events)
    spans.append(span)
    return span


def _checker(spans):
    return obs.TraceChecker(_FakeTracer(spans))


def _force(spans, shard, head, start, end, outcome="ok"):
    return _span(spans, "force", "group_force", shard=shard, start=start,
                 end=end, outcome=outcome, base=0, head=head)


def _ack(spans, shard, when, lsn, dep):
    return _span(spans, "client_op", "create_node", end=when, events=[
        ("commit_ack", when,
         {"shard": shard, "lsn": lsn, "dep": dep, "deferred": lsn > dep}),
    ])


# ---------------------------------------------------------------------------
# Synthetic histories
# ---------------------------------------------------------------------------

def test_dependent_ack_without_any_force_is_a_violation():
    spans = []
    _ack(spans, 0, when=2.0, lsn=5, dep=3)
    with pytest.raises(obs.TraceViolation, match="depends on LSN 3"):
        _checker(spans).check_durable_dependent_ack()


def test_force_after_the_ack_does_not_count():
    spans = []
    _force(spans, 0, head=4, start=2.5, end=3.5)  # mis-ordered: too late
    _ack(spans, 0, when=2.0, lsn=5, dep=3)
    with pytest.raises(obs.TraceViolation, match="depends on LSN 3"):
        _checker(spans).check_durable_dependent_ack()


def test_force_below_the_dependency_does_not_count():
    spans = []
    _force(spans, 0, head=2, start=0.5, end=1.5)  # head < dep
    _ack(spans, 0, when=2.0, lsn=5, dep=3)
    with pytest.raises(obs.TraceViolation, match="depends on LSN 3"):
        _checker(spans).check_durable_dependent_ack()


def test_force_on_another_shard_does_not_count():
    spans = []
    _force(spans, 1, head=9, start=0.5, end=1.5)
    _ack(spans, 0, when=2.0, lsn=5, dep=3)
    with pytest.raises(obs.TraceViolation, match="shard 0"):
        _checker(spans).check_durable_dependent_ack()


def test_covering_force_before_the_ack_passes():
    spans = []
    _force(spans, 0, head=3, start=0.5, end=1.5)
    _ack(spans, 0, when=2.0, lsn=5, dep=3)
    _checker(spans).check_durable_dependent_ack()


def test_dependent_read_ack_needs_a_force_too():
    spans = []
    _ack(spans, 0, when=2.0, lsn=0, dep=3)  # read: no own record
    with pytest.raises(obs.TraceViolation, match="depends on LSN 3"):
        _checker(spans).check_durable_dependent_ack()


def test_dependency_free_and_own_force_acks_pass():
    spans = []
    _ack(spans, 0, when=2.0, lsn=5, dep=0)   # deferred, no dependency
    _ack(spans, 0, when=3.0, lsn=7, dep=7)   # waited for its own force
    _checker(spans).check_durable_dependent_ack()


def test_stale_force_outcome_does_not_count():
    spans = []
    _force(spans, 0, head=3, start=0.5, end=1.5, outcome="stale")
    _ack(spans, 0, when=2.0, lsn=5, dep=3)
    with pytest.raises(obs.TraceViolation, match="depends on LSN 3"):
        _checker(spans).check_durable_dependent_ack()


# ---------------------------------------------------------------------------
# Real async-commit run
# ---------------------------------------------------------------------------

def test_real_async_run_emits_checkable_dependencies(traced):
    """A reader observing another client's un-forced create must be held
    until the force — and the emitted trace must prove it."""
    tracer, _metrics = traced
    host = ShardedCofs(
        n_clients=2, shards=2,
        sharding=SubtreeSharding({"/a": 0, "/b": 1}),
        cofs_config=CofsConfig(async_commit=True))

    def writer(fs):
        yield from fs.mkdir("/a")
        fh = yield from fs.create("/a/f")
        yield from fs.close(fh)

    def reader(fs):
        # Poll until the create is visible; the successful stat observes
        # a foreign commit whose redo may still be in the loss window.
        while True:
            try:
                yield from fs.stat("/a/f")
                return
            except FsError:
                yield self_sim.timeout(0.05)

    self_sim = host.sim
    host.run_all([writer(host.mounts[0]), reader(host.mounts[1])])
    checker = obs.TraceChecker(tracer).check_all()
    acks = [extra for span in checker.spans
            for _n, _t, extra in span.find_events("commit_ack")]
    assert acks, "async tier emitted no commit_ack events"
    assert any(a["dep"] > 0 for a in acks), (
        "the cross-client read never recorded a dependency")
    assert any(s.kind == "force" and s.outcome == "ok"
               for s in checker.spans), "no force spans recorded"


def test_real_async_run_deferred_acks_pass_checker(traced):
    """Independent writers get deferred acks; the history stays legal."""
    tracer, metrics = traced
    host = ShardedCofs(
        n_clients=2, shards=2,
        sharding=SubtreeSharding({"/a": 0, "/b": 1}),
        cofs_config=CofsConfig(async_commit=True))

    def body(fs, root):
        yield from fs.mkdir(root)
        for i in range(6):
            fh = yield from fs.create(f"{root}/f{i}")
            yield from fs.close(fh)
            yield from fs.utime(f"{root}/f{i}", mtime=1.0)

    host.run_all([body(host.mounts[0], "/a"), body(host.mounts[1], "/b")])
    obs.TraceChecker(tracer).check_all()
    deferred = sum(s.dbsvc.deferred_acks for s in host.shards)
    assert deferred > 0, "async tier never deferred an ack"
    # The new metrics land in the registry (and so in every export).
    assert metrics.counter("deferred_acks") == deferred
    for name in ("commit_batch_size", "group_force_ms", "ack_to_durable_ms"):
        cell = metrics.histogram(name)
        assert cell is not None and cell.n > 0, f"no samples for {name}"
