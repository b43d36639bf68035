"""Crash drills for asynchronous group commit: bounded, dependency-
consistent loss.

The async tier's crash model is *bounded loss*: the journal tail since
the last completed force is gone, so an acked-but-deferred update may
vanish — but never an update another client already observed (the
dependency tracker withholds such acks until the force), and never a
non-contiguous subset (recovery replays a journal *prefix*).

The drills enumerate every force boundary a two-client workload crosses
(:func:`~repro.core.faults.arm_force_boundaries`), crash the shard right
there, recover it, and assert:

- the recovered namespace holds a *prefix* of the writer's acked
  creates (bounded loss, no holes);
- every file the second client's ``stat`` observed still exists
  (dependency consistency — observed implies durable);
- every structural tier invariant, a liveness probe, and — per drill —
  a green :class:`~repro.obs.TraceChecker` including the
  durable-before-dependent-ack rule.

The differential leg runs the same workload with async commit on and
off, no crash: the final namespaces must be identical — the mode changes
durability timing, never results.
"""

import os

import pytest

from repro import obs
from repro.core.config import CofsConfig
from repro.core.faults import (
    CrashInjected,
    CrashSchedule,
    arm_force_boundaries,
    arm_shards,
    check_tier_invariants,
    disarm_force_boundaries,
    disarm_shards,
    namespace_image,
)
from repro.core.shard import SubtreeSharding, recover_tier
from repro.db.service import DbConfig
from repro.pfs.errors import FsError
from tests.core.conftest import ShardedCofs

N_FILES = 6


def _build(async_commit=True):
    host = ShardedCofs(
        n_clients=2, shards=2,
        sharding=SubtreeSharding({"/a": 0, "/b": 1}),
        cofs_config=CofsConfig(async_commit=async_commit))

    def seed():
        yield from host.mounts[0].mkdir("/a")
        yield from host.mounts[0].mkdir("/b")

    host.run(seed())
    return host


def _writer(host, acked, dead):
    """Create ``/a/f0..fN`` with gaps so each lands in its own force
    window; record each create the moment its (possibly deferred) ack
    returns."""
    fs = host.mounts[0]
    try:
        for i in range(N_FILES):
            fh = yield from fs.create(f"/a/f{i}")
            yield from fs.close(fh)
            acked.append(i)
            yield host.sim.timeout(2.0)
    except CrashInjected:
        dead.append("writer")


def _reader(host, observed, dead):
    """Poll each file into view from the other client; every recorded
    observation is a dependent ack the tier promised to make durable."""
    fs = host.mounts[1]
    try:
        for i in range(N_FILES):
            while True:
                try:
                    yield from fs.stat(f"/a/f{i}")
                    observed.append(i)
                    break
                except FsError:
                    if dead:
                        return
                    yield host.sim.timeout(0.4)
    except CrashInjected:
        dead.append("reader")


def _run_workload(host):
    acked, observed, dead = [], [], []
    host.run_all([_writer(host, acked, dead),
                  _reader(host, observed, dead)])
    return acked, observed, dead


def _count_force_boundaries():
    """Counting pass: no crash armed, every force boundary tallied."""
    host = _build()
    schedule = CrashSchedule()
    arm_force_boundaries(host.shards, schedule)
    acked, observed, _dead = _run_workload(host)
    disarm_force_boundaries(host.shards)
    assert acked == list(range(N_FILES))
    assert observed == list(range(N_FILES))
    check_tier_invariants(host.shards, host.stack.sharding)
    return schedule.count


def _selected(count):
    """All boundaries, or ~N per scenario under REPRO_CRASH_POINTS=N."""
    env = os.environ.get("REPRO_CRASH_POINTS")
    if not env:
        return range(count)
    bound = max(1, int(env))
    stride = max(1, -(-count // bound))
    return range(0, count, stride)


def _drill(k):
    host = _build()
    schedule = CrashSchedule(armed=k)
    arm_force_boundaries(host.shards, schedule)
    acked, observed, _dead = _run_workload(host)
    disarm_force_boundaries(host.shards)
    crashed = [s for s in host.shards if s.dbsvc._crashed is not None]
    assert len(crashed) == 1, f"boundary {k} never fired"
    host.run(crashed[0].recover())

    sharding = host.stack.sharding
    image = check_tier_invariants(host.shards, sharding)
    survived = [i for i in range(N_FILES) if f"/a/f{i}" in image]
    # Bounded loss replays a journal prefix: no holes in the create order.
    assert survived == list(range(len(survived))), (
        f"boundary {k}: recovered creates are not a prefix: {survived}"
    )
    # Dependency consistency: an observed create is a durable create.
    for i in observed:
        assert i in survived, (
            f"boundary {k}: /a/f{i} was observed by the reader "
            f"(dependent ack granted) but did not survive recovery"
        )
    # Liveness: the recovered tier still serves (async) mutations.
    def probe():
        fs = host.mounts[0]
        fh = yield from fs.create("/a/probe")
        yield from fs.close(fh)
        yield from fs.unlink("/a/probe")

    host.run(probe())
    check_tier_invariants(host.shards, sharding)


def test_every_force_boundary_recovers_consistently():
    count = _count_force_boundaries()
    assert count >= N_FILES, (
        f"expected at least one force per spaced create, got {count}"
    )
    for k in _selected(count):
        _drill(k)


def test_force_boundary_drills_are_trace_clean():
    """Each drill's full history — deferred acks, forces, the crash, the
    recovery — passes every trace invariant, including the new
    durable-before-dependent-ack rule."""
    count = _count_force_boundaries()
    for k in _selected(min(count, 3)):
        obs.enable()
        try:
            _drill(k)
            checker = obs.TraceChecker(obs.TRACER).check_all()
            assert any(s.kind == "force" and s.outcome == "ok"
                       for s in checker.spans)
        finally:
            obs.disable()


def test_async_and_sync_reach_identical_namespaces():
    """The differential leg: same workload, both commit modes, no crash
    — the observable end state must not depend on the mode."""
    images = []
    for async_commit in (False, True):
        host = _build(async_commit=async_commit)
        acked, observed, dead = _run_workload(host)
        assert not dead
        assert acked == list(range(N_FILES))
        assert observed == list(range(N_FILES))
        check_tier_invariants(host.shards, host.stack.sharding)
        deferred = sum(s.dbsvc.deferred_acks for s in host.shards)
        if async_commit:
            assert deferred > 0, "async leg never deferred an ack"
        else:
            assert deferred == 0
        images.append(namespace_image(host.shards, host.stack.sharding))
    assert images[0] == images[1], (
        "async commit changed the observable result of the workload"
    )


def test_commit_mode_has_one_flag():
    """``CofsConfig.async_commit`` alone picks the commit mode.  A second
    flag on ``DbConfig`` once made
    ``CofsConfig(async_commit=False, db=DbConfig(async_commit=True))``
    run async; the DB config no longer carries one."""
    with pytest.raises(TypeError):
        DbConfig(async_commit=True)
    for async_commit in (False, True):
        host = _build(async_commit=async_commit)
        assert [s.dbsvc._async for s in host.shards] == [async_commit] * 2


def test_crashed_node_refuses_acks_until_recovery():
    """Between the crash and recovery, nothing is acknowledged — even
    updates whose dependencies were already durable."""
    host = _build()
    schedule = CrashSchedule(armed=0)
    arm_force_boundaries(host.shards, schedule)
    acked, _observed, _dead = _run_workload(host)
    disarm_force_boundaries(host.shards)
    crashed = [s for s in host.shards if s.dbsvc._crashed is not None]
    assert len(crashed) == 1
    # The first force covered f0; the crash fired right after it.
    assert acked[:1] == [0]

    def late_create():
        fh = yield from host.mounts[0].create("/a/late")
        yield from host.mounts[0].close(fh)

    try:
        host.run(late_create())
        raised = False
    except CrashInjected:
        raised = True
    assert raised, "a crashed node acknowledged an update"
    host.run(crashed[0].recover())
    host.run(late_create())
    image = check_tier_invariants(host.shards, host.stack.sharding)
    assert "/a/late" in image


def _rename_drill(arm, disarm, k=None):
    """One directory rename on the async tier, crashed at boundary ``k``
    of ``arm``'s kind (None: count only), then recovered: the subtree is
    whole under one of its names and the tier passes its invariants —
    among them, that no routing alias of the rename survives.  Returns
    the boundary count."""
    host = _build()
    fs = host.mounts[0]

    def setup():
        for path in ("/a/d", "/a/d/e"):
            yield from fs.mkdir(path)
        fh = yield from fs.create("/a/d/e/f")
        yield from fs.close(fh)

    host.run(setup())
    schedule = CrashSchedule(armed=k)
    arm(host.shards, schedule)
    try:
        host.run(fs.rename("/a/d", "/b/d"))
    except CrashInjected:
        pass
    disarm(host.shards)
    if k is not None:
        crashed = [s for s in host.shards if s.dbsvc._crashed is not None]
        host.run(crashed[0].recover() if crashed
                 else recover_tier(host.shards))
    image = check_tier_invariants(host.shards, host.stack.sharding)
    assert "/a/d/e/f" in image or "/b/d/e/f" in image, k
    return schedule.count


@pytest.mark.parametrize("boundaries", ["commit", "force"])
def test_directory_rename_recovers_at_every_boundary(boundaries):
    """A directory rename crashed at any commit or force boundary of the
    async tier recovers whole.  A crash can lose the journal tail that
    holds the flip's record, so recovery itself must drop the routing
    alias the flip registered."""
    arm, disarm = (arm_shards, disarm_shards) if boundaries == "commit" \
        else (arm_force_boundaries, disarm_force_boundaries)
    count = _rename_drill(arm, disarm)
    for k in _selected(count):
        _rename_drill(arm, disarm, k)
