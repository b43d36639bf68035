"""The benchmark's four seeded workloads and their correctness oracle.

Each repetition builds a fresh testbed and stack through the program's
public construction API, seeds a namespace, then drives generated
operations through the public VFS API (``stack.mount(node, pid)``).  The
operation streams come from the seed alone; the program only ever sees the
operations.

Every rank's operation generator keeps a shadow of the entries that rank
owns and attaches the expected outcome to each operation it yields.
Operations that cross ranks touch only entries no rank ever changes, so
every expectation holds however the simulator interleaves the ranks.

Why each workload exists:

- ``gpfs-shared-dir`` is the paper's bottleneck: eight nodes working in one
  directory of the bare parallel FS, so token revocations, NSD round trips
  and per-client log forces do almost all the work.
- ``cofs-shared-dir`` runs the same operation streams on COFS over the same
  parallel FS.  Paired with the first it gives the paper's headline ratio,
  and it moves the work into FUSE, the COFS daemon, the metadata service,
  its database and its log.
- ``sharded-md-mix`` is metadata-only traffic on the sharded, replicated,
  asynchronously committed tier, with a hot directory split across every
  shard.  The parallel FS does nothing here (``mknod`` has no underlying
  object), so it is the control for any parallel-FS change; reads run
  beside writes, so a write-side gain that costs reads shows.
- ``production-mix`` is open-loop traffic after the paper's production
  cluster: Poisson job arrivals that read cached inputs and write outputs,
  with checkpoint bursts and a directory lister beside them.  It exercises
  the data path and reports latency at fixed offered rates.
"""

import random
import time

from repro.bench.stack import CofsStack, PfsStack
from repro.bench.testbed import build_flat_testbed
from repro.core.config import CofsConfig
from repro.core.faults import check_group_invariants, check_tier_invariants
from repro.pfs.errors import FsError
from repro.pfs.types import FILE
from repro.sim.events import Timeout

KB = 1024
MB = 1024 * KB

#: latency class of each generated operation kind (None: not classed)
CLASS = {
    "stat": "read", "open": "read", "readdir": "read",
    "create": "write", "mknod": "write", "utime": "write",
    "rename": "write", "unlink": "write", "mkrmdir": "write",
}
#: client VFS calls one generated operation issues
CALLS = {"open": 2, "create": 2, "mkrmdir": 2}

#: harness throughput is measured over windows of this many client calls;
#: the median window shrugs off a moment of interference
WINDOW_CALLS = 1000

#: per-rep sizes; ``smoke`` runs every code path in a fraction of a second
#: (``setups``: how many set-ups a production-mix run times)
SCALES = {
    "full": {
        "gpfs-shared-dir": {"nodes": 8, "files": 8192, "ops": 2000},
        "cofs-shared-dir": {"nodes": 8, "files": 8192, "ops": 2000},
        "sharded-md-mix": {"nodes": 8, "procs": 2, "own": 256,
                           "hot": 2048, "ops": 3000},
        "production-mix": {"duration_ms": 60_000.0,
                           "rates": (50.0, 100.0, 250.0), "setups": 15},
    },
    "smoke": {
        "gpfs-shared-dir": {"nodes": 8, "files": 256, "ops": 30},
        "cofs-shared-dir": {"nodes": 8, "files": 256, "ops": 30},
        "sharded-md-mix": {"nodes": 8, "procs": 2, "own": 16,
                           "hot": 64, "ops": 40},
        "production-mix": {"duration_ms": 1_000.0,
                           "rates": (50.0, 100.0, 250.0), "setups": 5},
    },
}


class Outcome:
    """What one repetition measured and checked.

    Harness times (``*_s``) are seconds of this process's CPU clock: the
    benchmark is one single-threaded process that only computes, so on an
    idle core they equal wall time, while time the scheduler hands to
    other tenants of a shared machine does not count.  Every other time is
    simulated ms.
    """

    def __init__(self):
        self.setup_s = 0.0
        self.timed_s = 0.0
        self.sim_ms = 0.0      # simulated length of the timed phase
        self.events = 0        # simulator events in the timed phase
        self.calls = 0         # client VFS calls in the timed phase
        self.marks = []        # (CPU time, calls) every WINDOW_CALLS calls
        self.attempted = 0     # operations (or jobs) attempted
        self.failures = []     # one line per unexpected error or mismatch
        self.lat = {"read": [], "write": [], "req": []}
        self.data_bytes = 0    # bytes read plus written by clients
        self.backlog_grows = False  # open loop: jobs in flight kept rising
        self.xfail = []        # expected failures of known program defects

    def fail(self, message):
        self.failures.append(message)

    def start_timing(self):
        self.marks = [(time.process_time(), 0)]

    def count(self, calls):
        """Count completed client calls, marking the clock each window."""
        self.calls += calls
        if self.calls - self.marks[-1][1] >= WINDOW_CALLS:
            self.marks.append((time.process_time(), self.calls))

    def stop_timing(self):
        now = time.process_time()
        self.timed_s = now - self.marks[0][0]
        if self.calls > self.marks[-1][1]:
            self.marks.append((now, self.calls))

    def window_rates(self):
        """Client calls per CPU second in each window (the last may be
        short)."""
        return [(c1 - c0) / (t1 - t0)
                for (t0, c0), (t1, c1) in zip(self.marks, self.marks[1:])]


def percentile(samples, q):
    """Linear-interpolated ``q``-quantile of ``samples`` (0 <= q <= 1).

    The benchmark's own, so no change to the program's statistics code can
    move the metrics that judge it.
    """
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _rank_rng(seed, workload, rank):
    return random.Random(f"{seed}:{workload}:{rank}")


# ---------------------------------------------------------------------------
# executing one operation and checking it
# ---------------------------------------------------------------------------

def _listing_error(path, names, expect):
    """Compare a listing with ``expect = (stable, prefix, own)``.

    With ``prefix`` None the listing must equal ``stable``; otherwise it
    must contain ``stable`` and its ``prefix`` entries must equal ``own``
    (other ranks change the rest concurrently).
    """
    stable, prefix, own = expect
    if prefix is None:
        if names != stable:
            return (f"readdir {path}: missing {sorted(stable - names)[:3]} "
                    f"extra {sorted(names - stable)[:3]}")
        return None
    mine = {name for name in names if name.startswith(prefix)}
    if not stable <= names or mine != own:
        return (f"readdir {path}: missing {sorted(stable - names)[:3]} "
                f"own {sorted(mine ^ own)[:3]}")
    return None


def _exec(fs, op):
    """Coroutine: run one generated operation; an error line or None."""
    kind, path = op[0], op[1]
    if kind == "stat":
        attr = yield from fs.stat(path)
        if attr.kind != FILE or attr.size != 0:
            return f"stat {path}: {attr.kind} of {attr.size} bytes"
    elif kind == "open":
        fh = yield from fs.open(path)
        yield from fs.close(fh)
    elif kind == "utime":
        yield from fs.utime(path)
    elif kind == "create":
        fh = yield from fs.create(path)
        yield from fs.close(fh)
    elif kind == "mknod":
        yield from fs.mknod(path)
    elif kind == "unlink":
        yield from fs.unlink(path)
    elif kind == "rename":
        yield from fs.rename(path, op[2])
    elif kind == "mkrmdir":
        yield from fs.mkdir(path)
        yield from fs.rmdir(path)
    elif kind == "readdir":
        names = yield from fs.readdir(path)
        return _listing_error(path, set(names), op[2])
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
    return None


def _closed_loop(stack, ranks, out, tracer):
    """Run every ``(fs, program)`` rank to completion, one op at a time."""
    sim = stack.testbed.sim
    ends = []

    def rank(fs, program):
        for op in program:
            kind = op[0]
            start = sim.now
            body = _exec(fs, op)
            if tracer is not None:
                body = tracer.client_op(body, kind)
            try:
                error = yield from body
            except FsError as exc:
                error = f"{kind} {op[1]}: {exc.code}"
            latency = sim.now - start
            out.attempted += 1
            out.count(CALLS.get(kind, 1))
            out.lat[CLASS[kind]].append(latency)
            out.lat["req"].append(latency)
            if error is not None:
                out.fail(error)
        ends.append(sim.now)

    if tracer is not None:
        tracer.start(stack)
    start = sim.now
    events = sim.events_processed
    out.start_timing()
    procs = [sim.process(rank(fs, program)) for fs, program in ranks]
    sim.run()
    out.stop_timing()
    out.events = sim.events_processed - events
    if tracer is not None:
        tracer.stop()
    for proc in procs:
        if not proc.ok:
            raise proc.value
    out.sim_ms = max(ends) - start


def _check_listings(stack, expected, out):
    """Readdir every directory in ``expected`` and compare exactly."""
    fs = stack.mount(0, 0)

    def walk():
        for path, names in expected.items():
            got = yield from fs.readdir(path)
            error = _listing_error(path, set(got), (names, None, None))
            if error is not None:
                out.fail(f"final {error}")

    stack.testbed.sim.run_process(walk())


def _shuffled_kinds(rng, mix, ops):
    """``ops`` operation kinds in exactly the ``mix`` shares, shuffled.

    The seed decides the order and the targets of the operations, never
    their proportions: a seed that drew a few more creates would change the
    modeled rates by more than a regression bound could tolerate.
    """
    kinds = [kind for kind, share in mix for _ in range(round(share * ops))]
    rng.shuffle(kinds)
    return kinds


# ---------------------------------------------------------------------------
# gpfs-shared-dir / cofs-shared-dir
# ---------------------------------------------------------------------------

SHARED_DIR = "/shared"


class SharedDirProgram:
    """One rank's stream over its own partition of one shared directory.

    Read class: 40% stat (a tenth of them, ``stat-other``, on another
    rank's files), 20% open+close.  Write class: 20% utime, 10%
    create+close of a new name, 10% unlink of the rank's own creations.
    """

    MIX = (("stat", 0.36), ("stat-other", 0.04), ("open", 0.20),
           ("utime", 0.20), ("create", 0.10), ("unlink", 0.10))

    def __init__(self, rng, rank, ranks, files, ops):
        self.rng = rng
        self.rank = rank
        self.ranks = ranks
        self.per = files // ranks
        self.ops = ops
        self.live = []    # leaf names this rank created and has not unlinked

    def __iter__(self):
        rng, rank, per = self.rng, self.rank, self.per
        base = rank * per
        made = 0
        for kind in _shuffled_kinds(rng, self.MIX, self.ops):
            if kind == "stat-other":
                owner = rng.randrange(self.ranks - 1)
                owner += owner >= rank
                index = owner * per + rng.randrange(per)
                yield ("stat", f"{SHARED_DIR}/f{index:05d}")
            elif kind in ("stat", "open", "utime"):
                yield (kind, f"{SHARED_DIR}/f{base + rng.randrange(per):05d}")
            elif kind == "create" or not self.live:
                name = f"n{rank:02d}.{made:05d}"
                made += 1
                self.live.append(name)
                yield ("create", f"{SHARED_DIR}/{name}")
            else:
                name = self.live.pop(rng.randrange(len(self.live)))
                yield ("unlink", f"{SHARED_DIR}/{name}")


def _shared_dir(system, seed, size, tracer):
    out = Outcome()
    began = time.process_time()
    nodes, files = size["nodes"], size["files"]
    testbed = build_flat_testbed(nodes, with_mds=(system == "cofs"))
    stack = PfsStack(testbed) if system == "pfs" else CofsStack(testbed)
    seeded = [f"f{index:05d}" for index in range(files)]

    def create_all(fs):
        # The paper's create-by-first-node setup: node 0 ends up holding
        # every attribute token, so the access phase pays revocations.
        yield from fs.mkdir(SHARED_DIR)
        for name in seeded:
            fh = yield from fs.create(f"{SHARED_DIR}/{name}")
            yield from fs.close(fh)

    testbed.sim.run_process(create_all(stack.mount(0, 0)))
    out.setup_s = time.process_time() - began

    programs = [
        SharedDirProgram(_rank_rng(seed, "shared-dir", rank), rank, nodes,
                         files, size["ops"])
        for rank in range(nodes)
    ]
    _closed_loop(stack, [(stack.mount(rank, 0), program)
                         for rank, program in enumerate(programs)],
                 out, tracer)
    names = set(seeded)
    for program in programs:
        names.update(program.live)
    _check_listings(stack, {SHARED_DIR: names}, out)
    return out


def gpfs_shared_dir(seed, size, tracer=None):
    """Bare parallel FS, 8 nodes x 1 process, closed loop."""
    return _shared_dir("pfs", seed, size, tracer)


def cofs_shared_dir(seed, size, tracer=None):
    """COFS (FUSE, one MDS, sync commit) over the same parallel FS."""
    return _shared_dir("cofs", seed, size, tracer)


# ---------------------------------------------------------------------------
# sharded-md-mix
# ---------------------------------------------------------------------------

MIX_DIR = "/mix"
HOT_DIR = "/mix/hot"
SHARDS, REPLICAS = 4, 2


class MixProgram:
    """One rank's metadata-only stream: own directory plus the hot one.

    Read class: 45% stat, 5% readdir.  Write class: 25% mknod, 10% utime,
    7% rename (half of them between the own directory and the split hot
    directory, which crosses shards), 5% unlink, 3% mkdir+rmdir.  The
    ``-hot`` kinds target ``/mix/hot``: 40% of stats, a fifth of readdirs
    and of mknods, half of utimes.
    """

    MIX = (("stat", 0.27), ("stat-hot", 0.18), ("readdir", 0.04),
           ("readdir-hot", 0.01), ("mknod", 0.20), ("mknod-hot", 0.05),
           ("utime", 0.05), ("utime-hot", 0.05), ("rename", 0.035),
           ("rename-cross", 0.035), ("unlink", 0.05), ("mkrmdir", 0.03))

    def __init__(self, rng, rank, own, hot, ops):
        self.rng = rng
        self.rank = rank
        self.dir = f"{MIX_DIR}/r{rank:02d}"
        self.hot = hot            # the hot directory's seeded names
        self.hot_stable = frozenset(hot)
        self.names = {f"e{j:04d}" for j in range(own)}  # own dir, live
        self.seeded = sorted(self.names)
        self.made = []            # own-dir names this rank created, live
        self.hot_own = []         # hot-dir names this rank placed, live
        self.ops = ops
        self.prefix = f"x{rank:02d}."

    def _new(self, hot):
        self.count += 1
        if hot:
            return f"{self.prefix}{self.count:05d}"
        return f"n{self.rank:02d}.{self.count:05d}"

    def _mknod(self, hot=False):
        if hot:
            name = self._new(True)
            self.hot_own.append(name)
            return ("mknod", f"{HOT_DIR}/{name}")
        name = self._new(False)
        self.made.append(name)
        self.names.add(name)
        return ("mknod", f"{self.dir}/{name}")

    def _rename(self, cross):
        rng = self.rng
        if cross:
            if self.made and (not self.hot_own or rng.random() < 0.5):
                old = self.made.pop(rng.randrange(len(self.made)))
                self.names.discard(old)
                new = self._new(True)
                self.hot_own.append(new)
                return ("rename", f"{self.dir}/{old}", f"{HOT_DIR}/{new}")
            if self.hot_own:
                old = self.hot_own.pop(rng.randrange(len(self.hot_own)))
                new = self._new(False)
                self.made.append(new)
                self.names.add(new)
                return ("rename", f"{HOT_DIR}/{old}", f"{self.dir}/{new}")
            return self._mknod()
        if not self.made:
            return self._mknod()
        index = rng.randrange(len(self.made))
        old = self.made[index]
        new = self._new(False)
        self.made[index] = new
        self.names.discard(old)
        self.names.add(new)
        return ("rename", f"{self.dir}/{old}", f"{self.dir}/{new}")

    def _unlink(self):
        rng = self.rng
        pool = self.made if rng.random() < 0.6 else self.hot_own
        if not pool:
            pool = self.made or self.hot_own
        if not pool:
            return self._mknod()
        name = pool.pop(rng.randrange(len(pool)))
        if pool is self.made:
            self.names.discard(name)
            return ("unlink", f"{self.dir}/{name}")
        return ("unlink", f"{HOT_DIR}/{name}")

    def __iter__(self):
        rng = self.rng
        self.count = 0
        for kind in _shuffled_kinds(rng, self.MIX, self.ops):
            if kind in ("stat", "utime"):
                yield (kind, f"{self.dir}/{rng.choice(self.seeded)}")
            elif kind in ("stat-hot", "utime-hot"):
                yield (kind[:-4], f"{HOT_DIR}/{rng.choice(self.hot)}")
            elif kind == "readdir":
                yield ("readdir", self.dir,
                       (frozenset(self.names), None, None))
            elif kind == "readdir-hot":
                yield ("readdir", HOT_DIR,
                       (self.hot_stable, self.prefix,
                        frozenset(self.hot_own)))
            elif kind in ("mknod", "mknod-hot"):
                yield self._mknod(kind == "mknod-hot")
            elif kind in ("rename", "rename-cross"):
                yield self._rename(kind == "rename-cross")
            elif kind == "unlink":
                yield self._unlink()
            else:
                yield ("mkrmdir", f"{self.dir}/d{self._new(False)}")


def sharded_md_mix(seed, size, tracer=None):
    """4 shards x 2 replicas, async commit, parallel broadcasts; 8 x 2."""
    out = Outcome()
    began = time.process_time()
    nodes, procs = size["nodes"], size["procs"]
    testbed = build_flat_testbed(nodes, with_mds=SHARDS * REPLICAS)
    stack = CofsStack(
        testbed, shards=SHARDS, replicas=REPLICAS,
        cofs_config=CofsConfig(async_commit=True, parallel_broadcasts=True))
    sim = testbed.sim
    ranks = nodes * procs
    hot = [f"h{j:05d}" for j in range(size["hot"])]

    def seed_rank(fs, rank):
        yield from fs.mkdir(f"{MIX_DIR}/r{rank:02d}")
        for j in range(size["own"]):
            yield from fs.mknod(f"{MIX_DIR}/r{rank:02d}/e{j:04d}")
        for name in hot[rank::ranks]:
            yield from fs.mknod(f"{HOT_DIR}/{name}")

    mounts = [stack.mount(r // procs, r % procs) for r in range(ranks)]

    def setup():
        yield from mounts[0].mkdir(MIX_DIR)
        yield from mounts[0].mkdir(HOT_DIR)
        yield sim.all_of([sim.process(seed_rank(fs, r))
                          for r, fs in enumerate(mounts)])
        split = yield from stack.driver(0).call(
            "split_dir", HOT_DIR, list(range(SHARDS)), sim.now)
        if split is not True:
            raise RuntimeError(f"split_dir {HOT_DIR} returned {split!r}")

    sim.run_process(setup())
    out.setup_s = time.process_time() - began

    programs = [
        MixProgram(_rank_rng(seed, "sharded-md-mix", rank), rank,
                   size["own"], hot, size["ops"])
        for rank in range(ranks)
    ]
    _closed_loop(stack, list(zip(mounts, programs)), out, tracer)
    expected = {HOT_DIR: set(hot)}
    for program in programs:
        expected[program.dir] = set(program.names)
        expected[HOT_DIR].update(program.hot_own)
    expected[MIX_DIR] = {f"r{r:02d}" for r in range(ranks)} | {"hot"}
    _check_listings(stack, expected, out)
    try:
        check_tier_invariants(stack.primaries, stack.sharding)
    except AssertionError as exc:
        out.fail(f"tier invariant: {exc}")
    _check_groups(stack, out)
    return out


#: A known program defect, an explicit expected failure of one check.
#: Whether it shows depends on the seed: a later journaled bump of the same
#: directory on its owner brings the backups level again.
SPLIT_DIR_TIMES_XFAIL = (
    "check_group_invariants on the group owning the split directory: "
    "bump_dir_times writes its mtime/ctime on the primary outside the "
    "journal, so the backups can miss them")


def _check_groups(stack, out):
    """The program's own ``check_group_invariants``, group by group.

    Every group must pass, except that the one owning the split
    ``/mix/hot`` may fail in table ``inodes``, as
    :data:`SPLIT_DIR_TIMES_XFAIL` describes.  Any other failure fails the
    run.
    """
    owner = stack.sharding.shard_of_dir(HOT_DIR, SHARDS)
    for group in stack.groups:
        try:
            check_group_invariants([group])
        except AssertionError as exc:
            error = str(exc).splitlines()[0][:300]
            if group.shard_id == owner and "table 'inodes'" in error:
                out.xfail.append(SPLIT_DIR_TIMES_XFAIL)
            else:
                out.fail(f"group invariant: {error}")


# ---------------------------------------------------------------------------
# production-mix
# ---------------------------------------------------------------------------

JOB_NODES, CKPT_NODES = 8, 4
LISTER_NODE = JOB_NODES + CKPT_NODES
INPUTS, INPUT_BYTES = 16, 1 * MB
READ_BYTES, OUTPUT_BYTES = 256 * KB, 128 * KB
CKPT_BYTES, CKPT_EVERY_MS = 2 * MB, 900.0
LIST_EVERY_MS, LIST_STATS = 500.0, 10
ZIPF_S = 1.1
#: latency class of an open-loop VFS call.  Every open here is followed by
#: I/O, so none is a read-class "open+close without I/O"; its time counts
#: in the job's latency only.
OPEN_LOOP_CLASS = {"stat": "read", "readdir": "read", "create": "write"}
#: the open-loop latency limit on job p99 (simulated ms)
SLO_P99_MS = 50.0


def _arrivals(rng, rate_per_s, duration_ms):
    """Seeded Poisson job arrivals: ``[(due_ms, node, input, offset)]``.

    The job count is the rate's expectation over the window; given its
    count, a Poisson process places arrivals independently and uniformly,
    which is how they are drawn.  Fixing the count keeps seeds from
    differing in offered load.
    """
    weights = [1.0 / (k + 1) ** ZIPF_S for k in range(INPUTS)]
    slots = INPUT_BYTES // READ_BYTES
    count = round(rate_per_s * duration_ms / 1000.0)
    return [(when, rng.randrange(JOB_NODES),
             rng.choices(range(INPUTS), weights)[0],
             rng.randrange(slots) * READ_BYTES)
            for when in sorted(rng.uniform(0.0, duration_ms)
                               for _ in range(count))]


def _input_bytes(seed, index):
    return random.Random(f"{seed}:input:{index}").randbytes(INPUT_BYTES)


def _production_rate(seed, rate, duration_ms, inputs, tracer,
                     setup_only=False):
    """One fresh stack driven at one offered rate; an :class:`Outcome`."""
    out = Outcome()
    began = time.process_time()
    testbed = build_flat_testbed(JOB_NODES + CKPT_NODES + 1, with_mds=True)
    stack = CofsStack(testbed)
    sim = testbed.sim

    def setup():
        fs = stack.mount(0, 0)
        for path in ("/inputs", "/results", "/ckpt"):
            yield from fs.mkdir(path)
        for index, payload in enumerate(inputs):
            fh = yield from fs.create(f"/inputs/in{index:02d}")
            yield from fs.write(fh, 0, data=payload)
            yield from fs.close(fh)
        yield sim.all_of([sim.process(warm(node))
                          for node in range(JOB_NODES)])

    def warm(node):
        # Every job node reads each input once, so the timed phase starts
        # with the inputs in its page pool: they fit, and a cold first
        # read would otherwise set the job tail.
        fs = stack.mount(node, 0)
        for index in range(INPUTS):
            fh = yield from fs.open(f"/inputs/in{index:02d}")
            yield from fs.read(fh, 0, INPUT_BYTES)
            yield from fs.close(fh)

    sim.run_process(setup())
    out.setup_s = time.process_time() - began
    if setup_only:
        return out

    rng = random.Random(f"{seed}:production-mix:{rate}")
    t0 = sim.now
    jobs = [(t0 + when, node, source, offset) for when, node, source, offset
            in _arrivals(rng, rate, duration_ms)]
    stop = t0 + duration_ms
    done = set()        # output names of completed jobs
    ckpts = set()       # checkpoint file names written
    outstanding = []    # (due, jobs in flight) at each arrival

    def call(name, method, *args, **kwargs):
        """Coroutine: one timed VFS call (a traced client op)."""
        def invoke():
            return (yield from method(*args, **kwargs))

        body = invoke()
        if tracer is not None:
            body = tracer.client_op(body, name)
        start = sim.now
        result = yield from body
        out.count(1)
        kind = OPEN_LOOP_CLASS.get(name)
        if kind is not None:
            out.lat[kind].append(sim.now - start)
        return result

    def job(index, due, node, source, offset):
        fs = stack.mount(node, 0)
        name = f"out{index:05d}"
        try:
            fh = yield from call("open", fs.open, f"/inputs/in{source:02d}")
            got = yield from call("read", fs.read, fh, offset, READ_BYTES,
                                  want_data=True)
            yield from call("close", fs.close, fh)
            if got != inputs[source][offset:offset + READ_BYTES]:
                out.fail(f"job {index}: wrong bytes from in{source:02d}")
            fh = yield from call("create", fs.create, f"/results/{name}")
            wrote = yield from call("write", fs.write, fh, 0,
                                    size=OUTPUT_BYTES)
            yield from call("close", fs.close, fh)
            attr = yield from call("stat", fs.stat, f"/results/{name}")
            if wrote != OUTPUT_BYTES or attr.size != OUTPUT_BYTES:
                out.fail(f"job {index}: wrote {wrote}, stat {attr.size}")
        except FsError as exc:
            out.fail(f"job {index}: {exc.code}")
        out.data_bytes += READ_BYTES + OUTPUT_BYTES
        out.lat["req"].append(sim.now - due)
        done.add(name)

    def arrivals():
        # Each job is spawned at its due time, so the generator is never
        # late; the check makes that a measured fact, not an assumption.
        for index, (due, node, source, offset) in enumerate(jobs):
            yield Timeout(sim, due, absolute=True)
            if sim.now != due:
                raise RuntimeError(f"job {index} spawned {sim.now - due} "
                                   "ms late")
            outstanding.append((due - t0, index + 1 - len(done)))
            sim.process(job(index, due, node, source, offset))

    def checkpointer(node):
        fs = stack.mount(JOB_NODES + node, 0)
        round_index = 0
        while True:
            yield sim.timeout(CKPT_EVERY_MS)
            if sim.now >= stop:
                return
            path = f"/ckpt/c{node}.{round_index:03d}"
            ckpts.add(path.rpartition("/")[2])
            try:
                fh = yield from call("create", fs.create, path)
                yield from call("write", fs.write, fh, 0, size=CKPT_BYTES)
                yield from call("close", fs.close, fh)
            except FsError as exc:
                out.fail(f"checkpoint {path}: {exc.code}")
            out.data_bytes += CKPT_BYTES
            round_index += 1

    def lister():
        fs = stack.mount(LISTER_NODE, 0)
        while True:
            yield sim.timeout(LIST_EVERY_MS)
            if sim.now >= stop:
                return
            before = set(done)
            try:
                names = yield from call("readdir", fs.readdir, "/results")
                if not before <= set(names):
                    out.fail("lister: completed outputs missing from listing")
                # The newest outputs: some are still being written, which
                # exercises the delegated-attribute path of stat.
                for name in names[-LIST_STATS:]:
                    finished = name in done
                    attr = yield from call("stat", fs.stat,
                                           f"/results/{name}")
                    if attr.kind != FILE or (
                            finished and attr.size != OUTPUT_BYTES):
                        out.fail(f"lister: stat {name}: {attr.kind} "
                                 f"{attr.size}")
            except FsError as exc:
                out.fail(f"lister: {exc.code}")

    if tracer is not None:
        tracer.start(stack)
    events = sim.events_processed
    out.start_timing()
    procs = [sim.process(arrivals()), sim.process(lister())]
    procs += [sim.process(checkpointer(node)) for node in range(CKPT_NODES)]
    sim.run()
    out.stop_timing()
    out.events = sim.events_processed - events
    out.sim_ms = sim.now - t0
    if tracer is not None:
        tracer.stop()
    for proc in procs:
        if not proc.ok:
            raise proc.value
    out.attempted = len(jobs)
    if len(done) != len(jobs):
        out.fail(f"{len(jobs) - len(done)} jobs never finished")
    # A backlog that keeps growing: jobs in flight in the second half of
    # the window average well above the first half's.
    first = [n for when, n in outstanding if when < duration_ms / 2]
    second = [n for when, n in outstanding if when >= duration_ms / 2]
    out.backlog_grows = bool(
        first and second
        and sum(second) / len(second) > 1.5 * sum(first) / len(first) + 1)
    _check_listings(stack, {
        "/results": done,
        "/ckpt": ckpts,
        "/inputs": {f"in{index:02d}" for index in range(INPUTS)},
    }, out)
    return out


def production_mix(seed, size, tracer=None, setup_only=False):
    """COFS (one MDS, sync commit) on 13 nodes, open loop at rate R2."""
    inputs = [_input_bytes(seed, index) for index in range(INPUTS)]
    return _production_rate(seed, size["rates"][1], size["duration_ms"],
                            inputs, tracer, setup_only)


def production_slo(seed, size, reference):
    """Run R1 and R3 beside the reference R2 outcome; the SLO summary.

    Returns ``(summary, outcomes)``: per rate the job p99 and whether the
    backlog grew, plus ``slo_rate_per_s``, the highest rate whose job p99
    meets :data:`SLO_P99_MS` with no growing backlog (0 if none does).
    """
    inputs = [_input_bytes(seed, index) for index in range(INPUTS)]
    low, _mid, high = size["rates"]
    outcomes = {
        low: _production_rate(seed, low, size["duration_ms"], inputs, None),
        size["rates"][1]: reference,
        high: _production_rate(seed, high, size["duration_ms"], inputs, None),
    }
    summary = {"slo_rate_per_s": 0.0}
    for rate in size["rates"]:
        outcome = outcomes[rate]
        p99 = percentile(outcome.lat["req"], 0.99)
        grows = outcome.backlog_grows
        summary[f"job_p99_ms@{rate:g}"] = p99
        summary[f"backlog_grows@{rate:g}"] = grows
        if p99 <= SLO_P99_MS and not grows:
            summary["slo_rate_per_s"] = rate
    return summary, [outcomes[low], outcomes[high]]


WORKLOADS = {
    "gpfs-shared-dir": gpfs_shared_dir,
    "cofs-shared-dir": cofs_shared_dir,
    "sharded-md-mix": sharded_md_mix,
    "production-mix": production_mix,
}
