"""Experiment runners — one per figure/table of the paper, plus the
scaling sweeps beyond it.

Every function builds fresh testbeds, drives the matching workload and
returns a structured result dict; ``print_report=True`` also prints the
series/table in the paper's layout.

Scope control: each experiment reads its grid from :data:`GRIDS` at one
of three scales.  ``default`` is a log-spaced subset that exhibits every
effect (the benchmarks run it); ``full`` restores the paper's complete
sweeps (up to 8192 files per node, 4 GB IOR aggregates), which take
several minutes of wall time; ``quick`` is the quick bench's smoke run.
The REPRO_FULL=1 environment variable promotes ``default`` to ``full``.
"""

import itertools
import os

from repro import obs
from repro.bench.report import format_series, format_table
from repro.bench.stack import CofsStack, PfsStack
from repro.bench.testbed import build_flat_testbed, build_hier_testbed
from repro.core.config import CofsConfig
from repro.core.faults import (
    check_group_invariants, check_tier_invariants, kill_primary,
)
from repro.core.placement import HashPlacementPolicy, IdentityPlacementPolicy
from repro.core.shard import Rebalancer, SubtreeSharding
from repro.db.service import DbConfig
from repro.units import GB, MB
from repro.workloads.ior import IorConfig, run_ior
from repro.workloads.metarates import MetaratesConfig, run_metarates
from repro.workloads.traces import TraceConfig, run_trace

OPS = ("create", "stat", "utime", "open")

_SWEEP = dict(
    quick=dict(nodes=(4,), files_per_node=(32, 128)),
    default=dict(nodes=(4, 8), files_per_node=(32, 128, 512, 2048)),
    full=dict(nodes=(4, 8), files_per_node=(32, 128, 512, 2048, 8192)))
# mdcreate runs last: the earlier phases' timings are untouched, so the
# create/stat/utime/mix columns match the runs without it.
_MDS_OPS = ("create", "stat", "utime", "mdcreate")
_IOR = dict(targets=("separate", "shared"), patterns=("seq", "random"),
            nodes=(1, 4, 8))
#: the ablations have no quick grid, so the quick bench skips them
_ABLATION = dict(default=dict(files_per_node=256),
                 full=dict(files_per_node=512))

#: The run table: experiment -> scale -> grid.  The quick bench runs
#: every experiment that has a ``quick`` grid and gates its summed
#: clocks against the committed ``BENCH_PR<n>.json``, so a quick grid
#: only changes together with a new baseline.
GRIDS = {
    "fig1": dict(
        quick=dict(sizes=(128, 512)),
        default=dict(sizes=(128, 512, 1024, 2048)),
        full=dict(sizes=(128, 256, 512, 1024, 1536, 2048, 2560))),
    "fig2": dict(
        quick=dict(totals=(1024,)),
        default=dict(totals=(1024, 4096)),
        full=dict(totals=(1024, 4096, 16384))),
    "fig4": _SWEEP,
    "fig5": _SWEEP,
    "fig5b": dict(
        quick=dict(_SWEEP["quick"], ops=("utime",)),
        default=dict(_SWEEP["default"], ops=("utime", "open")),
        full=dict(_SWEEP["full"], ops=("utime", "open"))),
    "fig6": dict(
        quick=dict(nodes=8, files_per_node=64),
        default=dict(nodes=32, files_per_node=256),
        full=dict(nodes=64, files_per_node=256)),
    "table1": dict(
        quick=dict(targets=("separate",), patterns=("seq",), nodes=(2,),
                   sizes=(64 * MB,)),
        default=dict(_IOR, sizes=(256 * MB, 1 * GB)),
        full=dict(_IOR, sizes=(256 * MB, 1 * GB, 4 * GB))),
    "ablation-placement": _ABLATION,
    "ablation-mds": _ABLATION,
    "scaling-mds": dict(
        quick=dict(shards=(1, 2), nodes=4, procs_per_node=1,
                   files_per_proc=32, ops=("create", "stat", "utime"),
                   trace_ms=None),
        default=dict(shards=(1, 2, 4), nodes=8, procs_per_node=2,
                     files_per_proc=32, ops=_MDS_OPS, trace_ms=2000.0),
        full=dict(shards=(1, 2, 4, 8), nodes=16, procs_per_node=2,
                  files_per_proc=64, ops=_MDS_OPS, trace_ms=4000.0)),
    "scaling-rebalance": dict(
        quick=dict(shards=(1, 3), nodes=4, dirs_per_proc=16,
                   files_per_proc=32),
        default=dict(shards=(1, 2, 4), nodes=4, dirs_per_proc=16,
                     files_per_proc=32),
        full=dict(shards=(1, 2, 4, 8), nodes=8, dirs_per_proc=32,
                  files_per_proc=64)),
    "scaling-split": dict(
        quick=dict(shards=(1, 4), nodes=8, files_per_proc=32),
        default=dict(shards=(1, 2, 4), nodes=8, files_per_proc=32),
        full=dict(shards=(1, 2, 4, 8), nodes=16, files_per_proc=64)),
    "scaling-failover": dict(
        quick=dict(nodes=4, files_per_proc=32),
        default=dict(nodes=4, files_per_proc=32),
        full=dict(nodes=8, files_per_proc=64)),
    "scaling-async": dict(
        quick=dict(shards=(1, 2), nodes=8, files_per_proc=32),
        default=dict(shards=(1, 2, 4), nodes=8, files_per_proc=32),
        full=dict(shards=(1, 2, 4, 8), nodes=16, files_per_proc=64)),
}


class _Runs:
    """Builds, runs and tallies every stack of experiment ``name``.

    ``grid`` is the experiment's row of :data:`GRIDS` at ``scale``
    (REPRO_FULL=1 promotes ``default`` to ``full``).  A stack is closed
    when the next one is built, or by :meth:`result`: a multi-shard tier
    must then pass the tier-wide invariant oracle (and the group oracle
    too when it is replicated), and its final clock joins
    ``virtual_ms``.  Summed in build order, the clocks are a fingerprint
    of everything the experiment simulated.
    """

    def __init__(self, name, scale):
        if scale == "default" and os.environ.get("REPRO_FULL") == "1":
            scale = "full"
        self.grid = GRIDS[name][scale]
        self.ops_done = 0  # measured ops driven, warm-ups excluded
        self.virtual_ms = 0.0
        self._open = None

    def stack(self, system, nodes, build=build_flat_testbed, mds=1,
              **kwargs):
        """A fresh ``system`` stack on a ``build`` testbed of ``nodes``
        clients; COFS gets ``mds`` metadata machines."""
        self._close()
        if system == "cofs":
            self._open = CofsStack(build(nodes, with_mds=mds), **kwargs)
        else:
            self._open = PfsStack(build(nodes), **kwargs)
        return self._open

    def metarates(self, stack, **config):
        """Run metarates on every node of ``stack``."""
        res = run_metarates(
            stack, MetaratesConfig(nodes=stack.n_nodes, **config))
        self.ops_done += sum(res.recorder.count(op) for op in res.config.ops)
        return res

    def ior(self, stack, **config):
        """Run IOR on every node of ``stack``; one op per transferred
        chunk, write then read phase."""
        config = IorConfig(nodes=stack.n_nodes, **config)
        result = run_ior(stack, config)
        self.ops_done += 2 * (config.aggregate_bytes // config.xfer_bytes)
        return result

    def trace(self, stack, **config):
        """Run the production mix; one op per job, checkpoint or listing."""
        result = run_trace(stack, TraceConfig(**config))
        self.ops_done += (result.job_ms.n + result.checkpoint_ms.n
                          + result.listing_ms.n)
        return result

    def result(self, **out):
        """The grid plus ``out``, ``ops_done`` and ``virtual_ms``."""
        self._close()
        return dict(self.grid, **out, ops_done=self.ops_done,
                    virtual_ms=self.virtual_ms)

    def _close(self):
        stack, self._open = self._open, None
        if stack is None:
            return
        if stack.system == "cofs" and stack.n_shards > 1:
            check_tier_invariants(stack.primaries, stack.sharding)
            if stack.groups:
                check_group_invariants(stack.groups)
        self.virtual_ms += stack.testbed.sim.now


# ---------------------------------------------------------------------------
# EXP-F1 — Fig. 1: effect of directory size, single node, 1 and 2 processes
# ---------------------------------------------------------------------------

def run_fig1(scale="default", print_report=False):
    """GPFS metadata times vs entries per directory on one node."""
    runs = _Runs("fig1", scale)
    sizes = runs.grid["sizes"]
    results = {}
    for procs in (1, 2):
        for total in sizes:
            res = runs.metarates(
                runs.stack("pfs", 1), procs_per_node=procs,
                files_per_proc=total // procs, ops=OPS,
            )
            for op in OPS:
                results[(op, procs, total)] = res.mean_ms(op)
    out = runs.result(results=results)
    if print_report:
        for op in OPS:
            series = {
                f"{procs} process(es)": [
                    (total, results[(op, procs, total)]) for total in sizes
                ]
                for procs in (1, 2)
            }
            print(format_series(
                f"Fig 1 — avg time per {op} (single node)",
                "files/dir", "ms/op", series,
            ))
            print()
    return out


# ---------------------------------------------------------------------------
# EXP-F2 — Fig. 2: parallel metadata behaviour of GPFS
# ---------------------------------------------------------------------------

def run_fig2(scale="default", print_report=False):
    """GPFS metadata times for 4/8 nodes and 1024/4096/16384 files."""
    runs = _Runs("fig2", scale)
    totals = runs.grid["totals"]
    node_counts = (4, 8)
    results = {}
    for nodes in node_counts:
        for total in totals:
            res = runs.metarates(runs.stack("pfs", nodes),
                                 files_per_proc=total // nodes, ops=OPS)
            for op in OPS:
                results[(op, nodes, total)] = res.mean_ms(op)
    out = runs.result(nodes=node_counts, results=results)
    if print_report:
        rows = [
            [op, nodes, total, results[(op, nodes, total)]]
            for op in OPS for nodes in node_counts for total in totals
        ]
        print(format_table(
            ["operation", "nodes", "files", "ms/op"], rows,
            title="Fig 2 — parallel metadata behaviour of GPFS",
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-F4 / EXP-F5 / EXP-F5b — Figs. 4-5: GPFS vs COFS sweeps
# ---------------------------------------------------------------------------

def _sweep(runs, op):
    results = {}
    for system in ("pfs", "cofs"):
        for nodes in runs.grid["nodes"]:
            for fpn in runs.grid["files_per_node"]:
                res = runs.metarates(runs.stack(system, nodes),
                                     files_per_proc=fpn, ops=(op,))
                results[(system, nodes, fpn)] = res.mean_ms(op)
    return {"results": results, "op": op}


def _print_sweep(grid, sweep, figure):
    op = sweep["op"]
    for system in ("pfs", "cofs"):
        label = "pure GPFS" if system == "pfs" else "COFS over GPFS"
        series = {
            f"{nodes} nodes": [
                (fpn, sweep["results"][(system, nodes, fpn)])
                for fpn in grid["files_per_node"]
            ]
            for nodes in grid["nodes"]
        }
        print(format_series(
            f"{figure} — avg {op} time ({label})",
            "files/node", "ms/op", series,
        ))
        print()


def run_fig4(scale="default", print_report=False):
    """Create time, pure GPFS vs COFS over GPFS (paper Fig. 4)."""
    runs = _Runs("fig4", scale)
    out = runs.result(**_sweep(runs, "create"))
    if print_report:
        _print_sweep(runs.grid, out, "Fig 4")
    return out


def run_fig5(scale="default", print_report=False):
    """Stat time, pure GPFS vs COFS over GPFS (paper Fig. 5)."""
    runs = _Runs("fig5", scale)
    out = runs.result(**_sweep(runs, "stat"))
    if print_report:
        _print_sweep(runs.grid, out, "Fig 5")
    return out


def run_fig5b(scale="default", print_report=False):
    """utime and open/close sweeps (reported in prose in §IV-A); the
    quick grid sweeps utime only."""
    runs = _Runs("fig5b", scale)
    ops = runs.grid["ops"]
    out = runs.result(**{op: _sweep(runs, op) for op in ops})
    if print_report:
        for op in ops:
            label = "open/close" if op == "open" else op
            _print_sweep(runs.grid, out[op], f"Fig 5b ({label})")
    return out


# ---------------------------------------------------------------------------
# EXP-F6 — Fig. 6: 64 nodes, 256 files per node, hierarchical network
# ---------------------------------------------------------------------------

def run_fig6(scale="default", print_report=False):
    """Operation times on the large hierarchical cluster, GPFS vs COFS."""
    runs = _Runs("fig6", scale)
    nodes, files_per_node = runs.grid["nodes"], runs.grid["files_per_node"]
    results = {}
    for system in ("pfs", "cofs"):
        res = runs.metarates(runs.stack(system, nodes,
                                        build=build_hier_testbed),
                             files_per_proc=files_per_node, ops=OPS)
        for op in OPS:
            results[(system, op)] = res.mean_ms(op)
    out = runs.result(results=results)
    if print_report:
        rows = [
            [op, results[("pfs", op)], results[("cofs", op)]]
            for op in OPS
        ]
        print(format_table(
            ["operation", "gpfs ms/op", "cofs ms/op"], rows,
            title=(f"Fig 6 — {nodes} nodes, {files_per_node} files/node "
                   "(shared dir)"),
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-T1 — Table I: impact of COFS on data transfers (IOR)
# ---------------------------------------------------------------------------

def run_table1(scale="default", print_report=False):
    """IOR read/write bandwidth, GPFS vs COFS, per Table I's matrix."""
    runs = _Runs("table1", scale)
    grid = runs.grid
    matrix = list(itertools.product(
        grid["targets"], grid["patterns"], grid["nodes"], grid["sizes"]))
    cells = {}
    for target, pattern, nodes, agg in matrix:
        for system in ("pfs", "cofs"):
            result = runs.ior(runs.stack(system, nodes), aggregate_bytes=agg,
                              pattern=pattern, target=target)
            cells[(target, pattern, nodes, agg, system)] = \
                (result.write_mbps, result.read_mbps)
    out = runs.result(cells=cells)
    if print_report:
        rows = []
        for target, pattern, nodes, agg in matrix:
            g = cells[(target, pattern, nodes, agg, "pfs")]
            c = cells[(target, pattern, nodes, agg, "cofs")]
            rows.append([
                target, pattern, nodes, agg // MB, g[0], c[0], g[1], c[1],
            ])
        print(format_table(
            ["target", "pattern", "nodes", "MB total",
             "gpfs w MB/s", "cofs w MB/s", "gpfs r MB/s", "cofs r MB/s"],
            rows, title="Table I — IOR aggregate bandwidth",
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-A1 — ablation: placement policy variants
# ---------------------------------------------------------------------------

def run_ablation_placement(scale="default", print_report=False):
    """Isolate what the placement policy contributes.

    - identity: pure interposition, no reorganization (the virtualization
      overhead with none of its benefit);
    - hash: per-(node, parent, pid) directories, no randomization level;
    - hash+rand: the paper's policy.
    """
    nodes = 4
    ops = ("create", "stat")
    cfg = CofsConfig()
    variants = {
        "identity": IdentityPlacementPolicy(cfg),
        "hash": HashPlacementPolicy(cfg, randomize=False),
        "hash+rand": HashPlacementPolicy(cfg, randomize=True),
    }
    runs = _Runs("ablation-placement", scale)
    fpn = runs.grid["files_per_node"]
    results = {}
    baseline = runs.metarates(runs.stack("pfs", nodes),
                              files_per_proc=fpn, ops=ops)
    results[("gpfs", "create")] = baseline.mean_ms("create")
    results[("gpfs", "stat")] = baseline.mean_ms("stat")
    for name, policy in variants.items():
        res = runs.metarates(runs.stack("cofs", nodes, policy=policy),
                             files_per_proc=fpn, ops=ops)
        results[(name, "create")] = res.mean_ms("create")
        results[(name, "stat")] = res.mean_ms("stat")
    out = runs.result(results=results, nodes=nodes)
    if print_report:
        rows = [
            [name, results[(name, "create")], results[(name, "stat")]]
            for name in ("gpfs", "identity", "hash", "hash+rand")
        ]
        print(format_table(
            ["layout policy", "create ms/op", "stat ms/op"], rows,
            title=f"Ablation — placement policy ({nodes} nodes)",
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-A2 — ablation: metadata-service durability
# ---------------------------------------------------------------------------

def run_ablation_mds(scale="default", print_report=False):
    """Sync vs async metadata-service logging (Mnesia dump policy)."""
    nodes = 4
    runs = _Runs("ablation-mds", scale)
    fpn = runs.grid["files_per_node"]
    results = {}
    for mode, sync in (("sync-log", True), ("async-log", False)):
        cofs_cfg = CofsConfig(db=DbConfig(sync_updates=sync))
        res = runs.metarates(runs.stack("cofs", nodes, cofs_config=cofs_cfg),
                             files_per_proc=fpn, ops=("create", "utime"))
        results[(mode, "create")] = res.mean_ms("create")
        results[(mode, "utime")] = res.mean_ms("utime")
    out = runs.result(results=results, nodes=nodes)
    if print_report:
        rows = [
            [mode, results[(mode, "create")], results[(mode, "utime")]]
            for mode in ("sync-log", "async-log")
        ]
        print(format_table(
            ["MDS durability", "create ms/op", "utime ms/op"], rows,
            title=f"Ablation — metadata service logging ({nodes} nodes)",
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-S1 — beyond the paper: metadata throughput vs number of MDS shards
# ---------------------------------------------------------------------------

def run_scaling_mds(scale="default", print_report=False):
    """Aggregate metadata throughput as the metadata tier gains shards.

    Two workloads per shard count:

    - **metarates** in the many-directories regime (``private_dirs``: one
      directory per rank, so hash-by-parent-directory spreads ranks over
      shards).  Reported per-op rates and their sum over the original
      create/stat/utime trio (the ``mix`` row) are the
      throughput-vs-shards curve.  ``stat`` scales near-linearly
      (pure MDS CPU); ``utime`` sub-linearly (group-committed log forces
      batch *better* on fewer shards); ``create`` is bounded by the
      underlying file system, not the MDS — the floor virtualization
      cannot remove.  ``mdcreate`` (metadata-only create, no underlying
      object) runs as a fourth phase to expose the MDS's own create
      ceiling that the full create hides behind that floor; it is
      reported separately and deliberately kept out of ``mix`` so the
      historical curve stays comparable.
    - **traces**, the production mix, split across shards with the static
      :class:`SubtreeSharding` policy.  It is data-bound, so the check
      here is stability: per-class latencies must not regress when the
      namespace is partitioned.

    The quick grid runs the create/stat/utime trio only, with no trace.
    """
    runs = _Runs("scaling-mds", scale)
    grid = runs.grid
    nodes, procs_per_node = grid["nodes"], grid["procs_per_node"]
    fpp, ops, trace_ms = grid["files_per_proc"], grid["ops"], grid["trace_ms"]
    trace_split = SubtreeSharding(
        {"/project/checkpoints": 0, "/project/results": 1}
    )
    results = {}
    for n_shards in grid["shards"]:
        res = runs.metarates(
            runs.stack("cofs", nodes, mds=n_shards),
            procs_per_node=procs_per_node, files_per_proc=fpp, ops=ops,
            private_dirs=True,
        )
        for op in ops:
            results[("metarates", op, n_shards)] = res.rate_per_s(op)
        results[("metarates", "mix", n_shards)] = sum(
            res.rate_per_s(op) for op in ("create", "stat", "utime")
        )
        if trace_ms:
            trace = runs.trace(
                runs.stack("cofs", 9, mds=n_shards, sharding=trace_split),
                duration_ms=trace_ms,
            ).summary()
            results[("traces", "job_ms", n_shards)] = trace["job_ms"]
            results[("traces", "checkpoint_ms", n_shards)] = \
                trace["checkpoint_ms"]
            results[("traces", "jobs", n_shards)] = trace["jobs_completed"]
    out = runs.result(results=results)
    if print_report:
        trace_cols = ["trace job ms", "trace jobs"] if trace_ms else []
        rows = [
            [n_shards] +
            [round(results[("metarates", op, n_shards)], 1)
             for op in ops + ("mix",)] +
            ([round(results[("traces", "job_ms", n_shards)], 2),
              results[("traces", "jobs", n_shards)]] if trace_ms else [])
            for n_shards in grid["shards"]
        ]
        print(format_table(
            ["shards"] + [f"{op}/s" for op in ops + ("mix",)] + trace_cols,
            rows,
            title=(f"Scaling — metadata shards ({nodes} nodes x "
                   f"{procs_per_node} procs, private dirs)"),
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-S2 — beyond the paper: parallel broadcasts and online re-partitioning
# ---------------------------------------------------------------------------

def _colliding_dir_names(sharding, parent, count, n_shards, shard=0):
    """``count`` directory names under ``parent`` all owned by ``shard``.

    Models organic hot-spotting: with hash partitioning, independent
    directory names collide on one shard with probability 1/N each — an
    experiment just fast-forwards the search for a colliding set.
    """
    names = []
    index = 0
    while len(names) < count:
        name = f"s{index:04d}"
        if sharding.shard_of_dir(f"{parent}/{name}", n_shards) == shard:
            names.append(name)
        index += 1
    return tuple(names)


def run_scaling_rebalance(scale="default", print_report=False):
    """Parallel mirror broadcasts and online load-aware re-partitioning.

    Two sub-experiments beyond ``scaling-mds``:

    - **mkdir/rmdir latency vs shard count, serial vs parallel
      broadcasts**: every mkdir/rmdir is a replicated mutation — local
      transaction plus one mirror RPC per peer — so its latency grows
      with the shard count.  Serial chains pay the *sum* of the peer
      round trips, overlapped broadcasts (``parallel_broadcasts``) pay
      roughly the *max*; the gap widens with shards.
    - **skewed-workload throughput before/after migration**: every rank
      directory is chosen to hash onto shard 0 (see
      :func:`_colliding_dir_names`), so a stat-heavy workload bottlenecks
      there no matter how many shards exist.  The
      :class:`~repro.core.shard.rebalance.Rebalancer` then samples the
      routers' load counters and re-homes the hot directories; the same
      workload re-runs against the *migrated* population
      (``assume_seeded``) and its throughput recovers toward the
      unskewed curve.  It runs at the grid's shard counts above 1.
    """
    runs = _Runs("scaling-rebalance", scale)
    grid = runs.grid
    shards, nodes = grid["shards"], grid["nodes"]
    results = {}

    # (a) mkdir/rmdir latency, serial vs parallel broadcasts.
    for n_shards in shards:
        modes = ("serial",) if n_shards <= 2 else ("serial", "parallel")
        for mode in modes:
            stack = runs.stack("cofs", nodes, mds=n_shards,
                               cofs_config=CofsConfig(
                                   parallel_broadcasts=(mode == "parallel")))
            res = runs.metarates(stack, files_per_proc=grid["dirs_per_proc"],
                                 ops=("mkdir", "rmdir"))
            for op in ("mkdir", "rmdir"):
                results[(op, n_shards, mode)] = res.mean_ms(op)
        if n_shards <= 2:
            # ≤1 peer: overlap cannot differ from the serial chain.
            for op in ("mkdir", "rmdir"):
                results[(op, n_shards, "parallel")] = \
                    results[(op, n_shards, "serial")]

    # (b) skewed stat workload, before/after online re-partitioning.
    skew_counts = [n for n in shards if n > 1]
    procs_per_node = 2
    for n_shards in skew_counts:
        stack = runs.stack("cofs", nodes, mds=n_shards)
        names = _colliding_dir_names(
            stack.sharding, "/bench/shared",
            nodes * procs_per_node, n_shards)
        skew = dict(procs_per_node=procs_per_node,
                    files_per_proc=grid["files_per_proc"], ops=("stat",),
                    rank_dir_names=names, cleanup=False)
        skewed = runs.metarates(stack, **skew)
        results[("skew-stat", n_shards, "before")] = skewed.rate_per_s("stat")
        rebalancer = Rebalancer(stack.routers, stack.shards)
        moves = stack.testbed.sim.run_process(rebalancer.rebalance())
        results[("skew-moves", n_shards)] = len(moves)
        rerun = runs.metarates(stack, assume_seeded=True, **skew)
        results[("skew-stat", n_shards, "after")] = rerun.rate_per_s("stat")

    out = runs.result(results=results)
    if print_report:
        rows = [
            [n_shards, op,
             round(results[(op, n_shards, "serial")], 4),
             round(results[(op, n_shards, "parallel")], 4)]
            for n_shards in shards for op in ("mkdir", "rmdir")
        ]
        print(format_table(
            ["shards", "op", "serial ms/op", "parallel ms/op"], rows,
            title=f"Replicated mkdir/rmdir latency ({nodes} nodes)",
        ))
        rows = [
            [n_shards,
             round(results[("skew-stat", n_shards, "before")], 1),
             round(results[("skew-stat", n_shards, "after")], 1),
             results[("skew-moves", n_shards)]]
            for n_shards in skew_counts
        ]
        print(format_table(
            ["shards", "skewed stat/s", "rebalanced stat/s", "dirs moved"],
            rows,
            title=(f"Skewed workload vs online re-partitioning "
                   f"({nodes} nodes x {procs_per_node} procs)"),
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-S4 — beyond the paper: giant shared directories vs intra-dir splitting
# ---------------------------------------------------------------------------

def run_scaling_split(scale="default", print_report=False):
    """Create-storm into ONE shared directory, whole vs split placement.

    The giant-directory regime the paper's Fig. 6 measures (every rank
    creating into the same directory) is the one workload whole-directory
    placement cannot help: the directory has exactly one owner shard, so
    the storm serializes there no matter how many shards the tier has —
    and re-homing only moves the ceiling.  Intra-directory partitioning
    hash-splits the directory's *entries* across shards; the same storm
    then spreads.

    Per shard count the storm runs twice, on fresh stacks:

    - **unsplit** — the directory left whole.  The mdcreate/stat rates
      stay flat as shards are added (the single-owner ceiling);
    - **split** — a short warmup storm first lets the
      :class:`~repro.core.shard.rebalance.Rebalancer` (armed with
      ``split_threshold``) sample the hotspot and hash-partition the
      directory across every shard, then the measured storm re-runs.
      ``mdcreate`` isolates the metadata tier (no underlying object), so
      its rate is the scaling headline; ``stat`` rides along as the
      read-side check.
    """
    runs = _Runs("scaling-split", scale)
    grid = runs.grid
    # The storm must *saturate* one shard for splitting to have anything
    # to spread: with few ranks every op is latency-bound and extra
    # shards buy nothing, so this experiment runs wider than the other
    # scaling sweeps.
    shards, nodes, fpp = \
        grid["shards"], grid["nodes"], grid["files_per_proc"]
    procs_per_node = 8
    ops = ("mdcreate", "stat")
    results = {}
    for n_shards in shards:
        for mode in ("unsplit", "split"):
            if mode == "split" and n_shards == 1:
                # One shard has nothing to split across; the whole-dir
                # run doubles as the baseline both columns share.
                for op in ops:
                    results[(op, 1, "split")] = results[(op, 1, "unsplit")]
                results[("split-dirs", 1)] = 0
                continue
            stack = runs.stack("cofs", nodes, mds=n_shards)
            if mode == "split":
                # Warmup storm: enough traffic for the routers to sample
                # the hotspot, then one rebalancer round splits it.
                run_metarates(stack, MetaratesConfig(
                    nodes=nodes, procs_per_node=procs_per_node,
                    files_per_proc=4, ops=("mdcreate",)))
                rebalancer = Rebalancer(
                    stack.routers, stack.shards, split_threshold=1.0)
                executed = stack.testbed.sim.run_process(
                    rebalancer.rebalance())
                splits = [rec for rec in executed if len(rec[2]) > 1]
                results[("split-dirs", n_shards)] = len(splits)
            res = runs.metarates(stack, procs_per_node=procs_per_node,
                                 files_per_proc=fpp, ops=ops)
            for op in ops:
                results[(op, n_shards, mode)] = res.rate_per_s(op)
                results[(op, n_shards, mode, "mean_ms")] = res.mean_ms(op)
    out = runs.result(procs_per_node=procs_per_node, ops=ops,
                      results=results)
    if print_report:
        rows = [
            [n_shards,
             round(results[("mdcreate", n_shards, "unsplit")], 1),
             round(results[("mdcreate", n_shards, "split")], 1),
             round(results[("stat", n_shards, "unsplit")], 1),
             round(results[("stat", n_shards, "split")], 1),
             results[("split-dirs", n_shards)]]
            for n_shards in shards
        ]
        print(format_table(
            ["shards", "mdcreate/s whole", "mdcreate/s split",
             "stat/s whole", "stat/s split", "dirs split"], rows,
            title=(f"Giant shared directory — whole vs split placement "
                   f"({nodes} nodes x {procs_per_node} procs, one dir)"),
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-S3 — beyond the paper: primary failover under load
# ---------------------------------------------------------------------------

def run_scaling_failover(scale="default", print_report=False):
    """Kill a shard's primary under metadata load; measure the outage.

    A replicated tier (2 shards x 2 replicas) runs the private-dirs
    metarates mix while a fault process fail-stops group 0's primary
    mid-phase.  The routers notice via EAGAIN, drive the fenced failover,
    and retry — so the *availability gap* is the promotion work itself
    (epoch bump + tier fences + allocator reseat, a few RPC round
    trips), not a journal replay: under synchronous quorum shipping the
    promoted backup's tables already hold every acknowledged record.
    Contrast ``recovery_base_ms`` (200 ms) — the *un*replicated tier's
    floor for restarting the shard in place — before counting any redo.

    Reported per run (baseline = identical load, no kill):

    - per-op mean / p50 / p99 / max latency — the tail absorbs the gap;
    - ``gap_ms`` — first dead-primary detection to serving-again,
      *derived from the failover trace span* (tracing is enabled around
      the kill run) and cross-checked against the group's own
      ``last_failover`` bookkeeping;
    - ``("failover", "step_ms", <step>)`` — the promotion sub-steps
      (epoch bump, tier fence, member fences, allocator reseat) read
      straight off the promote span's event marks;
    - ``("failover", "count")`` — failovers the kill drove (one).

    The kill run's cleanup phase deletes every file through the promoted
    primary, which would fail loudly on any lost record.  The run ends
    with the tier-wide and group invariant oracles plus the
    trace-invariant checker over the kill run's spans.
    """
    runs = _Runs("scaling-failover", scale)
    nodes, fpp = runs.grid["nodes"], runs.grid["files_per_proc"]
    procs_per_node = 2
    shards, replicas = 2, 2
    ops = ("mdcreate", "stat", "utime")
    kill_at = 150.0  # ms: inside the *measured* mdcreate phase window
    # (quick scale: ~103-226 ms; full scale starts at the same offset and
    # runs longer), so the outage lands on timed ops and the failover
    # run's tail latencies absorb the gap instead of an untimed seeding
    # phase hiding it.
    results = {}
    owned_obs = obs.TRACER is None  # enable tracing just for the kill run
    for mode in ("baseline", "failover"):
        stack = runs.stack("cofs", nodes, mds=shards * replicas,
                           shards=shards, replicas=replicas)
        sim = stack.testbed.sim
        if mode == "failover":
            if owned_obs:
                obs.enable()
            mark = len(obs.TRACER.spans)
            group = stack.groups[0]

            def killer():
                yield sim.timeout(kill_at)
                kill_primary(group)

            sim.process(killer(), name="kill-primary")
        res = runs.metarates(stack, procs_per_node=procs_per_node,
                             files_per_proc=fpp, ops=ops, private_dirs=True)
        for op in ops:
            results[(mode, op, "mean_ms")] = res.mean_ms(op)
            results[(mode, op, "p50_ms")] = res.recorder.p50(op)
            results[(mode, op, "p99_ms")] = res.recorder.p99(op)
            results[(mode, op, "max_ms")] = res.recorder.summary(op).max
            results[(mode, op, "rate")] = res.rate_per_s(op)
        if mode == "failover":
            assert group.failovers == 1, (
                f"{group.failovers} failovers (did the kill land in the run?)")
            results[("failover", "count")] = group.failovers
            spans = obs.TRACER.spans[mark:]
            obs.TraceChecker(obs.TRACER).check_all()
            # The availability gap is the failover span, not ad-hoc
            # timing; the group's own bookkeeping must agree exactly
            # (both read the same simulated clock at the same points).
            gaps = [s for s in spans
                    if s.kind == "failover" and s.outcome == "ok"]
            assert len(gaps) == 1, f"expected one failover span: {gaps}"
            t0, t1 = group.last_failover
            assert abs(gaps[0].duration - (t1 - t0)) < 1e-9, (
                gaps[0].duration, t1 - t0)
            results[("failover", "gap_ms")] = gaps[0].duration
            promotes = [s for s in spans
                        if s.kind == "promote" and s.outcome == "ok"]
            assert len(promotes) == 1, "expected one promotion"
            marks_ = promotes[0].events
            for (_, prev_t, _), (step, step_t, _) in zip(marks_, marks_[1:]):
                key = ("failover", "step_ms", step)
                results[key] = results.get(key, 0.0) + (step_t - prev_t)
            if owned_obs:
                obs.disable()
            results[("failover", "killed_at_ms")] = kill_at
    out = runs.result(procs_per_node=procs_per_node, shards=shards,
                      replicas=replicas, ops=ops, results=results)
    if print_report:
        rows = [
            [mode, op,
             round(results[(mode, op, "mean_ms")], 3),
             round(results[(mode, op, "p50_ms")], 3),
             round(results[(mode, op, "p99_ms")], 3),
             round(results[(mode, op, "max_ms")], 2),
             round(results[(mode, op, "rate")], 1)]
            for mode in ("baseline", "failover") for op in ops
        ]
        print(format_table(
            ["run", "op", "mean ms", "p50 ms", "p99 ms", "max ms", "ops/s"],
            rows,
            title=(f"Primary failover under load ({nodes} nodes, "
                   f"{shards}x{replicas} tier; gap "
                   f"{results[('failover', 'gap_ms')]:.2f} ms)"),
        ))
        step_rows = [
            [key[2], round(value, 4)]
            for key, value in sorted(results.items())
            if key[:2] == ("failover", "step_ms")
        ]
        print(format_table(
            ["promotion step", "ms"], step_rows,
            title="Availability gap breakdown (from the promote span)",
        ))
    return out


# ---------------------------------------------------------------------------
# EXP-S5 — beyond the paper: asynchronous group commit vs the force ceiling
# ---------------------------------------------------------------------------

def run_scaling_async(scale="default", print_report=False):
    """Metadata mutation throughput, synchronous vs asynchronous commit.

    The private-dirs metarates mix runs twice per shard count, on fresh
    stacks: once with the default synchronous commits (every update pays
    its own journal force — the log-force ceiling ``scaling-mds``
    documents), once with ``CofsConfig(async_commit=True)`` (updates are
    acknowledged under dependency rules while a per-shard batcher
    coalesces forces; see ``docs/async-commit.md``).  ``mdcreate``
    isolates the metadata tier and is the scaling headline; ``utime``
    is the attr-write check and ``stat`` the read-side control (reads
    never force, so the two modes must agree there).

    The async runs execute under tracing with the full
    :class:`~repro.obs.TraceChecker` — including the
    durable-before-dependent-ack rule — over every emitted history.
    """
    runs = _Runs("scaling-async", scale)
    shards, nodes, fpp = \
        runs.grid["shards"], runs.grid["nodes"], runs.grid["files_per_proc"]
    procs_per_node = 2
    ops = ("mdcreate", "utime", "stat")
    results = {}
    owned_obs = obs.TRACER is None  # trace just the async legs
    for n_shards in shards:
        for mode in ("sync", "async"):
            cofs_cfg = CofsConfig(async_commit=(mode == "async"))
            stack = runs.stack("cofs", nodes, mds=n_shards,
                               cofs_config=cofs_cfg)
            if mode == "async" and owned_obs:
                obs.enable()
            res = runs.metarates(stack, procs_per_node=procs_per_node,
                                 files_per_proc=fpp, ops=ops,
                                 private_dirs=True)
            for op in ops:
                results[(op, n_shards, mode)] = res.rate_per_s(op)
                results[(op, n_shards, mode, "mean_ms")] = res.mean_ms(op)
            deferred = sum(s.dbsvc.deferred_acks for s in stack.shards)
            results[("deferred_acks", n_shards, mode)] = deferred
            if mode == "async":
                assert deferred > 0, "async run never deferred an ack"
                obs.TraceChecker(obs.TRACER).check_all()
                if owned_obs:
                    obs.disable()
            else:
                assert deferred == 0
    out = runs.result(procs_per_node=procs_per_node, ops=ops,
                      results=results)
    if print_report:
        rows = [
            [n_shards,
             round(results[("mdcreate", n_shards, "sync")], 1),
             round(results[("mdcreate", n_shards, "async")], 1),
             round(results[("utime", n_shards, "sync")], 1),
             round(results[("utime", n_shards, "async")], 1),
             round(results[("stat", n_shards, "async")], 1),
             results[("deferred_acks", n_shards, "async")]]
            for n_shards in shards
        ]
        print(format_table(
            ["shards", "mdcreate/s sync", "mdcreate/s async",
             "utime/s sync", "utime/s async", "stat/s", "deferred acks"],
            rows,
            title=(f"Async group commit vs the log-force ceiling "
                   f"({nodes} nodes x {procs_per_node} procs, "
                   f"private dirs)"),
        ))
    return out


EXPERIMENTS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig5b": run_fig5b,
    "fig6": run_fig6,
    "table1": run_table1,
    "ablation-placement": run_ablation_placement,
    "ablation-mds": run_ablation_mds,
    "scaling-mds": run_scaling_mds,
    "scaling-rebalance": run_scaling_rebalance,
    "scaling-split": run_scaling_split,
    "scaling-failover": run_scaling_failover,
    "scaling-async": run_scaling_async,
}
