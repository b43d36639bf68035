"""Shared fixtures: mounted COFS stacks (single-MDS and sharded)."""

import pytest

from repro.bench import build_flat_testbed
from repro.bench.stack import CofsStack
from repro.pfs.types import FILE


class MountedCofs:
    """A small COFS-over-PFS testbed."""

    def __init__(self, n_clients=2, cofs_config=None, policy=None):
        self.testbed = build_flat_testbed(n_clients=n_clients, with_mds=True)
        self.sim = self.testbed.sim
        self.stack = CofsStack(
            self.testbed, cofs_config=cofs_config, policy=policy
        )
        self.mounts = [self.stack.mount(i) for i in range(n_clients)]
        self.mds = self.stack.mds
        self.pfs = self.stack.pfs

    def run(self, coro):
        return self.sim.run_process(coro)

    def run_all(self, coros):
        procs = [self.sim.process(c) for c in coros]

        def waiter():
            values = yield self.sim.all_of(procs)
            return values

        return self.sim.run_process(waiter())


class ShardedCofs:
    """A COFS testbed with an N-shard metadata tier.

    The reusable tier-wide crash-drill host: `test_sharding` uses it for
    protocol tests, `test_crash_points` for exhaustive fault injection,
    and `test_differential` for cross-shard-count oracles.
    """

    def __init__(self, n_clients=2, shards=2, sharding=None,
                 cofs_config=None, replicas=1):
        self.testbed = build_flat_testbed(
            n_clients=n_clients, with_mds=shards * replicas
        )
        self.sim = self.testbed.sim
        self.stack = CofsStack(
            self.testbed, sharding=sharding, cofs_config=cofs_config,
            shards=shards, replicas=replicas,
        )
        self.mounts = [self.stack.mount(i) for i in range(n_clients)]
        self.shards = self.stack.shards
        #: replica groups (None on unreplicated tiers).
        self.groups = self.stack.groups

    @property
    def primaries(self):
        """Each group's current primary (== ``shards`` when replicas=1)."""
        return self.stack.primaries

    def run(self, coro):
        return self.sim.run_process(coro)

    def run_all(self, coros):
        procs = [self.sim.process(c) for c in coros]

        def waiter():
            values = yield self.sim.all_of(procs)
            return values

        return self.sim.run_process(waiter())

    def inode_vinos(self, shard):
        return {row["vino"] for row in
                self.shards[shard].db.table("inodes").all()}

    def file_vinos(self, shard):
        return {row["vino"] for row in
                self.shards[shard].db.table("inodes").all()
                if row["kind"] == FILE}

    def route_rows(self, shard):
        """``{path: (owner, shards)}`` of one shard's durable routes."""
        return {row["path"]: (row["owner"], tuple(row["shards"]))
                for row in self.shards[shard].db.table("routes").all()}


@pytest.fixture
def cofsx():
    return MountedCofs(n_clients=2)


@pytest.fixture
def cfs(cofsx):
    return cofsx.mounts[0]


@pytest.fixture
def cfs2(cofsx):
    return cofsx.mounts[1]
