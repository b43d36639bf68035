"""Full system stacks: bare parallel FS, and COFS over it.

A *stack* owns everything mounted on a testbed and hands out per-(node,
process) VFS mounts for workloads.  For the bare parallel FS, processes on a
node share the node's client (kernel filesystems are per node).  For COFS,
each process gets its own view of the node's FUSE mount because the
placement driver hashes the *creating process* into the underlying path
(paper §III-B).
"""

from repro.core.cofs import CofsFileSystem
from repro.core.config import CofsConfig
from repro.core.metaservice import MetadataService
from repro.core.shard import (
    GroupTargets,
    HashDirSharding,
    ReplicatedShard,
    ShardMetadataService,
    ShardRouter,
)
from repro.fuse.mount import FuseConfig, FuseMount
from repro.pfs.config import PfsConfig
from repro.pfs.filesystem import Pfs


class PfsStack:
    """The baseline: clients mount the parallel FS directly."""

    system = "pfs"

    def __init__(self, testbed, config=None):
        self.testbed = testbed
        self.config = config or PfsConfig()
        self.pfs = Pfs(testbed.sim, testbed.servers, self.config)
        self._mounts = [self.pfs.client(m) for m in testbed.clients]

    def mount(self, node_index, pid=0):
        """The VFS for process ``pid`` on node ``node_index``."""
        return self._mounts[node_index]

    @property
    def n_nodes(self):
        return len(self._mounts)


class CofsStack:
    """COFS over the parallel FS, under a FUSE mount on every node.

    ``shards`` selects how many of the testbed's metadata machines host a
    namespace shard (default: all of them).  One shard keeps the original
    single :class:`MetadataService`; more build the sharded tier of
    :mod:`repro.core.shard`, partitioned by ``sharding`` (defaults to
    hash-by-parent-directory).  Clients always talk through a
    :class:`ShardRouter`, which is a pure pass-through at one shard.

    ``replicas`` (default 1) turns each logical shard into a
    :class:`ReplicatedShard` group — a primary plus ``replicas - 1``
    backups, each on its own metadata machine (consecutive machines form
    a group), under synchronous quorum log shipping with epoch-fenced
    failover.  ``shards * replicas`` machines are consumed; routers
    become group-aware (they re-target the promoted primary on failure,
    and serve follower reads when the config enables them).  With the
    default ``replicas=1`` nothing changes — groups are never built and
    the routers take the exact seed code paths.
    """

    system = "cofs"

    def __init__(self, testbed, pfs_config=None, cofs_config=None,
                 fuse_config=None, policy=None, shards=None, sharding=None,
                 replicas=1):
        if testbed.mds is None:
            raise ValueError("COFS needs a testbed built with with_mds=True")
        self.testbed = testbed
        self.pfs_config = pfs_config or PfsConfig()
        self.cofs_config = cofs_config or CofsConfig()
        self.fuse_config = fuse_config or FuseConfig()
        self.pfs = Pfs(testbed.sim, testbed.servers, self.pfs_config)
        mds_machines = testbed.mds_shards or [testbed.mds]
        if replicas < 1:
            raise ValueError(f"need replicas >= 1, got {replicas}")
        if shards is None:
            shards = len(mds_machines) // replicas
        if not 1 <= shards * replicas <= len(mds_machines):
            raise ValueError(
                f"{shards} shards x {replicas} replicas needs "
                f"1..{len(mds_machines)} machines")
        if replicas > 1 and shards < 2:
            raise ValueError("replication needs the sharded tier "
                             "(shards >= 2)")
        self.sharding = sharding or HashDirSharding()
        self.groups = None
        if shards == 1:
            self.shards = [MetadataService(
                testbed.mds, self.cofs_config, policy=policy,
                streams=testbed.streams,
            )]
            router_targets = mds_machines[:shards]
        elif replicas == 1:
            mds_machines = mds_machines[:shards]
            self.shards = [
                ShardMetadataService(
                    machine, self.cofs_config, shard_id=index,
                    shard_machines=mds_machines, sharding=self.sharding,
                    policy=policy, streams=testbed.streams,
                )
                for index, machine in enumerate(mds_machines)
            ]
            router_targets = mds_machines
        else:
            # Pre-allocate the group->primary map so members can size the
            # tier before any group exists, then bind it once they do.
            targets = GroupTargets(shards)
            self.groups = []
            for index in range(shards):
                chunk = mds_machines[index * replicas:
                                     (index + 1) * replicas]
                members = [
                    ShardMetadataService(
                        machine, self.cofs_config, shard_id=index,
                        shard_machines=targets, sharding=self.sharding,
                        policy=policy, streams=testbed.streams,
                    )
                    for machine in chunk
                ]
                self.groups.append(
                    ReplicatedShard(members, self.cofs_config))
            targets.bind(self.groups)
            self.shards = [group.primary for group in self.groups]
            router_targets = targets
        self.mds = self.shards[0]
        self.n_shards = shards
        self.replicas = replicas
        self._underlying = [self.pfs.client(m) for m in testbed.clients]
        self._drivers = [
            ShardRouter(m, router_targets, self.cofs_config, self.sharding,
                        groups=self.groups)
            for m in testbed.clients
        ]
        self._views = {}

    @property
    def primaries(self):
        """Each group's *current* primary (the flat tier on replicas=1)."""
        if self.groups is None:
            return list(self.shards)
        return [group.primary for group in self.groups]

    def mount(self, node_index, pid=0):
        """The FUSE-mounted COFS view for process ``pid`` on a node."""
        key = (node_index, pid)
        view = self._views.get(key)
        if view is None:
            machine = self.testbed.clients[node_index]
            cofs = CofsFileSystem(
                machine, self._underlying[node_index],
                self._drivers[node_index], self.cofs_config, pid=pid,
            )
            view = FuseMount(machine, cofs, self.fuse_config)
            self._views[key] = view
        return view

    def underlying(self, node_index):
        """The bare parallel-FS client beneath a node's COFS mount
        (maintenance tools — the scrubber — walk the layout through it)."""
        return self._underlying[node_index]

    def driver(self, node_index):
        """A node's metadata router (maintenance fan-outs, rebalancing)."""
        return self._drivers[node_index]

    @property
    def routers(self):
        """Every node's metadata router (the rebalancer samples them)."""
        return list(self._drivers)

    @property
    def n_nodes(self):
        return len(self._underlying)
