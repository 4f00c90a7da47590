"""Cluster specifications — the static shape of the machine.

The paper's management framework (§4.3) divides the whole system into
*cluster partitions*, each composed of **one server node, at least one
backup server node, and other computing nodes**, with every node attached
to several physical networks (Dawning 4000A nodes have three).

:class:`ClusterSpec.build` constructs Dawning-4000A-like layouts, e.g. the
fault-tolerance testbed of §5.1 — "136 nodes ... 16 computing nodes and 1
server node per partition, so it is divided into 8 partitions" — via
``ClusterSpec.build(partitions=8, computes=15, backups=1)`` (16 computing
nodes per partition counting the backup, which also runs jobs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ClusterError
from repro.units import usec


class NodeRole(Enum):
    """Role a node plays inside its partition."""

    SERVER = "server"
    BACKUP = "backup"
    COMPUTE = "compute"


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one node."""

    node_id: str
    partition_id: str
    role: NodeRole
    cpus: int = 4
    mem_mb: int = 8192

    def __post_init__(self) -> None:
        if self.cpus <= 0:
            raise ClusterError(f"{self.node_id}: cpus must be positive")
        if self.mem_mb <= 0:
            raise ClusterError(f"{self.node_id}: mem_mb must be positive")


@dataclass(frozen=True)
class NetworkSpec:
    """Static description of one physical network fabric.

    ``base_latency``/``jitter`` parameterize per-message delivery delay
    (seconds); ``loss_rate`` is an independent per-message drop
    probability.  With ``topology="two_level"`` the fabric models the
    Dawning 4000A's hierarchical switching: traffic crossing partition
    boundaries pays ``uplink_latency`` extra (edge switch → core → edge).
    """

    name: str
    base_latency: float = usec(100)
    jitter: float = usec(50)
    loss_rate: float = 0.0
    topology: str = "flat"  # "flat" | "two_level"
    uplink_latency: float = usec(120)
    #: Optional per-message serialization charge: size/bandwidth added to
    #: latency.  ``None`` keeps the latency-only model (the calibration
    #: the Tables 1–3 defaults assume — kernel messages are tiny anyway).
    bandwidth: float | None = None  # bytes/s

    def __post_init__(self) -> None:
        if not (0 <= self.base_latency < math.inf and 0 <= self.jitter < math.inf):
            raise ClusterError(f"network {self.name}: latency must be finite and non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ClusterError(f"network {self.name}: loss_rate must be in [0, 1)")
        if self.topology not in ("flat", "two_level"):
            raise ClusterError(f"network {self.name}: unknown topology {self.topology!r}")
        if not 0 <= self.uplink_latency < math.inf:
            raise ClusterError(f"network {self.name}: uplink latency must be finite and non-negative")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ClusterError(f"network {self.name}: bandwidth must be positive")


@dataclass(frozen=True)
class PartitionSpec:
    """One cluster partition: server + backups + computes."""

    partition_id: str
    server: str
    backups: tuple[str, ...]
    computes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.backups:
            raise ClusterError(
                f"partition {self.partition_id}: the paper requires at least one backup server node"
            )
        members = [self.server, *self.backups, *self.computes]
        if len(set(members)) != len(members):
            raise ClusterError(f"partition {self.partition_id}: duplicate node ids")

    @property
    def all_nodes(self) -> tuple[str, ...]:
        return (self.server, *self.backups, *self.computes)

    @property
    def size(self) -> int:
        return len(self.all_nodes)


@dataclass(frozen=True)
class ClusterSpec:
    """Full static cluster description.

    ``region_size`` opts into hierarchical two-tier federation
    (DESIGN.md §16): consecutive partitions (in configured order) are
    grouped into *regions* of at most ``region_size`` partitions.
    Within a region the kernel services keep the flat full-mesh
    federation; across regions only each region's elected *aggregator*
    partition talks to the other regions.  ``None`` (the default) keeps
    the original flat all-pairs federation, byte-identical to before
    the knob existed.
    """

    partitions: tuple[PartitionSpec, ...]
    networks: tuple[NetworkSpec, ...]
    nodes: dict[str, NodeSpec] = field(hash=False)
    region_size: int | None = None

    def __post_init__(self) -> None:
        if not self.partitions:
            raise ClusterError("cluster must have at least one partition")
        if not self.networks:
            raise ClusterError("cluster must have at least one network")
        if self.region_size is not None and self.region_size < 1:
            raise ClusterError("region_size must be >= 1 (or None for flat federation)")
        names = [n.name for n in self.networks]
        if len(set(names)) != len(names):
            raise ClusterError("duplicate network names")
        declared = {nid for p in self.partitions for nid in p.all_nodes}
        if declared != set(self.nodes):
            missing = declared.symmetric_difference(self.nodes)
            raise ClusterError(f"partition/node tables disagree on: {sorted(missing)}")

    # -- convenience -------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def network_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.networks)

    def partition_of(self, node_id: str) -> PartitionSpec:
        part_id = self.nodes[node_id].partition_id
        for part in self.partitions:
            if part.partition_id == part_id:
                return part
        raise ClusterError(f"node {node_id}: unknown partition {part_id}")

    # -- region topology (two-tier federation, DESIGN.md §16) --------------
    def regions(self) -> tuple[tuple[str, ...], ...]:
        """Partition ids grouped into regions, in configured order.

        With ``region_size=None`` the whole cluster is one region (flat
        federation).  Grouping is positional — partition ``k`` lives in
        region ``k // region_size`` — so region membership is a pure
        function of the spec and every node computes it identically.
        """
        pids = tuple(p.partition_id for p in self.partitions)
        if self.region_size is None:
            return (pids,)
        size = self.region_size
        return tuple(pids[i : i + size] for i in range(0, len(pids), size))

    # -- builders ----------------------------------------------------------
    @classmethod
    def build(
        cls,
        partitions: int,
        computes: int,
        backups: int = 1,
        networks: tuple[str, ...] = ("mgmt", "data", "ipc"),
        cpus_per_node: int = 4,
        mem_mb: int = 8192,
        base_latency: float = usec(100),
        jitter: float = usec(50),
        loss_rate: float = 0.0,
        region_size: int | None = None,
    ) -> "ClusterSpec":
        """Build a regular Dawning-4000A-like layout.

        ``partitions`` partitions, each with 1 server node, ``backups``
        backup server nodes and ``computes`` compute nodes, all attached
        to every network in ``networks``.  ``region_size`` groups
        partitions into two-tier federation regions (see
        :class:`ClusterSpec`).
        """
        if partitions <= 0 or computes < 0 or backups <= 0:
            raise ClusterError("partitions and backups must be positive, computes >= 0")
        part_specs: list[PartitionSpec] = []
        node_specs: dict[str, NodeSpec] = {}

        def declare(node_id: str, part_id: str, role: NodeRole) -> str:
            node_specs[node_id] = NodeSpec(
                node_id=node_id, partition_id=part_id, role=role, cpus=cpus_per_node, mem_mb=mem_mb
            )
            return node_id

        for p in range(partitions):
            part_id = f"p{p}"
            server = declare(f"{part_id}s0", part_id, NodeRole.SERVER)
            backup_ids = tuple(
                declare(f"{part_id}b{b}", part_id, NodeRole.BACKUP) for b in range(backups)
            )
            compute_ids = tuple(
                declare(f"{part_id}c{c}", part_id, NodeRole.COMPUTE) for c in range(computes)
            )
            part_specs.append(
                PartitionSpec(
                    partition_id=part_id, server=server, backups=backup_ids, computes=compute_ids
                )
            )
        net_specs = tuple(
            NetworkSpec(name=name, base_latency=base_latency, jitter=jitter, loss_rate=loss_rate)
            for name in networks
        )
        return cls(
            partitions=tuple(part_specs),
            networks=net_specs,
            nodes=node_specs,
            region_size=region_size,
        )

    @classmethod
    def paper_fault_testbed(cls) -> "ClusterSpec":
        """The §5.1 testbed: 8 partitions × (1 server + 16 computing nodes) = 136 nodes.

        We model the 16 computing nodes as 1 backup server node (which also
        computes) + 15 pure compute nodes, because §4.3 requires every
        partition to contain at least one backup server node.
        """
        return cls.build(partitions=8, computes=15, backups=1)

    @classmethod
    def dawning_4000a(cls) -> "ClusterSpec":
        """A 640-node layout like the full Dawning 4000A (§5.3): 40 partitions × 16 nodes."""
        return cls.build(partitions=40, computes=14, backups=1)
