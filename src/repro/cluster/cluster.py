"""Cluster assembly: spec → live nodes, fabrics, transport, host OSes."""

from __future__ import annotations

from repro.cluster.hostos import HostOS
from repro.cluster.metrics import LoadProfile, ResourceModel
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.spec import ClusterSpec, NodeRole, PartitionSpec
from repro.cluster.transport import Transport
from repro.errors import ClusterError
from repro.sim import Simulator


class Cluster:
    """A live simulated cluster built from a :class:`ClusterSpec`.

    This is the "heterogeneous resource" layer of the paper's Figure 1:
    everything the Phoenix kernel later manages, but no kernel services
    yet.  Use :class:`repro.kernel.api.PhoenixKernel` to boot the kernel
    onto it.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: ClusterSpec,
        load_profile: LoadProfile | None = None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.nodes: dict[str, Node] = {
            node_id: Node(sim, node_spec) for node_id, node_spec in spec.nodes.items()
        }
        node_ids = list(self.nodes)
        self.networks: dict[str, Network] = {
            net_spec.name: Network(sim, net_spec, node_ids) for net_spec in spec.networks
        }
        self.transport = Transport(sim, self.networks, self.nodes)
        self.hostoses: dict[str, HostOS] = {
            node_id: HostOS(sim, node) for node_id, node in self.nodes.items()
        }
        self.resources = ResourceModel(sim, profile=load_profile)

    # -- lookups ---------------------------------------------------------
    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ClusterError(f"unknown node {node_id!r}") from None

    def hostos(self, node_id: str) -> HostOS:
        try:
            return self.hostoses[node_id]
        except KeyError:
            raise ClusterError(f"unknown node {node_id!r}") from None

    @property
    def partitions(self) -> tuple[PartitionSpec, ...]:
        return self.spec.partitions

    def partition(self, partition_id: str) -> PartitionSpec:
        for part in self.spec.partitions:
            if part.partition_id == partition_id:
                return part
        raise ClusterError(f"unknown partition {partition_id!r}")

    def partition_of(self, node_id: str) -> PartitionSpec:
        return self.spec.partition_of(node_id)

    def nodes_up(self) -> list[str]:
        return [node_id for node_id, node in self.nodes.items() if node.up]

    def compute_nodes(self, partition_id: str | None = None) -> list[str]:
        """Nodes eligible to run jobs (computes + backups, per §4.4)."""
        result = []
        for node_id, node in self.nodes.items():
            if partition_id is not None and node.partition_id != partition_id:
                continue
            if node.role in (NodeRole.COMPUTE, NodeRole.BACKUP):
                result.append(node_id)
        return result

    @property
    def size(self) -> int:
        return len(self.nodes)

    # -- power primitives (the fault injector wraps these) ------------------
    def crash_node(self, node_id: str) -> None:
        self.node(node_id).crash()

    def boot_node(self, node_id: str) -> None:
        self.node(node_id).boot()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Cluster({self.size} nodes, {len(self.partitions)} partitions,"
            f" {len(self.networks)} networks)"
        )
