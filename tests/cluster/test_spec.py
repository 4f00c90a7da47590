"""Unit tests for cluster specifications."""

import pytest

from repro.cluster import ClusterSpec, NetworkSpec, NodeRole, NodeSpec, PartitionSpec
from repro.errors import ClusterError


def test_build_regular_layout():
    spec = ClusterSpec.build(partitions=2, computes=3, backups=1)
    assert spec.node_count == 2 * (1 + 1 + 3)
    assert len(spec.partitions) == 2
    assert spec.network_names == ("mgmt", "data", "ipc")
    p0 = spec.partitions[0]
    assert p0.server == "p0s0"
    assert p0.backups == ("p0b0",)
    assert p0.computes == ("p0c0", "p0c1", "p0c2")
    assert spec.nodes["p0s0"].role is NodeRole.SERVER
    assert spec.nodes["p0b0"].role is NodeRole.BACKUP
    assert spec.nodes["p0c0"].role is NodeRole.COMPUTE


def test_paper_fault_testbed_is_136_nodes_8_partitions():
    spec = ClusterSpec.paper_fault_testbed()
    assert len(spec.partitions) == 8
    assert spec.node_count == 136
    assert all(p.size == 17 for p in spec.partitions)


def test_dawning_4000a_is_640_nodes():
    spec = ClusterSpec.dawning_4000a()
    assert spec.node_count == 640
    assert len(spec.partitions) == 40


def test_partition_of():
    spec = ClusterSpec.build(partitions=3, computes=1)
    assert spec.partition_of("p2c0").partition_id == "p2"
    assert spec.partition_of("p0s0").server == "p0s0"


def test_partition_requires_backup():
    with pytest.raises(ClusterError, match="backup"):
        PartitionSpec(partition_id="p0", server="s", backups=(), computes=("c",))


def test_partition_rejects_duplicate_nodes():
    with pytest.raises(ClusterError, match="duplicate"):
        PartitionSpec(partition_id="p0", server="s", backups=("s",), computes=())


def test_node_spec_validation():
    with pytest.raises(ClusterError):
        NodeSpec(node_id="n", partition_id="p", role=NodeRole.COMPUTE, cpus=0)
    with pytest.raises(ClusterError):
        NodeSpec(node_id="n", partition_id="p", role=NodeRole.COMPUTE, mem_mb=0)


def test_network_spec_validation():
    with pytest.raises(ClusterError):
        NetworkSpec(name="x", base_latency=-1)
    with pytest.raises(ClusterError):
        NetworkSpec(name="x", loss_rate=1.0)
    # Transmit schedules arrivals unchecked: every latency must be finite.
    for field in ("base_latency", "jitter"):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ClusterError):
                NetworkSpec(name="x", **{field: value})


def test_build_validation():
    with pytest.raises(ClusterError):
        ClusterSpec.build(partitions=0, computes=1)
    with pytest.raises(ClusterError):
        ClusterSpec.build(partitions=1, computes=1, backups=0)


def test_cluster_spec_consistency_check():
    spec = ClusterSpec.build(partitions=1, computes=1)
    nodes = dict(spec.nodes)
    nodes.pop("p0c0")
    with pytest.raises(ClusterError, match="disagree"):
        ClusterSpec(partitions=spec.partitions, networks=spec.networks, nodes=nodes)


def test_duplicate_network_names_rejected():
    spec = ClusterSpec.build(partitions=1, computes=1)
    with pytest.raises(ClusterError, match="duplicate network"):
        ClusterSpec(
            partitions=spec.partitions,
            networks=(NetworkSpec(name="a"), NetworkSpec(name="a")),
            nodes=dict(spec.nodes),
        )
