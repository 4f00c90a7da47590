"""Heterogeneous clusters: mixed CPU/memory nodes end to end."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NetworkSpec, NodeRole, NodeSpec, PartitionSpec
from repro.kernel import KernelTimings, PhoenixKernel
from repro.sim import Simulator, drive
from repro.userenv.pws import PoolSpec, install_pws
from repro.userenv.pws.server import STATUS, SUBMIT
from repro.userenv.pws.server import PORT as PWS_PORT


def heterogeneous_spec() -> ClusterSpec:
    """One partition: fat server, standard backup, 2 fat + 2 thin computes."""

    def node(nid, role, cpus, mem):
        return NodeSpec(node_id=nid, partition_id="p0", role=role, cpus=cpus, mem_mb=mem)

    nodes = {
        "p0s0": node("p0s0", NodeRole.SERVER, 8, 32768),
        "p0b0": node("p0b0", NodeRole.BACKUP, 4, 8192),
        "fat0": node("fat0", NodeRole.COMPUTE, 16, 65536),
        "fat1": node("fat1", NodeRole.COMPUTE, 16, 65536),
        "thin0": node("thin0", NodeRole.COMPUTE, 2, 4096),
        "thin1": node("thin1", NodeRole.COMPUTE, 2, 4096),
    }
    partition = PartitionSpec(
        partition_id="p0", server="p0s0", backups=("p0b0",),
        computes=("fat0", "fat1", "thin0", "thin1"),
    )
    return ClusterSpec(partitions=(partition,), networks=(NetworkSpec(name="mgmt"),), nodes=nodes)


@pytest.fixture()
def het_kernel():
    sim = Simulator(seed=12)
    cluster = Cluster(sim, heterogeneous_spec())
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=5.0))
    kernel.boot()
    sim.run(until=6.0)
    return sim, kernel


def test_kernel_boots_and_stays_quiet(het_kernel):
    sim, kernel = het_kernel
    sim.run(until=30.0)
    assert sim.trace.records("failure.detected") == []


def test_bulletin_reports_true_capacities(het_kernel):
    sim, kernel = het_kernel
    rows = {r["_key"]: r for r in kernel.bulletin("p0").store.query("node_metrics")}
    assert rows["fat0"]["cpus"] == 16
    assert rows["thin0"]["cpus"] == 2


def test_scheduler_respects_mixed_capacities(het_kernel):
    sim, kernel = het_kernel
    install_pws(kernel, [PoolSpec("all", kernel.cluster.compute_nodes())])
    sim.run(until=sim.now + 2.0)

    def rpc(mtype, payload):
        sig = kernel.cluster.transport.rpc(
            "thin0", kernel.placement[("pws", "p0")], PWS_PORT, mtype, payload, timeout=5.0)
        return drive(sim, sig)

    # An 8-cpu-per-node job only fits the fat nodes.
    big = rpc(SUBMIT, {"user": "u", "nodes": 2, "cpus_per_node": 8, "duration": 30.0,
                       "pool": "all"})
    sim.run(until=sim.now + 2.0)
    status = rpc(STATUS, {"job_id": big["job_id"]})
    assert status["job"]["state"] == "running"
    assert sorted(status["job"]["assigned_nodes"]) == ["fat0", "fat1"]
    # A 2-cpu job still lands on the thin/backup nodes.
    small = rpc(SUBMIT, {"user": "u", "nodes": 3, "cpus_per_node": 2, "duration": 30.0,
                         "pool": "all"})
    sim.run(until=sim.now + 2.0)
    status = rpc(STATUS, {"job_id": small["job_id"]})
    assert status["job"]["state"] == "running"
    assert set(status["job"]["assigned_nodes"]) <= {"thin0", "thin1", "p0b0", "fat0", "fat1"}
