"""A user environment learns its nodes one way: PWS and the business
runtime each keep one ``Inventory`` loaded from the bulletin's ``nodes``
table.  After the server node of their own partition fails, the service
group (bulletin included) restarts on the backup node with an empty
store; the inventory asks again until its own partition's nodes are
there, so a migrated environment can still place work on them."""

import pytest

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.kernel import KernelTimings, PhoenixKernel
from repro.sim import Simulator, drive
from repro.userenv.business import BizAppSpec, BusinessRuntime, TierSpec, install_business_runtime
from repro.userenv.inventory import NODES_QUERY
from repro.userenv.pws import PoolSpec, install_pws


def _world():
    sim = Simulator(seed=3)
    cluster = Cluster(sim, ClusterSpec.build(partitions=3, computes=3))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=5.0))
    kernel.boot()
    sim.run(until=10.0)
    return sim, kernel


def _runtime_workers(kernel):
    return [n for n in kernel.cluster.compute_nodes() if n.startswith(("p0c", "p1c"))]


def _pws_runs_a_job_on_every_node(sim, kernel, server):
    """A job that needs all 12 compute nodes, one CPU each, finishes."""
    reply = drive(sim, kernel.cluster.transport.rpc(
        "p1c0", server.node_id, "pws", "pws.submit",
        {"user": "alice", "nodes": 12, "cpus_per_node": 1, "duration": 10.0, "pool": "batch"},
        timeout=5.0))
    assert reply and reply["ok"], reply
    sim.run(until=sim.now + 60.0)
    assert server.jobs[reply["job_id"]].state.value == "done"


def _runtime_places_a_replica_on_every_worker(sim, kernel, runtime):
    """A six-replica tier whose replicas each take a whole worker is served
    by all six."""
    cpus = kernel.cluster.node("p0c0").spec.cpus
    runtime.deploy(BizAppSpec(name="shop", tiers=(TierSpec("web", 6, cpus=cpus),)))
    sim.run(until=sim.now + 60.0)
    assert runtime.app_status("shop")["tiers"] == {"web": 6}
    assert sim.trace.counter("bizrt.placement_failed") == 0
    assert sorted(r.node for r in runtime.apps["shop"].replicas) == _runtime_workers(kernel)


ENVIRONMENTS = {
    "pws": (lambda kernel: install_pws(
        kernel, [PoolSpec("batch", kernel.cluster.compute_nodes())], partition_id="p0"),
        _pws_runs_a_job_on_every_node),
    "bizrt": (lambda kernel: install_business_runtime(
        kernel, worker_nodes=_runtime_workers(kernel), partition_id="p0"),
        _runtime_places_a_replica_on_every_worker),
}


@pytest.mark.parametrize("env", sorted(ENVIRONMENTS))
def test_a_migrated_user_environment_keeps_its_own_partitions_nodes(env):
    install, check = ENVIRONMENTS[env]
    sim, kernel = _world()
    install(kernel)
    sim.run(until=20.0)
    FaultInjector(kernel.cluster).crash_node("p0s0")
    sim.run(until=80.0)
    assert kernel.placement[(env, "p0")] == "p0b0"
    migrated = kernel.live_daemon(env, "p0b0")
    check(sim, kernel, migrated)
    assert migrated.inventory.missing() == []


def test_a_node_event_before_the_answer_wins_over_it(monkeypatch):
    """The runtime hears a worker fail while its inventory read is still
    unanswered; the answer, which still reads the worker ``up``, gives its
    capacity but does not bring it back."""
    held = []
    real_read = BusinessRuntime.exec_query

    def held_read(self, query, timeout):
        read = real_read(self, query, timeout)
        if query != NODES_QUERY:
            return read
        held.append((read, self.sim.signal(name="held nodes read")))
        return held[-1][1]

    monkeypatch.setattr(BusinessRuntime, "exec_query", held_read)
    sim, kernel = _world()
    runtime = install_business_runtime(kernel, worker_nodes=["p1c0", "p1c1", "p1c2"],
                                       partition_id="p0")
    sim.run(until=sim.now + 2.0)
    ((read, answer),) = held
    assert {row["_key"]: row["state"] for row in read.value["rows"]}["p1c0"] == "up"
    FaultInjector(kernel.cluster).crash_node("p1c0")
    sim.run(until=sim.now + 30.0)
    assert not runtime.inventory.up("p1c0") and not runtime.inventory.known("p1c0")

    answer.fire(read.value)
    sim.run(until=sim.now + 1.0)
    inventory = runtime.inventory
    assert inventory.missing() == [] and len(held) == 1
    assert not inventory.up("p1c0") and inventory.capacity("p1c0") == 4
    assert inventory.up("p1c1") and inventory.free("p1c1") == 4


def _down_at_load_world(install):
    """2 × 2 nodes: ``p1c0`` crashes at 6 s, the environment managing
    ``p1c0`` and ``p1c1`` is installed at 60 s (its metrics row long
    expired, so the load reads it down with no ``cpus``), and ``p1c0``
    reboots, with its per-node kernel services, at 70 s."""
    sim = Simulator(seed=3)
    cluster = Cluster(sim, ClusterSpec.build(partitions=2, computes=2))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=5.0))
    kernel.boot()
    sim.run(until=6.0)
    faults = FaultInjector(cluster)
    faults.crash_node("p1c0")
    sim.run(until=60.0)
    env = install(kernel, ["p1c0", "p1c1"])
    sim.run(until=70.0)
    assert not env.inventory.known("p1c0")
    faults.boot_node("p1c0")
    for svc in ("ppm", "detector", "wd"):
        kernel.start_service(svc, "p1c0")
    sim.run(until=120.0)
    return sim, kernel, env


def _bizrt_places_a_replica_on_each_node(sim, kernel, runtime):
    cpus = kernel.cluster.node("p1c0").spec.cpus
    runtime.deploy(BizAppSpec(name="shop", tiers=(TierSpec("web", 2, cpus=cpus),)))
    sim.run(until=sim.now + 30.0)
    assert runtime.app_status("shop")["tiers"] == {"web": 2}
    assert sim.trace.counter("bizrt.placement_failed") == 0


def _pws_runs_a_job_on_both_nodes(sim, kernel, server):
    reply = drive(sim, kernel.cluster.transport.rpc(
        "p0c0", server.node_id, "pws", "pws.submit",
        {"user": "alice", "nodes": 2, "cpus_per_node": 1, "duration": 30.0, "pool": "batch"},
        timeout=5.0))
    assert reply and reply["ok"], reply
    sim.run(until=sim.now + 5.0)
    assert server.jobs[reply["job_id"]].state.value == "running"


DOWN_AT_LOAD = {
    "bizrt": (lambda kernel, nodes: install_business_runtime(kernel, worker_nodes=nodes),
              _bizrt_places_a_replica_on_each_node),
    "pws": (lambda kernel, nodes: install_pws(kernel, [PoolSpec("batch", nodes)]),
            _pws_runs_a_job_on_both_nodes),
}


@pytest.mark.parametrize("env", sorted(DOWN_AT_LOAD))
def test_a_node_down_at_load_gets_its_capacity_when_it_returns(env):
    """The node's recovery finds no capacity to give back, so the
    environment reads ``nodes`` again and can place work on it."""
    install, check = DOWN_AT_LOAD[env]
    sim, kernel, environment = _down_at_load_world(install)
    assert environment.inventory.known("p1c0") and environment.inventory.up("p1c0")
    check(sim, kernel, environment)
