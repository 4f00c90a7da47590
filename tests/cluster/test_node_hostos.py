"""Unit tests for nodes and the per-node host OS."""

import pytest

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.cluster.hostos import HostOS
from repro.errors import ClusterError, NodeDown
from repro.kernel import PhoenixKernel
from repro.sim import Simulator


def test_node_starts_up_with_free_cpus(cluster):
    node = cluster.node("p0c0")
    assert node.up
    assert node.free_cpus == 4
    assert node.partition_id == "p0"


def test_cpu_allocation_and_release(cluster):
    node = cluster.node("p0c0")
    node.allocate_cpus(3)
    assert node.busy_cpus == 3
    assert node.free_cpus == 1
    node.release_cpus(2)
    assert node.busy_cpus == 1


def test_cpu_oversubscription_rejected(cluster):
    node = cluster.node("p0c0")
    with pytest.raises(ClusterError):
        node.allocate_cpus(5)
    node.allocate_cpus(4)
    with pytest.raises(ClusterError):
        node.allocate_cpus(1)


def test_release_more_than_busy_rejected(cluster):
    node = cluster.node("p0c0")
    with pytest.raises(ClusterError):
        node.release_cpus(1)


def test_allocate_on_down_node_rejected(cluster):
    node = cluster.node("p0c0")
    node.crash()
    with pytest.raises(NodeDown):
        node.allocate_cpus(1)


def test_crash_clears_busy_cpus_and_boot_restores(cluster):
    node = cluster.node("p0c0")
    node.allocate_cpus(2)
    node.crash()
    assert not node.up
    assert node.busy_cpus == 0
    node.boot()
    assert node.up
    assert node.boot_count == 2


def test_crash_and_boot_idempotent(cluster):
    node = cluster.node("p0c0")
    node.boot()  # already up: no-op
    assert node.boot_count == 1
    node.crash()
    node.crash()
    assert node.boot_count == 1


def test_hostos_process_lifecycle(cluster, sim):
    hostos = cluster.hostos("p0c0")
    hp = hostos.start_process("wd")
    assert hostos.process_alive("wd")
    assert hostos.running() == ["wd"]

    beats = []

    def loop():
        while True:
            yield 1.0
            beats.append(sim.now)

    hp.adopt(loop())
    sim.run(until=3.0)
    assert beats == [1.0, 2.0, 3.0]
    hostos.kill_process("wd")
    sim.run(until=6.0)
    assert beats == [1.0, 2.0, 3.0]
    assert not hostos.process_alive("wd")


def test_hostos_rejects_duplicate_live_process(cluster):
    hostos = cluster.hostos("p0c0")
    hostos.start_process("wd")
    with pytest.raises(ClusterError, match="already running"):
        hostos.start_process("wd")


def test_hostos_allows_restart_after_death(cluster):
    hostos = cluster.hostos("p0c0")
    hostos.start_process("wd")
    hostos.kill_process("wd")
    hp2 = hostos.start_process("wd")
    assert hp2.alive


def test_hostos_kill_unknown_process_raises(cluster):
    with pytest.raises(ClusterError):
        cluster.hostos("p0c0").kill_process("ghost")


def test_node_crash_kills_all_processes(cluster, sim):
    hostos = cluster.hostos("p0c0")
    ticks = []

    def loop(tag):
        while True:
            yield 1.0
            ticks.append(tag)

    hostos.start_process("a").adopt(loop("a"))
    hostos.start_process("b").adopt(loop("b"))
    sim.run(until=1.0)
    assert sorted(ticks) == ["a", "b"]
    cluster.node("p0c0").crash()
    sim.run(until=5.0)
    assert sorted(ticks) == ["a", "b"]
    assert hostos.running() == []


def test_start_process_on_down_node_rejected(cluster):
    cluster.node("p0c0").crash()
    with pytest.raises(ClusterError, match="down"):
        cluster.hostos("p0c0").start_process("wd")


def test_on_kill_hooks_run_once(cluster):
    hostos = cluster.hostos("p0c0")
    hp = hostos.start_process("svc")
    calls = []
    hp.on_kill(lambda: calls.append(1))
    hp.kill()
    hp.kill()
    assert calls == [1]


def test_adopt_on_dead_process_rejected(cluster):
    hostos = cluster.hostos("p0c0")
    hp = hostos.start_process("svc")
    hp.kill()

    def loop():
        yield 1

    with pytest.raises(ClusterError, match="dead"):
        hp.adopt(loop())


def test_hostos_stable_store_roundtrip_is_isolated():
    sim = Simulator(seed=1)
    cluster = Cluster(sim, ClusterSpec.build(partitions=1, computes=1))
    host = cluster.hostos("p0c0")
    assert isinstance(host, HostOS)
    payload = {"inner": [1, 2]}
    host.stable_write("slot", payload)
    payload["inner"].append(3)  # caller's copy mutating must not leak in
    first = host.stable_read("slot")
    assert first == {"inner": [1, 2]}
    first["inner"].append(4)  # nor the reader's copy leak back
    assert host.stable_read("slot") == {"inner": [1, 2]}
    host.stable_delete("slot")
    assert host.stable_read("slot", default="gone") == "gone"


def test_stable_store_survives_node_crash_and_boot():
    sim = Simulator(seed=1)
    cluster = Cluster(sim, ClusterSpec.build(partitions=2, computes=2))
    kernel = PhoenixKernel(cluster)
    kernel.boot()
    sim.run(until=5.0)
    cluster.hostos("p0c0").stable_write("marker", {"epoch": 7})
    injector = FaultInjector(cluster)
    injector.crash_node("p0c0")
    sim.run(until=sim.now + 5.0)
    injector.boot_node("p0c0")
    sim.run(until=sim.now + 5.0)
    assert cluster.hostos("p0c0").stable_read("marker") == {"epoch": 7}
