"""The event path frees what it drops by reference counting alone.

``Simulator.run`` pauses the cyclic garbage collector, which is only
sound if nothing the loop drops sits in a reference cycle: a finished
RPC, a finished process, a dead daemon.  One world crosses the features
that create and drop such objects; it runs with the collector off and must
leave nothing for a collection to find, and no host process may keep a
process that has ended.
"""

import gc
from collections import Counter

import pytest

from repro.cluster import ClusterSpec, FaultInjector
from repro.kernel import KernelTimings
from repro.kernel.bulletin.query import Agg, Query
from repro.sim import Simulator, drive
from repro.userenv.business import (
    ArrivalProfile,
    BizAppSpec,
    RequestClass,
    TierSpec,
    TrafficGenerator,
    install_business_runtime,
)
from repro.userenv.construction import ConstructionTool
from repro.userenv.monitoring import install_gridview


def _crossed_world():
    """GridView, a registered view, a business runtime serving traffic
    while it loses a worker and then losing itself, a bulletin process
    kill, a server node crash and boot, a split and its heal, on lossy
    fabrics."""
    sim = Simulator(seed=3)
    tool = ConstructionTool(sim)
    kernel = tool.build(ClusterSpec.build(partitions=3, computes=3, loss_rate=0.01),
                        timings=KernelTimings(heartbeat_interval=5.0))
    cluster = kernel.cluster
    injector = FaultInjector(cluster)
    sim.run(until=6.0)
    install_gridview(kernel, refresh_interval=5.0)
    client = kernel.client(cluster.partitions[0].server)
    by_state = Query(table="nodes", group_by=("state",), aggs=(Agg("count", "*", "n"),))
    reply = drive(sim, client.register_view("t.nodes", by_state, partition="p1"), max_time=60.0)
    assert reply and reply.get("ok"), reply
    runtime = install_business_runtime(kernel, partition_id="p1")
    sim.run(until=sim.now + 2.0)
    runtime.deploy(BizAppSpec(name="shop", tiers=(TierSpec("web", 3, cpus=1),)))
    sim.run(until=sim.now + 5.0)
    # Traffic through the worker kill, on a tier small enough to queue and
    # reject, every request traced: calls parked, woken, lost and served.
    traffic = TrafficGenerator(
        runtime, "shop", [RequestClass(name="get", service_times={"web": 0.02})],
        profile=ArrivalProfile("poisson", rate=300.0), queue_cap=8, slots_per_replica=2,
        span_sample=1)
    traffic.start(duration=8.0)
    sim.run(until=sim.now + 1.0)
    worker = runtime.apps["shop"].replicas[0]
    injector.kill_process(worker.node, f"job.{worker.job_id}")
    sim.run(until=sim.now + 10.0)
    assert traffic.done and traffic.inflight == 0
    summary = traffic.class_summary()["get"]
    assert summary["rejected"] and summary["failed"] and summary["completed"], summary
    injector.kill_process(runtime.node_id, "bizrt")
    sim.run(until=sim.now + 15.0)
    injector.kill_process(kernel.placement[("db", "p0")], "db")
    sim.run(until=sim.now + 20.0)
    injector.crash_node("p2s0")
    sim.run(until=sim.now + 30.0)
    tool.recover_node("p2s0")
    sim.run(until=sim.now + 20.0)
    cut = {n for n in cluster.nodes if n.startswith("p2")}
    for network in cluster.networks:
        injector.split_network(network, [cut, set(cluster.nodes) - cut])
    sim.run(until=sim.now + 40.0)
    for network in cluster.networks:
        injector.heal_network(network)
    sim.run(until=sim.now + 40.0)
    return kernel, traffic


def _describe(garbage):
    """The most common unreachable objects, by type and code name."""
    kinds = Counter()
    for obj in garbage:
        name = type(obj).__name__
        code = getattr(obj, "__code__", None) or getattr(obj, "gi_code", None)
        if code is not None:
            name += f" {code.co_qualname}"
        elif hasattr(obj, "__func__"):
            name += f" {obj.__func__.__qualname__}"
        kinds[name] += 1
    return "\n".join(f"{n:8d} {kind}" for kind, n in kinds.most_common(25))


@pytest.fixture(scope="module")
def crossed_run():
    """The world, kept referenced, and what a collection found after it
    ran with the collector off from boot on."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        # The traffic generator stays held, as its caller holds it (its
        # queues' backpressure callbacks point back at it), but not the
        # runtime it served through: that daemon was killed and replaced,
        # and like every dead daemon it must go by reference counting.
        kernel, traffic = _crossed_world()
        traffic.runtime = None
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            unreachable = gc.collect()
            garbage = list(gc.garbage)
            gc.garbage.clear()
        finally:
            gc.set_debug(0)
    finally:
        if was_enabled:
            gc.enable()
    return kernel, unreachable, garbage


def test_the_event_path_leaves_no_reference_cycles(crossed_run):
    _, unreachable, garbage = crossed_run
    assert unreachable == 0, f"{unreachable} unreachable objects:\n{_describe(garbage)}"


def test_host_processes_hold_only_running_procs(crossed_run):
    kernel = crossed_run[0]
    held = ended = 0
    for node_id in kernel.cluster.nodes:
        for hp in kernel.cluster.hostos(node_id)._table.values():
            held += len(hp._procs)
            ended += sum(not proc.alive for proc in hp._procs)
    assert held > 0
    assert ended == 0, f"{ended} of {held} held procs have ended"
