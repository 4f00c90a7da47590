"""Regression tests for three business-runtime bugs the serving
campaign exposed.

1. A spawn that fails because its node died mid-flight must not refund
   capacity into the dead node's free count (the rebuild at
   NODE_RECOVERY would double-count it), and the orphaned replica must
   be re-placed once capacity returns.
2. ``_down_since`` / ``alerted_down`` must ride the checkpoint: a
   runtime restart mid-outage must neither restart the outage clock nor
   forget that an SLA-violated alert is pending its restore.
3. ``_startup`` must re-subscribe to failure events *before* reconciling
   the registry: a replica killed in the old subscribe-last window
   stayed phantom-healthy forever.
"""

import pytest

from repro.cluster import ClusterSpec, FaultInjector
from repro.kernel import KernelTimings, timings
from repro.sim import Simulator
from repro.userenv.business import BizAppSpec, TierSpec, install_business_runtime
from repro.userenv.construction import ConstructionTool


def _repair_node(kernel, injector, node):
    """Boot a crashed node and restart its per-node kernel services."""
    injector.boot_node(node)
    for svc in ("ppm", "detector", "wd"):
        if not kernel.cluster.hostos(node).process_alive(svc):
            kernel.start_service(svc, node)


def _step_until_records(sim, category, count, max_time):
    """Single-step the simulator until `category` has `count` records,
    so an injection lands exactly at the mark, not some time after."""
    deadline = sim.now + max_time
    while len(sim.trace.records(category)) < count:
        nxt = sim.peek()
        if nxt is None or nxt > deadline:
            raise AssertionError(
                f"{category} did not reach {count} records within {max_time}s")
        sim.step()


def test_failed_spawn_on_dead_node_leaks_no_capacity(monkeypatch):
    """Crash the only worker while a scale-up spawn is in flight: the
    failed spawn must not refund into the dead node, and after recovery
    the free count reconciles exactly and both replicas come back."""
    # Slow app startup so the crash provably lands inside the spawn.
    monkeypatch.setitem(timings.SPAWN_TIMES, "bizapp", 10.0)
    sim = Simulator(seed=11)
    tool = ConstructionTool(sim)
    kernel = tool.build(ClusterSpec.build(partitions=2, computes=2),
                        timings=KernelTimings(heartbeat_interval=5.0))
    sim.run(until=6.0)
    injector = FaultInjector(kernel.cluster)
    worker = "p0c0"
    rt = install_business_runtime(kernel, worker_nodes=[worker], partition_id="p0")
    sim.run(until=sim.now + 2.0)

    rt.deploy(BizAppSpec(name="shop", tiers=(TierSpec("web", 1, cpus=1),)))
    sim.run(until=sim.now + 15.0)  # 10s spawn + rpc
    assert rt.app_status("shop")["tiers"]["web"] == 1
    assert rt.capacity_audit()["drift"] == 0

    rt.scale("shop", "web", 2)     # second spawn now sleeping 10s
    sim.run(until=sim.now + 2.0)
    injector.crash_node(worker)    # dies mid-spawn
    sim.run(until=sim.now + 25.0)  # detection + spawn-rpc timeout settle
    # Both replicas are waiting for capacity; nothing placed anywhere.
    assert all(r.node is None and not r.healthy
               for r in rt.apps["shop"].replicas)

    _repair_node(kernel, injector, worker)
    sim.run(until=sim.now + 30.0)  # NODE_RECOVERY -> retry -> respawn

    status = rt.app_status("shop")
    assert status["serving"] and status["tiers"]["web"] == 2
    audit = rt.capacity_audit()
    assert audit["drift"] == 0, audit
    node_row = audit["nodes"][worker]
    assert node_row["capacity"] == node_row["free"] + node_row["placed"]
    for replica in rt.apps["shop"].replicas:
        assert kernel.cluster.hostos(replica.node).process_alive(
            f"job.{replica.job_id}")


def test_outage_clock_survives_runtime_restart(kernel, sim, injector):
    """An app that is mid-outage when the runtime itself restarts keeps
    its original outage start and its pending SLA alert: downtime spans
    the whole node outage, and the restore transition still fires."""
    rt = install_business_runtime(kernel, worker_nodes=["p1c0"], partition_id="p1")
    sim.run(until=sim.now + 2.0)
    rt.deploy(BizAppSpec(name="solo", tiers=(TierSpec("db", 1, cpus=2),)))
    sim.run(until=sim.now + 3.0)
    assert rt.app_status("solo")["serving"]
    # The deploy ramp (deploy -> first healthy replica) already counts
    # as downtime; baseline it out of the outage arithmetic below.
    base_downtime = rt.apps["solo"].downtime

    injector.crash_node("p1c0")
    sim.run(until=sim.now + 15.0)  # detection -> sla down (checkpointed)
    down_recs = sim.trace.records("bizrt.sla", app="solo")
    assert [r["transition"] for r in down_recs] == ["down"]
    t_down = down_recs[0].time

    # The runtime dies mid-outage; GSD restarts a fresh instance that
    # reloads the registry from its checkpoint.
    injector.kill_process(rt.node_id, "bizrt")
    sim.run(until=sim.now + 12.0)
    fresh = kernel.live_daemon("bizrt", kernel.placement[("bizrt", "p1")])
    assert fresh is not rt and fresh.alive
    state = fresh.apps["solo"]
    assert state._down_since == pytest.approx(t_down)
    assert state.alerted_down

    _repair_node(kernel, injector, "p1c0")
    sim.run(until=sim.now + 30.0)

    recs = sim.trace.records("bizrt.sla", app="solo")
    assert [r["transition"] for r in recs] == ["down", "up"]
    t_up = recs[-1].time
    # Downtime covers the full detection->restore interval, including
    # the stretch where the runtime itself was down; the pre-fix code
    # restarted the clock at reload and swallowed the restore event.
    assert fresh.apps["solo"].downtime == pytest.approx(
        base_downtime + (t_up - t_down))
    assert t_up - t_down > 15.0
    assert not fresh.apps["solo"].alerted_down


def test_replica_killed_during_startup_window_is_healed(kernel, sim, injector):
    """Migrate the runtime across nodes (server-node crash), then kill a
    replica process at the exact instant the registry reload finishes.
    With subscribe-first startup the failure event reaches the new
    instance; the pre-fix subscribe-last ordering delivered it to the
    dead old node and left a phantom-healthy replica forever."""
    workers = ["p1c0", "p1c1", "p1c2"]
    rt = install_business_runtime(kernel, worker_nodes=workers, partition_id="p1")
    sim.run(until=sim.now + 2.0)
    rt.deploy(BizAppSpec(name="shop", tiers=(TierSpec("web", 3, cpus=1),)))
    sim.run(until=sim.now + 3.0)
    marks_before = len(sim.trace.records("bizrt.state_recovered"))

    # Kill the server node: the backup GSD takes the partition over and
    # restarts the service group -- ES (with its checkpointed
    # subscription registry still pointing at the dead node) and bizrt.
    injector.crash_node(rt.node_id)
    _step_until_records(sim, "bizrt.state_recovered", marks_before + 1,
                        max_time=120.0)
    fresh = kernel.live_daemon("bizrt", kernel.placement[("bizrt", "p1")])
    assert fresh is not rt and fresh.node_id != rt.node_id

    # The reload just re-adopted this replica as healthy; kill it now,
    # inside what used to be the reconcile-before-subscribe window.
    victim = next(r for r in fresh.apps["shop"].replicas if r.healthy)
    injector.kill_process(victim.node, f"job.{victim.job_id}")
    sim.run(until=sim.now + 30.0)

    status = fresh.app_status("shop")
    assert status["serving"] and status["tiers"]["web"] == 3
    for replica in fresh.apps["shop"].replicas:
        if replica.healthy:
            assert kernel.cluster.hostos(replica.node).process_alive(
                f"job.{replica.job_id}")
