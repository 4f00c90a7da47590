"""Long-haul stability: hours of virtual time, bounded memory, no drift."""

import pytest

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.kernel import KernelTimings, PhoenixKernel
from repro.sim import Simulator
from repro.userenv.monitoring import install_gridview


def test_two_virtual_hours_with_periodic_faults():
    """The paper testbed runs 2 h of virtual time with a fault every ~7
    minutes; the kernel stays healthy, trace memory stays bounded, and
    background traffic stays flat (no leak-like growth)."""
    sim = Simulator(seed=6, trace_capacity=300)
    cluster = Cluster(sim, ClusterSpec.build(partitions=4, computes=4))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=30.0))
    kernel.boot()
    gv = install_gridview(kernel, refresh_interval=60.0)
    injector = FaultInjector(cluster)

    # One WD kill + one NIC flap every ~420 s, rotating targets.
    computes = cluster.compute_nodes()
    for i, at in enumerate(range(400, 7000, 420)):
        node = computes[i % len(computes)]
        injector.at(float(at), "kill_process", node, "wd")
        injector.at(float(at + 60), "fail_nic", node, "data")
        injector.at(float(at + 200), "restore_nic", node, "data")

    # First hour: record the traffic rate.
    sim.run(until=3600.0)
    msgs_h1 = sum(sim.trace.counter(f"net.{n}.msgs") for n in cluster.networks)
    sim.run(until=7200.0)
    msgs_h2 = sum(sim.trace.counter(f"net.{n}.msgs") for n in cluster.networks) - msgs_h1

    # Memory bounded by the trace capacity (which genuinely wrapped).
    assert len(sim.trace) <= 300
    assert sim.trace.total_marked > 300

    # Traffic flat hour over hour (±10%): nothing leaks or retries forever.
    assert abs(msgs_h2 - msgs_h1) < 0.1 * msgs_h1

    # Every injected fault healed: all WDs alive, all NICs up.
    for node in cluster.nodes:
        assert cluster.hostos(node).process_alive("wd"), node
        assert cluster.networks["data"].link_up(node), node

    # Monitoring stayed live to the end.
    assert gv.latest is not None
    assert gv.latest.time > 7000.0
    assert gv.latest.nodes_reporting == cluster.size

    # Meta-group untouched by the compute-side churn.
    view = kernel.gsd("p0").metagroup.view
    assert view.view_id == 1
    assert kernel.gsd("p0").metagroup.is_leader


@pytest.mark.slow
def test_simulated_week_of_rotating_chaos():
    """A simulated *week* of chaos, executed event by event.

    One world runs an hour of boundary-injected faults and then seven
    days of rotating chaos — process kills, crash/reboot cycles, NIC
    flaps, gray degradation.  At the end every fault has healed, trace
    memory is bounded, and the beat/export books match a week of
    healthy uptime.
    """
    WEEK = 604800.0

    sim = Simulator(seed=7, trace_capacity=256)
    cluster = Cluster(sim, ClusterSpec.build(partitions=2, computes=3))
    kernel = PhoenixKernel(
        cluster,
        timings=KernelTimings(heartbeat_interval=60.0, detector_interval=30.0),
    )
    kernel.boot()
    inj = FaultInjector(cluster)
    computes = cluster.compute_nodes()

    first_hour = [
        (600.5, lambda: inj.kill_process(computes[0], "wd")),
        (1200.3, lambda: inj.fail_nic(computes[1], "data")),
        (1800.7, lambda: inj.restore_nic(computes[1], "data")),
        (2400.2, lambda: inj.degrade_link(computes[2], "mgmt", loss=0.25, latency_mult=4.0)),
        (3000.9, lambda: inj.restore_link(computes[2], "mgmt")),
    ]
    for when, action in first_hour:
        sim.run(until=when)
        action()
    sim.run(until=3600.0)

    # Chaos rotates an 8-phase diet over the compute nodes, injected at
    # window boundaries; the final two hours stay quiet so every fault
    # heals before the end-state audit.
    def chaos_step(i):
        node = computes[(i // 8) % len(computes)]
        phase = i % 8
        if phase == 0:
            if cluster.node(node).up and cluster.hostos(node).process_alive("detector"):
                inj.kill_process(node, "detector")
        elif phase == 1:
            if cluster.node(node).up:
                inj.crash_node(node)
        elif phase == 2:
            if not cluster.node(node).up:
                # Reboot and restart the node-local daemons, construction-
                # tool style (node death is recovery-0 for the WD: nobody
                # migrates or remotely restarts a dead node's daemons).
                inj.boot_node(node)
                for svc in ("ppm", "detector", "wd"):
                    kernel.start_service(svc, node)
        elif phase == 3:
            if cluster.networks["data"].link_up(node):
                inj.fail_nic(node, "data")
        elif phase == 4:
            if not cluster.networks["data"].link_up(node):
                inj.restore_nic(node, "data")
        elif phase == 5:
            inj.degrade_link(node, "ipc", loss=0.2, latency_mult=3.0, direction="out")
        elif phase == 6:
            inj.restore_link(node, "ipc")
        # phase 7: rest window — pure steady state.

    i = 0
    while sim.now < WEEK:
        sim.run(until=min(sim.now + 1800.5, WEEK))
        if sim.now < WEEK - 7200.0:
            chaos_step(i)
            i += 1
    assert sim.now == WEEK

    # Beats and exports land near their healthy-uptime budgets (10 nodes,
    # minus GSD-host beats and crash downtime).
    assert sim.trace.counter("wd.beats") > 60_000
    assert sim.trace.counter("detector.exports") > 150_000

    # Every fault healed: nodes up, daemons alive, NICs restored.
    for node in cluster.nodes:
        assert cluster.node(node).up, node
        assert cluster.hostos(node).process_alive("wd"), node
        assert cluster.networks["data"].link_up(node), node

    # Trace memory stayed bounded across the week.
    assert len(sim.trace) <= 256
