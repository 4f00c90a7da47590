"""Integration tests for the Tables 1–3 fault-tolerance mechanics.

Uses a short heartbeat interval (5 s) so the suite stays fast; the
paper-interval (30 s) latencies are covered by the benchmark harness.
"""

import pytest

from repro.cluster import FaultInjector


@pytest.fixture()
def rig(fast_kernel, sim):
    injector = FaultInjector(fast_kernel.cluster)
    sim.run(until=10.001)  # just past the t=10 heartbeat round
    return fast_kernel, sim, injector


def marks(sim, category, component, t0):
    return [r for r in sim.trace.records(category, component=component) if r.time > t0]


# -- Table 1: watch daemon --------------------------------------------------


def test_wd_process_failure_detected_diagnosed_restarted(rig):
    kernel, sim, injector = rig
    t0 = sim.now
    injector.kill_process("p1c0", "wd")
    sim.run(until=t0 + 20.0)
    det = marks(sim, "failure.detected", "wd", t0)
    diag = marks(sim, "failure.diagnosed", "wd", t0)
    rec = marks(sim, "failure.recovered", "wd", t0)
    assert det and diag and rec
    assert det[0]["node"] == "p1c0"
    assert diag[0]["kind"] == "process"
    # Detection ~ one heartbeat interval; diagnosis ~ one probe window;
    # recovery ~ WD spawn time.
    assert det[0].time - t0 == pytest.approx(5.1, abs=0.3)
    assert diag[0].time - det[0].time == pytest.approx(0.29, abs=0.02)
    assert rec[0].time - diag[0].time == pytest.approx(0.1, abs=0.05)
    # The WD is actually running again and resumes beating.
    assert kernel.cluster.hostos("p1c0").process_alive("wd")
    beats_before = sim.trace.counter("wd.beats")
    sim.run(until=sim.now + 6.0)
    assert sim.trace.counter("wd.beats") > beats_before


def test_failed_wd_restart_rearms_the_monitor(rig):
    """A WD whose restart fails (its node's PPM died with it) is watched
    again, as an ALIVE verdict would be: each later silence is diagnosed
    afresh, so the node's crash a minute on is still marked down."""
    kernel, sim, injector = rig
    t0 = sim.now
    injector.kill_process("p1c0", "ppm")
    injector.kill_process("p1c0", "wd")
    sim.run(until=t0 + 10.0)
    failed = marks(sim, "recovery.failed", "wd", t0)
    assert failed and failed[0]["node"] == "p1c0"
    assert not kernel.cluster.hostos("p1c0").process_alive("wd")
    sim.run(until=t0 + 60.0)
    assert len(marks(sim, "failure.detected", "wd", t0)) > 1
    t1 = sim.now
    injector.crash_node("p1c0")
    sim.run(until=t1 + 30.0)
    assert [r["kind"] for r in marks(sim, "failure.diagnosed", "wd", t1)] == ["node"]
    assert kernel.gsd("p1").node_state["p1c0"] == "down"


def test_wd_node_failure_recovery_is_zero(rig):
    kernel, sim, injector = rig
    t0 = sim.now
    injector.crash_node("p1c0")
    sim.run(until=t0 + 20.0)
    diag = marks(sim, "failure.diagnosed", "wd", t0)
    rec = marks(sim, "failure.recovered", "wd", t0)
    assert diag[0]["kind"] == "node"
    # ~7 probe windows for compute-node confirmation.
    det = marks(sim, "failure.detected", "wd", t0)
    assert diag[0].time - det[0].time == pytest.approx(0.29 * 7, abs=0.05)
    # "migrating WD means nothing": recovery is immediate.
    assert rec[0].time == diag[0].time
    assert kernel.gsd("p1").node_state["p1c0"] == "down"


def test_wd_nic_failure_diagnosed_in_microseconds(rig):
    kernel, sim, injector = rig
    t0 = sim.now
    injector.fail_nic("p1c0", "data")
    sim.run(until=t0 + 10.0)
    det = marks(sim, "failure.detected", "wd", t0)
    diag = marks(sim, "failure.diagnosed", "wd", t0)
    rec = marks(sim, "failure.recovered", "wd", t0)
    assert det[0]["network"] == "data"
    assert diag[0]["kind"] == "network"
    assert diag[0].time - det[0].time == pytest.approx(348e-6, rel=0.01)
    assert rec[0].time == diag[0].time  # three redundant networks


def test_wd_nic_restore_publishes_recovery(rig):
    kernel, sim, injector = rig
    injector.fail_nic("p1c0", "data")
    sim.run(until=sim.now + 10.0)
    injector.restore_nic("p1c0", "data")
    sim.run(until=sim.now + 10.0)
    assert sim.trace.records("network.restored", component="wd", node="p1c0")


def test_node_reboot_detected_as_recovery(rig):
    kernel, sim, injector = rig
    injector.crash_node("p1c0")
    sim.run(until=sim.now + 20.0)
    assert kernel.gsd("p1").node_state["p1c0"] == "down"
    # Boot the node and restart its daemons (construction-tool style).
    injector.boot_node("p1c0")
    for svc in ("ppm", "detector", "wd"):
        kernel.start_service(svc, "p1c0")
    sim.run(until=sim.now + 12.0)
    assert kernel.gsd("p1").node_state["p1c0"] == "up"
    assert sim.trace.records("node.returned", node="p1c0")


# -- Table 2: group service daemon ------------------------------------------


def test_gsd_process_failure_restarted_in_place(rig):
    kernel, sim, injector = rig
    t0 = sim.now
    injector.kill_process("p1s0", "gsd")
    sim.run(until=t0 + 30.0)
    det = marks(sim, "failure.detected", "gsd", t0)
    diag = marks(sim, "failure.diagnosed", "gsd", t0)
    rec = marks(sim, "failure.recovered", "gsd", t0)
    assert det[0]["by"] == "p2s0"  # ring successor monitors p1s0
    assert diag[0]["kind"] == "process"
    assert diag[0].time - det[0].time == pytest.approx(0.29, abs=0.02)
    assert rec[0].time - diag[0].time == pytest.approx(2.0, abs=0.1)
    assert kernel.gsd("p1").alive
    assert kernel.placement[("gsd", "p1")] == "p1s0"


def test_gsd_restart_rejoins_ring(rig):
    kernel, sim, injector = rig
    injector.kill_process("p1s0", "gsd")
    sim.run(until=sim.now + 40.0)
    view = kernel.gsd("p0").metagroup.view
    assert ("p1", "p1s0") in view.members
    assert kernel.gsd("p1").metagroup.view.view_id == view.view_id


def test_gsd_node_failure_migrates_to_backup(rig):
    kernel, sim, injector = rig
    t0 = sim.now
    injector.crash_node("p1s0")
    sim.run(until=t0 + 40.0)
    diag = marks(sim, "failure.diagnosed", "gsd", t0)
    rec = marks(sim, "failure.recovered", "gsd", t0)
    assert diag[0]["kind"] == "node"
    assert diag[0].time - marks(sim, "failure.detected", "gsd", t0)[0].time == pytest.approx(
        0.3, abs=0.02)
    assert rec[0]["dst"] == "p1b0"
    assert rec[0].time - diag[0].time == pytest.approx(2.9, abs=0.1)
    assert kernel.placement[("gsd", "p1")] == "p1b0"
    # The whole service group followed (Figure 4 / §4.4).
    for svc in ("es", "db", "ckpt"):
        assert kernel.placement[(svc, "p1")] == "p1b0"
        assert kernel._partition_daemon(svc, "p1").alive
    # Membership reflects the new host.
    view = kernel.gsd("p0").metagroup.view
    assert ("p1", "p1b0") in view.members
    assert not any(n == "p1s0" for _, n in view.members)


def test_gsd_nic_failure_diagnosed_by_ring(rig):
    kernel, sim, injector = rig
    t0 = sim.now
    injector.fail_nic("p1s0", "ipc")
    sim.run(until=t0 + 10.0)
    diag = [r for r in marks(sim, "failure.diagnosed", "gsd", t0) if r.get("network") == "ipc"]
    assert diag and diag[0]["kind"] == "network"
    rec = [r for r in marks(sim, "failure.recovered", "gsd", t0) if r.get("network") == "ipc"]
    assert rec[0].time == diag[0].time


# -- Figure 3: leader / princess takeover ------------------------------------


def test_leader_failure_princess_takes_over(rig):
    kernel, sim, injector = rig
    assert kernel.placement[("metagroup", "leader")] == "p0s0"
    injector.crash_node("p0s0")
    sim.run(until=sim.now + 40.0)
    assert kernel.placement[("metagroup", "leader")] == "p1s0"
    assert kernel.gsd("p1").metagroup.is_leader
    takeovers = sim.trace.records("leader.takeover")
    assert takeovers and takeovers[0]["new"] == "p1s0"
    # p0's GSD migrated to its backup and rejoined as an ordinary member.
    view = kernel.gsd("p1").metagroup.view
    assert view.members[0] == ("p1", "p1s0")
    assert ("p0", "p0b0") in view.members


def test_princess_failure_next_member_becomes_princess(rig):
    kernel, sim, injector = rig
    injector.crash_node("p1s0")  # princess's node
    sim.run(until=sim.now + 40.0)
    view = kernel.gsd("p0").metagroup.view
    assert view.members[0] == ("p0", "p0s0")  # leader unchanged
    assert view.members[1] == ("p2", "p2s0")  # next member is the new princess
    assert kernel.gsd("p2").metagroup.is_princess


def test_views_stay_consistent_across_members(rig):
    kernel, sim, injector = rig
    injector.crash_node("p1s0")
    sim.run(until=sim.now + 60.0)
    view_ids = {
        kernel.gsd(p.partition_id).metagroup.view.view_id
        for p in kernel.cluster.partitions
    }
    assert len(view_ids) == 1


# -- Table 3 / Figure 4: event service group ---------------------------------


def test_es_process_failure_local_restart_with_state(rig):
    kernel, sim, injector = rig
    t0 = sim.now
    injector.kill_process("p1s0", "es")
    sim.run(until=t0 + 15.0)
    det = marks(sim, "failure.detected", "es", t0)
    diag = marks(sim, "failure.diagnosed", "es", t0)
    rec = marks(sim, "failure.recovered", "es", t0)
    assert diag[0]["kind"] == "process"
    assert diag[0].time - det[0].time == pytest.approx(12e-6, rel=0.01)
    assert rec[0].time - diag[0].time == pytest.approx(0.115, abs=0.02)
    assert kernel.es("p1").alive


def test_db_and_ckpt_also_supervised_locally(rig):
    kernel, sim, injector = rig
    t0 = sim.now
    injector.kill_process("p1s0", "db")
    injector.kill_process("p1s0", "ckpt")
    sim.run(until=t0 + 15.0)
    assert marks(sim, "failure.recovered", "db", t0)
    assert marks(sim, "failure.recovered", "ckpt", t0)
    assert kernel.bulletin("p1").alive
    assert kernel.checkpoint("p1").alive


def test_es_node_failure_migrates_with_gsd(rig):
    kernel, sim, injector = rig
    t0 = sim.now
    injector.crash_node("p1s0")
    sim.run(until=t0 + 40.0)
    rec = marks(sim, "failure.recovered", "es", t0)
    assert rec and rec[0]["kind"] == "node" and rec[0]["dst"] == "p1b0"
    assert kernel.placement[("es", "p1")] == "p1b0"


def test_es_local_nic_check(rig):
    kernel, sim, injector = rig
    t0 = sim.now
    injector.fail_nic("p1s0", "mgmt")
    sim.run(until=t0 + 10.0)
    diag = [r for r in marks(sim, "failure.diagnosed", "es", t0) if r.get("network") == "mgmt"]
    assert diag and diag[0]["kind"] == "network"


# -- one failover path, six entry points ---------------------------------------


@pytest.mark.parametrize("inject, target, component, verdict", [
    ("fail_nic", ("p1c0", "data"), "wd", "network"),
    ("kill_process", ("p1c0", "wd"), "wd", "process"),
    ("fail_nic", ("p1s0", "ipc"), "gsd", "network"),
    ("kill_process", ("p1s0", "gsd"), "gsd", "process"),
    ("kill_process", ("p1s0", "es"), "es", "process"),
    ("fail_nic", ("p1s0", "mgmt"), "es", "network"),
], ids=["wd-nic", "wd-full-miss", "ring-nic", "ring-full-miss", "local-service", "local-nic"])
def test_every_failover_is_one_span_tree(rig, inject, target, component, verdict):
    """WD, ring and local tiers run one path: a closed ``gsd.failover``
    root, a closed ``gsd.diagnose`` child carrying the verdict, and the
    detected / diagnosed / recovered marks correlated to the root."""
    kernel, sim, injector = rig
    t0 = sim.now
    getattr(injector, inject)(*target)
    sim.run(until=t0 + 20.0)
    node = target[0]
    roots = [r for r in sim.trace.records("gsd.failover", component=component, node=node)
             if r["start"] > t0]
    assert roots, f"no closed gsd.failover root for {component}@{node}"
    root = roots[0]
    assert root.closed and root["ok"] is True
    diag = [r for r in sim.trace.records("gsd.diagnose") if r["parent_id"] == root.span_id]
    assert [r["kind"] for r in diag] == [verdict] and diag[0].closed
    for category in ("failure.detected", "failure.diagnosed", "failure.recovered"):
        assert [r["span_id"] for r in marks(sim, category, component, t0)
                if r["node"] == node][:1] == [root.span_id], category
