"""Gray failures: degradation profiles, suspicion, epochs, and fencing.

The regression at the heart of this file: an asymmetric split (the
leader's outbound links dead, inbound alive) followed by a heal must
never yield two leaders at the same epoch, and the stale leader must
reconcile (stand down or rejoin) instead of re-asserting itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.cluster.network import LinkDegradation
from repro.errors import ClusterError
from repro.kernel import KernelTimings, PhoenixKernel
from repro.kernel.group.metagroup import View
from repro.kernel.group.monitor import HeartbeatMonitor
from repro.sim import Simulator


def _leader_claims(kernel):
    claims = []
    for (service, node), daemon in kernel._live.items():
        if service == "gsd" and daemon.alive:
            mg = daemon.metagroup
            if mg.view is not None and mg.is_leader:
                claims.append((node, mg.view.epoch))
    return claims


def _live_gsd(kernel, predicate):
    for (service, node), daemon in kernel._live.items():
        if service == "gsd" and daemon.alive and predicate(node, daemon):
            return daemon
    return None


# -- link degradation primitives ----------------------------------------------
def test_degrade_link_drops_and_marks(sim, kernel, injector):
    cluster = kernel.cluster
    target = cluster.partitions[0].computes[0]
    injector.degrade_link(target, "data", loss=1.0, direction="out", case="t")
    before = sim.trace.counter("net.data.degraded_drops")
    sim.run(until=sim.now + 30.0)
    assert sim.trace.counter("net.data.degraded_drops") > before
    assert any(sim.trace.iter_records("fault.injected", kind="degrade", node=target))
    injector.restore_link(target, "data", case="t")
    assert any(sim.trace.iter_records("fault.repaired", kind="degrade", node=target))
    assert cluster.networks["data"].degradation(target, "out") is None


def test_degradation_profile_validation():
    with pytest.raises(ClusterError):
        LinkDegradation(loss=1.5)
    with pytest.raises(ClusterError):
        LinkDegradation(latency_mult=0.5)
    # Transmit schedules arrivals unchecked: a multiplier must keep them finite.
    for mult in (float("inf"), float("nan")):
        with pytest.raises(ClusterError):
            LinkDegradation(latency_mult=mult)


def test_flap_link_emits_paired_edge_marks(sim, kernel, injector):
    target = kernel.cluster.partitions[0].computes[0]
    injector.flap_link(target, "data", flaps=2, down_time=3.0, up_time=3.0, case="f")
    sim.run(until=sim.now + 20.0)
    downs = list(sim.trace.iter_records("fault.injected", kind="flap", node=target))
    ups = list(sim.trace.iter_records("fault.repaired", kind="flap", node=target))
    assert len(downs) == 2 and len(ups) == 2
    assert kernel.cluster.networks["data"].link_up(target)


def test_repair_marks_on_restores(sim, kernel, injector):
    cluster = kernel.cluster
    target = cluster.partitions[0].computes[0]
    injector.fail_nic(target, "data")
    injector.restore_nic(target, "data")
    assert any(sim.trace.iter_records("fault.repaired", kind="network", node=target))
    injector.crash_node(target)
    injector.boot_node(target)
    assert any(sim.trace.iter_records("fault.repaired", kind="node", node=target))


# -- suspicion-based detection -------------------------------------------------
def test_lossy_link_does_not_cause_failover(sim, injector, kernel):
    """20% one-way loss on a compute's links: NIC-level suspicion may
    fire, but no process/node verdict and no takeover ever happens."""
    cluster = kernel.cluster
    target = cluster.partitions[1].computes[0]
    for net in cluster.networks:
        injector.degrade_link(target, net, loss=0.2, direction="out")
    sim.run(until=sim.now + 20 * kernel.timings.heartbeat_interval)
    full = [
        r for r in sim.trace.iter_records("failure.diagnosed")
        if r.get("kind") in ("process", "node")
    ]
    assert full == []
    assert not any(sim.trace.iter_records("leader.takeover"))
    assert len(_leader_claims(kernel)) == 1


@given(
    threshold=st.integers(min_value=1, max_value=6),
    decay=st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=25, deadline=None)
def test_property_suspicion_decay_never_starves_detection(threshold, decay):
    """Whatever the threshold/decay, a subject that goes fully silent is
    detected within a bounded number of deadline windows: decay only
    applies on *received* beats, so it can never eat a real failure."""
    nets = ["a", "b", "c"]
    interval, grace = 10.0, 0.5
    sim = Simulator(seed=0)
    events = []
    mon = HeartbeatMonitor(
        sim, nets, interval=interval, grace=grace,
        on_nic_miss=lambda s, n: None,
        on_nic_restore=lambda s, n: None,
        on_full_miss=lambda s: events.append(sim.now),
        on_return=lambda s: None,
        suspicion_threshold=float(threshold),
        suspicion_decay=decay,
    )
    mon.expect("n1")
    last_beat = 0.0
    for i in range(1, 4):  # healthy beats, then total silence
        last_beat = i * (interval - 1.0)
        for net in nets:
            sim.schedule_at(last_beat, mon.beat, "n1", net)
    # Each silent window adds len(nets) to the score with zero decay.
    windows = -(-threshold // len(nets))  # ceil
    bound = last_beat + (windows + 1) * (interval + grace)
    sim.run(until=bound + 1.0)
    assert events, "full silence was never detected"
    assert events[0] <= bound


# -- leader epochs and fencing -------------------------------------------------
def test_stale_epoch_view_is_fenced(sim, kernel):
    leader = _live_gsd(kernel, lambda n, d: d.metagroup.is_leader)
    mg = leader.metagroup
    current = mg.view
    stale = View(view_id=current.view_id + 7, members=current.members, epoch=current.epoch - 1)
    assert not mg.install_view(stale)
    assert mg.view is current
    assert any(sim.trace.iter_records("gsd.fenced", target="view", node=mg.me))


def _asym_split(sim, hold):
    """Kill the leader's outbound links for ``hold`` heartbeats, then
    restore them and settle for 12, sampling leadership every second:
    never two live GSDs claiming the same epoch.  Returns the kernel, the
    old leader, its epoch, and its GSD's role just before the heal."""
    cluster = Cluster(sim, ClusterSpec.build(partitions=3, computes=2))
    timings = KernelTimings(heartbeat_interval=5.0, deadline_grace=0.1)
    kernel = PhoenixKernel(cluster, timings=timings)
    kernel.boot()
    sim.run(until=10.0)
    injector = FaultInjector(cluster)
    (leader_node, epoch0), = _leader_claims(kernel)
    old_leader = kernel._live[("gsd", leader_node)].metagroup

    for net in cluster.networks:
        injector.degrade_link(leader_node, net, loss=1.0, direction="out")

    def sample_until(until):
        while sim.now < until:
            sim.run(until=sim.now + 1.0)
            claims = _leader_claims(kernel)
            epochs = [e for _, e in claims]
            assert len(epochs) == len(set(epochs)), f"same-epoch dual leaders: {claims}"

    sample_until(sim.now + hold * timings.heartbeat_interval)
    takeovers = list(sim.trace.iter_records("leader.takeover"))
    assert len(takeovers) == 1
    assert takeovers[0].get("epoch") == epoch0 + 1
    role_at_heal = old_leader.role

    for net in cluster.networks:
        injector.restore_link(leader_node, net)
    sample_until(sim.now + 12 * timings.heartbeat_interval)
    return kernel, leader_node, epoch0, role_at_heal


def test_asym_split_and_heal_no_overlapping_epochs(sim):
    """The tentpole regression: leader's outbound dies, a takeover bumps
    the epoch, the heal reconciles the stale leader — and at no sampled
    instant do two live GSDs claim leadership at the same epoch."""
    kernel, leader_node, epoch0, _ = _asym_split(sim, hold=12)

    # Post-heal: exactly one leader, on the new lineage, and the stale
    # leader reconciled (stood down after its join was refused).
    claims = _leader_claims(kernel)
    assert len(claims) == 1
    assert claims[0][0] != leader_node
    assert claims[0][1] == epoch0 + 1
    assert any(sim.trace.iter_records("gsd.superseded", node=leader_node))
    views = {
        d.metagroup.view.key
        for (svc, _), d in kernel._live.items()
        if svc == "gsd" and d.alive and d.metagroup.view is not None
    }
    assert len(views) == 1


# -- roles: the exits of a stale leader ----------------------------------------
def test_role_stale_leader_steps_down_when_the_new_lineage_reaches_it(sim):
    """stepdown: healed three beats in, before it could lose its quorum,
    the old leader still holds ``leader`` — the newer-epoch view it then
    receives dethrones it (``leader.stepdown``) and, its partition being
    led from the migrated GSD, supersedes it in the same install."""
    kernel, leader_node, _, role_at_heal = _asym_split(sim, hold=3)
    mg = kernel._live[("gsd", leader_node)].metagroup
    assert role_at_heal == "leader"
    assert mg.role == "superseded" and not mg.is_leader
    (stepdown,) = sim.trace.records("leader.stepdown", node=leader_node)
    (superseded,) = sim.trace.records("gsd.superseded", node=leader_node)
    assert stepdown.time == superseded.time
    assert sim.trace.records("quorum.lost", node=leader_node) == []


def test_role_parked_leader_is_superseded_after_regaining_quorum(sim):
    """superseded: held twelve beats, the old leader parked first; the
    quorate view that reaches it after the heal regains its quorum
    (``quorum.regained``) and supersedes it (``gsd.superseded``) — no
    ``leader.stepdown``, since parking had already suspended its claim."""
    kernel, leader_node, _, role_at_heal = _asym_split(sim, hold=12)
    mg = kernel._live[("gsd", leader_node)].metagroup
    assert role_at_heal == "parked"
    assert mg.role == "superseded" and not mg.gsd.alive
    marks = [r.category for r in sim.trace.records()
             if r.get("node") == leader_node
             and r.category in ("quorum.lost", "quorum.regained", "gsd.superseded",
                                "leader.stepdown")]
    assert marks == ["quorum.lost", "quorum.regained", "gsd.superseded"]
