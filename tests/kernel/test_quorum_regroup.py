"""Quorum-gated regroup: tie-breaker, minority refusal, bounded parking.

Covers DESIGN.md §15: the MCS-style census protocol that parks any GSD
whose reachable set drops to half or less of the configured partitions,
the deterministic lowest-partition tie-breaker for exact-half splits,
the minority side's write refusals while parked, and the roles
(DESIGN.md §10) a member passes through on the way out and back.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.kernel import KernelTimings, PhoenixKernel
from repro.kernel.group.metagroup import ROLES
from repro.sim import Simulator

HB = 10.0


def build(seed=5, partitions=4, interval=HB):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, ClusterSpec.build(partitions=partitions, computes=2))
    timings = KernelTimings(heartbeat_interval=interval)
    kernel = PhoenixKernel(cluster, timings=timings)
    kernel.boot()
    return sim, cluster, kernel


def split_all(cluster, injector, side_a, side_b):
    for net in cluster.networks:
        injector.split_network(net, [side_a, side_b])


def heal_all(cluster, injector):
    for net in cluster.networks:
        injector.heal_network(net)


def sides(cluster, minority=("p2", "p3")):
    wanted = set(minority)
    a, b = set(), set()
    for part in cluster.partitions:
        (b if part.partition_id in wanted else a).update(part.all_nodes)
    return a, b


def leader_claims(kernel):
    claims = []
    for (service, node), daemon in kernel._live.items():
        if service != "gsd" or not daemon.alive:
            continue
        mg = daemon.metagroup
        if mg.view is not None and mg.is_leader:
            claims.append((node, mg.view.epoch))
    return claims


def gsd_on(kernel, node):
    return kernel._live.get(("gsd", node))


def split_evenly(hold):
    """Boot, warm up, and hold a 2-vs-2 split (p2, p3 cut off) for
    ``hold`` heartbeats."""
    sim, cluster, kernel = build()
    injector = FaultInjector(cluster)
    sim.run(until=20.001)
    split_all(cluster, injector, *sides(cluster))
    sim.run(until=sim.now + hold * HB)
    return sim, cluster, kernel, injector


# -- quorum rule unit tests ---------------------------------------------------

def test_quorum_met_rule():
    sim, cluster, kernel = build()
    mg = kernel.gsd("p0").metagroup
    assert mg.quorum_met({"p0", "p1", "p2"})          # strict majority
    assert mg.quorum_met({"p1", "p2", "p3"})          # majority without p0
    assert not mg.quorum_met({"p3"})                  # strict minority
    assert mg.quorum_met({"p0", "p1"})                # exact half, tie-break side
    assert not mg.quorum_met({"p2", "p3"})            # exact half, other side
    assert mg.tie_break_partition() == "p0"


def test_quorum_rule_both_halves_never_win():
    """No 2-subset and its complement can both hold quorum."""
    sim, cluster, kernel = build()
    mg = kernel.gsd("p0").metagroup
    parts = {p.partition_id for p in cluster.partitions}
    import itertools

    for k in range(len(parts) + 1):
        for subset in itertools.combinations(sorted(parts), k):
            assert not (mg.quorum_met(subset) and mg.quorum_met(parts - set(subset)))


def test_regroup_periods_follow_heartbeat_interval():
    t = KernelTimings(heartbeat_interval=10.0)
    assert t.regroup_period == pytest.approx(2.5)  # max(2*rpc, hb/4)
    assert t.regroup_heal_period == pytest.approx(10.0)
    assert KernelTimings(heartbeat_interval=4.0).regroup_period == pytest.approx(2.0)


# -- the 2-vs-2 tie-breaker ---------------------------------------------------

def test_even_split_tie_breaker_one_leader():
    """A 2-vs-2 split converges to exactly one leader: the side holding
    the lowest configured partition id evicts the other; the other side
    parks instead of evicting back."""
    sim, cluster, kernel, injector = split_evenly(12)

    # Tie-break side kept its leader and evicted the other side.
    view_a = kernel.gsd("p0").metagroup.view
    assert {part for part, _ in view_a.members} == {"p0", "p1"}
    claims = leader_claims(kernel)
    assert len(claims) == 1 and claims[0][0] == "p0s0"

    # The losing half parked (quorum.lost) — with members still in view:
    # this is failing-*before* semantics, not waiting for an empty view.
    for pid in ("p2", "p3"):
        mg = kernel.gsd(pid).metagroup
        assert mg.parked
        assert not mg.is_leader
        assert len(mg.view.members) >= 2
    parked_nodes = {r["node"] for r in sim.trace.records("quorum.lost")}
    assert {"p2s0", "p3s0"} <= parked_nodes

    # Heal: the parked side rejoins through epoch-fenced reconciliation.
    heal_all(cluster, injector)
    sim.run(until=sim.now + 15 * HB)
    views = {kernel.gsd(p.partition_id).metagroup.view.key for p in cluster.partitions}
    assert len(views) == 1
    assert all(not kernel.gsd(p.partition_id).metagroup.parked for p in cluster.partitions)
    claims = leader_claims(kernel)
    assert len(claims) == 1 and claims[0][0] == "p0s0"
    regained = {r["node"] for r in sim.trace.records("quorum.regained")}
    assert {"p2s0", "p3s0"} <= regained


def test_minority_refuses_writes_while_parked():
    """A parked GSD defers ``gsd.state`` checkpoint commits and bulletin
    exports (marked ``regroup.write_refused``), then flushes on unpark."""
    sim, cluster, kernel, injector = split_evenly(10)
    assert kernel.gsd("p3").metagroup.parked

    # A real state change on the parked side: one of p3's computes dies.
    injector.crash_node("p3c0")
    sim.run(until=sim.now + 6 * HB)
    refusals = [
        r for r in sim.trace.records("regroup.write_refused", kind="node_state")
        if r["node"] == "p3s0" and r.get("subject") == "p3c0"
    ]
    assert refusals, "parked GSD should refuse (defer) the node-state commit"
    assert kernel.gsd("p3").node_state["p3c0"] == "down"  # local belief kept

    # Heal: the deferred state reaches the checkpoint store after unpark.
    heal_all(cluster, injector)
    sim.run(until=sim.now + 15 * HB)
    assert not kernel.gsd("p3").metagroup.parked
    ckpt = kernel._partition_daemon("ckpt", "p3")
    entry = ckpt.store.load("gsd.state.p3")
    assert entry is not None and entry.data["node_state"]["p3c0"] == "down"


@pytest.mark.parametrize("partitions", [4, 2, 1])
def test_cut_off_leader_obeys_the_quorum_rule(partitions):
    """Cut the leader's partition off from every other node; the quorum
    rule alone decides what it does.  With four partitions it is a
    minority: it parks (``quorum.lost``) while its peers are still in its
    view — it never evicts its way down to reigning alone.  With two it
    holds the tie-break and keeps leading, alone, while p1 parks.  A
    one-partition cluster has no quorum to lose: no census ever runs."""
    sim, cluster, kernel = build(partitions=partitions)
    injector = FaultInjector(cluster)
    sim.run(until=20.001)
    everyone = set(cluster.nodes)
    cut = set(cluster.partition("p0").all_nodes) if partitions > 1 else {"p0s0"}
    split_all(cluster, injector, cut, everyone - cut)
    sim.run(until=sim.now + 20 * HB)
    mg = kernel.gsd("p0").metagroup
    assert sim.trace.records("leader.isolated") == []
    if partitions == 4:
        assert sim.trace.records("quorum.lost", node="p0s0")
        assert mg.parked and not mg.is_leader
        assert len(mg.view.members) >= 2  # parked before the view emptied
        return
    assert mg.is_leader and not mg.parked
    assert kernel.placement[("metagroup", "leader")] == "p0s0"
    if partitions == 2:
        assert mg.view.members == (("p0", "p0s0"),)
        assert sim.trace.records("quorum.lost", node="p0s0") == []
        assert kernel.gsd("p1").metagroup.parked
        heal_all(cluster, injector)
        sim.run(until=sim.now + 6 * HB)
        assert len({kernel.gsd(p.partition_id).metagroup.view.key
                    for p in cluster.partitions}) == 1
        assert [node for node, _ in leader_claims(kernel)] == ["p0s0"]
        assert not kernel.gsd("p1").metagroup.parked
        return
    assert sim.trace.records("quorum.lost") == []
    assert sim.trace.records("gsd.regroup") == []
    assert all(kernel.gsd("p0").node_state.get(n) == "down" for n in everyone - cut)
    heal_all(cluster, injector)
    sim.run(until=sim.now + 6 * HB)
    assert all(kernel.gsd("p0").node_state.get(n, "up") == "up" for n in everyone - cut)


# -- roles: the exits of the minority side -------------------------------------

def test_role_parked_member_unparks_on_heal():
    """park → unpark: a cut-off member's role is ``parked`` while the split
    holds and a view member again after the heal, with one
    ``quorum.lost`` / ``quorum.regained`` pair marking the way."""
    sim, cluster, kernel, injector = split_evenly(12)
    mg = kernel.gsd("p3").metagroup
    assert mg.role == "parked" and mg.parked and not mg.is_leader
    heal_all(cluster, injector)
    sim.run(until=sim.now + 15 * HB)
    assert mg.role == "member" and not mg.parked
    assert len(sim.trace.records("quorum.lost", node="p3s0")) == 1
    assert len(sim.trace.records("quorum.regained", node="p3s0")) == 1


def test_role_evicted_member_is_joining_until_readmitted():
    """evicted → joining: the quorate side evicted p2 during the split;
    when its view reaches p2 after the heal, p2 leaves ``parked`` for
    ``joining`` (it is not in that view) and is a member once the leader
    readmits it (``member.joined``)."""
    sim, cluster, kernel, injector = split_evenly(12)
    mg = kernel.gsd("p2").metagroup
    assert mg.role == "parked"
    assert not kernel.gsd("p0").metagroup.view.contains_node("p2s0")
    heal_all(cluster, injector)
    end = sim.now + 15 * HB
    while mg.role != "joining" and sim.now < end:
        sim.step()
    assert mg.role == "joining" and not mg.view.contains_node("p2s0")
    sim.run(until=end)
    assert mg.role == "member" and mg.view.contains_node("p2s0")
    assert sim.trace.records("member.joined", node="p2s0")
    assert {kernel.gsd(p.partition_id).metagroup.role for p in cluster.partitions} <= set(ROLES)


def test_time_to_park_is_bounded():
    """A cut-off member parks within detection + diagnosis + report
    watchdog + one census round — well under six heartbeat intervals."""
    sim, cluster, kernel = build()
    injector = FaultInjector(cluster)
    sim.run(until=20.001)
    t0 = sim.now
    side_a, side_b = sides(cluster)
    split_all(cluster, injector, side_a, side_b)
    sim.run(until=t0 + 6 * HB)
    parks = sim.trace.records("quorum.lost")
    assert parks
    assert all(r.time - t0 <= 6 * HB for r in parks)


def test_regroup_census_spans_and_marks():
    """Census rounds are spanned (``gsd.regroup``) and probe marks carry
    the round id; parks pair with unparks across a heal."""
    sim, cluster, kernel, injector = split_evenly(12)
    heal_all(cluster, injector)
    sim.run(until=sim.now + 15 * HB)
    spans = [r for r in sim.trace.records("gsd.regroup") if r.get("duration") is not None]
    assert spans
    assert all("live" in r.fields and "quorum" in r.fields for r in spans)
    probes = sim.trace.records("regroup.probe")
    assert probes and all(r.get("round") for r in probes)
    lost = sim.trace.records("quorum.lost")
    regained = sim.trace.records("quorum.regained")
    assert len(lost) == len(regained) >= 2


# -- property: no split schedule yields two quorum-side leaders ---------------

@pytest.mark.slow
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    minority=st.sets(st.sampled_from(["p1", "p2", "p3"]), min_size=1, max_size=2),
    include_p0=st.booleans(),
    phase=st.floats(min_value=0.0, max_value=HB),
    hold=st.integers(min_value=8, max_value=14),
)
def test_property_at_most_one_quorum_leader_and_no_minority_writes(
    minority, include_p0, phase, hold
):
    """Any partition-aligned split schedule: at every instant at most one
    non-parked leader claim per epoch, and after the bounded regroup
    window (6 heartbeats) the minority side never gets a leadership
    placement write accepted.

    A minority-side princess may transiently take over (epoch-fenced)
    when she detects the leader's death before discovering the rest of
    the cluster is unreachable — the census then parks her; that is why
    the write window starts at ``t0 + 6*HB`` rather than ``t0``."""
    cut = set(minority) | ({"p0"} if include_p0 and len(minority) < 3 else set())
    sim, cluster, kernel = build(seed=7)
    injector = FaultInjector(cluster)
    sim.run(until=20.001 + phase)

    # The quorum rule decides which side is the minority (tie-break: p0).
    mg = kernel.gsd("p0").metagroup
    minority_parts = cut if not mg.quorum_met(cut) else (
        {p.partition_id for p in cluster.partitions} - cut
    )
    minority_nodes = set()
    for part in cluster.partitions:
        if part.partition_id in minority_parts:
            minority_nodes.update(part.all_nodes)

    placements = []
    orig = kernel.note_placement

    def spy(service, scope, node_id, epoch=None):
        ok = orig(service, scope, node_id, epoch=epoch)
        if ok and (service, scope) == ("metagroup", "leader"):
            placements.append((sim.now, node_id))
        return ok

    kernel.note_placement = spy
    side_a, side_b = sides(cluster, minority=sorted(cut))
    split_all(cluster, injector, side_a, side_b)
    t0 = sim.now
    end = t0 + hold * HB

    def assert_single_leader_per_epoch():
        by_epoch = {}
        for node, epoch in leader_claims(kernel):
            by_epoch.setdefault(epoch, []).append(node)
        for epoch, nodes in by_epoch.items():
            assert len(nodes) == 1, f"epoch {epoch} has leaders {nodes}"

    while sim.now < end:
        sim.run(until=min(sim.now + 0.25 * HB, end))
        assert_single_leader_per_epoch()
    # By the end of the hold every minority-side GSD has parked.
    for pid in sorted(minority_parts):
        mg_min = kernel.gsd(pid).metagroup
        assert mg_min.parked and not mg_min.is_leader
    heal_all(cluster, injector)
    settle = sim.now + 15 * HB
    while sim.now < settle:
        sim.run(until=min(sim.now + 0.25 * HB, settle))
        assert_single_leader_per_epoch()

    violations = [
        (t, n) for t, n in placements
        if t0 + 6 * HB <= t <= end and n in minority_nodes
    ]
    assert violations == []
    assert len(leader_claims(kernel)) == 1
