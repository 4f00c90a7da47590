"""GridView view mode and the torn-read guard across bulletin failovers."""

import math

from repro.kernel import ports
from repro.sim import drive
from repro.userenv.monitoring import (
    CLUSTER_VIEW,
    install_gridview,
    torn_partitions,
)


# -- torn_partitions unit ----------------------------------------------------
def test_torn_partitions_flags_epoch_mismatch():
    a = {"p0": 1, "p1": 2, "p2": 1}
    b = {"p0": 1, "p1": 3, "p2": 1}
    assert torn_partitions(a, b) == ["p1"]
    assert torn_partitions(a, dict(a)) == []
    assert torn_partitions(a, None) == []
    assert torn_partitions({}, a) == []
    # Only partitions present on both sides can disagree.
    assert torn_partitions({"p0": 1}, {"p1": 9}) == []


# -- view mode ---------------------------------------------------------------
def test_view_mode_matches_classic_snapshot(kernel, sim):
    classic = install_gridview(kernel, node_id="p1b0", refresh_interval=5.0)
    viewer = install_gridview(kernel, node_id="p2b0", refresh_interval=5.0, view_mode=True)
    sim.run(until=sim.now + 40.0)
    assert CLUSTER_VIEW in kernel.view_owners
    a, b = classic.latest, viewer.latest
    assert a is not None and b is not None
    assert b.node_count == a.node_count
    assert b.nodes_down == a.nodes_down == 0
    assert b.nodes_reporting == a.nodes_reporting
    assert math.isclose(b.avg_cpu_pct, a.avg_cpu_pct, rel_tol=0.05)
    assert not b.partitions_missing
    view_refreshes = [r for r in sim.trace.iter_records("gridview.refresh")
                      if r.get("view")]
    assert view_refreshes
    # O(groups), not O(nodes): the view refresh ships a handful of rows.
    assert all(r.get("rows") <= 4 for r in view_refreshes)


def test_view_mode_sees_node_failure(kernel, sim, injector):
    viewer = install_gridview(kernel, node_id="p2b0", refresh_interval=5.0, view_mode=True)
    sim.run(until=sim.now + 20.0)
    injector.crash_node("p0c2")
    sim.run(until=sim.now + 40.0)
    snap = viewer.latest
    assert snap.nodes_down == 1
    assert snap.nodes_reporting == snap.node_count - 1


def test_view_mode_survives_owner_failover(kernel, sim, injector):
    viewer = install_gridview(kernel, node_id="p2b0", refresh_interval=5.0, view_mode=True)
    sim.run(until=sim.now + 20.0)
    owner = kernel.view_owners[CLUSTER_VIEW]
    injector.crash_node(kernel.placement[("db", owner)])
    sim.run(until=sim.now + 80.0)
    before = viewer.refreshes
    sim.run(until=sim.now + 20.0)
    assert viewer.refreshes > before  # still refreshing off the rebuilt owner
    assert viewer.latest.time > sim.now - 15.0
    assert not viewer.latest.partitions_missing


# -- torn-read guard (classic mode) ------------------------------------------
def test_classic_refresh_rejects_cross_incarnation_joins(kernel, sim, injector):
    """A bulletin failover between the two classic reads must not fabricate
    a snapshot from two incarnations: watermarks expose the epoch bump."""
    client = kernel.client("p0c0")
    metrics = drive(sim, client.query_bulletin("node_metrics", partition="p0"))
    assert metrics["watermarks"]["p1"] >= 1
    injector.crash_node(kernel.placement[("db", "p1")])
    sim.run(until=sim.now + 60.0)  # detection + takeover on p1
    state = drive(sim, client.query_bulletin("node_state", partition="p0"))
    assert torn_partitions(metrics["watermarks"], state["watermarks"]) == ["p1"]
    # Two fresh reads from the new incarnation agree again.
    fresh = drive(sim, client.query_bulletin("node_metrics", partition="p0"))
    assert torn_partitions(fresh["watermarks"], state["watermarks"]) == []


def test_classic_gridview_keeps_consistent_snapshots_across_failover(kernel, sim, injector):
    gv = install_gridview(kernel, node_id="p2b0", refresh_interval=1.0)
    sim.run(until=sim.now + 10.0)
    injector.crash_node(kernel.placement[("db", "p1")])
    sim.run(until=sim.now + 80.0)
    # Refreshes resumed after the failover and every published snapshot
    # came from a single bulletin incarnation (the guard retried or
    # dropped the torn ones; it never joined across epochs).
    assert gv.latest is not None and gv.latest.time > sim.now - 10.0
    torn_marks = sim.trace.records("gridview.torn_read")
    assert gv.torn_reads == len(torn_marks)
    assert gv.refreshes > 20
