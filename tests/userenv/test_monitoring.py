"""GridView monitoring: refreshes, events, rendering, failure tolerance."""

import pytest

from repro.kernel import ports
from repro.sim import drive
from repro.userenv.monitoring import install_gridview, render_events, render_snapshot
from tests.kernel.test_exec_whole_partitions import divert_probes


@pytest.fixture()
def gridview(kernel, sim):
    gv = install_gridview(kernel, refresh_interval=10.0)
    sim.run(until=sim.now + 12.0)  # at least one refresh
    return gv


def test_refresh_collects_every_node(kernel, sim, gridview):
    snap = gridview.latest
    assert snap is not None
    assert snap.node_count == kernel.cluster.size
    assert snap.nodes_reporting == kernel.cluster.size
    assert snap.partitions_missing == []
    assert set(snap.per_node) == set(kernel.cluster.nodes)


def test_averages_match_common_load_profile(kernel, sim, gridview):
    """Figure 6's banner: ~5.5% CPU, ~18.6% mem, <1% swap under common load."""
    sim.run(until=sim.now + 60.0)
    snap = gridview.latest
    assert 2.0 < snap.avg_cpu_pct < 10.0
    assert 15.0 < snap.avg_mem_pct < 23.0
    assert 0.0 <= snap.avg_swap_pct < 2.0


def test_refresh_marks_latency(kernel, sim, gridview):
    marks = sim.trace.records("gridview.refresh")
    assert marks
    assert all(m["rows"] == kernel.cluster.size for m in marks)
    assert all(0 < m["latency"] < 1.0 for m in marks)


def test_receives_failure_events(kernel, sim, gridview, injector):
    injector.crash_node("p2c0")
    sim.run(until=sim.now + 15.0)  # detection + diagnosis + event push
    types = [e.type for e in gridview.recent_events()]
    assert "node.failure" in types


def test_snapshot_reflects_down_node(kernel, sim, gridview, injector):
    injector.crash_node("p2c0")
    sim.run(until=sim.now + 30.0)
    snap = gridview.latest
    assert snap.nodes_down == 1


def test_dead_bulletin_degrades_gracefully(kernel, sim, injector):
    """Figure 5's resilience claim: one dead DB hides one partition only —
    and the GSD brings it back."""
    # A fast-refreshing GridView instance so the outage window is observed.
    fast = install_gridview(kernel, node_id="p2b0", refresh_interval=0.5)
    sim.run(until=sim.now + 2.0)
    injector.kill_process(kernel.placement[("db", "p1")], "db")
    sim.run(until=sim.now + 3.0)  # a few refreshes before the GSD heals it
    missing = [m for m in sim.trace.records("gridview.refresh") if m["missing"]]
    assert missing  # some refresh saw exactly one partition missing
    assert all(m["missing"] == 1 for m in missing)
    sim.run(until=sim.now + 30.0)  # GSD restarted the DB; detectors refill
    assert fast.latest.partitions_missing == []


def test_render_snapshot_contains_figure6_fields(gridview):
    text = render_snapshot(gridview.latest)
    assert "avg CPU" in text and "avg MEM" in text and "avg SWAP" in text
    assert "p0c0" in text


def test_render_events(kernel, sim, gridview, injector):
    assert render_events([]) == "(no events)"
    injector.crash_node("p2c1")
    sim.run(until=sim.now + 15.0)
    text = render_events(gridview.recent_events())
    assert "node.failure" in text


def test_a_lost_state_probe_hides_its_partition(kernel, sim, injector):
    """A partition whose ``node_state`` probe went unanswered is listed
    missing and ships no rows: joined with nothing, its dead node would
    count as up."""
    injector.crash_node("p1c0")
    sim.run(until=sim.now + 30.0)  # detected, diagnosed, state row says down
    gv = install_gridview(kernel, refresh_interval=1000.0)
    sim.run(until=sim.now + 1.0)
    assert gv.latest.nodes_down == 1
    _, held = divert_probes(kernel, "p1", "node_state")
    refresh = gv.spawn(gv._refresh_once())
    sim.run(until=sim.now + 1.0)
    for _, _, signal in held:
        signal.fire(None)  # what a timed-out probe resolves to
    drive(sim, refresh.done)
    snap = gv.latest
    assert snap.partitions_missing == ["p1"] and snap.nodes_down == 0
    p1 = kernel.cluster.partition("p1").all_nodes
    assert not set(p1) & set(snap.per_node)
    assert snap.nodes_reporting == kernel.cluster.size - len(p1)


def test_malformed_metrics_rows_do_not_stop_the_refresh(kernel, sim, gridview):
    """Any node may put into ``node_metrics``: a row without numbers is
    skipped by the banner averages instead of raising out of the run."""
    db = kernel.placement[("db", "p0")]
    for key, row in (("junk", {"note": "hi"}),
                     ("odd", {"cpu_pct": True, "mem_pct": "x", "swap_pct": None})):
        drive(sim, kernel.cluster.transport.rpc(
            "p0c0", db, ports.DB, ports.DB_PUT,
            {"table": "node_metrics", "key": key, "row": row}))
    before = gridview.refreshes
    sim.run(until=sim.now + 10.0)
    assert gridview.refreshes == before + 1
    snap = gridview.latest
    assert {"junk", "odd"} <= set(snap.per_node)
    nodes = [snap.per_node[n] for n in kernel.cluster.nodes]
    for field, avg in (("cpu_pct", snap.avg_cpu_pct), ("mem_pct", snap.avg_mem_pct),
                       ("swap_pct", snap.avg_swap_pct)):
        assert avg == pytest.approx(sum(r[field] for r in nodes) / len(nodes))
    assert "junk" not in render_snapshot(snap)
