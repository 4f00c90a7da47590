"""GridView's one query against the two-read join it replaced, and across
bulletin failovers."""

import pytest

from repro.kernel import ports
from repro.kernel.bulletin.query import is_numeric
from repro.sim import drive
from repro.userenv.monitoring import install_gridview
from tests.kernel.test_exec_whole_partitions import answer_from_a_successor, divert_probes


def _mean(rows, field):
    values = [r[field] for r in rows if is_numeric(r.get(field))]
    return sum(values) / len(values) if values else 0.0


def two_read_join(sim, client):
    """The oracle: GridView's refresh before it was one query — two global
    scans, ``node_metrics`` joined with ``node_state`` by hand."""
    metrics = drive(sim, client.query_bulletin("node_metrics"))["rows"]
    state = drive(sim, client.query_bulletin("node_state"))["rows"]
    down = {r["_key"] for r in state if r.get("state") == "down"}
    reporting = [r for r in metrics if r["_key"] not in down]
    return {
        "nodes_reporting": len(reporting),
        "nodes_down": len(down),
        "avg_cpu_pct": _mean(reporting, "cpu_pct"),
        "avg_mem_pct": _mean(reporting, "mem_pct"),
        "avg_swap_pct": _mean(reporting, "swap_pct"),
        "per_node": sorted(r["_key"] for r in metrics),
    }


def _refresh_beside_oracle(sim, kernel, gv, attempts=10):
    """One GridView refresh, then the oracle's two reads, retried until no
    bulletin row changed in between (detectors export continuously)."""
    client = kernel.client(gv.node_id)
    for _ in range(attempts):
        changes = sim.trace.counter("db.puts") + sim.trace.counter("db.expired")
        drive(sim, gv.spawn(gv._refresh_once()).done)
        oracle = two_read_join(sim, client)
        if sim.trace.counter("db.puts") + sim.trace.counter("db.expired") == changes:
            return gv.latest, oracle
        sim.run(until=sim.now + 0.3)
    raise AssertionError("no quiet window for the oracle")


def _assert_equals_oracle(snap, oracle):
    assert snap.nodes_reporting == oracle["nodes_reporting"]
    assert snap.nodes_down == oracle["nodes_down"]
    for field in ("avg_cpu_pct", "avg_mem_pct", "avg_swap_pct"):
        assert getattr(snap, field) == pytest.approx(oracle[field], rel=1e-12)
    assert sorted(snap.per_node) == oracle["per_node"]
    assert snap.partitions_missing == []


def test_snapshot_equals_the_two_read_join(kernel, sim, injector):
    gv = install_gridview(kernel, refresh_interval=1000.0)
    sim.run(until=sim.now + 10.0)
    snap, oracle = _refresh_beside_oracle(sim, kernel, gv)
    _assert_equals_oracle(snap, oracle)
    assert snap.nodes_down == 0 and snap.nodes_reporting == kernel.cluster.size
    injector.crash_node("p1c0")
    sim.run(until=sim.now + 30.0)  # detected, diagnosed: the state row says down
    snap, oracle = _refresh_beside_oracle(sim, kernel, gv)
    _assert_equals_oracle(snap, oracle)
    assert snap.nodes_down == 1


def test_one_bulletin_rpc_per_refresh(kernel, sim):
    gv = install_gridview(kernel, refresh_interval=2.0)
    sent = []
    rpc = gv.rpc_retry

    def counting_rpc(dst_node, dst_port, mtype, payload=None, **kwargs):
        if dst_port == ports.DB:
            sent.append(mtype)
        return rpc(dst_node, dst_port, mtype, payload, **kwargs)

    gv.rpc_retry = counting_rpc
    before = gv.refreshes
    sim.run(until=sim.now + 20.0)
    assert gv.refreshes - before >= 9
    assert sent == [ports.DB_EXEC] * len(sent)
    assert len(sent) in (gv.refreshes - before, gv.refreshes - before + 1)  # one may be in flight


def test_classic_refresh_rejects_cross_incarnation_joins(kernel, sim, injector):
    """A bulletin failover between the two base-table reads of one refresh
    must not fabricate a snapshot from two incarnations: the executor lists
    the partition missing, and none of its nodes are counted."""
    gv = install_gridview(kernel, refresh_interval=1000.0)
    # Start the refresh about 3 s before the GSD's next service check, so
    # the successor answers within the read's first attempt (a retry would
    # re-read both tables from the successor).
    sim.run(until=sim.now + 7.0)
    send, held = divert_probes(kernel, "p1", "node_state")
    refresh = gv.spawn(gv._refresh_once())
    sim.run(until=sim.now + 1.0)
    answer_from_a_successor(sim, kernel, injector, "p1", send, held)
    drive(sim, refresh.done)
    snap = gv.latest
    assert snap.partitions_missing == ["p1"]
    p1 = set(kernel.cluster.partition("p1").all_nodes)
    assert not p1 & set(snap.per_node)
    assert snap.nodes_reporting == kernel.cluster.size - len(p1)


def test_classic_gridview_keeps_consistent_snapshots_across_failover(kernel, sim, injector):
    gv = install_gridview(kernel, node_id="p2b0", refresh_interval=1.0)
    sim.run(until=sim.now + 10.0)
    injector.crash_node(kernel.placement[("db", "p1")])
    sim.run(until=sim.now + 80.0)
    # Refreshes resumed after the failover; while p1's bulletin was gone
    # a refresh listed p1 missing and counted none of its nodes.
    marks = sim.trace.records("gridview.refresh")
    p1 = len(kernel.cluster.partition("p1").all_nodes)
    assert any(m["missing"] == 1 for m in marks)
    assert all(m["rows"] == kernel.cluster.size - p1 for m in marks if m["missing"])
    assert gv.latest.time > sim.now - 10.0 and gv.latest.partitions_missing == []
    assert gv.refreshes > 60
