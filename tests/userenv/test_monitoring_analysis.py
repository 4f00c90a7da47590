"""Performance analysis + fault analysis (paper §3 management tools)."""

import pytest

from repro.sim.trace import TraceRecord
from repro.userenv.monitoring import (
    alerts,
    critical_path,
    fault_analysis,
    health_report,
    install_gridview,
    messaging_report,
    performance_report,
    span_tree,
)
from repro.userenv.monitoring.gridview import ClusterSnapshot


def snap(t, cpu, mem=20.0, swap=0.5, down=0):
    return ClusterSnapshot(
        time=t, node_count=10, nodes_reporting=10 - down, nodes_down=down,
        avg_cpu_pct=cpu, avg_mem_pct=mem, avg_swap_pct=swap,
    )


def test_performance_report_levels_and_slope():
    snaps = [snap(0.0, 10.0), snap(60.0, 20.0), snap(120.0, 30.0)]
    report = performance_report(snaps)
    assert report["samples"] == 3
    assert report["window_s"] == 120.0
    assert report["cpu"].mean == pytest.approx(20.0)
    assert report["cpu"].slope_per_min == pytest.approx(10.0)  # +10%/min
    assert report["mem"].slope_per_min == pytest.approx(0.0)
    assert report["worst_nodes_down"] == 0


def test_performance_report_single_sample():
    report = performance_report([snap(5.0, 42.0)])
    assert report["cpu"].mean == 42.0
    assert report["cpu"].slope_per_min == 0.0


def test_performance_report_empty_rejected():
    with pytest.raises(ValueError):
        performance_report([])


def test_fault_analysis_incidents_and_mttr():
    from repro.kernel.events.types import Event

    def ev(t, type_, **data):
        return Event(event_id=f"e{t}", type=type_, source="x", partition="p0", time=t, data=data)

    events = [
        ev(10.0, "node.failure", node="n1"),
        ev(40.0, "node.recovery", node="n1"),
        ev(50.0, "service.failure", node="n2", service="es"),
        ev(52.0, "service.recovery", node="n2", service="es"),
        ev(60.0, "node.failure", node="n1"),  # stays open
    ]
    report = fault_analysis(events)
    assert report["event_counts"]["node.failure"] == 2
    assert report["open_incidents"] == 1
    assert report["mttr_s"]["node"] == pytest.approx(30.0)
    assert report["mttr_s"]["service"] == pytest.approx(2.0)
    assert report["top_failing_nodes"][0] == ("n1", 2)


def test_fault_analysis_empty():
    report = fault_analysis([])
    assert report["event_counts"] == {}
    assert report["open_incidents"] == 0


def test_end_to_end_analysis_over_live_gridview(kernel, sim, injector):
    gv = install_gridview(kernel, refresh_interval=5.0)
    sim.run(until=sim.now + 25.0)
    injector.crash_node("p2c0")
    sim.run(until=sim.now + 30.0)
    kernel.construction_tool.recover_node("p2c0")
    sim.run(until=sim.now + 30.0)

    perf = performance_report(list(gv.snapshots))
    assert perf["samples"] >= 5
    assert 0.0 < perf["cpu"].mean < 30.0
    assert perf["worst_nodes_down"] == 1

    faults = fault_analysis(list(gv.event_log))
    assert faults["event_counts"].get("node.failure", 0) >= 1
    assert "node" in faults["mttr_s"]
    assert faults["top_failing_nodes"][0][0] == "p2c0"


def test_messaging_report_surfaces_spine_counters(kernel, sim):
    from repro.sim import Simulator

    empty = messaging_report(Simulator(seed=1).trace)
    assert empty["es"]["forward_batches"] == 0
    assert empty["es"]["events_per_batch"] == 0.0  # no division blow-up

    for i in range(6):  # burst: fans out to both remote partitions, batched
        sig = kernel.client("p0c0").publish("custom.tick", {"i": i})
        while not sig.fired:
            sim.step()
    sim.run(until=sim.now + 2.0)
    report = messaging_report(sim.trace)
    assert report["es"]["published"] >= 6
    assert report["es"]["delivered"] == sim.trace.counter("es.delivered")
    assert report["es"]["forward_batched_events"] >= 12  # 6 events x 2 peers
    assert 0 < report["es"]["forward_batches"] < report["es"]["forward_batched_events"]
    assert report["es"]["events_per_batch"] > 1.0
    assert report["rpc"]["retries"] == sim.trace.counter("rpc.retries")
    assert report["rpc"]["inflight_queued"] == sim.trace.counter("rpc.inflight_queued")


def test_messaging_report_outbox_drops_and_latency_quantiles():
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    sim.trace.count("es.outbox_dropped", 3)
    sim.trace.observe("rpc.call", 0.004)
    sim.trace.observe("rpc.call", 0.012)
    report = messaging_report(sim.trace)
    assert report["es"]["outbox_dropped"] == 3
    summary = report["latency"]["rpc.call"]
    assert summary["count"] == 2 and summary["p95"] >= summary["p50"] > 0.0
    # No histograms -> no latency section at all.
    assert "latency" not in messaging_report(Simulator(seed=2).trace)


# -- causal span analysis -----------------------------------------------------


def span_rec(end, category, sid, parent="", start=0.0, **fields):
    return TraceRecord(time=end, category=category, fields={
        "span_id": sid, "parent_id": parent, "start": start,
        "duration": end - start, **fields})


def test_span_tree_links_children_and_roots_orphans():
    records = [
        span_rec(10.0, "gsd.failover", "sp1"),
        span_rec(4.0, "gsd.diagnose", "sp2", parent="sp1", start=1.0),
        span_rec(9.0, "gsd.recover", "sp3", parent="sp1", start=4.0),
        # Parent never closed (process died mid-span): treated as a root.
        span_rec(2.0, "es.deliver", "sp9", parent="sp7", start=1.5),
        # A point mark with a span_id but no duration is not a span close.
        TraceRecord(time=0.5, category="failure.detected", fields={"span_id": "sp1"}),
    ]
    tree = span_tree(records)
    assert set(tree["spans"]) == {"sp1", "sp2", "sp3", "sp9"}
    assert tree["roots"] == ["sp1", "sp9"]  # sorted by start time
    assert tree["children"]["sp1"] == ["sp2", "sp3"]


def test_critical_path_descends_into_the_gating_child():
    records = [
        span_rec(10.0, "gsd.failover", "sp1"),
        span_rec(4.0, "gsd.diagnose", "sp2", parent="sp1", start=0.0),
        span_rec(9.0, "gsd.recover", "sp3", parent="sp1", start=1.0),
        span_rec(8.0, "rpc.call", "sp4", parent="sp3", start=2.0),
        # Async fan-out closing *after* the root cannot have gated it.
        span_rec(12.0, "es.publish", "sp5", parent="sp1", start=9.5),
    ]
    path = critical_path(records)
    assert [r["span_id"] for r in path] == ["sp1", "sp3", "sp4"]
    assert [r.category for r in path] == ["gsd.failover", "gsd.recover", "rpc.call"]


def test_critical_path_without_matching_root_is_empty():
    assert critical_path([span_rec(1.0, "rpc.call", "sp1")]) == []


# -- kernel health endpoint ---------------------------------------------------


def health_row(service, node, time, hist=None, **extra):
    row = {"service": service, "node": node, "partition": "p0", "time": time,
           "inflight_rpcs": 0, "counters": {}, "hist": hist or {}}
    row.update(extra)
    return row


def test_health_report_largest_count_wins_and_staleness():
    small = {"rpc.call": {"count": 3, "p50": 0.001, "p95": 0.004, "p99": 0.004}}
    big = {"rpc.call": {"count": 40, "p50": 0.002, "p95": 0.016, "p99": 0.063}}
    rows = [
        health_row("es", "p0s0", 95.0, hist=big, outbox_depth=2),
        health_row("db", "p0s0", 96.0, hist=small),
        health_row("gsd", "p1s0", 10.0),  # last report long ago
    ]
    report = health_report(rows, now=100.0, stale_after=30.0)
    assert report["latency"]["rpc.call"] == big["rpc.call"]
    assert report["stale"] == ["gsd@p1s0"]
    es = report["services"]["es@p0s0"]
    assert es["outbox_depth"] == 2 and es["age_s"] == pytest.approx(5.0)
    assert "outbox_depth" not in report["services"]["db@p0s0"]


def test_health_report_empty_rows():
    assert health_report([]) == {"services": {}, "latency": {}, "stale": []}


def test_alerts_fire_on_staleness_and_p99():
    rows = [
        health_row("gsd", "p1s0", 10.0),  # stale
        health_row(
            "es", "p0s0", 98.0,
            hist={"es.deliver": {"count": 50, "p50": 0.1, "p95": 0.4, "p99": 0.9}},
        ),
    ]
    report = health_report(rows, now=100.0, stale_after=30.0)
    fired = alerts(report)
    assert [(a.severity, a.rule, a.subject) for a in fired] == [
        ("critical", "health.stale", "gsd@p1s0"),
        ("warning", "latency.p99", "es.deliver"),
    ]
    assert fired[0].value == pytest.approx(90.0)
    assert fired[1].value == pytest.approx(0.9)


def test_alerts_quiet_when_healthy():
    rows = [
        health_row(
            "es", "p0s0", 99.0,
            hist={"es.deliver": {"count": 50, "p50": 0.001, "p95": 0.01, "p99": 0.02}},
        ),
    ]
    report = health_report(rows, now=100.0, stale_after=30.0)
    assert alerts(report) == []


def test_alerts_custom_limits_and_latency_only_report():
    report = {"latency": {"rpc.call": {"count": 9, "p99": 0.5}}}
    assert alerts(report) == []  # default rpc.call ceiling is 1.0 s
    fired = alerts(report, p99_limits={"rpc.call": 0.1})
    assert len(fired) == 1 and fired[0].rule == "latency.p99"


def test_alerts_view_staleness_rule():
    """A lagging materialized view pages; a current one stays quiet."""
    report = {"latency": {}}
    stats = {
        "gridview.cluster": {"staleness": 5.0, "owner": "p0"},
        "monitoring.health": {"staleness": 0.01, "owner": "p1"},
    }
    fired = alerts(report, view_stats=stats)
    assert [(a.severity, a.rule, a.subject) for a in fired] == [
        ("warning", "view.staleness", "gridview.cluster"),
    ]
    assert fired[0].value == pytest.approx(5.0)
    assert "lags its base tables" in fired[0].message
    # Custom limit tightens / loosens the rule.
    assert len(alerts(report, view_stats=stats, view_staleness_limit=0.001)) == 2
    assert alerts(report, view_stats=stats, view_staleness_limit=10.0) == []


def test_alerts_quorum_rule():
    """``quorum.lost`` pages critical with the surviving set; a later
    ``quorum.regained`` for the same node downgrades it to a warning
    breadcrumb (latest event per node wins)."""
    report = {"latency": {}}
    events = [
        {"type": "quorum.lost", "node": "p2s0", "partition": "p2",
         "live": ["p2", "p3"]},
        {"type": "quorum.lost", "node": "p3s0", "partition": "p3",
         "live": ["p2", "p3"]},
    ]
    fired = alerts(report, quorum_events=events)
    assert [(a.severity, a.rule, a.subject) for a in fired] == [
        ("critical", "quorum.lost", "p2s0"),
        ("critical", "quorum.lost", "p3s0"),
    ]
    assert fired[0].value == pytest.approx(2.0)
    assert "sees only p2, p3" in fired[0].message
    assert "refusing placement and checkpoint writes" in fired[0].message

    # The heal: regained supersedes lost for that node.
    events.append({"type": "quorum.regained", "node": "p2s0", "partition": "p2"})
    fired = alerts(report, quorum_events=events)
    assert [(a.severity, a.rule, a.subject) for a in fired] == [
        ("critical", "quorum.lost", "p3s0"),
        ("warning", "quorum.regained", "p2s0"),
    ]
    # Unknown event types and node-less events are ignored.
    assert alerts(report, quorum_events=[{"type": "quorum.lost"},
                                         {"type": "other", "node": "x"}]) == []


def test_view_report_plugs_into_alerts():
    from repro.userenv.monitoring import view_report

    listing = {"p0": {"views": [{
        "name": "v", "query": {"table": "nodes"},
        "stats": {"maintenance_events": 7, "delta_applied": 7, "rebuilds": 0,
                  "resyncs": 0, "staleness": 2.5},
    }]}}
    report = view_report(listing)
    fired = alerts({"latency": {}}, view_stats=report["views"])
    assert [a.subject for a in fired] == ["v"]


def test_health_view_feeds_health_report():
    """health_report over a HEALTH_VIEW read equals one over a fresh scan."""
    from repro.cluster import Cluster, ClusterSpec
    from repro.kernel import KernelTimings, PhoenixKernel
    from repro.sim import Simulator
    from repro.userenv.monitoring import HEALTH_VIEW_NAME, health_view_query
    from repro.sim import drive

    sim = Simulator(seed=5)
    cluster = Cluster(sim, ClusterSpec.build(partitions=3, computes=2))
    timings = KernelTimings(heartbeat_interval=5.0, health_report_interval=2.5)
    kernel = PhoenixKernel(cluster, timings=timings)
    kernel.boot()
    sim.run(until=10.0)
    client = kernel.client(cluster.partitions[0].server)
    reply = drive(sim, client.register_view(HEALTH_VIEW_NAME, health_view_query()),
                  max_time=60.0)
    assert reply and reply.get("ok")
    sim.run(until=sim.now + 10.0)
    view = drive(sim, client.read_view(HEALTH_VIEW_NAME))
    report = health_report(view["rows"], now=sim.now, stale_after=30.0)
    assert report["services"] and not report["stale"]
    fresh = drive(sim, client.query_bulletin("kernel_health"))
    assert set(report["services"]) == {
        f"{r['service']}@{r['node']}" for r in fresh["rows"]
    }
