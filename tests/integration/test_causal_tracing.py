"""The causal tracing spine, end to end.

A server-node failover must decompose into a causally linked span tree
(detection -> diagnosis -> recovery under one ``gsd.failover`` root),
and the kernel health endpoint must expose the spine latency quantiles
through bulletin-published ``kernel.health`` self-reports — the two
acceptance checks for the observability spine.
"""

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.kernel import KernelTimings, PhoenixKernel
from repro.kernel.daemon import HEALTH_TABLE
from repro.sim import drive
from repro.userenv.monitoring import critical_path, health_report, span_tree
from tests.kernel.test_events import publish, subscribe_collector

INTERVAL = 5.0


def build():
    from repro.sim import Simulator

    sim = Simulator(seed=7)
    cluster = Cluster(sim, ClusterSpec.build(partitions=3, computes=2))
    kernel = PhoenixKernel(
        cluster,
        timings=KernelTimings(
            heartbeat_interval=INTERVAL, health_report_interval=INTERVAL
        ),
    )
    kernel.boot()
    sim.run(until=1.0)
    return sim, cluster, kernel


def test_failover_produces_causal_span_tree_and_health_quantiles():
    sim, cluster, kernel = build()
    injector = FaultInjector(cluster)

    # Some cross-partition event traffic so rpc.call / es.deliver have
    # observations for the health quantiles.
    inbox = subscribe_collector(kernel, sim, "p0c0", "c1", types=("custom.*",), partition="p0")
    for i in range(4):
        publish(kernel, sim, "p2c0", "custom.tick", {"i": i}, partition="p2")
    sim.run(until=sim.now + 2.0)
    assert [e.data["i"] for e in inbox] == list(range(4))

    # Kill a member server: the meta-group leader detects the miss,
    # diagnoses node death, and migrates the co-located services.
    t0 = sim.now
    injector.crash_node("p1s0")
    sim.run(until=sim.now + 6 * INTERVAL)
    assert kernel.placement[("gsd", "p1")] == "p1b0"

    # -- span tree: one failover root, causally linked children ---------------
    tree = span_tree(sim.trace)
    roots = [
        sid for sid in tree["roots"]
        if tree["spans"][sid].category == "gsd.failover" and tree["spans"][sid].time > t0
    ]
    assert roots, "no closed gsd.failover root span"
    root = tree["spans"][roots[0]]
    assert root["ok"] is True and root["kind"] == "node"
    kids = [tree["spans"][sid] for sid in tree["children"][root["span_id"]]]
    kid_categories = [r.category for r in kids]
    assert "gsd.diagnose" in kid_categories
    assert "gsd.recover" in kid_categories
    for rec in kids:
        assert rec["parent_id"] == root["span_id"]
        assert rec["start"] >= root["start"]
        if rec.category.startswith("gsd."):
            # Synchronous steps nest inside the parent's interval (the
            # recovery event's es.publish child may close just after).
            assert rec.time <= root.time
    recover = next(r for r in kids if r.category == "gsd.recover")
    assert recover["action"] == "migrate" and recover["dst"] == "p1b0"

    # Detection is correlated to the same trace: the failure.detected mark
    # carries the root's span id.
    detected = [r for r in sim.trace.records("failure.detected") if r.time > t0]
    assert any(r.get("span_id") == root["span_id"] for r in detected)

    # -- critical path: detection -> diagnosis -> recovery, linked ------------
    path = critical_path(sim.trace)
    assert path[0]["span_id"] == root["span_id"]
    assert len(path) >= 2
    for parent, child in zip(path, path[1:]):
        assert child["parent_id"] == parent["span_id"]
    # The failover is gated by its recovery step, and the step durations
    # are consistent with the root's.
    assert path[1].category in ("gsd.recover", "gsd.diagnose")
    assert all(r["duration"] <= root["duration"] for r in path[1:])

    # -- kernel health endpoint -----------------------------------------------
    # Let a reporting period elapse post-recovery, then read the bulletin.
    sim.run(until=sim.now + 2 * INTERVAL)
    reply = drive(
        sim, kernel.client("p0c0").query_bulletin(HEALTH_TABLE), max_time=sim.now + 10.0
    )
    assert reply and not reply["partitions_missing"]
    rows = reply["rows"]
    assert rows, "no kernel.health self-reports published"

    report = health_report(rows, now=sim.now, stale_after=3 * INTERVAL)
    for name in ("rpc.call", "es.deliver"):
        summary = report["latency"][name]
        assert summary["count"] > 0
        assert summary["p95"] >= summary["p50"] > 0.0
        assert summary["p99"] >= summary["p95"]
    # The failover itself surfaced through the published self-reports.
    assert report["latency"]["gsd.failover"]["count"] >= 1
    # Live daemons are fresh; the crashed node's daemons are stale or
    # evicted, never reported as current.
    assert report["services"], report
    for name, entry in report["services"].items():
        if name.endswith("@p1s0"):
            assert name in report["stale"] or entry["reported_at"] <= t0 + INTERVAL
        elif name not in report["stale"]:
            assert entry["age_s"] <= 3 * INTERVAL


def test_health_reports_are_off_by_default():
    """health_report_interval=None (the default) publishes nothing — the
    deterministic benchmark workloads stay byte-identical."""
    from repro.sim import Simulator

    sim = Simulator(seed=7)
    cluster = Cluster(sim, ClusterSpec.build(partitions=2, computes=2))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=INTERVAL))
    kernel.boot()
    sim.run(until=4 * INTERVAL)
    assert sim.trace.counter("health.reports") == 0
    reply = drive(sim, kernel.client("p0c0").query_bulletin(HEALTH_TABLE))
    assert reply and reply["rows"] == []
