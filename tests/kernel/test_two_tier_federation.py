"""Two-tier federation (DESIGN.md §16): regions change the edge set.

Covers the hierarchical topology end to end: the spec's positional
region grouping, the kernel's epoch-fenced aggregator election, the
event service's funnel routing (intra-region mesh, cross-region hops
through aggregators, one-hop ingress relay), and the bulletin's
region-scoped query fan-out and direct AS OF pulls.
"""

import types

import pytest

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.errors import ClusterError
from repro.kernel import KernelTimings, PhoenixKernel, ports
from repro.kernel.bulletin.query import Agg, Query
from repro.kernel.events import types as ev
from repro.sim import Simulator, drive
from tests.kernel.test_events import publish, subscribe_collector


def boot_two_tier(seed=11, partitions=6, region_size=2, computes=2, until=1.0, **timing_kwargs):
    sim = Simulator(seed=seed)
    cluster = Cluster(
        sim, ClusterSpec.build(partitions=partitions, computes=computes, region_size=region_size)
    )
    # Health reporting populates the ``nodes`` logical table the query
    # tests read (same knob the query CLI's testbed uses).
    timing_kwargs.setdefault("health_report_interval", 2.5)
    kernel = PhoenixKernel(cluster, timings=KernelTimings(**timing_kwargs))
    kernel.boot()
    sim.run(until=until)
    return sim, cluster, kernel


# -- spec-level region topology ----------------------------------------------


def test_spec_regions_positional_grouping():
    spec = ClusterSpec.build(partitions=5, computes=1, region_size=2)
    assert spec.regions() == (("p0", "p1"), ("p2", "p3"), ("p4",))
    kernel = PhoenixKernel(Cluster(Simulator(seed=11), spec))
    assert [kernel.region_of(f"p{i}") for i in range(5)] == [0, 0, 1, 1, 2]


def test_spec_flat_is_one_region():
    spec = ClusterSpec.build(partitions=3, computes=1)
    assert spec.regions() == (("p0", "p1", "p2"),)
    kernel = PhoenixKernel(Cluster(Simulator(seed=11), spec))
    assert kernel.region_of("p2") == 0


def test_spec_region_size_validated():
    with pytest.raises(ClusterError):
        ClusterSpec.build(partitions=2, computes=1, region_size=0)


# -- kernel aggregator election ----------------------------------------------


def test_aggregator_election_first_present_per_region():
    sim, cluster, kernel = boot_two_tier(until=30.0)
    assert kernel.multi_region
    assert kernel.region_aggregators == {0: "p0", 1: "p2", 2: "p4"}
    assert kernel.is_aggregator("p2") and not kernel.is_aggregator("p3")
    assert kernel.region_partitions("p3") == ("p2", "p3")
    # Own-region mesh in configured order, then the other regions' aggregators.
    assert kernel.federation_edges("es", "p2") == [
        ("p3", "p3s0", False), ("p0", "p0s0", True), ("p4", "p4s0", True),
    ]


def test_one_region_elects_no_aggregator():
    """One region is the paper's complete graph: every edge is a mesh
    edge, nobody is elected, nothing is marked."""
    sim = Simulator(seed=11)
    cluster = Cluster(sim, ClusterSpec.build(partitions=3, computes=2))
    kernel = PhoenixKernel(cluster)
    kernel.boot()
    assert not kernel.multi_region
    assert kernel.region_partitions("p1") == ("p0", "p1", "p2")
    assert kernel.region_aggregators == {}
    assert not kernel.is_aggregator("p0")
    assert kernel.federation_edges("db", "p1") == [("p0", "p0s0", False), ("p2", "p2s0", False)]
    assert sim.trace.records("region.aggregator") == []


def test_aggregator_election_is_epoch_fenced():
    sim, cluster, kernel = boot_two_tier(until=30.0)
    epoch = kernel._aggregator_epoch
    assert epoch > 0
    # A stale view (healed minority replaying history) cannot roll the
    # aggregator map backwards.
    stale = types.SimpleNamespace(
        epoch=epoch - 1, members=(("p1", "p1s0"), ("p3", "p3s0"), ("p5", "p5s0"))
    )
    kernel.note_view(stale)
    assert kernel.region_aggregators == {0: "p0", 1: "p2", 2: "p4"}
    # The same membership at a newer epoch does re-elect.
    fresh = types.SimpleNamespace(epoch=epoch + 1, members=stale.members)
    kernel.note_view(fresh)
    assert kernel.region_aggregators == {0: "p1", 1: "p3", 2: "p5"}


def test_aggregator_fails_over_on_server_crash():
    """Crashing the region-1 aggregator's server re-elects p3 (the
    region's next configured partition) once the meta-group evicts p2."""
    sim, cluster, kernel = boot_two_tier(
        until=30.0, heartbeat_interval=5.0, deadline_grace=0.1
    )
    assert kernel.region_aggregators[1] == "p2"
    FaultInjector(cluster).crash_node("p2s0")
    sim.run(until=sim.now + 60.0)
    marks = sim.trace.records("region.aggregator")
    assert any(r["region"] == 1 and r["partition"] == "p3" for r in marks)


# -- event service funnel routing ---------------------------------------------


def test_cross_region_event_delivered_once_via_aggregators():
    sim, cluster, kernel = boot_two_tier(until=30.0)
    inbox = subscribe_collector(
        kernel, sim, "p0c0", "c1", types=(ev.APP_STARTED,), partition="p0"
    )
    # Published five regions of hops away: p5's ES -> aggregator p4 ->
    # cross hop to aggregator p0 -> local delivery (+ relay into p1).
    publish(kernel, sim, "p5c0", ev.APP_STARTED, {"app": "x"}, partition="p5")
    sim.run(until=sim.now + 5.0)
    assert [e.data["app"] for e in inbox] == ["x"]
    cross = sim.trace.counter("es.forward_batches_cross")
    assert cross > 0
    assert sim.trace.counter("es.forward_batches") - cross > 0  # intra, derived


def test_non_aggregator_partitions_open_no_cross_region_streams():
    """Every partition publishes; only aggregators talk across regions,
    so per-partition datagrams stay O(P/R + R), not O(P)."""
    sim, cluster, kernel = boot_two_tier(until=30.0)
    inboxes = [
        subscribe_collector(
            kernel, sim, f"p{i}c0", f"c{i}", types=(ev.APP_STARTED,), partition=f"p{i}"
        )
        for i in range(6)
    ]
    b0 = sim.trace.counter("es.forward_batches")
    for i in range(6):
        publish(kernel, sim, f"p{i}c1", ev.APP_STARTED, {"src": i}, partition=f"p{i}")
    sim.run(until=sim.now + 5.0)
    # Everyone still sees all six events exactly once...
    for inbox in inboxes:
        assert sorted(e.data["src"] for e in inbox) == list(range(6))
    # ...in fewer total datagrams than the flat all-pairs mesh would use.
    batches = sim.trace.counter("es.forward_batches") - b0
    assert batches < 6 * 5


# -- bulletin queries over the two-tier fabric --------------------------------


def test_global_query_full_coverage_through_region_fanout():
    sim, cluster, kernel = boot_two_tier(until=35.0)
    client = kernel.client("p3c0")
    reply = drive(sim, client.query_bulletin("node_metrics"), max_time=30.0)
    assert reply is not None and reply["partitions_missing"] == []
    assert len(reply["rows"]) == cluster.size
    assert set(reply["watermarks"]) == {f"p{i}" for i in range(6)}


def test_exec_query_group_by_covers_all_partitions():
    sim, cluster, kernel = boot_two_tier(until=35.0)
    client = kernel.client("p5c0")
    query = Query(table="nodes", group_by=("state",), aggs=(Agg("count", "*", "n"),))
    reply = drive(sim, client.exec_query(query), max_time=30.0)
    assert reply is not None
    assert sum(row["n"] for row in reply["rows"]) == cluster.size


def test_as_of_pulls_remote_regions_directly():
    """``AS OF`` pulls every partition's ``db.tables`` checkpoint itself,
    remote regions included, in ``sorted()`` order: regions change who
    the federation talks to, not how time travel reads."""
    sim, cluster, kernel = boot_two_tier(until=35.0)
    client = kernel.client("p0c0")
    # Checkpointing runs only under view-driven delta maintenance.
    reply = drive(sim, client.register_view("tt.nodes", Query(table="nodes")), max_time=30.0)
    assert reply and reply.get("ok")
    sim.run(until=sim.now + 30.0)
    daemon = kernel.bulletin("p0")
    pulls = []
    orig = daemon.rpc_retry

    def spy(dst_node, dst_port, mtype, payload=None, **kwargs):
        if mtype == ports.CKPT_LOAD and "at_time" in payload:
            pulls.append(payload["key"])
        return orig(dst_node, dst_port, mtype, payload, **kwargs)

    daemon.rpc_retry = spy
    past = drive(sim, client.exec_query(Query(table="nodes", as_of=sim.now - 2.0)), max_time=30.0)
    assert past is not None and past["partitions_missing"] == []
    assert len(past["rows"]) == cluster.size
    assert set(past["versions"]) == {f"p{i}" for i in range(6)}
    assert pulls == [f"db.tables.p{i}" for i in range(6)]
    assert "db.asof_summaries" not in sim.trace.counters()
    feed = [sub for sub in kernel.es("p0").subscriptions()
            if sub.consumer_id.startswith("db.views.")]
    assert feed and all(sub.types == (ev.DB_DELTA,) for sub in feed)


# -- one region *is* the flat complete graph -----------------------------------


def _twin_run(region_size):
    """One seeded scenario touching every federation path: boot, a
    cluster-wide config publish, a view registration, a global query, a
    relational scan and an AS OF read."""
    sim, cluster, kernel = boot_two_tier(
        seed=23, partitions=4, region_size=region_size, until=35.0
    )
    client = kernel.client("p1c0")
    subscribe_collector(kernel, sim, "p3c0", "twin", types=(ev.CONFIG_CHANGED,), partition="p3")
    assert drive(sim, client.config_set("site.mode", "twin"))["ok"]
    view = Query(table="nodes", group_by=("state",), aggs=(Agg("count", "*", "n"),))
    assert drive(sim, client.register_view("twin.nodes", view), max_time=30.0)["ok"]
    sim.run(until=sim.now + 30.0)
    replies = [
        drive(sim, client.query_bulletin("node_metrics"), max_time=30.0),
        drive(sim, client.exec_query(view), max_time=30.0),
        drive(sim, client.exec_query(Query(table="nodes", as_of=sim.now - 2.0)), max_time=30.0),
    ]
    assert all(r is not None and r["partitions_missing"] == [] for r in replies)
    records = [(r.time, r.category, r.fields) for r in sim.trace.records()]
    return sim, kernel, records, replies


def test_flat_is_the_one_region_case_twin_run():
    """``region_size=None`` and ``region_size=<partition count>`` select
    the same input to the same code: identical counters, trace records
    and replies — and none of the multi-region wire/trace artefacts."""
    sim_a, kernel_a, records_a, replies_a = _twin_run(None)
    sim_b, kernel_b, records_b, replies_b = _twin_run(4)
    assert sim_a.trace.counters() == sim_b.trace.counters()
    assert records_a == records_b
    assert replies_a == replies_b
    for sim, kernel in ((sim_a, kernel_a), (sim_b, kernel_b)):
        assert sim.trace.records("region.aggregator") == []
        tiered = [k for k in sim.trace.counters() if k.endswith(("_intra", "_cross"))]
        assert tiered == []
        assert sim.trace.counter("es.forward_batches") > 0  # the config publish federated
        feed = [
            sub for pid in ("p0", "p1", "p2", "p3") for sub in kernel.es(pid).subscriptions()
            if sub.consumer_id.startswith("db.views.")
        ]
        assert feed and all(sub.types == (ev.DB_DELTA,) for sub in feed)


# -- probe-order contracts of the shared scatter-gather ---------------------------


def _probe_order(kernel, sim, send):
    """Partitions a bulletin's DB_QUERY probes go to, in send order."""
    daemon = kernel.bulletin("p0")
    sent = []
    orig = daemon.rpc_retry

    def spy(dst_node, dst_port, mtype, payload=None, **kwargs):
        if mtype == ports.DB_QUERY:
            sent.append((kernel.cluster.node(dst_node).partition_id, payload["table"]))
        return orig(dst_node, dst_port, mtype, payload, **kwargs)

    daemon.rpc_retry = spy
    assert drive(sim, send(kernel.client("p0c0")), max_time=30.0) is not None
    return sent


def test_global_query_probes_in_configured_order():
    """12 partitions: a cluster-wide key-value read probes in the order
    every read is configured with, ``sorted()`` partition ids (p10 and
    p11 before p2) — send order drives the jitter RNG."""
    sim, cluster, kernel = boot_two_tier(partitions=12, region_size=None, computes=1)
    peers = sorted(f"p{i}" for i in range(1, 12))
    assert peers[:3] == ["p1", "p10", "p11"]
    sent = _probe_order(kernel, sim, lambda c: c.query_bulletin("node_state"))
    assert sent == [(part, "node_state") for part in peers]


def test_exec_probes_in_sorted_order_per_base_table():
    sim, cluster, kernel = boot_two_tier(partitions=12, region_size=None, computes=1)
    query = Query(table="nodes", group_by=("state",), aggs=(Agg("count", "*", "n"),))
    sent = _probe_order(kernel, sim, lambda c: c.exec_query(query))
    peers = sorted(f"p{i}" for i in range(1, 12))
    assert peers[:3] == ["p1", "p10", "p11"]
    tables = [table for part, table in sent if part == "p1"]
    assert tables == ["node_metrics", "node_state"]  # `nodes` joins both
    assert sent == [(part, table) for part in peers for table in tables]
