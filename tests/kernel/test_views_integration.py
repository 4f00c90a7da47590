"""Materialized views end-to-end: equivalence, failover rebuild, time travel."""

import pytest

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.cluster.message import wire_size
from repro.errors import ServiceUnavailable
from repro.kernel import KernelTimings, PhoenixKernel, ports
from repro.kernel.bulletin.query import Agg, Query
from repro.kernel.bulletin.store import FrozenRow
from repro.sim import Simulator, drive
from repro.userenv.monitoring import install_gridview
from tests.kernel.test_bulletin import _thaw
from tests.kernel.test_bulletin_views import rows_close

NODES_BY_STATE = Query(
    table="nodes",
    group_by=("state",),
    aggs=(
        Agg("count", "*", "n"),
        Agg("sum", "cpu_pct", "cpu"),
        Agg("count", "cpu_pct", "cpu_n"),
        Agg("max", "cpu_pct", "cpu_max"),
    ),
)


def _boot(seed=11, partitions=3, computes=2):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, ClusterSpec.build(partitions=partitions, computes=computes))
    timings = KernelTimings(heartbeat_interval=5.0, deadline_grace=0.1)
    kernel = PhoenixKernel(cluster, timings=timings)
    kernel.boot()
    sim.run(until=10.0)
    return sim, kernel, FaultInjector(cluster)


def _client(kernel, partition_index=0):
    return kernel.client(kernel.cluster.partitions[partition_index].server)


def _register(sim, client, name, query, partition):
    reply = drive(sim, client.register_view(name, query, partition=partition), max_time=60.0)
    assert reply and reply.get("ok"), reply
    return reply


def _put_job(sim, kernel, client, key, row):
    """Acked ``DB_PUT`` of one ``apps`` row to p0's bulletin."""
    reply = drive(sim, client._transport.rpc(
        client.node_id, kernel.placement[("db", "p0")], ports.DB, ports.DB_PUT,
        {"table": "apps", "key": key, "row": row}, timeout=5.0,
    ))
    assert reply == {"ok": True}


def _equivalent(sim, client, name, query, attempts=10):
    """Assert the view matches a fresh scan in some stable window.

    Base tables mutate continuously (detector exports), so a single
    view-read/full-scan pair can straddle an in-flight delta; retry until
    a comparison lands in a quiet window — deterministic under the sim.
    """
    view = fresh = None
    for _ in range(attempts):
        view = drive(sim, client.read_view(name))
        fresh = drive(sim, client.exec_query(query))
        assert view is not None and fresh is not None
        if rows_close(view["rows"], fresh["rows"]):
            return view
        sim.run(until=sim.now + 0.5)
    raise AssertionError(f"view never converged: {view['rows']!r} vs {fresh['rows']!r}")


def test_view_equals_fresh_scan_and_stays_current():
    sim, kernel, _ = _boot()
    client = _client(kernel)
    reply = _register(sim, client, "t.nodes", NODES_BY_STATE, "p1")
    assert reply["owner"] == "p1" and kernel.view_owners["t.nodes"] == "p1"
    for _ in range(3):
        sim.run(until=sim.now + 7.0)
        _equivalent(sim, client, "t.nodes", NODES_BY_STATE)


def test_view_read_carries_watermarks_and_staleness():
    sim, kernel, _ = _boot()
    client = _client(kernel)
    _register(sim, client, "t.nodes", NODES_BY_STATE, "p1")
    sim.run(until=sim.now + 10.0)
    view = drive(sim, client.read_view("t.nodes"))
    assert view["ready"]
    assert set(view["watermarks"]) == {"p0", "p1", "p2"}
    assert view["watermark"]["epoch"] >= 1
    assert 0.0 <= view["staleness"] < 5.0


def test_second_view_on_same_owner_extends_tables():
    sim, kernel, _ = _boot()
    client = _client(kernel)
    _register(sim, client, "t.nodes", NODES_BY_STATE, "p1")
    jobs = Query(table="jobs", aggs=(Agg("count", "*", "n"),))
    _register(sim, client, "t.jobs", jobs, "p1")
    sim.run(until=sim.now + 5.0)
    listing = drive(sim, client.list_views(partition="p1"))
    assert {v["name"] for v in listing["views"]} == {"t.nodes", "t.jobs"}
    _equivalent(sim, client, "t.jobs", jobs)


def test_view_converges_after_node_churn():
    sim, kernel, injector = _boot()
    client = _client(kernel)
    _register(sim, client, "t.nodes", NODES_BY_STATE, "p1")
    victim = "p2c1"
    injector.crash_node(victim)
    sim.run(until=sim.now + 30.0)  # detect + state flip + metric expiry
    view = _equivalent(sim, client, "t.nodes", NODES_BY_STATE)
    down = [r for r in view["rows"] if r["state"] == "down"]
    assert down and down[0]["n"] == 1
    injector.boot_node(victim)
    for svc in ("ppm", "detector", "wd"):
        if not kernel.cluster.hostos(victim).process_alive(svc):
            kernel.start_service(svc, victim)
    sim.run(until=sim.now + 30.0)
    view = _equivalent(sim, client, "t.nodes", NODES_BY_STATE)
    assert not [r for r in view["rows"] if r["state"] == "down"]


def test_view_survives_owner_bulletin_failover():
    sim, kernel, injector = _boot()
    client = _client(kernel)
    _register(sim, client, "t.nodes", NODES_BY_STATE, "p1")
    old_node = kernel.placement[("db", "p1")]
    old_epoch = drive(sim, client.read_view("t.nodes"))["watermark"]["epoch"]
    injector.crash_node(old_node)
    sim.run(until=sim.now + 60.0)  # failover + view rebuild from checkpoints
    assert kernel.placement[("db", "p1")] != old_node
    assert kernel.view_owners["t.nodes"] == "p1"
    view = _equivalent(sim, client, "t.nodes", NODES_BY_STATE)
    assert view["watermark"]["epoch"] > old_epoch
    listing = drive(sim, client.list_views(partition="p1"))
    stats = listing["views"][0]["stats"]
    assert stats["rebuilds"] >= 1
    assert sim.trace.records("db.views_rebuilt")


def test_view_survives_two_consecutive_failovers():
    """Regression: a migration used to colocate the ckpt primary with its
    replica, so a second failover erased every checkpoint in the partition
    and the view (plus its definition) was gone for good. The GSD now
    re-separates the replica and the primary reseeds it."""
    sim, kernel, injector = _boot(seed=0)
    client = _client(kernel)
    _register(sim, client, "t.nodes", NODES_BY_STATE, "p1")
    for _ in range(2):
        injector.crash_node(kernel.placement[("db", "p1")])
        sim.run(until=sim.now + 12.0)
    sim.run(until=sim.now + 60.0)
    assert kernel.view_owners.get("t.nodes") == "p1"
    view = _equivalent(sim, client, "t.nodes", NODES_BY_STATE, attempts=20)
    assert view["ready"]
    # Separation restored: the replica must not share the primary's node.
    assert (
        kernel.placement[("ckpt.replica", "p1")] != kernel.placement[("ckpt", "p1")]
    )


def test_time_travel_round_trip():
    sim, kernel, _ = _boot()
    client = _client(kernel)
    # Checkpointing of base tables runs only while some view keeps delta
    # maintenance on — the jobs view doubles as the bootstrap.
    _register(sim, client, "t.jobs", Query(table="jobs", aggs=(Agg("count", "*", "n"),)), "p0")
    _put_job(sim, kernel, client, "job1", {"app": "linpack", "phase": "running"})
    sim.run(until=sim.now + 1.0)  # past the checkpoint debounce
    t_between = sim.now
    sim.run(until=sim.now + 0.2)
    _put_job(sim, kernel, client, "job1", {"app": "linpack", "phase": "done"})
    sim.run(until=sim.now + 1.0)

    probe = Query(table="jobs", where={"_key": "job1"})
    live = drive(sim, client.exec_query(probe))
    assert live["rows"][0]["phase"] == "done"
    past = drive(sim, client.exec_query(Query(
        table="jobs", where={"_key": "job1"}, as_of=t_between)))
    assert past["rows"][0]["phase"] == "running"
    assert past["as_of"] == t_between
    assert "p0" in past["versions"]
    # Past the bounded history: nothing retained that far back.
    ancient = drive(sim, client.exec_query(Query(table="jobs", as_of=0.5)))
    assert ancient["rows"] == []


def test_drop_view_unregisters():
    sim, kernel, _ = _boot()
    client = _client(kernel)
    _register(sim, client, "t.nodes", NODES_BY_STATE, "p1")
    reply = drive(sim, client.drop_view("t.nodes"))
    assert reply and reply.get("ok")
    assert "t.nodes" not in kernel.view_owners
    with pytest.raises(ServiceUnavailable):
        client.read_view("t.nodes")


def test_epoch_announce_on_a_quiet_table_is_bounded():
    """A failed-over bulletin announces its epoch for a published table
    nothing writes — for a few housekeeping ticks, not forever: after the
    window the owner's counters stop moving."""
    sim, kernel, injector = _boot()
    client = _client(kernel)
    jobs = Query(table="jobs", group_by=("phase",), aggs=(Agg("count", "*", "n"),))
    _register(sim, client, "t.jobs", jobs, "p0")
    injector.crash_node(kernel.placement[("db", "p2")])
    sim.run(until=sim.now + 60.0)
    successor = kernel.bulletin("p2")
    assert successor.epoch == 2 and successor.delta_seq("apps") == 0
    assert kernel.bulletin("p0").engine.sources[("p2", "apps")] == (2, 0)
    sent = successor._epoch_announces["apps"]
    seen = sim.trace.counters("db.view_")
    assert sent == 3 and 1 <= seen["db.view_resyncs"] <= sent
    sim.run(until=sim.now + 120.0)
    assert successor._epoch_announces["apps"] == sent
    assert sim.trace.counters("db.view_") == seen
    assert "db.view_delta_stale" not in seen  # announces are not lost deltas


def test_every_stored_and_mirrored_row_is_an_intact_value():
    """Rows are shared by reference between stores, the ``db.delta`` feed,
    view mirrors, checkpoints and ``AS OF`` replies (a GridView refresh
    reads them through the executor's projection, a fresh dict per row).
    After a run through all of them every row still is a ``FrozenRow``
    whose wire size, taken when it was frozen, is its content's — a
    nested *list* edited in place, the one mutation the type cannot
    refuse, would show here."""
    sim, kernel, injector = _boot(partitions=2)
    client = _client(kernel)
    console = install_gridview(kernel, refresh_interval=5.0)
    _register(sim, client, "t.nodes", NODES_BY_STATE, "p1")
    sim.run(until=sim.now + 12.0)
    injector.crash_node(kernel.placement[("db", "p1")])
    sim.run(until=sim.now + 60.0)  # failover + mirror rebuilt from checkpoint seed and scans
    _equivalent(sim, client, "t.nodes", NODES_BY_STATE)
    past = drive(sim, client.exec_query(Query(table="nodes", as_of=sim.now - 1.0)))
    assert past["rows"] and not past["partitions_missing"]
    assert console.refreshes >= 10 and console.latest.per_node

    rows = []
    for part in kernel.cluster.partitions:
        db = kernel.bulletin(part.partition_id)
        for tables in (db.store._tables, db.engine.mirror if db.engine else {}):
            for slice_ in tables.values():
                rows += slice_.values()
    assert kernel.bulletin("p1").engine.mirror and len(rows) > 30
    for row in rows:
        assert type(row) is FrozenRow
        assert row._size == wire_size(_thaw(row))


def test_a_delta_consumer_cannot_edit_the_publishers_row():
    """Fails at the parent: the ``db.delta`` feed ships the stored row by
    reference, so a subscriber assigning into it rewrote the store."""
    sim, kernel, _ = _boot(partitions=2)
    client = _client(kernel)
    _register(sim, client, "t.jobs", Query(table="jobs", aggs=(Agg("count", "*", "n"),)), "p0")
    seen = []
    kernel.cluster.transport.bind(client.node_id, "t.deltas", seen.append)
    assert drive(sim, client.subscribe(
        "t.consumer", "t.deltas", types=["db.delta"], where={"table": "apps"}))
    _put_job(sim, kernel, client, "job1", {"app": "linpack", "phase": "running"})
    sim.run(until=sim.now + 1.0)
    (event,) = [m.payload["event"] for m in seen]
    stored = kernel.bulletin("p0").store.get("apps", "job1")
    assert event["data"]["row"] is stored
    with pytest.raises(TypeError):
        event["data"]["row"]["x"] = 1
    assert "x" not in stored and stored["phase"] == "running"


def test_a_malformed_delta_from_a_client_is_refused_not_raised():
    """Fails at the parent: a client publishing ``db.delta`` without a
    ``seq`` raised ``KeyError`` out of ``sim.run`` at the view owner.
    Refused payloads are counted, and the view keeps following the feed."""
    sim, kernel, _ = _boot(partitions=2)
    client = _client(kernel)
    jobs = Query(table="jobs", group_by=("phase",), aggs=(Agg("count", "*", "n"),))
    _register(sim, client, "t.jobs", jobs, "p0")
    bad = [
        {"table": "apps"},
        {"table": "apps", "partition": "p1", "epoch": "1", "seq": 1, "key": "k", "op": "put"},
        {"table": "apps", "partition": "p1", "epoch": 1, "seq": 9, "key": "k", "op": "put",
         "row": 3},
    ]
    for data in bad:
        assert drive(sim, client.publish("db.delta", data))["ok"]
    sim.run(until=sim.now + 2.0)
    assert sim.trace.counter("db.refused") == len(bad)
    _put_job(sim, kernel, client, "job1", {"app": "linpack", "phase": "running"})
    sim.run(until=sim.now + 2.0)
    assert _equivalent(sim, client, "t.jobs", jobs)["rows"] == [{"phase": "running", "n": 1}]


def test_a_malformed_maint_config_is_refused_not_raised():
    """Fails at the parent: each payload raised ``TypeError`` or
    ``AttributeError`` out of ``sim.run``.  A refusal answers ``ok: False``,
    is counted, and leaves the relational layer off."""
    sim, kernel, _ = _boot(partitions=2)
    client = _client(kernel)
    bad = [{"tables": 5}, {"views": [1]}, {"tables": [[1]]}, {"views": {"v": 1}}]
    for payload in bad:
        reply = drive(sim, client._transport.rpc(
            client.node_id, kernel.placement[("db", "p1")], ports.DB, ports.DB_MAINT,
            payload, timeout=5.0))
        assert reply is not None and not reply["ok"] and reply["error"], payload
    assert sim.trace.counter("db.refused") == len(bad)
    assert not kernel.view_maintenance and not kernel.bulletin("p1")._publish_tables


def test_a_non_numeric_as_of_is_refused():
    """Fails at the parent: ``as_of: "x"`` was accepted and answered as if
    every partition were missing."""
    sim, kernel, _ = _boot(partitions=2)
    client = _client(kernel)
    for as_of in ("x", True, [1.0]):
        reply = drive(sim, client._transport.rpc(
            client.node_id, kernel.placement[("db", "p0")], ports.DB, ports.DB_EXEC,
            {"query": {"table": "nodes", "as_of": as_of}}, timeout=5.0))
        assert "as_of" in reply["error"] and reply["rows"] == []
