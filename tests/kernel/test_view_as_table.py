"""A registered view is a table: ``db.exec`` over its name, at its owner.

The owner answers a query over a view's name from the maintained rows,
running the query's own clauses over them; ``AS OF`` and a non-owner
refuse it, and no view may take the name of a table a scan reads.
"""

from repro.cluster import Cluster, ClusterSpec
from repro.kernel import KernelTimings, PhoenixKernel, ports
from repro.kernel.bulletin.query import Query, execute
from repro.sim import Simulator, drive

#: One row per node, without the columns each detector export moves.
STATES = Query("node_state", select=("_key", "_partition", "state"))
VIEW = "t.states"


def _world():
    sim = Simulator(seed=5)
    kernel = PhoenixKernel(Cluster(sim, ClusterSpec.build(partitions=3, computes=2)),
                           timings=KernelTimings(heartbeat_interval=5.0))
    kernel.boot()
    sim.run(until=10.0)
    reply = drive(sim, kernel.client("p1s0").register_view(VIEW, STATES), max_time=60.0)
    assert reply and reply["ok"], reply
    sim.run(until=sim.now + 5.0)
    return sim, kernel


def test_a_query_over_a_view_name_runs_its_clauses_at_the_owner():
    """Fails at the parent: the query went to the reader's own partition
    and read an empty physical table named like the view."""
    sim, kernel = _world()
    client = kernel.client("p0c0")  # p1 owns the view
    query = Query(VIEW, where={"_partition": {"op": "!=", "value": "p1"}},
                  order_by=(("_partition", True), ("_key", False)), limit=5)
    execs = sim.trace.counter("db.execs")
    view = drive(sim, client.read_view(VIEW))
    reply = drive(sim, client.exec_query(query))
    expected = execute(query, view["rows"])
    assert [row["_partition"] for row in expected] == ["p2"] * 4 + ["p0"]
    assert reply["rows"] == expected
    assert {"ready", "watermark", "watermarks", "staleness"} <= set(reply)
    assert sim.trace.counter("db.view_reads") == 2
    assert sim.trace.counter("db.execs") == execs


def test_a_view_may_not_shadow_a_table():
    """Fails at the parent, which registered each: a view named ``nodes``
    turned every ``nodes`` scan into a read of itself."""
    sim, kernel = _world()
    client = kernel.client("p0c0")
    owners = dict(kernel.view_owners)
    drive(sim, kernel.cluster.transport.rpc(
        "p0c0", kernel.placement[("db", "p1")], ports.DB, ports.DB_PUT,
        {"table": "custom", "key": "k", "row": {"x": 1}}))
    # ``metagroup`` is written only in the leader's partition, p0.
    for name in ("nodes", "node_state", "metagroup", "custom"):
        reply = drive(sim, client.register_view(name, STATES, partition="p1"))
        assert reply["ok"] is False and name in reply["error"], reply
    assert kernel.view_owners == owners


def test_a_view_has_no_as_of_and_is_read_only_at_its_owner():
    """Fails at the parent: both were answered, without an error, as reads
    of a physical table named like the view."""
    sim, kernel = _world()
    client = kernel.client("p0c0")
    for reply in (drive(sim, client.exec_query(Query(VIEW, as_of=sim.now - 1.0))),
                  drive(sim, client.exec_query(Query(VIEW), partition="p0"))):
        assert reply["error"] and reply["rows"] == [], reply
    assert sim.trace.counter("db.view_reads") == 0
