"""``DB_EXEC`` answers each partition whole: a partition whose base-table
probes were not all answered, or were answered by two bulletin
incarnations, is listed in ``partitions_missing`` and contributes no rows."""

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.kernel import KernelTimings, PhoenixKernel, ports
from repro.kernel.bulletin.query import Query
from repro.sim import Simulator, drive


def _boot():
    sim = Simulator(seed=11)
    cluster = Cluster(sim, ClusterSpec.build(partitions=3, computes=2))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=5.0))
    kernel.boot()
    sim.run(until=10.0)
    return sim, kernel, FaultInjector(cluster)


def divert_probes(kernel, part, table, access="p0"):
    """Divert the ``access`` bulletin's ``table`` probes to ``part`` into
    ``held`` as ``(payload, kwargs, signal)``: the probe is never sent, and
    the executor waits on ``signal`` until the test fires it.  Returns the
    bulletin's own ``rpc_retry`` (to send a held probe later) and ``held``."""
    db = kernel.bulletin(access)
    send = db.rpc_retry
    held = []

    def rpc_retry(node, port, mtype, payload=None, **kwargs):
        if (mtype == ports.DB_QUERY and node == kernel.placement[("db", part)]
                and payload["table"] == table):
            held.append((payload, kwargs, kernel.sim.signal()))
            return held[-1][2]
        return send(node, port, mtype, payload, **kwargs)

    db.rpc_retry = rpc_retry
    return send, held


def answer_from_a_successor(sim, kernel, injector, part, send, held):
    """Kill ``part``'s bulletin and answer every held probe from its
    successor, so one ``DB_EXEC`` reads ``part`` from two incarnations."""
    first, deadline = kernel.bulletin(part).epoch, sim.now + 25.0
    injector.kill_process(kernel.placement[("db", part)], "db")
    while kernel.bulletin(part).epoch == first:
        assert sim.now < deadline, "no successor bulletin"
        sim.run(until=sim.now + 0.5)
    for payload, kwargs, signal in held:
        reply = drive(sim, send(kernel.placement[("db", part)], ports.DB, ports.DB_QUERY,
                                payload, **kwargs))
        assert reply["watermark"]["epoch"] > first
        signal.fire(reply)


def _exec(kernel, query):
    """Start ``query`` at p0's bulletin with a budget that outlasts a failover."""
    return kernel.cluster.transport.rpc(
        "p0c0", kernel.placement[("db", "p0")], ports.DB, ports.DB_EXEC,
        {"query": query.to_payload()}, timeout=120.0,
    )


def _assert_whole_but(reply, kernel, gone):
    assert reply["partitions_missing"] == [gone]
    assert {r["_partition"] for r in reply["rows"]} == {
        p.partition_id for p in kernel.cluster.partitions if p.partition_id != gone
    }


def test_a_partition_with_a_lost_table_probe_is_missing_and_rowless():
    """Fails at the parent: ``p1`` was listed missing yet shipped its
    metrics rows with no ``state``, so its down node read as up."""
    sim, kernel, injector = _boot()
    injector.crash_node("p1c0")
    sim.run(until=sim.now + 30.0)  # detected, diagnosed: p1's state row says down
    _, held = divert_probes(kernel, "p1", "node_state")
    pending = _exec(kernel, Query(table="nodes"))
    sim.run(until=sim.now + 1.0)
    (_, _, signal), = held
    signal.fire(None)  # what a timed-out probe resolves to
    reply = drive(sim, pending)
    _assert_whole_but(reply, kernel, "p1")
    assert all(r.get("state") == "up" for r in reply["rows"])


def test_a_partition_answered_by_two_incarnations_is_missing_and_rowless():
    """Fails at the parent: ``p1``'s metrics from its first bulletin were
    joined with state from its successor, a state that never existed."""
    sim, kernel, injector = _boot()
    send, held = divert_probes(kernel, "p1", "node_state")
    pending = _exec(kernel, Query(table="nodes"))
    sim.run(until=sim.now + 1.0)
    answer_from_a_successor(sim, kernel, injector, "p1", send, held)
    reply = drive(sim, pending)
    _assert_whole_but(reply, kernel, "p1")
    assert reply["watermarks"]["p1"] == 1  # the first answer's incarnation
