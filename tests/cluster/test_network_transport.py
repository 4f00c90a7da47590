"""Unit tests for fabrics, message routing, RPC, and OS ping."""

import pytest

from repro.cluster import OS_PING_PORT
from repro.errors import TransportError


def bind_collector(cluster, node_id, port):
    inbox = []
    cluster.transport.bind(node_id, port, inbox.append)
    return inbox


def test_send_delivers_with_latency(cluster, sim):
    inbox = bind_collector(cluster, "p0c1", "svc")
    cluster.transport.send("p0c0", "p0c1", "svc", "hello", {"n": 1})
    assert inbox == []  # not synchronous
    sim.run(until=0.01)
    assert len(inbox) == 1
    msg = inbox[0]
    assert msg.mtype == "hello"
    assert msg.payload == {"n": 1}
    assert msg.network == "mgmt"  # first network in spec order
    assert msg.size > 64


def test_send_to_unknown_node_raises(cluster):
    with pytest.raises(TransportError):
        cluster.transport.send("p0c0", "ghost", "svc", "x")
    with pytest.raises(TransportError):
        cluster.transport.send("ghost", "p0c0", "svc", "x")


def test_send_picks_next_network_when_nic_down(cluster, sim):
    inbox = bind_collector(cluster, "p0c1", "svc")
    cluster.networks["mgmt"].set_link("p0c0", False)
    cluster.transport.send("p0c0", "p0c1", "svc", "hello")
    sim.run(until=0.01)
    assert inbox[0].network == "data"


def test_send_fails_when_all_local_nics_down(cluster, sim):
    inbox = bind_collector(cluster, "p0c1", "svc")
    for net in cluster.networks.values():
        net.set_link("p0c0", False)
    assert cluster.transport.send("p0c0", "p0c1", "svc", "hello") is False
    sim.run(until=0.01)
    assert inbox == []
    assert sim.trace.records("net.no_path")


def test_remote_nic_failure_drops_silently(cluster, sim):
    inbox = bind_collector(cluster, "p0c1", "svc")
    cluster.networks["mgmt"].set_link("p0c1", False)
    assert cluster.transport.send("p0c0", "p0c1", "svc", "x", network="mgmt") is False
    sim.run(until=0.01)
    assert inbox == []
    assert sim.trace.counter("net.mgmt.drops") == 1


def test_crashed_destination_drops(cluster, sim):
    inbox = bind_collector(cluster, "p0c1", "svc")
    cluster.transport.send("p0c0", "p0c1", "svc", "x")
    cluster.node("p0c1").crash()
    sim.run(until=0.01)
    assert inbox == []
    assert sim.trace.records("net.dst_down")


def test_crashed_source_cannot_send(cluster):
    cluster.node("p0c0").crash()
    assert cluster.transport.send("p0c0", "p0c1", "svc", "x") is False


def test_unbound_port_drops_with_trace(cluster, sim):
    cluster.transport.send("p0c0", "p0c1", "nobody-home", "x")
    sim.run(until=0.01)
    assert sim.trace.records("net.unbound", port="nobody-home")


def test_endpoint_owned_by_dead_process_drops(cluster, sim):
    hostos = cluster.hostos("p0c1")
    hp = hostos.start_process("svc")
    inbox = []
    cluster.transport.bind("p0c1", "svc", inbox.append, owner=hp)
    hp.kill()
    cluster.transport.send("p0c0", "p0c1", "svc", "x")
    sim.run(until=0.01)
    assert inbox == []


def test_rebind_over_live_owner_rejected(cluster):
    hp = cluster.hostos("p0c1").start_process("svc")
    cluster.transport.bind("p0c1", "svc", lambda m: None, owner=hp)
    with pytest.raises(TransportError, match="already bound"):
        cluster.transport.bind("p0c1", "svc", lambda m: None, owner=cluster.hostos("p0c1").start_process("svc2"))


def test_rebind_after_owner_death_allowed(cluster):
    hostos = cluster.hostos("p0c1")
    hp = hostos.start_process("svc")
    cluster.transport.bind("p0c1", "svc", lambda m: None, owner=hp)
    hp.kill()
    hp2 = hostos.start_process("svc")
    cluster.transport.bind("p0c1", "svc", lambda m: None, owner=hp2)
    endpoint = cluster.transport._endpoints[("p0c1", "svc")]
    assert endpoint.owner is hp2 and endpoint.receiving


def test_send_all_networks_duplicates_on_usable_fabrics(cluster, sim):
    inbox = bind_collector(cluster, "p0s0", "hb")
    sent = cluster.transport.send_all_networks("p0c0", "p0s0", "hb", "heartbeat")
    assert sent == 3
    sim.run(until=0.01)
    assert sorted(m.network for m in inbox) == ["data", "ipc", "mgmt"]

    cluster.networks["data"].set_link("p0c0", False)
    inbox.clear()
    sent = cluster.transport.send_all_networks("p0c0", "p0s0", "hb", "heartbeat")
    assert sent == 2
    sim.run(until=0.02)
    assert sorted(m.network for m in inbox) == ["ipc", "mgmt"]


def test_rpc_roundtrip(cluster, sim):
    def handler(msg):
        return {"echo": msg.payload["x"] * 2}

    cluster.transport.bind("p0s0", "svc", handler)
    sig = cluster.transport.rpc("p0c0", "p0s0", "svc", "query", {"x": 21})
    sim.run(until=0.5)
    assert sig.fired
    assert sig.value == {"echo": 42}


def test_rpc_timeout_on_dead_target(cluster, sim):
    cluster.node("p0s0").crash()
    sig = cluster.transport.rpc("p0c0", "p0s0", "svc", "query", {}, timeout=0.5)
    sim.run(until=1.0)
    assert sig.fired
    assert sig.value is None


def test_rpc_handler_returning_none_means_no_reply(cluster, sim):
    cluster.transport.bind("p0s0", "svc", lambda msg: None)
    sig = cluster.transport.rpc("p0c0", "p0s0", "svc", "query", {}, timeout=0.3)
    sim.run(until=1.0)
    assert sig.value is None


def test_os_ping_answers_while_node_up(cluster, sim):
    sig = cluster.transport.ping("p0c0", "p0s0", network="mgmt")
    sim.run(until=0.5)
    assert sig.value == {"pong": True}


def test_os_ping_times_out_when_node_down(cluster, sim):
    cluster.node("p0s0").crash()
    sig = cluster.transport.ping("p0c0", "p0s0", network="mgmt", timeout=0.25)
    sim.run(until=0.5)
    assert sig.value is None


def test_os_ping_survives_daemon_death(cluster, sim):
    """OS answers pings even with no daemons: that's how diagnosis tells
    process failure from node failure."""
    hostos = cluster.hostos("p0s0")
    hp = hostos.start_process("gsd")
    hp.kill()
    sig = cluster.transport.ping("p0c0", "p0s0", network="mgmt")
    sim.run(until=0.5)
    assert sig.value == {"pong": True}


def test_fabric_outage_blocks_everything(cluster, sim):
    inbox = bind_collector(cluster, "p0c1", "svc")
    for net in cluster.networks.values():
        net.set_fabric(False)
    assert cluster.transport.send("p0c0", "p0c1", "svc", "x") is False
    sim.run(until=0.01)
    assert inbox == []


def test_network_split_blocks_cross_group_only(cluster, sim):
    inbox_c1 = bind_collector(cluster, "p0c1", "svc")
    inbox_p1 = bind_collector(cluster, "p1c0", "svc")
    p0 = set(cluster.partition("p0").all_nodes)
    p1 = set(cluster.partition("p1").all_nodes)
    for net in cluster.networks.values():
        net.split([p0, p1])
    cluster.transport.send("p0c0", "p0c1", "svc", "same-side")
    cluster.transport.send("p0c0", "p1c0", "svc", "cross")
    sim.run(until=0.01)
    assert len(inbox_c1) == 1
    assert inbox_p1 == []
    cluster.networks["mgmt"].heal()
    cluster.transport.send("p0c0", "p1c0", "svc", "cross-after-heal", network="mgmt")
    sim.run(until=0.02)
    assert len(inbox_p1) == 1


def test_loss_rate_drops_some_messages(sim):
    from repro.cluster import Cluster, ClusterSpec

    spec = ClusterSpec.build(partitions=1, computes=2, networks=("lossy",), loss_rate=0.5)
    cluster = Cluster(sim, spec)
    inbox = bind_collector(cluster, "p0c1", "svc")
    for _ in range(200):
        cluster.transport.send("p0c0", "p0c1", "svc", "x", network="lossy")
    sim.run(until=1.0)
    assert 40 < len(inbox) < 160  # ~100 expected


def test_message_and_byte_counters(cluster, sim):
    bind_collector(cluster, "p0c1", "svc")
    cluster.transport.send("p0c0", "p0c1", "svc", "x", {"a": 1}, network="mgmt")
    sim.run(until=0.01)
    assert sim.trace.counter("net.mgmt.msgs") == 1
    assert sim.trace.counter("net.mgmt.bytes") > 64


def test_in_flight_link_failure_drops_with_trace(cluster, sim):
    """A message already accepted for transmission is re-checked at
    arrival: a link that dies while it is in flight drops it and the
    ``net.drop`` record carries ``in_flight=True``."""
    inbox = bind_collector(cluster, "p0c1", "svc")
    assert cluster.transport.send("p0c0", "p0c1", "svc", "x", network="mgmt")
    cluster.networks["mgmt"].set_link("p0c1", False)  # fails mid-flight
    sim.run(until=0.01)
    assert inbox == []
    drops = sim.trace.records("net.drop", network="mgmt")
    assert drops and drops[-1].fields.get("in_flight") is True


def test_same_flow_messages_never_reorder(cluster, sim):
    """Per-(src, dst) FIFO: jitter may bunch messages up but a later send
    never overtakes an earlier one on the same flow."""
    inbox = bind_collector(cluster, "p0c1", "svc")
    for i in range(50):
        cluster.transport.send("p0c0", "p0c1", "svc", "seq", {"i": i}, network="mgmt")
    sim.run(until=1.0)
    assert [m.payload["i"] for m in inbox] == list(range(50))
