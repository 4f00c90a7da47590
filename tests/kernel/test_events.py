"""Event service: filtering, federation, state checkpoint + recovery."""

from repro.kernel import ports
from repro.kernel.events import types as ev
from repro.kernel.events.filters import Subscription
from repro.kernel.events.types import Event
from repro.sim import drive


def make_event(**over):
    base = dict(
        event_id="e1", type=ev.NODE_FAILURE, source="p0s0", partition="p0",
        time=1.0, data={"node": "p0c0"},
    )
    base.update(over)
    return Event(**base)


# -- subscription filter unit tests -----------------------------------------


def test_subscription_matches_type_and_where():
    sub = Subscription("c1", "n", "p", types=(ev.NODE_FAILURE,), where={"node": "p0c0"})
    assert sub.matches(make_event())
    assert not sub.matches(make_event(type=ev.NODE_RECOVERY))
    assert not sub.matches(make_event(data={"node": "other"}))
    assert not sub.matches(make_event(data={}))


def test_subscription_empty_types_means_all():
    sub = Subscription("c1", "n", "p", types=())
    assert sub.matches(make_event())
    assert sub.matches(make_event(type=ev.APP_STARTED))


def test_subscription_payload_roundtrip():
    sub = Subscription("c1", "n", "p", types=(ev.APP_EXITED,), where={"job_id": "j1"})
    assert Subscription.from_payload(sub.to_payload()) == sub


def test_event_payload_roundtrip():
    event = make_event()
    assert Event.from_payload(event.to_payload()) == event


# -- integration helpers ------------------------------------------------------


def subscribe_collector(kernel, sim, node, consumer_id, types=(), where=None, partition=None):
    """Register a consumer and return the list its events land in."""
    inbox = []
    port = f"sink.{consumer_id}"
    kernel.cluster.transport.bind(
        node, port, lambda msg: inbox.append(Event.from_payload(msg.payload["event"]))
    )
    reply = drive(sim, kernel.client(node).subscribe(
        consumer_id, port, types=types, where=where, partition=partition))
    assert reply and reply["ok"]
    return inbox


def publish(kernel, sim, node, event_type, data, partition=None):
    reply = drive(sim, kernel.client(node).publish(event_type, data, partition=partition))
    assert reply and reply["ok"]


# -- integration tests -------------------------------------------------------


def test_publish_reaches_matching_local_consumer(kernel, sim):
    inbox = subscribe_collector(kernel, sim, "p0c0", "c1", types=(ev.NODE_FAILURE,))
    publish(kernel, sim, "p0c1", ev.NODE_FAILURE, {"node": "x"})
    sim.run(until=sim.now + 0.5)
    assert len(inbox) == 1
    assert inbox[0].type == ev.NODE_FAILURE
    assert inbox[0].data == {"node": "x"}


def test_type_filtering(kernel, sim):
    inbox = subscribe_collector(kernel, sim, "p0c0", "c1", types=(ev.APP_STARTED,))
    publish(kernel, sim, "p0c1", ev.NODE_FAILURE, {})
    sim.run(until=sim.now + 0.5)
    assert inbox == []


def test_where_filtering(kernel, sim):
    inbox = subscribe_collector(
        kernel, sim, "p0c0", "c1", types=(ev.NODE_FAILURE,), where={"node": "wanted"})
    publish(kernel, sim, "p0c1", ev.NODE_FAILURE, {"node": "other"})
    publish(kernel, sim, "p0c1", ev.NODE_FAILURE, {"node": "wanted"})
    sim.run(until=sim.now + 0.5)
    assert [e.data["node"] for e in inbox] == ["wanted"]


def test_federation_forwards_across_partitions(kernel, sim):
    """An event published in p2 reaches a consumer registered at p0's ES."""
    inbox = subscribe_collector(kernel, sim, "p0c0", "c1", types=(ev.NODE_FAILURE,), partition="p0")
    publish(kernel, sim, "p2c1", ev.NODE_FAILURE, {"node": "y"}, partition="p2")
    sim.run(until=sim.now + 0.5)
    assert len(inbox) == 1
    assert inbox[0].partition == "p2"


def test_unsubscribe_stops_delivery(kernel, sim):
    inbox = subscribe_collector(kernel, sim, "p0c0", "c1")
    reply = drive(sim, kernel.client("p0c0").unsubscribe("c1"))
    assert reply["ok"]
    publish(kernel, sim, "p0c1", ev.NODE_FAILURE, {})
    sim.run(until=sim.now + 0.5)
    assert inbox == []


def test_unsubscribe_unknown_consumer(kernel, sim):
    reply = drive(sim, kernel.client("p0c0").unsubscribe("ghost"))
    assert reply == {"ok": False}


def test_event_ids_unique_and_ordered(kernel, sim):
    inbox = subscribe_collector(kernel, sim, "p0c0", "c1")
    for i in range(5):
        publish(kernel, sim, "p0c1", ev.NODE_FAILURE, {"i": i})
    sim.run(until=sim.now + 0.5)
    ids = [e.event_id for e in inbox]
    assert len(set(ids)) == 5
    assert [e.data["i"] for e in inbox] == list(range(5))


def test_subscriptions_survive_es_restart_via_checkpoint(kernel, sim, injector):
    """Figure 4: recovered ES retrieves its state from the checkpoint service."""
    inbox = subscribe_collector(kernel, sim, "p0c0", "c1", types=(ev.NODE_FAILURE,))
    sim.run(until=sim.now + 1.0)  # let the subscription checkpoint land
    es_node = kernel.placement[("es", "p0")]
    injector.kill_process(es_node, "es")
    fresh = kernel.start_service("es", es_node)
    sim.run(until=sim.now + 1.0)
    assert [s.consumer_id for s in fresh.subscriptions()] == ["c1"]
    assert sim.trace.records("es.state_recovered")
    publish(kernel, sim, "p0c1", ev.NODE_FAILURE, {"node": "after-restart"})
    sim.run(until=sim.now + 0.5)
    assert [e.data["node"] for e in inbox] == ["after-restart"]


def test_delivery_counters(kernel, sim):
    subscribe_collector(kernel, sim, "p0c0", "c1")
    publish(kernel, sim, "p0c1", ev.NODE_FAILURE, {})
    sim.run(until=sim.now + 0.5)
    assert sim.trace.counter("es.published") >= 1
    assert sim.trace.counter("es.delivered") >= 1

