"""Event service: filtering, federation, state checkpoint + recovery."""

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import message
from repro.cluster.message import wire_size
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


def _thaw(value):
    """The plain-``dict`` deep copy of an event or anything nested in one."""
    if isinstance(value, dict):
        return {k: _thaw(v) for k, v in value.items()}
    return [_thaw(v) for v in value] if isinstance(value, list) else value


def test_an_event_is_a_value():
    """Shared by every outbox, peer and consumer, so nobody may change it —
    and nobody needs to copy it."""
    event = make_event(data={"node": "p0c0", "nics": {"eth0": True}, "tags": ["a"]})
    for mutate in (
        lambda: event.__setitem__("type", "x"),
        lambda: event.__delitem__("type"),
        lambda: event.update(type="x"),
        lambda: event.pop("type"),
        lambda: event.popitem(),
        lambda: event.clear(),
        lambda: event.setdefault("w", 1),
        lambda: event.__ior__({"w": 1}),
        lambda: event.data.__setitem__("node", "x"),
        lambda: event.data["nics"].__setitem__("eth0", False),
    ):
        with pytest.raises(TypeError):
            mutate()
    with pytest.raises(AttributeError):
        event.type = "x"
    assert event.type == ev.NODE_FAILURE and event.data["nics"] == {"eth0": True}
    assert copy.deepcopy(event) is event and copy.copy(event) is event
    assert event.to_payload() is event and Event.from_payload(event) is event
    # A plain dict still decodes.
    plain = dict(event)
    assert type(plain) is dict and Event.from_payload(plain) == event
    assert Event.from_payload(_thaw(event)) == event


_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_DATA = st.dictionaries(st.text(max_size=4), st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
), max_size=4)


@given(_DATA, st.text(max_size=6), st.floats(allow_nan=False))
def test_property_an_event_sizes_like_its_plain_copy(data, span, t):
    """Sized once when it is built: the same bytes as the plain payload it
    replaces, with and without a span, whatever the data nests."""
    event = Event(event_id="ev.p0.0.1", type=ev.DB_DELTA, source="p0s0", partition="p0",
                  time=t, data=data, span=span)
    plain = _thaw(event)
    assert ("span" in plain) == bool(span) and plain["data"] == data
    assert event._size == wire_size(plain)
    assert wire_size({"origin": "p0", "events": [event, event]}) == \
        wire_size({"origin": "p0", "events": [plain, plain]})


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


def test_a_malformed_publish_is_refused_not_raised(kernel, sim):
    """Fails at the parent: event data that is not a dict raised
    ``AttributeError`` out of ``sim.run`` once a where-filtered
    subscription was registered."""
    inbox = subscribe_collector(
        kernel, sim, "p0c0", "c1", types=(ev.NODE_FAILURE,), where={"node": "wanted"})
    client = kernel.client("p0c1")
    for event_type, data in ((ev.NODE_FAILURE, "x"), (ev.NODE_FAILURE, ["wanted"]), (None, {})):
        reply = drive(sim, client.publish(event_type, data))
        assert reply is not None and not reply["ok"]
    sim.run(until=sim.now + 0.5)
    assert sim.trace.counter("es.refused") == 3
    assert "es.published" not in sim.trace.counters()
    publish(kernel, sim, "p0c1", ev.NODE_FAILURE, {"node": "wanted"})
    sim.run(until=sim.now + 0.5)
    assert [e.data["node"] for e in inbox] == ["wanted"]


def test_a_malformed_subscribe_is_refused_not_raised(kernel, sim):
    """Fails at the parent: each payload raised ``KeyError``, ``TypeError``
    or ``ValueError`` out of ``sim.run``.  A refusal answers ``ok: False``
    and is counted; the registry is unchanged."""
    good = {"consumer_id": "c1", "node": "p0c0", "port": "sink.c1"}
    bad = [
        {},
        dict(good, consumer_id=5),
        dict(good, types=5),
        dict(good, types=[ev.NODE_FAILURE, 3]),
        dict(good, where=5),
        dict(good, where=[]),
        dict(good, where={"node": {"op": "~", "value": 1}}),
        dict(good, replay="x"),
        dict(good, replay=-1),
    ]
    es = kernel.placement[("es", "p0")]
    for payload in bad:
        reply = drive(sim, kernel.cluster.transport.rpc("p0c0", es, ports.ES, ports.ES_SUBSCRIBE,
                                                         payload, timeout=5.0))
        assert reply is not None and not reply["ok"] and reply["error"], payload
    assert sim.trace.counter("es.refused") == len(bad)
    inbox = subscribe_collector(kernel, sim, "p0c0", "c1", types=(ev.NODE_FAILURE,))
    publish(kernel, sim, "p0c1", ev.NODE_FAILURE, {"node": "x"})
    sim.run(until=sim.now + 0.5)
    assert len(inbox) == 1


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


def test_a_published_event_is_one_object_on_every_peer(kernel, sim, monkeypatch):
    """Built and sized once at publish: every peer's history and every
    consumer holds that object, and sizing the K forward batches walks
    no event."""
    inbox = subscribe_collector(kernel, sim, "p1c0", "c1", partition="p1")
    publish(kernel, sim, "p0c1", ev.NODE_FAILURE, {"node": "p0c0", "nics": {"eth0": False}},
            partition="p0")
    source = kernel.live_daemon("es", kernel.placement[("es", "p0")])
    event = source._history[-1]
    assert type(event) is Event and any(source._outbox.values())  # queued, not yet sent
    walked = []
    real = message._dict_size
    monkeypatch.setattr(message, "_dict_size", lambda entries: walked.append(entries) or
                        real(entries))
    sim.run(until=sim.now + 0.5)
    peers = [kernel.live_daemon("es", kernel.placement[("es", p)]) for p in ("p1", "p2")]
    assert all(peer._history[-1] is event for peer in peers)
    assert len(inbox) == 1 and inbox[0] is event
    batches = [w for w in walked if "events" in w]
    assert len(batches) == len(peers)
    assert not any(isinstance(w, Event) or "event_id" in w for w in walked)
