"""Accepting a forwarded batch (``EventServiceDaemon._on_forward_batch``)
against the per-event loop it replaced.

:func:`accept_model` is that loop, kept as the specification: each event
is tested against the seen window, which is trimmed after every
acceptance, then stored, delivered and relayed one at a time.  The
handler decides the same things once per batch.  Both run on twin
instances on one booted two-region kernel (``send`` is recorded, nothing
runs), and must leave the same seen set and FIFO order, history,
deliveries, outboxes, reply and counters — except where a batch pushes an
id out of the window and then repeats it: the per-batch trim still
suppresses it (DESIGN.md §8), which its own test pins.
"""

from __future__ import annotations

import functools
from collections import deque
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.cluster.message import Message
from repro.kernel import PhoenixKernel, ports
from repro.kernel.events import service
from repro.kernel.events.filters import Subscription
from repro.kernel.events.service import EventServiceDaemon
from repro.kernel.events.types import Event
from repro.sim import Simulator

COUNTERS = ("es.forward_duplicates", "es.delivered", "es.outbox_dropped")


# -- the reference: the per-event acceptance loop -------------------------------
def accept_model(es: EventServiceDaemon, msg: Message) -> dict:
    """The forward-batch handler as a loop over its events."""
    kernel = es.kernel
    my_region = kernel.region_of(es.partition_id)
    ingress = kernel.region_of(msg.payload["origin"]) != my_region
    home = None if ingress or not kernel.is_aggregator(es.partition_id) else my_region
    accepted = 0
    for event in map(Event.from_payload, msg.payload["events"]):
        if _accept_forward(es, event):
            accepted += 1
            if ingress or (home is not None and kernel.region_of(event.partition) == home):
                _relay_forward(es, event, ingress)
    return {"ok": True, "accepted": accepted}


def _accept_forward(es: EventServiceDaemon, event: Event) -> bool:
    if event.event_id in es._seen_ids:
        es.sim.trace.count("es.forward_duplicates")
        return False
    es._seen_ids.add(event.event_id)
    es._seen_order.append(event.event_id)
    while len(es._seen_order) > es.SEEN_FORWARDS:
        es._seen_ids.discard(es._seen_order.popleft())
    es._history.append(event)
    es._deliver_local(event)
    return True


def _relay_forward(es: EventServiceDaemon, event: Event, ingress: bool) -> None:
    for pid, _node, remote in es.kernel.federation_edges("es", es.partition_id):
        if remote != ingress:  # ingress -> own mesh, egress -> remote aggregators
            pending = es._outbox.setdefault(pid, deque())
            pending.append(event)
            es._trim_outbox(pid, pending)
    es._arm_flush()


# -- twins ----------------------------------------------------------------------
PARTITIONS = ("p0", "p1", "p2", "p3")  # regions (p0, p1) and (p2, p3); p0, p2 aggregate


@functools.lru_cache(maxsize=1)
def _kernel() -> PhoenixKernel:
    sim = Simulator(seed=5)
    kernel = PhoenixKernel(Cluster(sim, ClusterSpec.build(partitions=4, computes=1,
                                                          region_size=2)))
    kernel.boot()
    sim.run(until=30.0)
    assert kernel.region_aggregators == {0: "p0", 1: "p2"}
    return kernel


class _Sent:
    """Stands in for ``send``: records each ``es.event`` push."""

    def __init__(self) -> None:
        self.log: list[tuple] = []

    def __call__(self, node, port, mtype, payload=None, network=None) -> bool:
        self.log.append((node, port, mtype, payload["event"].event_id))
        return True


class _Trims:
    """Wraps ``_trim_outbox``: records each trim that drops forwards."""

    def __init__(self, trim) -> None:
        self.trim, self.log = trim, []

    def __call__(self, part_id, pending) -> None:
        dropped = len(pending) - service.ES_OUTBOX_MAX
        self.trim(part_id, pending)
        if dropped > 0:
            self.log.append((part_id, dropped, [e.event_id for e in pending]))


def _twin(partition: str, window: int, subscribed: bool) -> EventServiceDaemon:
    kernel = _kernel()
    es = EventServiceDaemon(kernel, kernel.placement[("es", partition)])
    es.SEEN_FORWARDS = window
    es.send = _Sent()
    es._trim_outbox = _Trims(es._trim_outbox)
    if subscribed:
        es._subs.add(Subscription("c.a", "p0c0", "app", types=("t.a",)))
        es._subs.add(Subscription("c.all", "p1c0", "app", types=()))
    return es


def _state(es: EventServiceDaemon) -> dict:
    return {
        "seen": set(es._seen_ids),
        "order": list(es._seen_order),
        "history": [e.event_id for e in es._history],
        "sent": list(es.send.log),
        "outbox": {pid: [e.event_id for e in pending] for pid, pending in es._outbox.items()
                   if pending},
        "trims": list(es._trim_outbox.log),
        "delivered": es.delivered,
        "armed": es._flush_timer is not None and es._flush_timer.active,
    }


def _deliver(es: EventServiceDaemon, accept, origin: str, events: list) -> tuple:
    """``accept`` one batch; its reply and the counters it moved."""
    trace = es.sim.trace
    before = [trace.counter(name) for name in COUNTERS]
    msg = Message(src_node=f"{origin}s0", dst_node=es.node_id, dst_port=ports.ES,
                  mtype=ports.ES_FORWARD_BATCH, payload={"origin": origin, "events": events})
    reply = accept(es, msg)
    return reply, [trace.counter(name) - b for name, b in zip(COUNTERS, before)]


def _evicts_then_repeats(order: list[str], window: int, ids: list[str]) -> bool:
    """Would the per-event trim push an id out of the window during this
    batch, and the batch then repeat it?"""
    order, seen, evicted = deque(order), set(order), set()
    for event_id in ids:
        if event_id in evicted:
            return True
        if event_id not in seen:
            seen.add(event_id)
            order.append(event_id)
            while len(order) > window:
                gone = order.popleft()
                seen.discard(gone)
                evicted.add(gone)
    return False


# -- the property ---------------------------------------------------------------
_POOL = 24
_EVENTS = st.lists(st.tuples(st.sampled_from(PARTITIONS), st.sampled_from(("t.a", "t.b"))),
                   min_size=_POOL, max_size=_POOL)
_BATCHES = st.lists(st.tuples(st.sampled_from(PARTITIONS),
                              st.lists(st.integers(0, _POOL - 1), max_size=12)),
                    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(receiver=st.sampled_from(("p0", "p1", "p2")), window=st.integers(2, 40),
       subscribed=st.booleans(), outbox_max=st.sampled_from((3, 1024)),
       shapes=_EVENTS, batches=_BATCHES, plain=st.booleans())
def test_the_batch_handler_accepts_what_the_per_event_loop_accepts(
        receiver, window, subscribed, outbox_max, shapes, batches, plain):
    """Ids seen before and repeated inside a batch, window overflow, ingress
    and egress relays, with and without subscribers, Events and their plain
    copies: the same replies, counters, window, history, pushes and
    outboxes, batch after batch."""
    events = [Event(f"ev.{i}", kind, f"{part}s0", part, 1.0 + i, {"i": i})
              for i, (part, kind) in enumerate(shapes)]
    model, change = (_twin(receiver, window, subscribed) for _ in range(2))
    with mock.patch.object(service, "ES_OUTBOX_MAX", outbox_max):
        for origin, picks in batches:
            if origin == receiver:
                continue
            if _evicts_then_repeats(list(model._seen_order), window,
                                    [events[i].event_id for i in picks]):
                break  # the per-batch trim suppresses more: see the test below
            batch = [dict(events[i]) if plain else events[i] for i in picks]
            assert _deliver(change, EventServiceDaemon._on_forward_batch, origin, batch) == \
                _deliver(model, accept_model, origin, batch)
            assert _state(change) == _state(model)


def test_a_batch_that_overflows_the_window_still_suppresses_its_repeats():
    """A window of 2 holding ``a, b``; the batch ``c, d, a``: the per-event
    trim evicts ``a`` before the batch repeats it and accepts it again, the
    per-batch trim (briefly 2 + 2 ids) counts it a duplicate.  Afterwards
    the window holds ``SEEN_FORWARDS`` ids again."""
    a, b, c, d = (Event(f"ev.{n}", "t.a", "p1s0", "p1", 1.0) for n in "abcd")
    model, change = (_twin("p0", 2, False) for _ in range(2))
    for es, accept in ((model, accept_model), (change, EventServiceDaemon._on_forward_batch)):
        assert _deliver(es, accept, "p1", [a, b])[0]["accepted"] == 2
    assert _deliver(model, accept_model, "p1", [c, d, a]) == ({"ok": True, "accepted": 3},
                                                              [0, 0, 0])
    assert _deliver(change, EventServiceDaemon._on_forward_batch, "p1", [c, d, a]) == (
        {"ok": True, "accepted": 2}, [1, 0, 0])
    assert list(change._seen_order) == ["ev.c", "ev.d"] and change._seen_ids == {"ev.c", "ev.d"}
    assert list(model._seen_order) == ["ev.d", "ev.a"]
    assert [e.event_id for e in change._history] == ["ev.a", "ev.b", "ev.c", "ev.d"]
