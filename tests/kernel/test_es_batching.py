"""Batched ES federation: coalescing, ordering, equivalence with the
naive per-event forward, and outbox survival across faults."""

import random

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.kernel import KernelTimings, PhoenixKernel
from repro.kernel.events.filters import Subscription
from repro.kernel.events.types import Event
from repro.kernel.ports import ES, ES_EVENT, ES_FORWARD_BATCH
from repro.kernel.timings import RPC_TIMEOUT
from repro.sim import Simulator, drive
from repro.userenv.monitoring import messaging_report
from tests.kernel.test_events import publish, subscribe_collector

FORWARD_COUNTERS = (
    "es.forward_batches",
    "es.forward_batched_events",
    "es.forward_requeued",
    "es.forward_duplicates",
)


def forward_counters(sim):
    return {name: sim.trace.counter(name) for name in FORWARD_COUNTERS}


def assert_monotone(before, after):
    for name, value in before.items():
        assert after[name] >= value, f"{name} went backwards: {value} -> {after[name]}"


# -- coalescing ---------------------------------------------------------------


def test_publish_burst_coalesces_into_few_batches(kernel, sim):
    """A burst inside one flush window crosses each partition boundary in
    one datagram, not one per event — and arrives complete, in order."""
    inbox = subscribe_collector(kernel, sim, "p1c0", "c1", types=("custom.*",), partition="p1")
    before = forward_counters(sim)
    for i in range(8):
        publish(kernel, sim, "p0c0", "custom.tick", {"i": i}, partition="p0")
    sim.run(until=sim.now + 2.0)
    after = forward_counters(sim)
    assert_monotone(before, after)
    assert [e.data["i"] for e in inbox] == list(range(8))
    batches = after["es.forward_batches"] - before["es.forward_batches"]
    events = after["es.forward_batched_events"] - before["es.forward_batched_events"]
    assert events == 16  # 8 events x 2 remote partitions
    assert batches < events  # the tentpole: fewer datagrams than forwards
    assert after["es.forward_duplicates"] == before["es.forward_duplicates"]


def test_batch_size_cap_spills_overflow_to_next_window(monkeypatch):
    monkeypatch.setattr("repro.kernel.events.service.ES_FORWARD_BATCH_MAX", 3)
    sim = Simulator(seed=11)
    cluster = Cluster(sim, ClusterSpec.build(partitions=2, computes=2))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=30.0))
    kernel.boot()
    sim.run(until=1.0)
    inbox = subscribe_collector(kernel, sim, "p1c0", "c1", types=("custom.*",), partition="p1")
    for i in range(7):
        publish(kernel, sim, "p0c0", "custom.tick", {"i": i}, partition="p0")
    sim.run(until=sim.now + 2.0)
    assert [e.data["i"] for e in inbox] == list(range(7))
    # 7 events over a cap of 3 needs at least ceil(7/3) = 3 batches.
    assert sim.trace.counter("es.forward_batches") >= 3


def test_admin_stop_drains_outbox(kernel, sim):
    """An administrative stop mid-window must not strand accepted events:
    the dying instance flushes its outbox on the way down."""
    inbox = subscribe_collector(kernel, sim, "p1c0", "c1", types=("custom.*",), partition="p1")
    sim.run(until=sim.now + 0.5)
    es = kernel.live_daemon("es", kernel.placement[("es", "p0")])
    publish(kernel, sim, "p0c0", "custom.tick", {"i": 1}, partition="p0")
    assert es.outbox_depth() > 0  # publish acked before the flush window
    es.stop()
    sim.run(until=sim.now + 1.0)
    assert [e.data["i"] for e in inbox] == [1]


# -- randomized equivalence with a naive unbatched full-scan reference --------


def test_randomized_stream_matches_naive_reference(kernel, sim):
    """Property check over the whole delivery pipeline: for a seeded
    stream of subscribes/unsubscribes and publish bursts with mixed
    ``where`` clauses, the batched + where-key-indexed implementation
    delivers exactly the (consumer, event_id) sequence predicted by a
    naive reference that forwards nothing and full-scans every
    subscription with ``Subscription.matches`` per event."""
    rng = random.Random(31)
    parts = {"p0": "p0c0", "p1": "p1c0", "p2": "p2c0"}
    type_pool = ["node.failure", "node.recovery", "app.started", "custom.tick"]
    node_pool = ["p0c0", "p1c1", "p2c0", "elsewhere"]

    def rand_where():
        roll = rng.random()
        if roll < 0.30:
            return {}
        if roll < 0.55:
            return {"node": rng.choice(node_pool)}
        if roll < 0.70:
            return {"node": {"op": "==", "value": rng.choice(node_pool)}}
        if roll < 0.85:
            return {"k": {"op": ">=", "value": rng.randint(0, 2)}}
        return {"node": rng.choice(node_pool), "k": rng.randint(0, 3)}

    def rand_types():
        return tuple(rng.sample(type_pool, rng.randint(0, 2)))

    def rand_data():
        data = {}
        if rng.random() < 0.8:
            data["node"] = rng.choice(node_pool)
        if rng.random() < 0.8:
            data["k"] = rng.randint(0, 3)
        return data

    # The naive reference: per ES instance, the registry in registration
    # order (dict insertion order mirrors SubscriptionIndex slots).
    reference = {p: {} for p in parts}
    inboxes, homes, expected = {}, {}, {}

    def subscribe(cid):
        part = homes.setdefault(cid, rng.choice(sorted(parts)))
        node, port = parts[part], f"sink.{cid}"
        if cid not in inboxes:
            inboxes[cid] = []
            expected[cid] = []
            kernel.cluster.transport.bind(
                node, port,
                lambda msg, cid=cid: inboxes[cid].append(Event.from_payload(msg.payload["event"])),
            )
        types, where = rand_types(), rand_where()
        reply = drive(sim, kernel.client(node).subscribe(
            cid, port, types=types, where=where, partition=part))
        assert reply and reply["ok"]
        reference[part][cid] = Subscription(cid, node, port, types=types, where=where)

    def unsubscribe(cid):
        part = homes[cid]
        drive(sim, kernel.client(parts[part]).unsubscribe(cid, partition=part))
        reference[part].pop(cid, None)

    for i in range(9):
        subscribe(f"c{i}")

    for burst in range(12):
        src_part = rng.choice(sorted(parts))
        src_node = parts[src_part]
        for _ in range(rng.randint(2, 5)):
            etype, data = rng.choice(type_pool), rand_data()
            reply = drive(sim, kernel.client(src_node).publish(
                etype, data, partition=src_part))
            assert reply and reply["ok"]
            event = Event(event_id=reply["event_id"], type=etype, source=src_node,
                          partition=src_part, time=sim.now, data=data)
            for registry in reference.values():
                for sub in registry.values():  # naive full scan, every instance
                    if sub.matches(event):
                        expected[sub.consumer_id].append(event.event_id)
        sim.run(until=sim.now + 2.0)  # batches flushed, deliveries settled
        roll = rng.random()
        if roll < 0.3:
            unsubscribe(rng.choice(sorted(homes)))
        elif roll < 0.6:
            subscribe(rng.choice([f"c{rng.randint(0, 8)}", f"c{9 + burst}"]))

    assert sum(len(seq) for seq in expected.values()) > 30  # stream not vacuous
    for cid, inbox in inboxes.items():
        got = [e.event_id for e in inbox]
        assert got == expected[cid], f"divergence for {cid}"
    # And the transport actually batched: more events forwarded than datagrams.
    assert (sim.trace.counter("es.forward_batches")
            < sim.trace.counter("es.forward_batched_events"))


# -- duplicate suppression ------------------------------------------------------


def test_a_redelivered_batch_is_all_duplicates_and_an_overlap_accepts_its_new_half(monkeypatch):
    """A retry after a lost ack delivers one ``es.forward_batch`` twice: the
    second answers ``accepted: 0``, counts each event a duplicate, and
    pushes and relays nothing.  A batch half made of seen events accepts
    only its new half.  The receiver is region 0's aggregator and the batch
    comes from region 1, so each fresh event is relayed to its mesh."""
    sim = Simulator(seed=11)
    cluster = Cluster(sim, ClusterSpec.build(partitions=4, computes=1, region_size=2))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=30.0))
    kernel.boot()
    sim.run(until=30.0)
    assert kernel.is_aggregator("p0")
    local = subscribe_collector(kernel, sim, "p0c0", "c0", types=("custom.*",), partition="p0")
    meshed = subscribe_collector(kernel, sim, "p1c0", "c1", types=("custom.*",), partition="p1")
    receiver, sender = kernel.placement[("es", "p0")], kernel.placement[("es", "p2")]
    events = [Event(f"ev.p2.retry.{i}", "custom.tick", "p2c0", "p2", sim.now, {"i": i})
              for i in range(6)]
    out = []  # (type, event ids) of every push and batch the receiver sends
    send = cluster.transport.send

    def spy(src, dst, port, mtype, payload=None, *args, **kwargs):
        if src == receiver and mtype == ES_EVENT:
            out.append((mtype, [payload["event"].event_id]))
        elif src == receiver and mtype == ES_FORWARD_BATCH:
            out.append((mtype, [e["event_id"] for e in payload["events"]]))
        return send(src, dst, port, mtype, payload, *args, **kwargs)

    monkeypatch.setattr(cluster.transport, "send", spy)

    def deliver(batch):
        """(accepted, duplicates counted, what the receiver sent) for one batch."""
        before, out[:] = sim.trace.counter("es.forward_duplicates"), []
        reply = drive(sim, cluster.transport.rpc(sender, receiver, ES, ES_FORWARD_BATCH,
                                                 {"origin": "p2", "events": batch}))
        sim.run(until=sim.now + 1.0)  # past the flush window: relays are out
        return reply["accepted"], sim.trace.counter("es.forward_duplicates") - before, list(out)

    ids = [e.event_id for e in events]
    accepted, duplicates, sent = deliver(events[:4])
    assert (accepted, duplicates) == (4, 0)
    assert sent == [(ES_EVENT, [i]) for i in ids[:4]] + [(ES_FORWARD_BATCH, ids[:4])]
    assert deliver(events[:4]) == (0, 4, [])
    accepted, duplicates, sent = deliver(events[2:])
    assert (accepted, duplicates) == (2, 2)
    assert sent == [(ES_EVENT, [i]) for i in ids[4:]] + [(ES_FORWARD_BATCH, ids[4:])]
    assert [e.event_id for e in local] == [e.event_id for e in meshed] == ids


# -- fault injection: outbox survives sender restart + peer migration --------


def test_outbox_survives_es_kill_and_peer_server_crash():
    """Mid-batch-window double fault: the peer partition's server dies
    (batch unacked -> requeued + checkpointed), then the *sender* ES is
    killed with the outbox stranded.  The restarted sender recovers the
    outbox from its checkpoint and the flush re-delivers once the peer's
    ES has migrated to the backup node — no accepted event is lost and no
    forward counter goes backwards.

    A crashed peer is found by timeout, so every failed batch has already
    spent its RPC budget: the sender never holds p1 (checked after every
    event), which keeps the crash-driven artefacts on their cadence."""

    def run_never_holding_p1(until):
        while (due := sim.peek()) is not None and due <= until:
            sim.step()
            sender = kernel.live_daemon("es", kernel.placement[("es", "p0")])
            assert sender is None or "p1" not in sender._held, f"p1 held at {sim.now}"
        sim.run(until=until)

    sim = Simulator(seed=13)
    cluster = Cluster(sim, ClusterSpec.build(partitions=3, computes=2))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=5.0))
    kernel.boot()
    injector = FaultInjector(cluster)
    sim.run(until=6.0)

    inbox = subscribe_collector(kernel, sim, "p1c0", "c1", types=("custom.*",), partition="p1")
    sim.run(until=sim.now + 1.0)  # subscription checkpoint lands in p1's store

    samples = [forward_counters(sim)]
    injector.crash_node("p1s0")  # peer partition's server (hosts p1's ES)
    for i in range(6):
        publish(kernel, sim, "p0c0", "custom.tick", {"i": i}, partition="p0")
    run_never_holding_p1(sim.now + 3.0)  # batch to p1 fails, requeues, checkpoints
    samples.append(forward_counters(sim))
    assert sim.trace.counter("es.forward_requeued") > 0
    sender = kernel.live_daemon("es", kernel.placement[("es", "p0")])
    assert sender.outbox_depth() >= 6

    t_kill = sim.now
    injector.kill_process("p0s0", "es")  # sender dies with the outbox stranded
    run_never_holding_p1(sim.now + 40.0)  # GSD restarts sender; peer ES migrates
    samples.append(forward_counters(sim))

    recovered = [r for r in sim.trace.records("es.state_recovered") if r.time > t_kill]
    assert any(r["outbox"] >= 6 for r in recovered)  # flush-on-recovery reloaded it
    assert kernel.placement[("es", "p1")] == "p1b0"  # peer migrated to backup
    assert [e.data["i"] for e in inbox] == list(range(6))  # delivered once, in order
    for before, after in zip(samples, samples[1:]):
        assert_monotone(before, after)


def test_split_is_quiet_and_loses_nothing():
    """While a split cuts p0 off, every batch to p1 and p2 is refused at
    source.  The sender paces each peer to one batch (and one requeue
    checkpoint) per RPC budget instead of one per flush window, and once
    the split heals the held forwards arrive once, in order, within a
    budget."""
    hb = 5.0
    sim = Simulator(seed=13)
    cluster = Cluster(sim, ClusterSpec.build(partitions=3, computes=2))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=hb))
    kernel.boot()
    injector = FaultInjector(cluster)
    sim.run(until=2 * hb)
    inbox = subscribe_collector(kernel, sim, "p1c0", "c1", types=("custom.*",), partition="p1")
    sim.run(until=sim.now + 1.0)
    sender = kernel.live_daemon("es", kernel.placement[("es", "p0")])

    cut = set(cluster.partitions[0].all_nodes)
    rest = {n for part in cluster.partitions[1:] for n in part.all_nodes}
    for net in cluster.networks:
        injector.split_network(net, [cut, rest])
    t0, batches, ckpts = sim.now, sender.forward_batches, sender.ckpt_writes
    k = 8
    for i in range(k):
        publish(kernel, sim, "p0c0", "custom.tick", {"i": i}, partition="p0")
    sim.run(until=t0 + 3 * hb)
    hold = sim.now - t0
    bound = 2 * (hold / RPC_TIMEOUT + 1)  # two peers, one batch per budget each
    assert sim.trace.counter("es.forward_requeued") > 0  # the split did refuse them
    assert sender.forward_batches - batches <= bound
    assert sender.ckpt_writes - ckpts <= bound
    assert inbox == []

    for net in cluster.networks:
        injector.heal_network(net)
    sim.run(until=sim.now + RPC_TIMEOUT + 1.0)
    assert [e.data["i"] for e in inbox] == list(range(k))  # once each, in order
    assert sender.alive and kernel.placement[("es", "p0")] == sender.node_id


# -- outbox high-water mark ---------------------------------------------------


def test_outbox_high_water_mark_drops_oldest_on_peer_outage(monkeypatch):
    """A wedged peer must not grow the sender's outbox (and therefore its
    checkpoint payload) without bound: past ``ES_OUTBOX_MAX`` the oldest
    queued forwards are dropped, traced, and counted."""
    monkeypatch.setattr("repro.kernel.events.service.ES_OUTBOX_MAX", 4)
    sim = Simulator(seed=11)
    cluster = Cluster(sim, ClusterSpec.build(partitions=2, computes=2))
    kernel = PhoenixKernel(
        cluster,
        # A huge heartbeat interval keeps the GSD from recovering the peer
        # within the test window — the outage stays in effect throughout.
        timings=KernelTimings(heartbeat_interval=120.0),
    )
    kernel.boot()
    injector = FaultInjector(cluster)
    sim.run(until=1.0)

    injector.crash_node("p1s0")  # peer partition's ES is now unreachable
    for i in range(12):
        publish(kernel, sim, "p0c0", "custom.tick", {"i": i}, partition="p0")
    sim.run(until=sim.now + 10.0)

    dropped = sim.trace.counter("es.outbox_dropped")
    assert dropped >= 1
    marks = sim.trace.records("es.outbox_overflow", node="p0s0", peer="p1")
    assert marks and all(r["depth"] <= 4 for r in marks)
    sender = kernel.live_daemon("es", kernel.placement[("es", "p0")])
    pending = sender._outbox["p1"]
    assert len(pending) <= 4  # bounded at the cap despite 12 publishes
    # Drop-oldest: what remains queued is a newest-first suffix, in order.
    kept = [p["data"]["i"] for p in pending]
    assert kept == sorted(kept)
    report = messaging_report(sim.trace)
    assert report["es"]["outbox_dropped"] == dropped


def test_where_key_nobody_configured_is_bucketed_from_first_subscription():
    """The subscription index derives its keys from the subscriptions it
    sees: ``severity`` is bucketed the moment one consumer pins it."""
    sim = Simulator(seed=11)
    cluster = Cluster(sim, ClusterSpec.build(partitions=2, computes=2))
    kernel = PhoenixKernel(cluster)
    kernel.boot()
    sim.run(until=1.0)
    es = kernel.live_daemon("es", kernel.placement[("es", "p0")])
    assert "severity" not in es._subs._eq

    inbox = []
    cluster.transport.bind(
        "p0c0", "sink", lambda m: inbox.append(Event.from_payload(m.payload["event"])))
    reply = drive(sim, kernel.client("p0c0").subscribe(
        "c1", "sink", types=("custom.*",), where={"severity": "high"}, partition="p0"))
    assert reply and reply["ok"]
    assert es._subs._eq["severity"] == {"high": {"c1"}}
    # ...and filtering through it still delivers exactly the matches.
    publish(kernel, sim, "p0c1", "custom.alert", {"severity": "low"}, partition="p0")
    publish(kernel, sim, "p0c1", "custom.alert", {"severity": "high"}, partition="p0")
    sim.run(until=sim.now + 1.0)
    assert [e.data["severity"] for e in inbox] == ["high"]
