"""Event service daemon — the communication channel of the Phoenix kernel.

One instance runs on each partition's server node; the instances federate
(complete graph): an event published at any instance reaches matching
consumers registered at *every* instance, so from a consumer's point of
view there is a single cluster-wide event bus with a single access point
(paper §4.4).

State (the subscription registry) is checkpointed after changes —
**debounced**, so a subscribe burst coalesces into one full-registry save
per window; a restarted or migrated instance "will retrieve its state
data from the checkpoint service" (paper, Figure 4 discussion) and
re-announces its location to its federation peers.

Delivery uses the :class:`~repro.kernel.events.filters.SubscriptionIndex`
(type-prefix + hot where-key buckets) instead of scanning every
subscription per event — same delivered set, O(candidates) instead of
O(consumers) on the publish hot path.

Federation forwards are **batched**: a publish builds its event value
(:class:`~repro.kernel.events.types.Event`) once and appends it to each
peer's outbox, drained once per ``ES_FORWARD_FLUSH`` window into one
acked ``es.forward_batch`` per peer; receivers share that object and
decide relays once per batch.  A batch the peer never acked is re-queued
(in order) and the stranded outbox is folded into the state checkpoint,
so a migrated instance re-delivers it after recovery; an administrative
stop drains the outbox before the process dies.  Each peer's outbox is
capped at ``ES_OUTBOX_MAX``: a long peer outage drops the *oldest* queued
forwards (traced as ``es.outbox_overflow``) instead of growing the
checkpoint without bound.  A batch that fails *sooner* than its ``RPC_TIMEOUT``
budget (a send refused at source, as across a network split) *holds* its
peer until the budget has passed since the batch left, so an unreachable
peer costs one batch per budget, as a crashed one does; a batch that
timed out has spent its budget and holds nothing.

Observability: every publish opens an ``es.publish`` span (parented on
the supplier's span when the publish payload carries ``_span``); its id
rides on the event across the federation, so each delivery — local or
remote — records an ``es.deliver`` span whose duration is the true
publish→consumer latency and whose parent is the publish span.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Any

from repro.cluster.message import Message
from repro.kernel import ports
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.events.filters import Subscription, SubscriptionIndex
from repro.kernel.events.types import Event, batch_to_payload
from repro.kernel.timings import (
    ES_FORWARD_BATCH_MAX,
    ES_FORWARD_FLUSH,
    ES_OUTBOX_MAX,
    RPC_TIMEOUT,
)
from repro.sim import Timer
from repro.util import IdAllocator

#: An instance's checkpoint (``es.subscriptions.<partition>``): subscriptions
#: as a live subscribe is checked, and per-peer forwards, each an ``Event``
#: an instance built from a checked publish.
_REGISTRY = ports.record("registry", subs=ports.opt(ports.each(ports.Kind(
    "subscription", lambda v, names: not ports.CONTRACTS[ports.ES_SUBSCRIBE].refusal(v, names)))),
    outbox=ports.opt(ports.mapping(ports.PARTITION, ports.each(
        ports.Kind("event", lambda v, _: isinstance(v, Event))))))

_EVENT_ID = itemgetter("event_id")


class EventServiceDaemon(ServiceDaemon):
    """Per-partition event service instance."""

    SERVICE = "es"

    #: Recent events retained for late-subscriber replay (extension; the
    #: paper's ES is purely real-time).
    HISTORY = 256
    #: Recently-seen forwarded event ids kept for duplicate suppression
    #: (a retried batch whose ack was lost re-executes the handler).
    SEEN_FORWARDS = 4 * HISTORY

    def __init__(self, kernel, node_id: str) -> None:
        super().__init__(kernel, node_id)
        self._subs = SubscriptionIndex()
        # The prefix carries an incarnation stamp (start time in us): a
        # restarted instance's counter starts over, and a reused event id
        # would make peers' duplicate suppression swallow a *new* event.
        self._ids = IdAllocator(f"ev.{self.partition_id}.{round(self.sim.now * 1e6)}")
        self._history: deque[Event] = deque(maxlen=self.HISTORY)
        self._ckpt_key = f"es.subscriptions.{self.partition_id}"
        #: Federation outbox: peer partition id -> pending events.
        self._outbox: dict[str, deque[Event]] = {}
        #: Peers with a batch awaiting its ack (one in flight per peer,
        #: so forwards stay FIFO per partition even across retries).
        self._inflight_batch: dict[str, list[Event]] = {}
        #: Peers whose last batch failed before its RPC budget ran out:
        #: no flush to them until that budget has passed.
        self._held: set[str] = set()
        self._flush_timer: Timer | None = None
        #: Duplicate suppression for re-received forwards (set + FIFO).
        self._seen_ids: set[str] = set()
        self._seen_order: deque[str] = deque()
        self.published = 0
        self.delivered = 0
        self.ckpt_writes = 0
        self.forward_batches = 0
        self.forward_batched_events = 0

    # -- lifecycle -----------------------------------------------------------
    def on_start(self) -> None:
        # The flush timer calls back into this daemon: a dead incarnation
        # drops it, or it would stay alive in a cycle only the collector could free.
        self.hp.on_kill(self._release_flush_timer)
        self.spawn(self._recover_state(), name=f"{self.node_id}/es.recover")

    def _release_flush_timer(self) -> None:
        self._flush_timer = None

    def stop(self) -> None:
        """Administrative stop/migration: drain the federation outbox
        before the process dies so no accepted event is stranded."""
        if self.alive:
            self._drain_outbox_final()
        if self._flush_timer is not None:
            self._flush_timer.cancel()
        super().stop()

    def _recover_state(self):
        """Reload the subscription registry from the checkpoint service."""
        loaded = yield from self.load_state(self._ckpt_key, _REGISTRY.check)
        if loaded:
            for payload in loaded["data"].get("subs") or ():
                self._subs.add(Subscription.from_payload(payload))
            # Forwards the previous incarnation could not deliver (peer
            # down at the time) come back too: flush-on-recovery re-sends
            # them once the peer is reachable again.
            restored = 0
            for part_id, events in (loaded["data"].get("outbox") or {}).items():
                if events and part_id != self.partition_id:
                    pending = self._outbox.setdefault(part_id, deque())
                    pending.extend(events)
                    restored += len(events)
                    self._trim_outbox(part_id, pending)
            self.sim.trace.mark("es.state_recovered", node=self.node_id, subs=len(self._subs),
                                outbox=restored)
            if restored:
                self._arm_flush()
        # Tell peers along our federation edges (their peer table may
        # point at a dead node after migration).
        for _pid, peer, _remote in self.kernel.federation_edges("es", self.partition_id):
            self.send(peer, ports.ES, ports.ES_PEERS, {"partition": self.partition_id, "node": self.node_id})

    # -- message handlers ----------------------------------------------------
    def _on_subscribe(self, msg: Message) -> dict[str, Any]:
        replay = msg.payload.get("replay") or 0
        sub = Subscription.from_payload(msg.payload)
        self._subs.add(sub)
        self.save_state_soon(self._ckpt_key, self._registry_snapshot)
        # Optional catch-up: re-push the last N matching retained events
        # so a late joiner (e.g. a monitor restarted mid-incident) sees
        # recent history before live traffic.
        if replay > 0:
            matching = [e for e in self._history if sub.matches(e)][-replay:]
            for event in matching:
                self.delivered += 1
                self.sim.trace.count("es.replayed")
                self.send(sub.node, sub.port, ports.ES_EVENT, {"event": event, "replayed": True})
        return {"ok": True, "consumer_id": sub.consumer_id}

    def _on_unsubscribe(self, msg: Message) -> dict[str, Any]:
        removed = self._subs.remove(msg.payload["consumer_id"])
        self.save_state_soon(self._ckpt_key, self._registry_snapshot)
        return {"ok": removed is not None}

    def _on_publish(self, msg: Message) -> dict[str, Any]:
        pub_span = self.sim.trace.span(
            "es.publish",
            parent=msg.payload.get("_span", ""),
            node=self.node_id,
            type=msg.payload["type"],
        )
        event = Event(
            event_id=self._ids.next(),
            type=msg.payload["type"],
            source=msg.src_node,
            partition=self.partition_id,
            time=self.sim.now,
            data=msg.payload.get("data"),
            span=pub_span.span_id,
        )
        self.published += 1
        self.sim.trace.count("es.published")
        self._history.append(event)
        self._deliver_local(event)
        self._fan_out(event, self._federation_peers())
        self._arm_flush()
        pub_span.end(event_id=event.event_id)
        return {"ok": True, "event_id": event.event_id}

    def _federation_peers(self) -> list[str]:
        """Peers this instance forwards its own publishes to (DESIGN.md
        §16): its region's mesh, plus — when this partition is its region's
        elected aggregator — every other region's aggregator.
        """
        funnel = self.kernel.is_aggregator(self.partition_id)
        return [
            pid for pid, _node, remote in self.kernel.federation_edges("es", self.partition_id)
            if funnel or not remote
        ]

    def _on_forward_batch(self, msg: Message) -> dict[str, Any]:
        """Accept a forwarded batch (DESIGN.md §8): an event whose id is in
        the seen window is a duplicate (a retried batch whose ack was lost
        re-executes this handler); the fresh ones, in batch order, join the
        window, the history and local delivery, and are relayed by §16's rule."""
        events = msg.payload["events"]
        seen, fresh = self._seen_ids, []
        for event in map(Event.from_payload, events):
            event_id = event["event_id"]
            if event_id not in seen:
                seen.add(event_id)
                fresh.append(event)
        if len(fresh) < len(events):
            self.sim.trace.count("es.forward_duplicates", len(events) - len(fresh))
        if not fresh:
            return {"ok": True, "accepted": 0}
        # Trimmed once per batch: the window briefly holds up to a batch
        # more than SEEN_FORWARDS, so it suppresses at least what a
        # per-event trim would.
        order = self._seen_order
        order.extend(map(_EVENT_ID, fresh))
        while len(order) > self.SEEN_FORWARDS:
            seen.discard(order.popleft())
        self._history.extend(fresh)
        if self._subs:
            for event in fresh:
                self._deliver_local(event)
        self._relay(fresh, msg.payload["origin"])
        return {"ok": True, "accepted": len(fresh)}

    def _relay(self, fresh: list[Event], origin_part: str) -> None:
        """Queue a batch's fresh events, in batch order, to the peers its
        relay rule names (DESIGN.md §16), decided once per batch.

        *Ingress*: a batch arriving from another region (necessarily via
        an aggregator funnel) is fanned out to this region's mesh, so
        every partition sees it exactly as it would in a one-region
        complete graph.  *Egress*: when a home-region event reaches this
        instance over the intra-region mesh and this partition currently
        holds the aggregator role, it is queued to every other region's
        aggregator.  Both decisions are taken receiver-side from the
        batch's origin partition, so they stay correct across aggregator
        handovers mid-stream; duplicate suppression absorbs any overlap
        when old and new aggregators race during a handover.
        """
        kernel = self.kernel
        home = kernel.region_of(self.partition_id)
        ingress = kernel.region_of(origin_part) != home
        if ingress:
            relayed = fresh
        elif kernel.is_aggregator(self.partition_id):
            relayed = [event for event in fresh if kernel.region_of(event.partition) == home]
        else:
            return
        if relayed:
            peers = [pid for pid, _node, remote in kernel.federation_edges("es", self.partition_id)
                     if remote != ingress]
            for event in relayed:
                self._fan_out(event, peers)
            self._arm_flush()

    PORTS = {ports.ES: {
        ports.ES_SUBSCRIBE: _on_subscribe,
        ports.ES_UNSUBSCRIBE: _on_unsubscribe,
        ports.ES_PUBLISH: _on_publish,
        ports.ES_FORWARD_BATCH: _on_forward_batch,
        ports.ES_PEERS: lambda self, msg: self.kernel.note_placement(
            "es", msg.payload["partition"], msg.payload["node"]),
    }}

    # -- federation batching -------------------------------------------------
    def _fan_out(self, event: Event, part_ids: list[str]) -> None:
        """Queue ``event`` to each peer's outbox, in ``part_ids`` order."""
        outbox = self._outbox
        for part_id in part_ids:
            pending = outbox.get(part_id)
            if pending is None:
                pending = outbox[part_id] = deque()
            pending.append(event)
            if len(pending) > ES_OUTBOX_MAX:
                self._trim_outbox(part_id, pending)

    def _trim_outbox(self, part_id: str, pending: deque) -> None:
        """Enforce the per-peer high-water mark: drop the *oldest* queued
        forwards past ``ES_OUTBOX_MAX`` (a wedge on one peer must not grow
        the checkpoint payload without bound)."""
        dropped = 0
        while len(pending) > ES_OUTBOX_MAX:
            pending.popleft()
            dropped += 1
        if dropped:
            self.sim.trace.count("es.outbox_dropped", dropped)
            self.sim.trace.mark(
                "es.outbox_overflow",
                node=self.node_id,
                peer=part_id,
                dropped=dropped,
                depth=len(pending),
            )

    def _arm_flush(self) -> None:
        """Arm the outbox flush timer (no-op while one is already armed,
        so a publish burst shares a single flush, or while every peer
        with pending forwards is held)."""
        if self._flush_timer is not None and self._flush_timer.active:
            return
        if not any(pending for part_id, pending in self._outbox.items()
                   if part_id not in self._held):
            return
        if self._flush_timer is None:
            self._flush_timer = self.sim.timer(ES_FORWARD_FLUSH, self._flush_forwards)
        else:
            self._flush_timer.restart(ES_FORWARD_FLUSH)

    def _flush_forwards(self) -> None:
        """Drain the outbox: one size-capped batch per peer partition."""
        if not self.alive:
            return
        for part_id, pending in self._outbox.items():
            if not pending or part_id in self._inflight_batch or part_id in self._held:
                continue
            batch = self._take_batch(pending)
            self._inflight_batch[part_id] = batch
            self.spawn(self._send_batch(part_id, batch),
                       name=f"{self.node_id}/es.fwd.{part_id}")
        self._arm_flush()  # overflow past the cap waits for the next window

    @staticmethod
    def _take_batch(pending: deque) -> list[Event]:
        """The next size-capped batch off ``pending``."""
        return [pending.popleft() for _ in range(min(len(pending), ES_FORWARD_BATCH_MAX))]

    def _send_batch(self, part_id: str, batch: list[Event]):
        span = self.sim.trace.span(
            "es.forward_batch", node=self.node_id, peer=part_id, events=len(batch)
        )
        budget_end = self.sim.now + RPC_TIMEOUT
        try:
            reply = None
            peer = self.kernel.placement.get(("es", part_id))
            if peer is not None:
                self._count_batch(part_id, len(batch))
                reply = yield self.rpc_retry(
                    peer, ports.ES, ports.ES_FORWARD_BATCH,
                    batch_to_payload(self.partition_id, batch),
                    span=span,
                )
            if reply is None:
                # Peer unreachable (dead or mid-migration): put the batch
                # back at the head — order preserved — and fold the
                # stranded outbox into the checkpoint so even our *own*
                # migration re-delivers it after recovery.
                pending = self._outbox.setdefault(part_id, deque())
                pending.extendleft(reversed(batch))
                self._trim_outbox(part_id, pending)
                self.sim.trace.count("es.forward_requeued", len(batch))
                self.save_state_soon(self._ckpt_key, self._registry_snapshot)
                if self.sim.now < budget_end:
                    # Failed fast (refused at source, e.g. across a split):
                    # pace the peer to one batch per budget, as a timeout
                    # would.  The handle is not kept, so no cycle forms.
                    self._held.add(part_id)
                    self.sim.schedule_at(budget_end, self._release, part_id)
            span.end(ok=reply is not None)
        finally:
            span.end(ok=False)  # no-op unless the sender died mid-flight
            self._inflight_batch.pop(part_id, None)
            self._arm_flush()

    def _release(self, part_id: str) -> None:
        """A held peer's budget has passed: it may be flushed again."""
        self._held.discard(part_id)
        if self.alive:
            self._arm_flush()

    def _drain_outbox_final(self) -> None:
        """Best-effort synchronous drain for administrative shutdown: the
        dying process cannot await acks, so send plain batch datagrams."""
        for part_id, pending in self._outbox.items():
            # Whatever is awaiting an ack goes out again too — the peer's
            # duplicate suppression absorbs the overlap.
            stale = self._inflight_batch.pop(part_id, None)
            if stale:
                pending.extendleft(reversed(stale))
            peer = self.kernel.placement.get(("es", part_id))
            if peer is None:
                continue
            while pending:
                batch = self._take_batch(pending)
                self._count_batch(part_id, len(batch))
                self.send(peer, ports.ES, ports.ES_FORWARD_BATCH,
                          batch_to_payload(self.partition_id, batch))

    def _count_batch(self, part_id: str, events: int) -> None:
        """Count one batch of ``events`` sent to ``part_id``; a batch to
        another region is also counted ``_cross`` (intra = total − cross)."""
        self.forward_batches += 1
        self.forward_batched_events += events
        self.sim.trace.count("es.forward_batches")
        self.sim.trace.count("es.forward_batched_events", events)
        if self.kernel.region_of(part_id) != self.kernel.region_of(self.partition_id):
            self.sim.trace.count("es.forward_batches_cross")
            self.sim.trace.count("es.forward_batched_events_cross", events)

    # -- internals -----------------------------------------------------------
    def _deliver_local(self, event: Event) -> None:
        # The index narrows the scan to plausible consumers (type buckets
        # plus hot where-key buckets); the full where clause still runs
        # per candidate — same delivered set as the old full scan, in the
        # same registration order.
        for sub in self._subs.candidates(event.type, event.data):
            if sub.matches(event):
                self.delivered += 1
                self.sim.trace.count("es.delivered")
                # The span starts at *publication* time, so its duration is
                # the publish→consumer latency (including federation hops).
                span = self.sim.trace.span(
                    "es.deliver",
                    parent=event.span,
                    start=event.time,
                    node=self.node_id,
                    type=event.type,
                    consumer=sub.consumer_id,
                )
                sent = self.send(sub.node, sub.port, ports.ES_EVENT, {"event": event})
                span.end(ok=sent)

    def _registry_snapshot(self) -> dict[str, Any]:
        """The registry and undelivered forwards, saved debounced: a
        subscribe burst costs one write, not N."""
        self.ckpt_writes += 1
        self.sim.trace.count("es.ckpt_writes")
        return {"subs": [sub.to_payload() for sub in self._subs.values()], "outbox": {
            part_id: list(self._inflight_batch.get(part_id, [])) + list(pending)
            for part_id, pending in self._outbox.items()
            if pending or self._inflight_batch.get(part_id)
        }}

    # -- introspection (for tests and monitors) -----------------------------
    def subscriptions(self) -> list[Subscription]:
        return self._subs.values()

    def outbox_depth(self) -> int:
        """Events currently queued or awaiting a batch ack (monitors)."""
        return sum(len(p) for p in self._outbox.values()) + sum(
            len(b) for b in self._inflight_batch.values()
        )

    def health_snapshot(self) -> dict[str, Any]:
        row = super().health_snapshot()
        row["outbox_depth"] = self.outbox_depth()
        row["published"] = self.published
        row["delivered"] = self.delivered
        return row
