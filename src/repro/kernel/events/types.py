"""Event model and well-known event types.

GSDs act as event suppliers, pushing failure/recovery events; user
environments (GridView, PWS, the business runtime) register as consumers
for the types they care about (paper §4.2/§5.3).
"""

from __future__ import annotations

from operator import itemgetter, methodcaller
from typing import Any

from repro.cluster.message import SizedDict

# -- well-known event types --------------------------------------------------
NODE_FAILURE = "node.failure"
NODE_RECOVERY = "node.recovery"
NETWORK_FAILURE = "network.failure"
NETWORK_RECOVERY = "network.recovery"
SERVICE_FAILURE = "service.failure"
SERVICE_RECOVERY = "service.recovery"
MEMBER_JOINED = "member.joined"
MEMBER_LEFT = "member.left"
LEADER_CHANGED = "leader.changed"
#: Quorum-gated regroup (DESIGN.md §15): a meta-group member lost sight
#: of a quorum of configured partitions and parked / regained it and
#: resumed.
QUORUM_LOST = "quorum.lost"
QUORUM_REGAINED = "quorum.regained"
APP_STARTED = "app.started"
APP_EXITED = "app.exited"
APP_FAILED = "app.failed"
CONFIG_CHANGED = "config.changed"
#: Base-table change feed published by bulletin instances while any
#: materialized view is registered (see :mod:`repro.kernel.bulletin.views`).
#: ``op`` is ``put``/``delete`` — or ``epoch`` (``seq`` 0), a restarted
#: instance announcing its incarnation for a table nothing has written yet.
DB_DELTA = "db.delta"


class Event(SizedDict):
    """One event flowing through the event service, and its own wire payload:
    a :class:`~repro.cluster.message.SizedDict` value whose keys read as
    attributes (``span`` is absent when unset).  The instance that accepts
    a publish builds it once; every outbox, batch, relay, history slot,
    delivery and checkpoint on every partition holds that one object.
    """

    __slots__ = ()

    def __init__(
        self, event_id: str, type: str, source: str, partition: str, time: float,
        data: dict[str, Any] | None = None, span: str = "",
    ) -> None:
        fields = {
            "event_id": event_id,
            "type": type,
            "source": source,  # supplier node id
            "partition": partition,  # partition whose ES first accepted it
            "time": time,  # virtual time of publication
            "data": {} if data is None else data,
        }
        # The accepting instance's publish span: remote deliveries join its tree.
        if span:
            fields["span"] = span
        SizedDict.__init__(self, fields)

    event_id = property(itemgetter("event_id"))
    type = property(itemgetter("type"))
    source = property(itemgetter("source"))
    partition = property(itemgetter("partition"))
    time = property(itemgetter("time"))
    data = property(itemgetter("data"))
    span = property(methodcaller("get", "span", ""))

    def to_payload(self) -> "Event":
        return self

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Event":
        """The event itself, or one decoded from a plain dict."""
        if isinstance(payload, Event):
            return payload
        return cls(
            payload["event_id"], payload["type"], payload["source"], payload["partition"],
            payload["time"], payload.get("data", {}), payload.get("span", ""),
        )


# -- batched federation wire format ------------------------------------------
def batch_to_payload(origin: str, events: list[dict[str, Any]]) -> dict[str, Any]:
    """``es.forward_batch`` payload: one datagram carrying every event a
    partition's instance accumulated for one peer during a flush window."""
    return {"origin": origin, "events": list(events)}
