"""Event model and well-known event types.

GSDs act as event suppliers, pushing failure/recovery events; user
environments (GridView, PWS, the business runtime) register as consumers
for the types they care about (paper §4.2/§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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
#: A contiguous run of ``db.delta`` events coalesced per ``(table, key)``
#: for cross-region federation (two-tier mode, DESIGN.md §16).  Carries
#: the covered ``[seq_lo, seq_hi]`` range plus the per-key latest delta
#: of the run, so view owners advance their watermark across the whole
#: range in one step.
DB_DELTA_DIGEST = "db.delta_digest"


@dataclass(frozen=True)
class Event:
    """One event flowing through the event service."""

    event_id: str
    type: str
    source: str  # supplier node id
    partition: str  # partition whose ES first accepted it
    time: float  # virtual time of publication
    data: dict[str, Any] = field(default_factory=dict, hash=False)
    #: Tracing span id of the accepting instance's publish span — carried
    #: across federation so remote deliveries join the publish's causal
    #: tree ("" when tracing spans were not in play).
    span: str = ""

    def to_payload(self) -> dict[str, Any]:
        payload = {
            "event_id": self.event_id,
            "type": self.type,
            "source": self.source,
            "partition": self.partition,
            "time": self.time,
            "data": dict(self.data),
        }
        if self.span:
            payload["span"] = self.span
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Event":
        return cls(
            event_id=payload["event_id"],
            type=payload["type"],
            source=payload["source"],
            partition=payload["partition"],
            time=payload["time"],
            data=dict(payload.get("data", {})),
            span=payload.get("span", ""),
        )


# -- batched federation wire format ------------------------------------------
def batch_to_payload(origin: str, events: list[dict[str, Any]]) -> dict[str, Any]:
    """``es.forward_batch`` payload: one datagram carrying every event a
    partition's instance accumulated for one peer during a flush window."""
    return {"origin": origin, "events": list(events)}


def events_from_batch(payload: dict[str, Any]) -> list[Event]:
    """Decode a forward batch back into events, preserving publish order."""
    return [Event.from_payload(p) for p in payload.get("events", [])]
