"""GridView-style monitoring user environment (paper §5.3, Figure 6).

"GridView interacts with Phoenix kernel only through the interfaces of
data bulletin service and event service and configuration service":

* node/network failure and recovery events arrive as real-time
  notifications (one subscription at one ES instance — the federation
  does the rest);
* cluster-wide performance data comes from a **single** data bulletin
  federation query per refresh, regardless of cluster size: one
  ``DB_EXEC`` of :data:`REFRESH_QUERY` over the ``nodes`` logical table.
  The executor answers each partition whole — one bulletin incarnation
  for both base tables, or no rows and the partition listed missing — so
  a down node never counts as up;
* static topology comes from the configuration service at startup.

Every refresh marks ``gridview.refresh`` with its collection latency and
row count — the measurement the §5.3 scalability sweep reads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.message import Message
from repro.kernel import ports
from repro.kernel.bulletin.query import Query, is_numeric
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.events import types as ev
from repro.kernel.events.types import Event

PORT = "gridview"
EVENT_PORT = "gridview.events"
#: Refresh snapshots and events the console keeps (oldest dropped first).
KEEP_SNAPSHOTS = 16
EVENT_LOG_SIZE = 200

#: The console's one read: the ``nodes`` join projected to what the
#: banner and the status board show.
REFRESH_QUERY = Query(
    table="nodes", select=("_key", "state", "reporting", "cpu_pct", "mem_pct", "swap_pct")
)


def _mean(rows: list[dict[str, Any]], field_name: str) -> float:
    """Mean of one metric over the rows that carry a number for it: any
    node can put into ``node_metrics``, and one malformed row must not
    take the console (or the simulation) down."""
    values = [r[field_name] for r in rows if is_numeric(r.get(field_name))]
    return sum(values) / len(values) if values else 0.0


@dataclass
class ClusterSnapshot:
    """One refresh's aggregated view (what Figure 6 renders)."""

    time: float
    node_count: int
    nodes_reporting: int
    nodes_down: int
    avg_cpu_pct: float
    avg_mem_pct: float
    avg_swap_pct: float
    partitions_missing: list[str] = field(default_factory=list)
    per_node: dict[str, dict[str, Any]] = field(default_factory=dict)


class GridView(ServiceDaemon):
    """Cluster monitoring built purely on kernel interfaces."""

    SERVICE = "gridview"

    def __init__(self, kernel, node_id: str, refresh_interval: float = 10.0) -> None:
        super().__init__(kernel, node_id)
        self.refresh_interval = refresh_interval
        self.snapshots: deque[ClusterSnapshot] = deque(maxlen=KEEP_SNAPSHOTS)
        self.event_log: deque[Event] = deque(maxlen=EVENT_LOG_SIZE)
        self.refreshes = 0

    # -- lifecycle -----------------------------------------------------------
    def on_start(self) -> None:
        self.spawn(self._startup(), name=f"{self.node_id}/gridview.start")

    def _startup(self):
        yield from self.subscribe("gridview", EVENT_PORT, [
            ev.NODE_FAILURE, ev.NODE_RECOVERY,
            ev.NETWORK_FAILURE, ev.NETWORK_RECOVERY,
            ev.SERVICE_FAILURE, ev.SERVICE_RECOVERY,
        ])
        yield from self._refresh_loop()

    def _on_event(self, msg: Message) -> None:
        event = Event.from_payload(msg.payload["event"])
        self.event_log.append(event)
        self.sim.trace.count("gridview.events")

    PORTS = {EVENT_PORT: {ports.ES_EVENT: _on_event}}

    # -- the refresh loop ---------------------------------------------------
    def _refresh_loop(self):
        while True:
            yield from self._refresh_once()
            yield self.refresh_interval

    def _refresh_once(self):
        started = self.sim.now
        read = self.exec_query(REFRESH_QUERY.to_payload(), timeout=30.0)
        if read is None:
            return
        reply = yield read
        if reply is None or reply.get("error"):
            self.sim.trace.mark("gridview.refresh_failed", node=self.node_id)
            return
        rows = reply["rows"]
        reporting = [r for r in rows if r["reporting"] and r.get("state") != "down"]
        snapshot = ClusterSnapshot(
            time=self.sim.now,
            node_count=self.cluster.size,
            nodes_reporting=len(reporting),
            nodes_down=sum(1 for r in rows if r.get("state") == "down"),
            avg_cpu_pct=_mean(reporting, "cpu_pct"),
            avg_mem_pct=_mean(reporting, "mem_pct"),
            avg_swap_pct=_mean(reporting, "swap_pct"),
            partitions_missing=list(reply["partitions_missing"]),
            per_node={r["_key"]: r for r in rows if r["reporting"]},
        )
        self.snapshots.append(snapshot)
        self.refreshes += 1
        self.sim.trace.mark(
            "gridview.refresh",
            latency=self.sim.now - started,
            rows=len(rows),
            missing=len(snapshot.partitions_missing),
        )

    # -- accessors -----------------------------------------------------------
    @property
    def latest(self) -> ClusterSnapshot | None:
        return self.snapshots[-1] if self.snapshots else None

    def recent_events(self, limit: int = 20) -> list[Event]:
        return list(self.event_log)[-limit:]


def install_gridview(kernel, node_id: str | None = None,
                     refresh_interval: float = 10.0) -> GridView:
    """Start GridView on ``node_id`` (default: first partition's backup node,
    a stand-in for the operator console)."""
    target = node_id or kernel.cluster.partitions[0].backups[0]

    def factory(k, node):
        return GridView(k, node, refresh_interval=refresh_interval)

    kernel.registry.register("gridview", factory)
    return kernel.start_service("gridview", target)
