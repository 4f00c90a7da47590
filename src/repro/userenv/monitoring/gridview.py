"""GridView-style monitoring user environment (paper §5.3, Figure 6).

"GridView interacts with Phoenix kernel only through the interfaces of
data bulletin service and event service and configuration service":

* node/network failure and recovery events arrive as real-time
  notifications (one subscription at one ES instance — the federation
  does the rest);
* cluster-wide performance data comes from a **single** data bulletin
  federation query per refresh, regardless of cluster size;
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
from repro.kernel.bulletin.query import Agg, Query, is_numeric
from repro.kernel.bulletin.service import TABLE_NODE_METRICS, TABLE_NODE_STATE
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.events import types as ev
from repro.kernel.events.types import Event

PORT = "gridview"
EVENT_PORT = "gridview.events"

#: Name of the materialized view the console registers in view mode:
#: ``nodes`` grouped by state with subtractable sums/counts, from which
#: every banner figure is recovered exactly (see :meth:`GridView._refresh_view`).
CLUSTER_VIEW = "gridview.cluster"


def cluster_view_query():
    """The console's one registered view: per-state node counts plus the
    mergeable sums/counts behind the banner averages."""
    return Query(
        table="nodes",
        group_by=("state",),
        aggs=(
            Agg("count", "*", "n"),
            Agg("sum", "reporting", "reporting"),
            Agg("sum", "cpu_pct", "cpu_sum"),
            Agg("count", "cpu_pct", "cpu_n"),
            Agg("sum", "mem_pct", "mem_sum"),
            Agg("count", "mem_pct", "mem_n"),
            Agg("sum", "swap_pct", "swap_sum"),
            Agg("count", "swap_pct", "swap_n"),
        ),
    )


def torn_partitions(a: dict[str, int] | None, b: dict[str, int] | None) -> list[str]:
    """Partitions whose bulletin incarnation differs between two reply
    watermark maps — evidence the two reads straddled a failover, so rows
    from the two replies must not be joined into one snapshot."""
    if not a or not b:
        return []
    return sorted(p for p in a.keys() & b.keys() if a[p] != b[p])


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

    def __init__(self, kernel, node_id: str, refresh_interval: float = 10.0,
                 keep_snapshots: int = 16, event_log_size: int = 200,
                 view_mode: bool = False) -> None:
        super().__init__(kernel, node_id)
        self.refresh_interval = refresh_interval
        self.snapshots: deque[ClusterSnapshot] = deque(maxlen=keep_snapshots)
        self.event_log: deque[Event] = deque(maxlen=event_log_size)
        self.refreshes = 0
        #: With view_mode, the console registers one materialized view
        #: (:data:`CLUSTER_VIEW`) at startup and each refresh is a single
        #: O(groups) read of it — no fan-out, no torn reads by
        #: construction, and maintenance cost amortized into the event
        #: path instead of the refresh path.
        self.view_mode = view_mode
        self.torn_reads = 0

    # -- lifecycle -----------------------------------------------------------
    def on_start(self) -> None:
        self.bind(EVENT_PORT, self._on_event)
        self.spawn(self._startup(), name=f"{self.node_id}/gridview.start")

    def _startup(self):
        es_node = self.kernel.placement.get(("es", self.partition_id))
        if es_node is not None:
            yield self.rpc(
                es_node, ports.ES, ports.ES_SUBSCRIBE,
                {
                    "consumer_id": "gridview",
                    "node": self.node_id,
                    "port": EVENT_PORT,
                    "types": [
                        ev.NODE_FAILURE, ev.NODE_RECOVERY,
                        ev.NETWORK_FAILURE, ev.NETWORK_RECOVERY,
                        ev.SERVICE_FAILURE, ev.SERVICE_RECOVERY,
                    ],
                    "where": {},
                },
            )
        if self.view_mode and CLUSTER_VIEW not in self.kernel.view_owners:
            db_node = self.kernel.placement.get(("db", self.partition_id))
            if db_node is not None:
                yield self.rpc(
                    db_node, ports.DB, ports.DB_VIEW_REGISTER,
                    {"name": CLUSTER_VIEW, "query": cluster_view_query().to_payload()},
                    timeout=30.0,
                )
        yield from self._refresh_loop()

    def _on_event(self, msg: Message) -> None:
        event = Event.from_payload(msg.payload["event"])
        self.event_log.append(event)
        self.sim.trace.count("gridview.events")

    # -- the refresh loop ---------------------------------------------------
    def _refresh_loop(self):
        while True:
            yield from self._refresh_once()
            yield self.refresh_interval

    def _refresh_once(self):
        started = self.sim.now
        db_node = self.kernel.placement.get(("db", self.partition_id))
        if db_node is None:
            return
        if self.view_mode:
            yield from self._refresh_view(started)
            return
        metrics_reply = state_reply = None
        for attempt in range(3):
            metrics_reply = yield self.rpc(
                db_node, ports.DB, ports.DB_QUERY,
                {"table": TABLE_NODE_METRICS, "where": None, "scope": "global"},
                timeout=30.0,
            )
            state_reply = yield self.rpc(
                db_node, ports.DB, ports.DB_QUERY,
                {"table": TABLE_NODE_STATE, "where": None, "scope": "global"},
                timeout=30.0,
            )
            if metrics_reply is None or state_reply is None:
                # Without the state rows every dead node would count as
                # up: a lost reply, either one, is a failed refresh.
                metrics_reply = None
                break
            # A bulletin that failed over between the two reads answers
            # them from different incarnations; joining those rows would
            # fabricate a cluster state that never existed.
            torn = torn_partitions(
                metrics_reply.get("watermarks"), state_reply.get("watermarks")
            )
            if not torn:
                break
            self.torn_reads += 1
            self.sim.trace.mark(
                "gridview.torn_read", partitions=len(torn), attempt=attempt + 1
            )
            metrics_reply = None
        if metrics_reply is None:
            self.sim.trace.mark("gridview.refresh_failed", node=self.node_id)
            return
        rows = metrics_reply.get("rows", [])
        down = [r["_key"] for r in state_reply.get("rows", []) if r.get("state") == "down"]
        reporting = [r for r in rows if r["_key"] not in down]
        snapshot = ClusterSnapshot(
            time=self.sim.now,
            node_count=self.cluster.size,
            nodes_reporting=len(reporting),
            nodes_down=len(down),
            avg_cpu_pct=_mean(reporting, "cpu_pct"),
            avg_mem_pct=_mean(reporting, "mem_pct"),
            avg_swap_pct=_mean(reporting, "swap_pct"),
            partitions_missing=list(metrics_reply.get("partitions_missing", [])),
            per_node={r["_key"]: r for r in rows},
        )
        self.snapshots.append(snapshot)
        self.refreshes += 1
        self.sim.trace.mark(
            "gridview.refresh",
            latency=self.sim.now - started,
            rows=len(rows),
            missing=len(snapshot.partitions_missing),
        )

    def _refresh_view(self, started: float):
        """One O(groups) read of the registered cluster view: the owner
        already folded every detector export into per-state sums, so the
        refresh ships a handful of rows no matter the node count — and a
        single RPC cannot tear across a failover."""
        owner = self.kernel.view_owners.get(CLUSTER_VIEW)
        db_node = self.kernel.placement.get(("db", owner)) if owner else None
        if db_node is None:
            self.sim.trace.mark("gridview.refresh_failed", node=self.node_id)
            return
        reply = yield self.rpc(
            db_node, ports.DB, ports.DB_VIEW_READ, {"name": CLUSTER_VIEW}, timeout=30.0,
        )
        if reply is None or "rows" not in reply or reply.get("error"):
            self.sim.trace.mark("gridview.refresh_failed", node=self.node_id)
            return
        groups = reply["rows"]
        down = sum(g["n"] for g in groups if g.get("state") == "down")
        live = [g for g in groups if g.get("state") != "down"]
        reporting = int(sum(g["reporting"] or 0 for g in live))

        def mean(sum_name: str, count_name: str) -> float:
            total = sum(g[sum_name] or 0.0 for g in live)
            count = sum(g[count_name] or 0 for g in live)
            return total / count if count else 0.0

        watermarks = reply.get("watermarks") or {}
        missing = [
            p.partition_id
            for p in self.cluster.partitions
            if p.partition_id not in watermarks
        ]
        snapshot = ClusterSnapshot(
            time=self.sim.now,
            node_count=self.cluster.size,
            nodes_reporting=reporting,
            nodes_down=int(down),
            avg_cpu_pct=mean("cpu_sum", "cpu_n"),
            avg_mem_pct=mean("mem_sum", "mem_n"),
            avg_swap_pct=mean("swap_sum", "swap_n"),
            partitions_missing=missing,
        )
        self.snapshots.append(snapshot)
        self.refreshes += 1
        self.sim.trace.mark(
            "gridview.refresh",
            latency=self.sim.now - started,
            rows=len(groups),
            missing=len(missing),
            view=True,
        )

    # -- accessors -----------------------------------------------------------
    @property
    def latest(self) -> ClusterSnapshot | None:
        return self.snapshots[-1] if self.snapshots else None

    def recent_events(self, limit: int = 20) -> list[Event]:
        return list(self.event_log)[-limit:]


def install_gridview(kernel, node_id: str | None = None, refresh_interval: float = 10.0,
                     view_mode: bool = False) -> GridView:
    """Start GridView on ``node_id`` (default: first partition's backup node,
    a stand-in for the operator console)."""
    target = node_id or kernel.cluster.partitions[0].backups[0]

    def factory(k, node):
        return GridView(k, node, refresh_interval=refresh_interval, view_mode=view_mode)

    kernel.registry.register("gridview", factory)
    return kernel.start_service("gridview", target)
