"""Performance analysis and fault analysis for the management tools.

Paper §3: "System management and monitoring tools assist system
administrators to perform daily system management, real-time system
monitoring, **performance analysis and fault analysis**."  This module
adds the two analysis functions over GridView's retained data:

* :func:`performance_report` — trends of the cluster-wide averages over
  the retained snapshot window (level, spread, slope);
* :func:`fault_analysis` — the event log grouped into incidents: which
  nodes/services fail most, mean time to recovery per failure type;
* :func:`messaging_report` — the messaging-spine health view over the
  kernel's trace counters (event fan-out, federation batching, RPC
  retry/queueing pressure);
* :func:`span_tree` / :func:`critical_path` — causal decomposition of a
  traced operation (e.g. a GSD failover) from its span records;
* :func:`health_report` — the cluster health view over the daemons'
  ``kernel.health`` self-reports; feed it rows from the registered
  ``health`` view (:func:`health_view_query`) instead of a bespoke scan;
* :func:`view_report` — per-view maintenance counters and staleness over
  ``DB_VIEW_LIST`` replies (re-exported from the bulletin's view layer);
* :func:`alerts` — threshold rules over a health report (daemon report
  staleness, spine latency p99 ceilings, materialized-view staleness),
  the piece an administrator pages on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.kernel.bulletin.views import view_report
from repro.kernel.events.types import Event
from repro.sim.trace import Trace, TraceRecord
from repro.userenv.monitoring.gridview import ClusterSnapshot
from repro.util import summarize

#: Canonical name of the monitoring environment's health view.
HEALTH_VIEW_NAME = "monitoring.health"


def health_view_query():
    """The query behind :data:`HEALTH_VIEW_NAME`: the full ``health``
    logical table, whose rows are exactly the ``kernel_health``
    self-reports :func:`health_report` consumes — register it once
    (``client.register_view(HEALTH_VIEW_NAME, health_view_query())``) and
    every report read is one O(daemons) RPC to the owner instead of a
    federation scan."""
    from repro.kernel.bulletin.query import Query

    return Query(table="health")


@dataclass(frozen=True)
class Trend:
    """Level and direction of one metric over the snapshot window."""

    mean: float
    min: float
    max: float
    slope_per_min: float  # least-squares slope, percent points per minute


def _trend(times: list[float], values: list[float]) -> Trend:
    s = summarize(values)
    if len(values) < 2 or times[-1] == times[0]:
        slope = 0.0
    else:
        n = len(values)
        mean_t = sum(times) / n
        mean_v = sum(values) / n
        denom = sum((t - mean_t) ** 2 for t in times)
        slope = (
            sum((t - mean_t) * (v - mean_v) for t, v in zip(times, values)) / denom
            if denom
            else 0.0
        )
    return Trend(mean=s.mean, min=s.min, max=s.max, slope_per_min=slope * 60.0)


def performance_report(snapshots: list[ClusterSnapshot]) -> dict[str, Any]:
    """Cluster-wide performance trends over the retained snapshots."""
    if not snapshots:
        raise ValueError("no snapshots to analyze")
    times = [s.time for s in snapshots]
    return {
        "window_s": times[-1] - times[0],
        "samples": len(snapshots),
        "cpu": _trend(times, [s.avg_cpu_pct for s in snapshots]),
        "mem": _trend(times, [s.avg_mem_pct for s in snapshots]),
        "swap": _trend(times, [s.avg_swap_pct for s in snapshots]),
        "worst_nodes_down": max(s.nodes_down for s in snapshots),
    }


def fault_analysis(events: list[Event]) -> dict[str, Any]:
    """Group failure/recovery events into per-subject incidents.

    An *incident* opens at a ``*.failure`` event and closes at the next
    matching ``*.recovery`` for the same subject (node / node+network /
    node+service).  Returns counts by type, top failing subjects, and
    mean time-to-recovery per failure family.
    """
    open_incidents: dict[tuple, float] = {}
    recoveries: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    per_subject: dict[str, int] = {}

    def subject_of(event: Event) -> tuple:
        data = event.data
        family = event.type.split(".")[0]
        return (family, data.get("node"), data.get("network"), data.get("service"))

    for event in events:
        counts[event.type] = counts.get(event.type, 0) + 1
        family, *_ = key = subject_of(event)
        if event.type.endswith(".failure"):
            open_incidents.setdefault(key, event.time)
            node = event.data.get("node")
            if node:
                per_subject[node] = per_subject.get(node, 0) + 1
        elif event.type.endswith(".recovery"):
            started = open_incidents.pop(key, None)
            if started is not None:
                recoveries.setdefault(family, []).append(event.time - started)

    mttr = {
        family: sum(durations) / len(durations) for family, durations in recoveries.items()
    }
    top = sorted(per_subject.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    return {
        "event_counts": counts,
        "open_incidents": len(open_incidents),
        "mttr_s": mttr,
        "top_failing_nodes": top,
    }


def messaging_report(trace: Trace) -> dict[str, Any]:
    """Messaging-spine health view over the kernel's trace counters.

    Surfaces the event-distribution data path (publishes, deliveries,
    federation batching efficiency) and the transport's retry/queueing
    pressure — the quantities an administrator watches to see whether
    notification fan-out, not the workload, is what's loading the spine.
    """
    c = trace.counter
    batches = c("es.forward_batches")
    batched_events = c("es.forward_batched_events")
    report: dict[str, Any] = {
        "es": {
            "published": c("es.published"),
            "delivered": c("es.delivered"),
            "forward_batches": batches,
            "forward_batched_events": batched_events,
            "forward_requeued": c("es.forward_requeued"),
            "forward_duplicates": c("es.forward_duplicates"),
            # >1 means the flush window is coalescing fan-out traffic;
            # 1.0 means every event still pays one datagram per peer.
            "events_per_batch": batched_events / batches if batches else 0.0,
        },
        "rpc": {
            "retries": c("rpc.retries"),
            "inflight_queued": c("rpc.inflight_queued"),
        },
    }
    report["es"]["outbox_dropped"] = c("es.outbox_dropped")
    latency = {name: hist.summary() for name, hist in sorted(trace.histograms().items())}
    if latency:
        report["latency"] = latency
    return report


# -- causal span analysis ----------------------------------------------------
def _span_records(source: Trace | list[TraceRecord]) -> list[TraceRecord]:
    records = source.records() if isinstance(source, Trace) else source
    # A span *close* record carries both an id and a duration; point marks
    # correlated to a span carry only ``span_id``.
    return [r for r in records if r.get("span_id") and r.get("duration") is not None]


def span_tree(source: Trace | list[TraceRecord]) -> dict[str, Any]:
    """Index span close-records into a causal forest.

    Returns ``{"spans": id -> record, "children": id -> [ids],
    "roots": [ids]}``.  A span whose parent never closed (e.g. the
    process died) is treated as a root, so partial traces still render.
    """
    spans: dict[str, TraceRecord] = {}
    for rec in _span_records(source):
        spans[rec["span_id"]] = rec
    children: dict[str, list[str]] = {}
    roots: list[str] = []
    for span_id, rec in spans.items():
        parent = rec.get("parent_id", "")
        if parent and parent in spans:
            children.setdefault(parent, []).append(span_id)
        else:
            roots.append(span_id)
    for ids in children.values():
        ids.sort(key=lambda sid: (spans[sid].get("start", 0.0), sid))
    roots.sort(key=lambda sid: (spans[sid].get("start", 0.0), sid))
    return {"spans": spans, "children": children, "roots": roots}


def critical_path(
    source: Trace | list[TraceRecord],
    root_category: str = "gsd.failover",
    root_id: str | None = None,
) -> list[TraceRecord]:
    """Longest-pole causal chain under a root span, root first.

    Starting from ``root_id`` (or the first closed span whose category is
    ``root_category``), descend into the child whose *end time* is
    latest — the child that gated the parent's completion — until a leaf.
    For a failover this reads detection → diagnosis → recovery with the
    dominating step at every level.
    """
    tree = span_tree(source)
    spans, children = tree["spans"], tree["children"]
    if root_id is None:
        candidates = [sid for sid in tree["roots"] if spans[sid].category == root_category]
        if not candidates:
            candidates = [sid for sid in spans if spans[sid].category == root_category]
        if not candidates:
            return []
        root_id = min(candidates, key=lambda sid: (spans[sid].get("start", 0.0), sid))
    if root_id not in spans:
        return []
    path = [spans[root_id]]
    current = root_id
    while children.get(current):
        # Only children that closed within the parent's interval can have
        # gated its completion (async fan-out may close after the parent).
        gating = [sid for sid in children[current] if spans[sid].time <= spans[current].time]
        if not gating:
            break
        current = max(gating, key=lambda sid: (spans[sid].time, sid))
        path.append(spans[current])
    return path


# -- kernel health endpoint ---------------------------------------------------
def health_report(
    rows: list[dict[str, Any]],
    now: float | None = None,
    stale_after: float | None = None,
) -> dict[str, Any]:
    """Cluster health view over ``kernel_health`` bulletin rows.

    Each row is one daemon's self-report (see
    :meth:`repro.kernel.daemon.ServiceDaemon.health_snapshot`).  Returns
    per-daemon freshness/queue depths plus the spine latency quantiles;
    for every histogram name, the summary with the largest ``count`` wins
    (the daemons share a node-local trace, so the biggest snapshot is the
    most complete).  With ``now`` and ``stale_after``, daemons whose last
    report is older than the threshold are listed under ``"stale"``.
    """
    services: dict[str, dict[str, Any]] = {}
    latency: dict[str, dict[str, float]] = {}
    stale: list[str] = []
    for row in rows:
        name = f"{row.get('service', '?')}@{row.get('node', '?')}"
        reported = float(row.get("time", 0.0))
        entry: dict[str, Any] = {
            "partition": row.get("partition"),
            "reported_at": reported,
            "inflight_rpcs": row.get("inflight_rpcs", 0),
        }
        if "outbox_depth" in row:
            entry["outbox_depth"] = row["outbox_depth"]
        if now is not None:
            entry["age_s"] = now - reported
            if stale_after is not None and entry["age_s"] > stale_after:
                stale.append(name)
        services[name] = entry
        for hist_name, summary in (row.get("hist") or {}).items():
            best = latency.get(hist_name)
            if best is None or summary.get("count", 0) > best.get("count", 0):
                latency[hist_name] = dict(summary)
    return {
        "services": services,
        "latency": dict(sorted(latency.items())),
        "stale": sorted(stale),
    }


# -- alerting ------------------------------------------------------------------
@dataclass(frozen=True)
class Alert:
    """One fired alert rule."""

    severity: str  # "warning" | "critical"
    rule: str  # "health.stale" | "latency.p99" | "bizreq.slo" | ...
    subject: str  # daemon name, histogram name, request class, ...
    value: float
    message: str


#: Default p99 ceilings (seconds) for spine latency histograms.  The
#: event-notification path gets the tightest budget: a slow ``es.deliver``
#: tail delays every failure-driven reaction downstream of it.
DEFAULT_P99_LIMITS = {
    "es.deliver": 0.5,
    "rpc.call": 1.0,
    "db.exec": 1.0,
}

#: Histogram-name prefix of the per-class business-request latency
#: distributions fed by the serving tier's traffic generator.
REQUEST_SLO_PREFIX = "bizreq.latency."


#: Default ceiling (seconds) on a materialized view's event-time lag —
#: how far the owner's last applied delta trailed its base-table change.
DEFAULT_VIEW_STALENESS_LIMIT = 1.0


def alerts(
    report: dict[str, Any],
    p99_limits: dict[str, float] | None = None,
    class_slos: dict[str, float] | None = None,
    view_stats: dict[str, dict[str, Any]] | None = None,
    view_staleness_limit: float | None = None,
    quorum_events: list[dict[str, Any]] | None = None,
) -> list[Alert]:
    """Evaluate alert rules over a :func:`health_report` dict.

    Five rule families:

    * ``health.stale`` (critical) — a daemon's last ``kernel.health``
      self-report is older than the report's staleness threshold (its
      heartbeat analog at the monitoring layer);
    * ``latency.p99`` (warning) — a spine latency histogram's p99 exceeds
      its ceiling from ``p99_limits`` (default :data:`DEFAULT_P99_LIMITS`);
    * ``bizreq.slo`` (warning) — a per-request-class latency histogram
      (``bizreq.latency.<class>``, fed by the serving tier) has a p99
      past that class's objective in ``class_slos``;
    * ``view.staleness`` (warning) — a materialized view's event-time lag
      (``view_stats``, the ``views`` map of a :func:`view_report`) exceeds
      ``view_staleness_limit`` — the owner is falling behind its delta
      feed, so console reads show the past;
    * ``quorum.lost`` (critical) / ``quorum.regained`` (warning) — from
      ``quorum_events``: dicts with ``type`` (``"quorum.lost"`` /
      ``"quorum.regained"``), ``node``, and optionally ``partition`` /
      ``live``, e.g. the data of :data:`repro.kernel.events.types`
      quorum events or ``quorum.*`` trace records.  A node whose latest
      event is a loss pages critical (it is parked, refusing writes); a
      node that regained quorum leaves a warning breadcrumb so the
      partition incident stays visible on the console after it heals.

    Also works over a latency-only report (e.g. built from an exported
    trace), where ``services``/``stale`` are simply absent.
    """
    limits = DEFAULT_P99_LIMITS if p99_limits is None else p99_limits
    fired: list[Alert] = []
    services = report.get("services", {})
    for name in report.get("stale", []):
        age = float(services.get(name, {}).get("age_s", 0.0))
        fired.append(
            Alert(
                severity="critical",
                rule="health.stale",
                subject=name,
                value=age,
                message=f"no kernel.health report from {name} for {age:.1f}s",
            )
        )
    for hist_name, limit in sorted(limits.items()):
        summary = report.get("latency", {}).get(hist_name)
        if not summary:
            continue
        p99 = float(summary.get("p99", 0.0))
        if p99 > limit:
            fired.append(
                Alert(
                    severity="warning",
                    rule="latency.p99",
                    subject=hist_name,
                    value=p99,
                    message=f"{hist_name} p99 {p99 * 1e3:.1f}ms exceeds {limit * 1e3:.0f}ms",
                )
            )
    for cls, cls_slo in sorted((class_slos or {}).items()):
        summary = report.get("latency", {}).get(f"{REQUEST_SLO_PREFIX}{cls}")
        if not summary:
            continue
        p99 = float(summary.get("p99", 0.0))
        if p99 > cls_slo:
            fired.append(
                Alert(
                    severity="warning",
                    rule="bizreq.slo",
                    subject=cls,
                    value=p99,
                    message=(
                        f"request class {cls} p99 {p99 * 1e3:.1f}ms "
                        f"exceeds SLO {cls_slo * 1e3:.0f}ms"
                    ),
                )
            )
    lag_limit = (
        DEFAULT_VIEW_STALENESS_LIMIT
        if view_staleness_limit is None
        else view_staleness_limit
    )
    for view_name, stats in sorted((view_stats or {}).items()):
        lag = float(stats.get("staleness", 0.0) or 0.0)
        if lag > lag_limit:
            fired.append(
                Alert(
                    severity="warning",
                    rule="view.staleness",
                    subject=view_name,
                    value=lag,
                    message=(
                        f"materialized view {view_name} lags its base tables "
                        f"by {lag:.2f}s (limit {lag_limit:.2f}s)"
                    ),
                )
            )
    latest_quorum: dict[str, dict[str, Any]] = {}
    for event in quorum_events or []:
        node = str(event.get("node", ""))
        if node and event.get("type") in ("quorum.lost", "quorum.regained"):
            latest_quorum[node] = event
    for node, event in sorted(latest_quorum.items()):
        live = event.get("live")
        if event["type"] == "quorum.lost":
            detail = f" (sees only {', '.join(str(p) for p in live)})" if live else ""
            fired.append(
                Alert(
                    severity="critical",
                    rule="quorum.lost",
                    subject=node,
                    value=float(len(live)) if live is not None else 0.0,
                    message=(
                        f"{node} lost quorum and parked{detail}: "
                        "refusing placement and checkpoint writes"
                    ),
                )
            )
        else:
            fired.append(
                Alert(
                    severity="warning",
                    rule="quorum.regained",
                    subject=node,
                    value=0.0,
                    message=f"{node} regained quorum and resumed after a partition",
                )
            )
    fired.sort(key=lambda a: (a.severity != "critical", a.rule, a.subject))
    return fired
