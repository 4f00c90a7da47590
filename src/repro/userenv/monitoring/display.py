"""Text rendering of GridView snapshots (our Figure 6 / Figure 9 medium).

The paper shows GUI screenshots; the evaluation claim is about what the
monitor *knows*, not how it paints, so we render the same summary — the
cluster-wide average memory/CPU/swap usage banner and a node status
matrix — as text.
"""

from __future__ import annotations

from repro.kernel.bulletin.query import is_numeric
from repro.kernel.events.types import Event
from repro.userenv.monitoring.gridview import ClusterSnapshot


def render_snapshot(snapshot: ClusterSnapshot, columns: int = 8) -> str:
    """Figure-6-style system status board."""
    lines = [
        "=== Phoenix GridView — System Status ===",
        f"time {snapshot.time:10.1f}s   nodes {snapshot.nodes_reporting}/{snapshot.node_count}"
        f"   down {snapshot.nodes_down}",
        (
            f"avg CPU {snapshot.avg_cpu_pct:5.2f}%   "
            f"avg MEM {snapshot.avg_mem_pct:5.2f}%   "
            f"avg SWAP {snapshot.avg_swap_pct:4.2f}%"
        ),
    ]
    if snapshot.partitions_missing:
        lines.append("partitions not reporting: " + ", ".join(snapshot.partitions_missing))
    lines.append("")
    cells = []
    for node_id in sorted(snapshot.per_node):
        cpu = snapshot.per_node[node_id].get("cpu_pct")
        if is_numeric(cpu):  # a malformed row has no cell, as in the banner
            cells.append(f"{node_id:>6}:{cpu:5.1f}%")
    for i in range(0, len(cells), columns):
        lines.append("  ".join(cells[i : i + columns]))
    return "\n".join(lines)


def render_performance(snapshots: list[ClusterSnapshot]) -> str:
    """Trend board: sparkline + level + slope per metric over the window."""
    from repro.userenv.monitoring.analysis import performance_report
    from repro.util.sparkline import sparkline

    report = performance_report(snapshots)
    lines = [
        f"--- performance, last {report['window_s']:.0f}s ({report['samples']} samples) ---"
    ]
    series = {
        "cpu": [s.avg_cpu_pct for s in snapshots],
        "mem": [s.avg_mem_pct for s in snapshots],
        "swap": [s.avg_swap_pct for s in snapshots],
    }
    for name in ("cpu", "mem", "swap"):
        trend = report[name]
        lines.append(
            f"{name:>4} {sparkline(series[name], lo=0.0)}  "
            f"mean {trend.mean:5.2f}%  slope {trend.slope_per_min:+.2f}%/min"
        )
    if report["worst_nodes_down"]:
        lines.append(f"worst nodes down in window: {report['worst_nodes_down']}")
    return "\n".join(lines)


def render_events(events: list[Event]) -> str:
    """Recent failure/recovery notifications, newest last."""
    if not events:
        return "(no events)"
    lines = ["--- recent events ---"]
    for event in events:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(event.data.items()))
        lines.append(f"[{event.time:10.2f}s] {event.type:<18} {detail}")
    return "\n".join(lines)
