"""GridView monitoring user environment."""

from repro.userenv.monitoring.analysis import (
    HEALTH_VIEW_NAME,
    Alert,
    Trend,
    alerts,
    critical_path,
    fault_analysis,
    health_report,
    health_view_query,
    messaging_report,
    performance_report,
    span_tree,
    view_report,
)
from repro.userenv.monitoring.display import render_events, render_performance, render_snapshot
from repro.userenv.monitoring.gridview import ClusterSnapshot, GridView, install_gridview

__all__ = [
    "HEALTH_VIEW_NAME",
    "Alert",
    "ClusterSnapshot",
    "GridView",
    "Trend",
    "alerts",
    "critical_path",
    "fault_analysis",
    "health_report",
    "health_view_query",
    "install_gridview",
    "messaging_report",
    "performance_report",
    "render_events",
    "render_performance",
    "render_snapshot",
    "span_tree",
    "view_report",
]
