"""Metric inventory of the perf ledger, and the statistics behind it.

Every metric says which clock it is on.  **host** metrics are what the
program costs on this machine and are noisy: they are reported as
medians over repeated runs, in CPU seconds scaled to a reference host
(``run.py``).  **sim** metrics are what the modelled
Phoenix kernel does on the simulated clock: they, and every count,
repeat exactly for a seed, so two commits compare exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any

from benchmarks.perf.layers import LAYERS

#: name -> (unit, better, clock, bound).  ``bound`` is the share of the
#: parent's median by which the metric may worsen before it counts as a
#: regression (``failed_ratio``: absolute, any rise is a regression).
#: This is the only table of bounds: ``--compare`` reads it and
#: ``BENCHMARK.json`` is written from it (``python -m benchmarks.perf
#: --spec``).  The host bounds are three times the widest spread that ten
#: seeds of one commit show on the reference host (README.md, "Noise"),
#: capped at the 0.25 the driver allows.
END_TO_END: dict[str, tuple[str, str, str, float]] = {
    "ops_per_s": ("1/s", "higher", "host", 0.25),
    "setup_s": ("s", "lower", "host", 0.25),
    "peak_rss_mb": ("MB", "lower", "host", 0.10),
    "failed_ratio": ("ratio", "lower", "sim", 0.0),
    "sim_lat_p50_ms": ("ms", "lower", "sim", 0.01),
    "sim_lat_tail_ms": ("ms", "lower", "sim", 0.01),
    "sim_msgs_per_op": ("count", "lower", "sim", 0.01),
    "sim_bytes_per_op": ("B", "lower", "sim", 0.01),
}

#: The host-clock metrics are the ``end_to_end`` list of BENCHMARK.json:
#: its driver measures spread across *different* seeds and refuses metrics
#: that can be 0, so only they qualify; the sim-clock ones are exact per
#: seed and travel with the per-layer set instead (``e2e.*`` below).
HOST_METRICS = tuple(n for n, (_u, _b, clock, _bd) in END_TO_END.items() if clock == "host")

#: Named boundary metrics, name -> (unit, better).  Counts repeat exactly
#: per seed; ``_s`` are cumulative host seconds in the traced run.
BOUNDARY: dict[str, tuple[str, str]] = {
    "sim.core.events_executed": ("count", "lower"),
    "sim.core.events_per_op": ("count", "lower"),
    "sim.core.us_per_event": ("us", "lower"),
    "sim.core.schedule_calls": ("count", "lower"),
    "sim.core.ff_skipped": ("count", "higher"),
    "sim.trace.count_calls": ("count", "lower"),
    "sim.trace.mark_calls": ("count", "lower"),
    "sim.trace.records_kept": ("count", "lower"),
    "cluster.network.transmit_calls": ("count", "lower"),
    "cluster.network.transmit_s": ("s", "lower"),
    "cluster.network.msgs": ("count", "lower"),
    "cluster.network.bytes": ("B", "lower"),
    "cluster.network.drops": ("count", "lower"),
    "cluster.transport.send_calls": ("count", "lower"),
    "cluster.transport.send_s": ("s", "lower"),
    "cluster.transport.rpc_calls": ("count", "lower"),
    "cluster.transport.rpc_retries": ("count", "lower"),
    "cluster.transport.rpc_sim_p50_ms": ("ms", "lower"),
    "cluster.message.estimate_size_calls": ("count", "lower"),
    "cluster.message.estimate_size_s": ("s", "lower"),
    "cluster.metrics.sample_calls": ("count", "lower"),
    "cluster.metrics.sample_s": ("s", "lower"),
    "kernel.detectors.exports": ("count", "lower"),
    "kernel.group.wd_beats": ("count", "lower"),
    "kernel.group.ring_beats": ("count", "lower"),
    "kernel.group.false_suspicions": ("count", "lower"),
    "kernel.group.parks": ("count", "lower"),
    "kernel.group.takeovers": ("count", "lower"),
    "kernel.checkpoint.saves": ("count", "lower"),
    "kernel.events.published": ("count", "lower"),
    "kernel.events.delivered": ("count", "lower"),
    "kernel.events.forward_batches": ("count", "lower"),
    "kernel.events.events_per_batch": ("count", "higher"),
    "kernel.events.deliver_sim_p50_ms": ("ms", "lower"),
    "kernel.bulletin.puts": ("count", "lower"),
    "kernel.bulletin.queries": ("count", "lower"),
    "kernel.bulletin.execs": ("count", "lower"),
    "kernel.bulletin.view_reads": ("count", "lower"),
    "kernel.bulletin.deltas_published": ("count", "lower"),
    "kernel.bulletin.view_delta_applied": ("count", "lower"),
    "kernel.bulletin.view_resyncs": ("count", "lower"),
    "kernel.bulletin.deepcopy_calls": ("count", "lower"),
    "kernel.bulletin.deepcopy_s": ("s", "lower"),
    "kernel.bulletin.view_staleness_ms": ("ms", "lower"),
    "userenv.business.completed": ("count", "higher"),
    "userenv.business.rejected": ("count", "lower"),
    "userenv.business.failed": ("count", "lower"),
    "userenv.business.autoscale_actions": ("count", "lower"),
    "userenv.business.p99_ms.browse": ("ms", "lower"),
    "userenv.business.p99_ms.checkout": ("ms", "lower"),
    "userenv.business.p99_ms.report": ("ms", "lower"),
    "userenv.monitoring.refreshes": ("count", "higher"),
    "userenv.monitoring.ap_msgs_per_refresh": ("count", "lower"),
    "harness.trace_overhead_x": ("x", "lower"),
    "harness.calib_ops_per_s": ("1/s", "higher"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric, name -> (unit, better), in print order."""
    out: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.busy_s"] = ("s", "lower")
        out[f"{layer}.share"] = ("ratio", "lower")
    out.update(BOUNDARY)
    # The sim-clock end-to-end metrics: exact per seed, so they cost
    # nothing to measure in the traced run.
    for name, (unit, better, clock, _bound) in END_TO_END.items():
        if clock == "sim":
            out[f"e2e.{name}"] = (unit, better)
    out["e2e.sim_lat_tail_pct"] = ("%", "higher")
    out["e2e.sim_lat_samples"] = ("count", "higher")
    return out


# -- statistics -------------------------------------------------------------
#: Candidate tail percentiles, highest first.
TAILS = (99.99, 99.9, 99.0, 95.0, 90.0)


def tail_pct(samples: int) -> float:
    """Highest percentile with at least ten samples beyond it; 100 (the
    maximum) when even p90 has fewer."""
    for pct in TAILS:
        if samples * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return 100.0


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * pct / 100.0))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def hist_percentile(payload: dict[str, Any], pct: float) -> float:
    """Percentile of a ``Histogram.to_payload()``, interpolated linearly
    inside the bucket (the histogram's own quantiles snap to bucket
    bounds, which would hide any shift smaller than a bucket)."""
    count = payload["count"]
    if not count:
        return 0.0
    rank = max(1.0, count * pct / 100.0)
    bounds, vmin, vmax = payload["bounds"], payload["min"], payload["max"]
    seen = 0
    for i, n in enumerate(payload["counts"]):
        if n and seen + n >= rank:
            lo = max(bounds[i - 1], vmin) if i else vmin
            hi = min(bounds[i], vmax) if i < len(bounds) else vmax
            return lo + (hi - lo) * (rank - seen) / n
        seen += n
    return vmax


def digest(outputs: Any) -> str:
    """sha256 over the canonical JSON of the sim-clock outputs."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
