"""§5.3 harness: monitoring a Dawning-4000A-scale system (Figure 6).

The paper's scalability evidence is existence-style: GridView, built on
nothing but the bulletin/event/configuration interfaces, monitors the
whole 640-node machine.  We reproduce that and quantify it with a sweep:
for increasing node counts, boot the kernel, attach GridView, and measure

* collection latency per refresh (one federation query, any instance);
* kernel background traffic per node per second (heartbeats, detector
  exports) — flat per node, i.e. total traffic linear in nodes;
* messages handled by the monitoring access point per refresh —
  O(partitions), not O(nodes), which is the partitioned design's point;
* federation batching efficiency under an event storm — a burst of
  publishes from one node must cross partition boundaries in far fewer
  ``es.forward_batch`` datagrams than events forwarded.
"""

from __future__ import annotations

import argparse

from repro.cluster import Cluster, ClusterSpec
from repro.experiments.report import format_dict_rows
from repro.kernel import KernelTimings, PhoenixKernel
from repro.sim import Simulator
from repro.userenv.monitoring import install_gridview, render_snapshot

#: Node counts for the sweep (the paper's machine is the 640 point).
DEFAULT_SWEEP = (64, 128, 256, 640)
NODES_PER_PARTITION = 16
#: Publishes in the event-storm phase of each sweep point.
STORM_EVENTS = 20


def spec_for(nodes: int, region_size: int | None = None) -> ClusterSpec:
    """Regular 16-nodes-per-partition spec for a node count.

    ``region_size`` (partitions per region) switches the federation to
    the two-tier topology (DESIGN.md §16) — None keeps the flat mesh."""
    if nodes % NODES_PER_PARTITION:
        raise ValueError(f"nodes must be a multiple of {NODES_PER_PARTITION}")
    return ClusterSpec.build(
        partitions=nodes // NODES_PER_PARTITION, computes=NODES_PER_PARTITION - 2, backups=1,
        region_size=region_size,
    )


def run_point(
    nodes: int,
    seed: int = 0,
    refresh_interval: float = 30.0,
    measure_time: float = 90.0,
    heartbeat_interval: float = 30.0,
    region_size: int | None = None,
    allpairs_storm: bool = False,
) -> dict:
    """One sweep point; returns the measured scaling quantities."""
    sim = Simulator(seed=seed, trace_capacity=50_000)
    # The harness reads only counters, histograms, and gridview.* records;
    # filtering at mark time keeps the 2048/4096-node points from paying a
    # record allocation per heartbeat/export mark they will never read.
    sim.trace.set_record_filter(("gridview.",))
    cluster = Cluster(sim, spec_for(nodes, region_size=region_size))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=heartbeat_interval))
    kernel.boot()
    gv = install_gridview(kernel, refresh_interval=refresh_interval)
    access_node = gv.node_id
    db_node = kernel.placement[("db", cluster.node(access_node).partition_id)]

    sim.run(until=5.0)  # first detector exports land
    msgs0 = sum(sim.trace.counter(f"net.{n}.msgs") for n in cluster.networks)
    bytes0 = sum(sim.trace.counter(f"net.{n}.bytes") for n in cluster.networks)
    db_rx0 = sim.trace.counter(f"rx.{db_node}")
    t_start = sim.now
    sim.run(until=t_start + measure_time)
    msgs = sum(sim.trace.counter(f"net.{n}.msgs") for n in cluster.networks) - msgs0
    nbytes = sum(sim.trace.counter(f"net.{n}.bytes") for n in cluster.networks) - bytes0
    db_rx = sim.trace.counter(f"rx.{db_node}") - db_rx0

    refreshes = [r for r in sim.trace.records("gridview.refresh") if r.time > t_start]
    if not refreshes:
        raise RuntimeError("no GridView refresh completed in the measurement window")
    latencies = [r["latency"] for r in refreshes]

    # Event-storm phase: a healthy monitoring run publishes almost no
    # events, so batching efficiency needs its own burst.  Publish a
    # storm from one node and watch the federation counters; every event
    # must reach every remote partition, but in far fewer datagrams.
    published0 = sim.trace.counter("es.published")
    batches0 = sim.trace.counter("es.forward_batches")
    batched0 = sim.trace.counter("es.forward_batched_events")
    cross0 = sim.trace.counter("es.forward_batches_cross")
    client = kernel.client(access_node)
    for i in range(STORM_EVENTS):
        client.publish("app.started", {"node": access_node, "seq": i})
    sim.run(until=sim.now + 5.0)  # storm publishes + flush windows settle
    storm_published = sim.trace.counter("es.published") - published0
    forward_batches = sim.trace.counter("es.forward_batches") - batches0
    forwarded_events = sim.trace.counter("es.forward_batched_events") - batched0
    storm_cross = sim.trace.counter("es.forward_batches_cross") - cross0

    # All-pairs storm (opt-in): one publish from *every* partition at
    # once — the cost profile the two-tier topology exists to change.
    # Flat federation opens P-1 streams per publisher (O(P) datagrams
    # per partition, O(P^2) total); two-tier coalesces cross-region
    # traffic through aggregators (O(P/R + R) per partition).
    allpairs = None
    if allpairs_storm:
        ap0 = sim.trace.counter("es.forward_batches")
        apc0 = sim.trace.counter("es.forward_batches_cross")
        for part in cluster.spec.partitions:
            kernel.client(part.server).publish("config.changed", {"src": part.partition_id})
        sim.run(until=sim.now + 5.0)
        ap_batches = sim.trace.counter("es.forward_batches") - ap0
        ap_cross = sim.trace.counter("es.forward_batches_cross") - apc0
        allpairs = {
            "batches": ap_batches,
            "intra": ap_batches - ap_cross,  # es counts only the cross-region batches
            "cross": ap_cross,
            "per_partition": ap_batches / len(cluster.partitions),
        }

    partitions = len(cluster.partitions)
    return {
        "nodes": nodes,
        "partitions": partitions,
        "region_size": region_size,
        "regions": len(cluster.spec.regions()),
        # Per-partition federation datagram counts for the storm window:
        # flat mode is O(P) per partition (every publisher batches to
        # every peer), two-tier is O(R + P/R).  The fig6 bench guards
        # these against super-linear growth regressions.
        "fed_msgs_per_partition": forward_batches / partitions,
        "fed_msgs_intra": forward_batches - storm_cross,
        "fed_msgs_cross": storm_cross,
        "allpairs": allpairs,
        "refreshes": len(refreshes),
        "rows_per_refresh": refreshes[-1]["rows"],
        "refresh_latency_ms": 1000.0 * sum(latencies) / len(latencies),
        "msgs_per_node_per_s": msgs / nodes / measure_time,
        "bytes_per_node_per_s": nbytes / nodes / measure_time,
        "access_point_msgs_per_refresh": db_rx / len(refreshes),
        "storm_published": storm_published,
        "forward_batches": forward_batches,
        "forwarded_events": forwarded_events,
        "events_per_forward_batch": forwarded_events / forward_batches if forward_batches else 0.0,
        "events_executed": sim.events_executed,
        # Spine latency distributions, fed by span close (deterministic).
        "hist": {
            name: hist.summary()
            for name, hist in sorted(sim.trace.histograms().items())
            if name in ("rpc.call", "es.deliver", "es.forward_batch", "db.exec")
        },
        "snapshot": gv.latest,
    }


def run_sweep(node_counts: tuple[int, ...] = DEFAULT_SWEEP, seed: int = 0, **kwargs) -> list[dict]:
    """run_point over each node count."""
    return [run_point(nodes, seed=seed, **kwargs) for nodes in node_counts]


def render_sweep(rows: list[dict]) -> str:
    """Text table of the sweep's scaling quantities."""
    display = [
        {
            "nodes": r["nodes"],
            "partitions": r["partitions"],
            "rows/refresh": r["rows_per_refresh"],
            "latency(ms)": f"{r['refresh_latency_ms']:.2f}",
            "msgs/node/s": f"{r['msgs_per_node_per_s']:.2f}",
            "bytes/node/s": f"{r['bytes_per_node_per_s']:.0f}",
            "AP msgs/refresh": f"{r['access_point_msgs_per_refresh']:.0f}",
            "evts/fwd batch": f"{r['events_per_forward_batch']:.1f}",
        }
        for r in rows
    ]
    return format_dict_rows(
        display,
        ["nodes", "partitions", "rows/refresh", "latency(ms)", "msgs/node/s",
         "bytes/node/s", "AP msgs/refresh", "evts/fwd batch"],
        title="§5.3 — GridView monitoring scalability sweep",
    )


def main(argv: list[str] | None = None) -> None:
    """CLI: run and print the scalability sweep."""
    parser = argparse.ArgumentParser(description="Regenerate the §5.3 scalability evaluation")
    parser.add_argument("--nodes", type=int, nargs="*", default=list(DEFAULT_SWEEP))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--region-size", type=int, default=None,
                        help="partitions per region: two-tier federation "
                             "(DESIGN.md §16); omit for the flat mesh")
    parser.add_argument("--show-snapshot", action="store_true",
                        help="print the Figure 6 style board for the largest point")
    args = parser.parse_args(argv)
    rows = run_sweep(tuple(args.nodes), seed=args.seed, region_size=args.region_size)
    print(render_sweep(rows))
    if args.show_snapshot:
        print()
        print(render_snapshot(rows[-1]["snapshot"], columns=10))


if __name__ == "__main__":
    main()
