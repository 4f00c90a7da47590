"""Figure 6 / §5.3 — monitoring the Dawning 4000A at scale.

The sweep regenerates the paper's scalability evidence: GridView built
purely on bulletin/event/configuration interfaces monitors 64 through
640 nodes (the Dawning 4000A point) with flat per-node kernel traffic,
near-constant collection latency, and an access-point load that scales
with partitions, not nodes.  The Figure 6 status board is rendered for
the 640-node point.
"""

import pytest

from benchmarks.conftest import once
from repro.experiments.scalability import render_sweep, run_point, run_sweep
from repro.userenv.monitoring import render_snapshot

#: The paper's machine is the 640-node point; 1024–4096 substantiate §1's
#: "easily extends to increasing system scale".
SWEEP = (64, 128, 256, 640, 1024, 2048, 4096)

#: Extension point — 25.6x the paper's machine; at ≈3.5 min the longest
#: single point of the smoke bench, run event by event.
EXT_NODES = 16384

#: Two-tier federation points (DESIGN.md §16): region_size ≈ √partitions,
#: the analytic optimum for the O(P/R + R) per-partition datagram bound.
TWO_TIER_POINTS = ((1024, 8), (4096, 16), (EXT_NODES, 32))
#: Flat-mesh references for the same scales.  There is deliberately no
#: flat 16384 point: an all-pairs storm there is ~1M datagrams — the
#: O(P^2) wall this topology exists to break.
FLAT_REFS = (1024, 4096)


@pytest.mark.benchmark(group="fig6")
def test_fig6_scalability_sweep(benchmark, save_artifact):
    rows = once(benchmark, lambda: run_sweep(SWEEP))
    save_artifact("fig6_scalability", render_sweep(rows))
    by_nodes = {r["nodes"]: r for r in rows}
    # Every node is visible from the single access point at every scale.
    for nodes in SWEEP:
        assert by_nodes[nodes]["rows_per_refresh"] == nodes
    # Per-node kernel traffic is flat (the partitioned design's point) —
    # all the way to the 4096-node point, 6.4x the paper's machine.
    small, big = by_nodes[64], by_nodes[SWEEP[-1]]
    assert big["msgs_per_node_per_s"] == pytest.approx(small["msgs_per_node_per_s"], rel=0.25)
    # Collection latency grows far slower than 64x node count.
    assert big["refresh_latency_ms"] < 5 * small["refresh_latency_ms"]
    # Federation batching: the event storm crosses partition boundaries
    # in far fewer datagrams than events forwarded (Dawning 4000A point).
    storm = by_nodes[640]
    assert storm["forwarded_events"] > 0
    assert storm["forward_batches"] < storm["forwarded_events"]
    benchmark.extra_info["sweep"] = {
        r["nodes"]: {
            "latency_ms": r["refresh_latency_ms"],
            "msgs_per_node_per_s": r["msgs_per_node_per_s"],
            "forward_batches": r["forward_batches"],
            "forwarded_events": r["forwarded_events"],
        }
        for r in rows
    }
    # Per-phase latency histogram snapshots (deterministic; 640-node point).
    benchmark.extra_info["hist_640"] = {
        name: {"p50": s["p50"], "p95": s["p95"], "p99": s["p99"], "count": s["count"]}
        for name, s in by_nodes[640]["hist"].items()
    }
    # Figure 6 status board for the full machine, common load.
    snapshot = by_nodes[640]["snapshot"]
    assert 3.0 < snapshot.avg_cpu_pct < 9.0  # paper: 5.5%
    assert 15.0 < snapshot.avg_mem_pct < 23.0  # paper: 18.6%
    assert snapshot.avg_swap_pct < 2.0  # paper: 0.72%
    save_artifact("fig6_statusboard", render_snapshot(snapshot, columns=10))


@pytest.mark.benchmark(group="fig6")
def test_fig6_extended_point(benchmark, save_artifact):
    """The 16384-node extension of Figure 6, beside the 64-node point it
    is compared against."""
    small, big = once(benchmark, lambda: (run_point(64), run_point(EXT_NODES)))

    # The 25.6x-scale point behaves like the paper's machine.
    assert big["rows_per_refresh"] == EXT_NODES
    assert big["partitions"] == EXT_NODES // 16
    assert big["msgs_per_node_per_s"] == pytest.approx(small["msgs_per_node_per_s"], rel=0.25)
    assert big["refresh_latency_ms"] < 5 * small["refresh_latency_ms"]

    benchmark.extra_info["ext_16384"] = {
        "latency_ms": big["refresh_latency_ms"],
        "msgs_per_node_per_s": big["msgs_per_node_per_s"],
        "access_point_msgs_per_refresh": big["access_point_msgs_per_refresh"],
    }
    save_artifact("fig6_extension", render_sweep([small, big]))


@pytest.mark.benchmark(group="fig6")
def test_fig6_two_tier_federation(benchmark, save_artifact):
    """Two-tier federation breaks the O(P^2) all-pairs wall (DESIGN.md
    §16).  Every partition publishes one event simultaneously; flat
    federation answers with P-1 datagrams per partition (quadratic in
    total), the region topology with O(P/R + R).  The per-partition
    counts land in the bench JSON under one-sided ``growth_`` keys, so
    check_baseline.py fails any regression back toward super-linear
    growth while letting further improvements through silently."""

    def work():
        flat = {n: run_point(n, allpairs_storm=True) for n in FLAT_REFS}
        two = {
            n: run_point(n, region_size=r, allpairs_storm=True)
            for n, r in TWO_TIER_POINTS
        }
        return flat, two

    flat, two = once(benchmark, work)

    # Full machine visibility survives the aggregator-relayed cross-region path.
    for nodes, region_size in TWO_TIER_POINTS:
        point = two[nodes]
        assert point["rows_per_refresh"] == nodes
        assert point["regions"] == point["partitions"] // region_size
        assert point["allpairs"]["cross"] > 0  # batches actually crossed regions

    # At matched scales the two-tier all-pairs storm costs each
    # partition strictly fewer federation datagrams than the flat mesh.
    for nodes in FLAT_REFS:
        assert flat[nodes]["allpairs"]["per_partition"] > 2 * two[nodes]["allpairs"]["per_partition"]

    # Flat per-partition cost is Θ(P): 4x the partitions, ~4x the cost.
    flat_growth = (
        flat[4096]["allpairs"]["per_partition"] / flat[1024]["allpairs"]["per_partition"]
    )
    assert flat_growth > 3.0
    # Two-tier per-partition cost at region_size ≈ √P grows ~√P: 16x the
    # partitions from 1024 to 16384 nodes must cost well under 8x.
    two_growth = (
        two[EXT_NODES]["allpairs"]["per_partition"] / two[1024]["allpairs"]["per_partition"]
    )
    assert two_growth < 8.0

    benchmark.extra_info["two_tier"] = {
        nodes: {
            "regions": two[nodes]["regions"],
            "allpairs_intra": two[nodes]["allpairs"]["intra"],
            "allpairs_cross": two[nodes]["allpairs"]["cross"],
        }
        for nodes, _ in TWO_TIER_POINTS
    }
    # One-sided guards: check_baseline.py fails only if these grow.
    benchmark.extra_info["growth_allpairs_per_partition"] = {
        f"flat_{nodes}": flat[nodes]["allpairs"]["per_partition"] for nodes in FLAT_REFS
    } | {
        f"two_tier_{nodes}": two[nodes]["allpairs"]["per_partition"]
        for nodes, _ in TWO_TIER_POINTS
    }
    benchmark.extra_info["growth_two_tier_ratio_16384_over_1024"] = two_growth

    lines = ["§5.3 extension — all-pairs storm, flat mesh vs two-tier federation", ""]
    lines.append(f"{'nodes':>7} {'parts':>6} {'topology':>12} {'datagrams':>10} {'per-part':>9}")
    for nodes in FLAT_REFS:
        ap = flat[nodes]["allpairs"]
        lines.append(
            f"{nodes:>7} {flat[nodes]['partitions']:>6} {'flat':>12} "
            f"{ap['batches']:>10.0f} {ap['per_partition']:>9.1f}"
        )
    for nodes, region_size in TWO_TIER_POINTS:
        ap = two[nodes]["allpairs"]
        lines.append(
            f"{nodes:>7} {two[nodes]['partitions']:>6} {f'regions/{region_size}':>12} "
            f"{ap['batches']:>10.0f} {ap['per_partition']:>9.1f}"
        )
    lines.append("")
    lines.append(f"flat growth 1024->4096: {flat_growth:.2f}x   "
                 f"two-tier growth 1024->16384: {two_growth:.2f}x")
    save_artifact("fig6_two_tier", "\n".join(lines))
