"""Figure 9 — the integrated PWS management console in action.

The paper's screenshot shows the Web GUI's Start/Shutdown Nodes
operation.  This bench drives the full operator cycle — drain a node,
shut it down, watch the kernel notice, bring it back — and renders the
console surface as the artifact.

The **query-storm** bench is the console's read-path scalability claim:
with a bandwidth-modelled fabric, a stream of materialized-view reads
stays flat from 128 to 1024 nodes (one RPC, O(groups) bytes) while the
full-scan ``DB_EXEC`` reference grows super-linearly (it ships O(nodes)
rows to the coordinator every time).
"""

import dataclasses

import pytest

from benchmarks.conftest import once
from repro.cluster import Cluster, ClusterSpec
from repro.experiments.report import format_table
from repro.kernel import KernelTimings, PhoenixKernel
from repro.kernel.bulletin.query import Agg, Query
from repro.sim import Simulator, drive
from repro.userenv.construction import ConstructionTool
from repro.userenv.pws import PoolSpec, install_pws
from repro.userenv.pws.console import ManagementConsole, render_console


def run_console_cycle(seed: int = 0) -> dict:
    sim = Simulator(seed=seed)
    tool = ConstructionTool(sim)
    kernel = tool.build(
        ClusterSpec.build(partitions=2, computes=4),
        timings=KernelTimings(heartbeat_interval=10.0),
    )
    sim.run(until=6.0)
    install_pws(kernel, [PoolSpec("default", kernel.cluster.compute_nodes())])
    sim.run(until=sim.now + 2.0)
    console = ManagementConsole(kernel, tool, "p1c3")

    target = "p0c1"
    assert drive(sim, console.drain_node(target))["ok"]
    console.shutdown_node(target)
    t_down = sim.now
    sim.run(until=sim.now + 15.0)
    noticed = kernel.gsd("p0").node_state[target] == "down"
    drive(sim, console.start_node(target))
    sim.run(until=sim.now + 12.0)
    back_up = kernel.gsd("p0").node_state[target] == "up"

    jobs = drive(sim, console.job_summary())
    pools = drive(sim, console.pool_summary())
    nodes = drive(sim, console.node_status())
    return {
        "noticed_down": noticed,
        "back_up": back_up,
        "board": render_console(jobs, pools, nodes["rows"]),
        "target": target,
    }


@pytest.mark.benchmark(group="fig9")
def test_fig9_console_start_shutdown_cycle(benchmark, save_artifact):
    result = once(benchmark, run_console_cycle)
    assert result["noticed_down"]
    assert result["back_up"]
    assert f"{result['target']}[UP]" in result["board"]
    save_artifact("fig9_console", result["board"])


# -- query storm: flat view reads vs super-linear full scans -----------------

STORM_QUERY = Query(
    table="nodes",
    group_by=("state",),
    aggs=(
        Agg("count", "*", "n"),
        Agg("sum", "reporting", "reporting"),
        Agg("avg", "cpu_pct", "cpu"),
        Agg("max", "cpu_pct", "cpu_max"),
    ),
)

#: Fabric bandwidth for the storm (bytes/s) — makes reply *size* part of
#: per-query latency, which is the whole point of the comparison: the
#: full scan ships O(nodes-per-partition) rows per fan-out leg, the view
#: read ships O(groups) rows total.
STORM_BANDWIDTH = 1e6


def run_query_storm(partitions: int, computes: int, seed: int = 0, queries: int = 12) -> dict:
    """One storm at one scale: alternate view reads and full scans."""
    spec = ClusterSpec.build(partitions=partitions, computes=computes)
    spec = dataclasses.replace(
        spec,
        networks=tuple(
            dataclasses.replace(n, bandwidth=STORM_BANDWIDTH) for n in spec.networks
        ),
    )
    sim = Simulator(seed=seed, trace_capacity=10_000)
    cluster = Cluster(sim, spec)
    timings = KernelTimings(heartbeat_interval=10.0)
    kernel = PhoenixKernel(cluster, timings=timings)
    kernel.boot()
    sim.run(until=25.0)  # detectors exporting everywhere
    # Client on a compute node: the partition server hosts the bulletin,
    # whose bulk flows (checkpoints, deltas) would otherwise FIFO-queue
    # ahead of our replies and pollute the latency measurement.
    client = kernel.client("p0c0")
    reply = drive(sim, client.register_view("storm.nodes", STORM_QUERY, partition="p1"),
                  max_time=120.0)
    assert reply and reply.get("ok"), reply
    sim.run(until=sim.now + 5.0)

    view_lats, exec_lats = [], []
    for _ in range(queries):
        t = sim.now
        assert drive(sim, client.read_view("storm.nodes"), max_time=60.0) is not None
        view_lats.append(sim.now - t)
        t = sim.now
        assert drive(sim, client.exec_query(STORM_QUERY), max_time=120.0) is not None
        exec_lats.append(sim.now - t)
        sim.run(until=sim.now + 1.0)
    return {
        "nodes": cluster.size,
        "view_mean_s": sum(view_lats) / len(view_lats),
        "exec_mean_s": sum(exec_lats) / len(exec_lats),
        "queries": queries,
    }


def run_query_storm_scaling(seed: int = 0) -> dict:
    """128 vs 1024 nodes: view reads must stay flat, full scans must not."""
    small = run_query_storm(partitions=8, computes=14, seed=seed)    # 128 nodes
    large = run_query_storm(partitions=16, computes=62, seed=seed)   # 1024 nodes
    return {
        "small": small,
        "large": large,
        "view_ratio": large["view_mean_s"] / small["view_mean_s"],
        "exec_ratio": large["exec_mean_s"] / small["exec_mean_s"],
    }


def render_query_storm(result: dict) -> str:
    """The storm artifact: per-scale latencies + growth ratios."""
    rows = [
        [r["nodes"], r["queries"], f"{r['view_mean_s'] * 1e3:.3f} ms",
         f"{r['exec_mean_s'] * 1e3:.3f} ms"]
        for r in (result["small"], result["large"])
    ]
    rows.append(["ratio", "",
                 f"{result['view_ratio']:.2f}x", f"{result['exec_ratio']:.2f}x"])
    return format_table(
        ["nodes", "queries", "view read (IVM)", "full scan (DB_EXEC)"],
        rows,
        title=(
            "Query storm - materialized view vs full-scan latency "
            f"({STORM_BANDWIDTH / 1e6:.0f} MB/s fabric)"
        ),
    )


@pytest.mark.benchmark(group="fig9")
def test_fig9_query_storm_flat_view_latency(benchmark, save_artifact):
    result = once(benchmark, run_query_storm_scaling)
    # IVM read path: flat within 1.5x across an 8x node-count jump.
    assert result["view_ratio"] <= 1.5, result
    # Full-scan reference: super-linear in shipped rows, must clearly grow.
    assert result["exec_ratio"] >= 2.0, result
    benchmark.extra_info["storm"] = {
        "view_mean_128_s": result["small"]["view_mean_s"],
        "view_mean_1024_s": result["large"]["view_mean_s"],
        "exec_mean_128_s": result["small"]["exec_mean_s"],
        "exec_mean_1024_s": result["large"]["exec_mean_s"],
        "view_ratio": result["view_ratio"],
        "exec_ratio": result["exec_ratio"],
    }
    save_artifact("fig9_query_storm", render_query_storm(result))
