"""Figure 5 — data bulletin service federation (single access point).

Measures the federation's two properties on the 136-node paper testbed:
any of the 8 instances answers a cluster-wide query with all 136 rows in
milliseconds, and killing one instance hides exactly one partition until
the GSD restarts it.
"""

import pytest

from benchmarks.conftest import once
from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.experiments.report import format_table
from repro.kernel import KernelTimings, PhoenixKernel
from repro.kernel.bulletin.service import TABLE_NODE_METRICS
from repro.sim import Simulator, drive


def run_federation_probe(seed: int = 0) -> dict:
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, ClusterSpec.paper_fault_testbed())
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=30.0))
    kernel.boot()
    sim.run(until=7.0)  # detectors exported

    def query_via(partition: str) -> tuple[int, list[str], float]:
        start = sim.now
        sig = kernel.client("p7c3").query_bulletin(TABLE_NODE_METRICS, partition=partition)
        reply = drive(sim, sig)
        return len(reply["rows"]), reply["partitions_missing"], sim.now - start

    per_entry = {pid: query_via(pid) for pid in ("p0", "p3", "p7")}

    injector = FaultInjector(cluster)
    injector.kill_process(kernel.placement[("db", "p2")], "db")
    rows_degraded, missing_degraded, _ = query_via("p0")

    # GSD notices at its next service-group check and restarts the DB;
    # detectors refill it within one export interval.
    sim.run(until=sim.now + 40.0)
    rows_healed, missing_healed, _ = query_via("p0")
    return {
        "per_entry": per_entry,
        "degraded": (rows_degraded, missing_degraded),
        "healed": (rows_healed, missing_healed),
        "cluster_size": cluster.size,
    }


@pytest.mark.benchmark(group="fig5")
def test_fig5_single_access_point(benchmark, save_artifact):
    result = once(benchmark, run_federation_probe)
    n = result["cluster_size"]
    assert n == 136
    # Any instance returns the whole cluster's rows.
    for pid, (rows, missing, latency) in result["per_entry"].items():
        assert rows == n, pid
        assert missing == []
        assert latency < 0.05
    # One dead instance hides exactly its partition (17 nodes).
    rows_degraded, missing_degraded = result["degraded"]
    assert missing_degraded == ["p2"]
    assert rows_degraded == n - 17
    # And the GSD restores full coverage.
    rows_healed, missing_healed = result["healed"]
    assert missing_healed == []
    assert rows_healed == n
    body = [
        [pid, rows, f"{1000 * latency:.2f}ms"]
        for pid, (rows, _, latency) in result["per_entry"].items()
    ]
    body.append(["p0 (db@p2 dead)", rows_degraded, f"missing={missing_degraded}"])
    body.append(["p0 (healed)", rows_healed, "missing=[]"])
    save_artifact("fig5_federation", format_table(
        ["access point", "rows", "latency / note"], body,
        title="Figure 5 — bulletin federation on the 136-node testbed"))
