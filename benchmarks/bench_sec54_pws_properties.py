"""§5.4 / Figure 9 — PWS's fault-tolerance and multi-pool properties.

Property 3: "The scheduling service group ... is created on the basis of
group service with high availability guaranteed, while PBS doesn't
guarantee it" — measured by killing each scheduler mid-trace.

Property 4: "PWS supports multi-pools and dynamic leasing among
different pools" — measured by starving one pool and counting leases.
"""

import pytest

from benchmarks.conftest import once
from repro.cluster import Cluster, ClusterSpec
from repro.experiments.pws_vs_pbs import compare_ha
from repro.experiments.report import format_table
from repro.kernel import KernelTimings, PhoenixKernel
from repro.sim import Simulator, drive
from repro.userenv.pws import PoolSpec, install_pws
from repro.userenv.pws.server import STATUS, SUBMIT
from repro.userenv.pws.server import PORT as PWS_PORT


@pytest.mark.benchmark(group="sec54")
def test_scheduler_ha(benchmark, save_artifact):
    ha = once(benchmark, lambda: compare_ha(job_count=12, seed=0, sim_time=1500.0))
    pws, pbs = ha["pws"], ha["pbs"]
    assert pws["scheduler_alive"] and not pbs["scheduler_alive"]
    assert pws["done"] > pbs["done"]
    rows = [
        ["PWS", "recovered by GSD (checkpointed queue)", pws["done"]],
        ["PBS", "dead until operator action", pbs["done"]],
    ]
    save_artifact("sec54_ha", format_table(
        ["system", "after scheduler process kill", "jobs completed"],
        rows, title="§5.4 property 3 — scheduler fault tolerance"))


def run_leasing_scenario(seed: int = 0) -> dict:
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, ClusterSpec.build(partitions=2, computes=6))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=30.0))
    kernel.boot()
    sim.run(until=6.0)
    computes = cluster.compute_nodes()
    pools = [
        PoolSpec("batch", [n for n in computes if n.startswith("p0")]),
        PoolSpec("interactive", [n for n in computes if n.startswith("p1")], policy="sjf"),
    ]
    server = install_pws(kernel, pools)
    sim.run(until=sim.now + 2.0)

    def rpc(mtype, payload):
        sig = cluster.transport.rpc(
            "p1c0", kernel.placement[("pws", "p0")], PWS_PORT, mtype, payload, timeout=5.0)
        return drive(sim, sig)

    # Interactive pool owns 7 nodes; ask for 10 -> 3 leased from batch.
    reply = rpc(SUBMIT, {"user": "u", "nodes": 10, "cpus_per_node": 2,
                         "duration": 60.0, "pool": "interactive"})
    sim.run(until=sim.now + 2.0)
    leases_during = len(server.pm.leases)
    lease_marks = len(sim.trace.records("pws.lease"))
    sim.run(until=sim.now + 90.0)
    status = rpc(STATUS, {"job_id": reply["job_id"]})
    return {
        "leases_during": leases_during,
        "lease_marks": lease_marks,
        "leases_after": len(server.pm.leases),
        "job_state": status["job"]["state"],
        "nodes_used": status["job"]["assigned_nodes"],
    }


@pytest.mark.benchmark(group="sec54")
def test_multipool_dynamic_leasing(benchmark, save_artifact):
    result = once(benchmark, run_leasing_scenario)
    assert result["leases_during"] == 3
    assert result["lease_marks"] == 3
    assert result["leases_after"] == 0  # returned on completion
    assert result["job_state"] == "done"
    borrowed = [n for n in result["nodes_used"] if n.startswith("p0")]
    assert len(borrowed) == 3
    save_artifact("sec54_leasing", format_table(
        ["metric", "value"],
        [[k, str(v)] for k, v in result.items()],
        title="§5.4 property 4 — multi-pool dynamic leasing"))
