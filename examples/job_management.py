#!/usr/bin/env python3
"""Phoenix-PWS in action: multi-pool scheduling, leasing, and HA (§5.4).

Installs the PWS job management system on a booted kernel, submits a
synthetic trace into two pools (FIFO batch + SJF interactive), triggers
dynamic leasing with an oversized job, crashes a compute node mid-job to
show requeue-on-failure, and finally kills the scheduler process itself
to show the GSD bringing it back with its checkpointed queue.

Run:  python examples/job_management.py
"""

from repro.cluster import ClusterSpec, FaultInjector
from repro.kernel import KernelTimings
from repro.sim import Simulator, drive
from repro.userenv.construction import ConstructionTool
from repro.userenv.pws import PoolSpec, install_pws
from repro.userenv.pws.server import POOLS, STATUS, SUBMIT
from repro.userenv.pws.server import PORT as PWS_PORT
from repro.workloads.jobs import TraceConfig, generate_trace


def main() -> None:
    sim = Simulator(seed=11)
    tool = ConstructionTool(sim)
    kernel = tool.build(
        ClusterSpec.build(partitions=3, computes=6),
        timings=KernelTimings(heartbeat_interval=10.0),
    )
    cluster = kernel.cluster
    sim.run(until=6.0)

    computes = cluster.compute_nodes()
    pools = [
        PoolSpec("batch", [n for n in computes if n.startswith(("p0", "p1"))]),
        PoolSpec("interactive", [n for n in computes if n.startswith("p2")], policy="sjf"),
    ]
    server = install_pws(kernel, pools)
    sim.run(until=sim.now + 2.0)
    print(f"PWS scheduling group running on {server.node_id} "
          f"(pools: {', '.join(p.name for p in pools)})")

    def rpc(mtype, payload):
        node = kernel.placement[("pws", "p0")]
        sig = cluster.transport.rpc("p2c0", node, PWS_PORT, mtype, payload, timeout=5.0)
        return drive(sim, sig)

    # 1. A synthetic trace into the batch pool.
    trace = generate_trace(8, TraceConfig(max_nodes=3), seed=1)
    ids = []
    for entry in trace:
        reply = rpc(SUBMIT, entry.submit_payload(pool="batch"))
        ids.append(reply["job_id"])
    print(f"submitted {len(ids)} trace jobs to 'batch'")

    # 2. An oversized interactive job forces dynamic leasing.
    big = rpc(SUBMIT, {"user": "leaser", "nodes": 9, "cpus_per_node": 2,
                       "duration": 45.0, "pool": "interactive"})
    sim.run(until=sim.now + 2.0)
    stats = rpc(POOLS, {})
    print(f"oversized job {big['job_id']}: interactive leased "
          f"{stats['pools']['interactive']['leases_in']} nodes from batch")

    # 3. Crash a node running a trace job: the job is requeued elsewhere.
    running = next(j for j in (rpc(STATUS, {"job_id": i})["job"] for i in ids)
                   if j["state"] == "running")
    victim = running["assigned_nodes"][0]
    print(f"crashing {victim} (runs {running['spec']['job_id']}) ...")
    FaultInjector(cluster).crash_node(victim)
    sim.run(until=sim.now + 40.0)
    after = rpc(STATUS, {"job_id": running["spec"]["job_id"]})["job"]
    print(f"  -> job {after['spec']['job_id']} is {after['state']} on {after['assigned_nodes']}"
          f" (requeues so far: {int(sim.trace.counter('pws.requeues'))})")

    # 4. Kill the scheduler itself: GSD restarts it with checkpointed state.
    print("killing the PWS server process ...")
    FaultInjector(cluster).kill_process(kernel.placement[("pws", "p0")], "pws")
    sim.run(until=sim.now + 20.0)
    fresh = kernel.live_daemon("pws", kernel.placement[("pws", "p0")])
    print(f"  -> GSD restarted PWS (alive={fresh.alive}), "
          f"{len(fresh.jobs)} jobs recovered from the checkpoint service")

    # 5. Drain the queue.
    sim.run(until=sim.now + 1200.0)
    summary = rpc(STATUS, {})
    print(f"\nfinal job states: {summary['counts']}")
    assert summary["counts"].get("done", 0) >= len(ids)


if __name__ == "__main__":
    main()
