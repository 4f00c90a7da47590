#!/usr/bin/env python3
"""The integrated PWS management console (paper Figure 9).

Drives the operator surface the paper's screenshot shows: the job and
pool boards, and the Start/Shutdown Nodes cycle — drain a node, power it
off, watch the kernel's failure pipeline notice, power it back on, and
see it rejoin the schedulable pool.

Run:  python examples/management_console.py
"""

from repro.cluster import ClusterSpec
from repro.kernel import KernelTimings
from repro.sim import Simulator, drive
from repro.userenv.construction import ConstructionTool
from repro.userenv.pws import PoolSpec, install_pws
from repro.userenv.pws.console import ManagementConsole, render_accounting, render_console
from repro.userenv.pws.server import SUBMIT
from repro.userenv.pws.server import PORT as PWS_PORT


def show(console, sim) -> None:
    jobs = drive(sim, console.job_summary())
    pools = drive(sim, console.pool_summary())
    nodes = drive(sim, console.node_status())
    print(render_console(jobs, pools, nodes["rows"]))
    print()


def main() -> None:
    sim = Simulator(seed=17)
    tool = ConstructionTool(sim)
    kernel = tool.build(
        ClusterSpec.build(partitions=2, computes=4),
        timings=KernelTimings(heartbeat_interval=10.0),
    )
    sim.run(until=6.0)
    install_pws(kernel, [PoolSpec("default", kernel.cluster.compute_nodes())])
    sim.run(until=sim.now + 2.0)
    console = ManagementConsole(kernel, tool, "p1c3")

    # Some work in the queue so the boards aren't empty.
    for i in range(3):
        sig = kernel.cluster.transport.rpc(
            "p1c3", kernel.placement[("pws", "p0")], PWS_PORT, SUBMIT,
            {"user": "ops-demo", "nodes": 2, "cpus_per_node": 2, "duration": 120.0,
             "pool": "default"},
        )
        drive(sim, sig)
    sim.run(until=sim.now + 2.0)
    print(">>> initial state")
    show(console, sim)

    target = "p0c1"
    print(f">>> drain + shutdown {target}")
    drive(sim, console.drain_node(target))
    console.shutdown_node(target)
    sim.run(until=sim.now + 15.0)  # kernel detects the power-off
    show(console, sim)

    print(f">>> start {target}")
    drive(sim, console.start_node(target))
    sim.run(until=sim.now + 12.0)  # heartbeats resume
    show(console, sim)

    sim.run(until=sim.now + 150.0)  # let the demo jobs finish
    print(">>> usage accounting")
    print(render_accounting(drive(sim, console.accounting())))


if __name__ == "__main__":
    main()
