"""Management console (Figure 9): drain / shutdown / start nodes."""

import pytest

from repro.errors import UserEnvError
from repro.sim import Simulator, drive
from repro.userenv.pws.console import (
    ManagementConsole,
    render_console,
    render_jobs,
    render_nodes,
    render_pools,
)
from repro.userenv.pws.server import STATUS, SUBMIT
from tests.userenv.conftest import pws_rpc


@pytest.fixture()
def console(kernel, sim, pws):
    return ManagementConsole(kernel, kernel.construction_tool, "p2c1")


def test_console_requires_pws(kernel):
    plain = ManagementConsole(kernel, kernel.construction_tool, "p0c0")
    # remove pws placement to simulate a cluster without the job manager
    kernel.placement.pop(("pws", "p0"), None)
    with pytest.raises(UserEnvError):
        plain._pws_node()


def test_drain_blocks_new_placements_but_running_jobs_finish(kernel, sim, pws, console):
    reply = pws_rpc(kernel, sim, SUBMIT,
                    {"user": "a", "nodes": 1, "cpus_per_node": 4, "duration": 20.0,
                     "pool": "batch"})
    sim.run(until=sim.now + 2.0)
    victim = pws_rpc(kernel, sim, STATUS, {"job_id": reply["job_id"]})["job"]["assigned_nodes"][0]
    assert drive(sim, console.drain_node(victim))["ok"]
    # New job avoids the drained node.
    reply2 = pws_rpc(kernel, sim, SUBMIT,
                     {"user": "b", "nodes": 1, "cpus_per_node": 4, "duration": 5.0,
                      "pool": "batch"})
    sim.run(until=sim.now + 2.0)
    nodes2 = pws_rpc(kernel, sim, STATUS, {"job_id": reply2["job_id"]})["job"]["assigned_nodes"]
    assert victim not in nodes2
    # The running job on the drained node still completes.
    sim.run(until=sim.now + 30.0)
    assert pws_rpc(kernel, sim, STATUS, {"job_id": reply["job_id"]})["job"]["state"] == "done"


def test_drain_unknown_node(kernel, sim, pws, console):
    reply = drive(sim, console.drain_node("ghost"))
    assert reply["ok"] is False


def test_shutdown_then_start_cycle(kernel, sim, pws, console):
    node = "p1c2"
    drive(sim, console.drain_node(node))
    console.shutdown_node(node)
    assert not kernel.cluster.node(node).up
    sim.run(until=sim.now + 15.0)  # kernel notices the shutdown
    assert kernel.gsd("p1").node_state[node] == "down"

    reply = drive(sim, console.start_node(node))
    assert reply["ok"]
    assert kernel.cluster.node(node).up
    sim.run(until=sim.now + 12.0)
    assert kernel.gsd("p1").node_state[node] == "up"
    # The node is schedulable again.
    job = pws_rpc(kernel, sim, SUBMIT,
                  {"user": "a", "nodes": 9, "cpus_per_node": 1, "duration": 5.0,
                   "pool": "batch"})
    sim.run(until=sim.now + 2.0)
    assert pws_rpc(kernel, sim, STATUS, {"job_id": job["job_id"]})["job"]["state"] == "running"


def test_render_surfaces(kernel, sim, pws, console):
    pws_rpc(kernel, sim, SUBMIT,
            {"user": "a", "nodes": 1, "cpus_per_node": 1, "duration": 50.0, "pool": "batch"})
    sim.run(until=sim.now + 6.0)
    jobs = drive(sim, console.job_summary())
    pools = drive(sim, console.pool_summary())
    nodes = drive(sim, console.node_status())
    text = render_console(jobs, pools, nodes["rows"])
    assert "Management Console" in text
    assert "running:1" in render_jobs(jobs)
    assert "batch" in render_pools(pools)
    assert "p0s0[UP]" in render_nodes(nodes["rows"])


def test_render_empty_surfaces():
    assert render_jobs({}) == "jobs  (none)"
    assert "(no node state yet)" in render_nodes([])
    assert "Console" in render_console(None, None, None)
