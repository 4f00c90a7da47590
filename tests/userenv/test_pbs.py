"""PBS baseline: polling behavior, FIFO scheduling, no HA."""

import pytest

from repro.sim import drive
from repro.userenv.pbs import PBSServer
from repro.userenv.pbs.server import CANCEL, PORT, STATUS, SUBMIT


@pytest.fixture()
def pbs(kernel, sim):
    nodes = kernel.cluster.compute_nodes()
    server = PBSServer(kernel, "p0s0", nodes=nodes, poll_interval=5.0)
    kernel.registry.register("pbs", lambda k, n: server)
    kernel.start_service("pbs", "p0s0")
    sim.run(until=sim.now + 6.0)  # first poll cycle completes
    return server


def pbs_rpc(kernel, sim, mtype, payload, timeout=5.0):
    sig = kernel.cluster.transport.rpc("p0c0", "p0s0", PORT, mtype, payload, timeout=timeout)
    return drive(sim, sig, max_time=timeout + 1)


def test_submit_run_complete(kernel, sim, pbs):
    reply = pbs_rpc(kernel, sim, SUBMIT,
                    {"user": "a", "nodes": 2, "cpus_per_node": 2, "duration": 8.0})
    assert reply["ok"]
    job_id = reply["job_id"]
    sim.run(until=sim.now + 30.0)  # a few poll cycles
    status = pbs_rpc(kernel, sim, STATUS, {"job_id": job_id})
    assert status["job"]["state"] == "done"


def test_dispatch_waits_for_poll_cycle(kernel, sim, pbs):
    """PBS only schedules during its polling pass — submission latency is
    bounded below by the poll interval (unlike event-driven PWS)."""
    reply = pbs_rpc(kernel, sim, SUBMIT,
                    {"user": "a", "nodes": 1, "cpus_per_node": 1, "duration": 100.0})
    job_id = reply["job_id"]
    status = pbs_rpc(kernel, sim, STATUS, {"job_id": job_id})
    assert status["job"]["state"] == "queued"  # not dispatched synchronously
    sim.run(until=sim.now + 7.0)
    status = pbs_rpc(kernel, sim, STATUS, {"job_id": job_id})
    assert status["job"]["state"] == "running"


def test_polling_traffic_scales_with_nodes(kernel, sim, pbs):
    before = sim.trace.counter("pbs.polls")
    sim.run(until=sim.now + 25.0)  # 5 cycles x 15 nodes
    polls = sim.trace.counter("pbs.polls") - before
    assert polls >= 4 * len(pbs.managed_nodes)


def test_cancel(kernel, sim, pbs):
    reply = pbs_rpc(kernel, sim, SUBMIT,
                    {"user": "a", "nodes": 1, "cpus_per_node": 1, "duration": 500.0})
    sim.run(until=sim.now + 7.0)
    reply2 = pbs_rpc(kernel, sim, CANCEL, {"job_id": reply["job_id"]})
    assert reply2["ok"]
    sim.run(until=sim.now + 2.0)
    assert all(kernel.cluster.node(n).busy_cpus == 0 for n in pbs.managed_nodes)


def test_fifo_head_of_line_blocking(kernel, sim, pbs):
    # A job that can never fit blocks everything behind it.
    huge = pbs_rpc(kernel, sim, SUBMIT,
                   {"user": "a", "nodes": 99, "cpus_per_node": 1, "duration": 10.0})
    small = pbs_rpc(kernel, sim, SUBMIT,
                    {"user": "b", "nodes": 1, "cpus_per_node": 1, "duration": 10.0})
    sim.run(until=sim.now + 20.0)
    assert pbs_rpc(kernel, sim, STATUS, {"job_id": huge["job_id"]})["job"]["state"] == "queued"
    assert pbs_rpc(kernel, sim, STATUS, {"job_id": small["job_id"]})["job"]["state"] == "queued"


def test_no_ha_server_death_kills_job_management(kernel, sim, pbs, injector):
    """The §5.4 contrast: PBS has no service group behind it."""
    reply = pbs_rpc(kernel, sim, SUBMIT,
                    {"user": "a", "nodes": 1, "cpus_per_node": 1, "duration": 50.0})
    sim.run(until=sim.now + 7.0)
    injector.kill_process("p0s0", "pbs")
    sim.run(until=sim.now + 60.0)
    # Nobody restarts it; status RPCs go unanswered.
    assert not kernel.cluster.hostos("p0s0").process_alive("pbs")
    assert pbs_rpc(kernel, sim, STATUS, {"job_id": reply["job_id"]}) is None


def test_node_failure_detected_only_via_poll_and_fails_job(kernel, sim, pbs, injector):
    reply = pbs_rpc(kernel, sim, SUBMIT,
                    {"user": "a", "nodes": 1, "cpus_per_node": 2, "duration": 300.0})
    job_id = reply["job_id"]
    sim.run(until=sim.now + 7.0)
    node = pbs_rpc(kernel, sim, STATUS, {"job_id": job_id})["job"]["assigned_nodes"][0]
    injector.crash_node(node)
    sim.run(until=sim.now + 15.0)  # next poll notices
    status = pbs_rpc(kernel, sim, STATUS, {"job_id": job_id})
    assert status["job"]["state"] == "failed"  # no requeue logic in PBS
