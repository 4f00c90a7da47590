"""Phoenix-PWS job management: pools, policies, leasing, events, HA."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.userenv.pws import JobRecord, JobSpec, JobState, PoolManager, PoolSpec, order_queue
from repro.userenv.pws.server import CANCEL, POOLS, STATUS, SUBMIT
from tests.userenv.conftest import pws_rpc

# -- pool manager unit tests --------------------------------------------------


def _rows(*nodes):
    """``nodes`` table rows: up, 4 CPUs each."""
    return [{"_key": n, "cpus": 4, "state": "up"} for n in nodes]


def make_pm():
    pm = PoolManager([
        PoolSpec("a", ["n1", "n2"]),
        PoolSpec("b", ["n3", "n4"], policy="sjf"),
    ])
    pm.inventory.learn(_rows("n1", "n2", "n3", "n4"))
    return pm


def test_pool_validation():
    with pytest.raises(SchedulingError):
        PoolManager([])
    with pytest.raises(SchedulingError):
        PoolManager([PoolSpec("a", ["n1"]), PoolSpec("a", ["n2"])])
    with pytest.raises(SchedulingError):
        PoolManager([PoolSpec("a", ["n1"]), PoolSpec("b", ["n1"])])
    with pytest.raises(SchedulingError):
        PoolSpec("x", [], policy="weird")


def test_allocation_and_release():
    inv = make_pm().inventory
    assert inv.allocate("n1", 3)
    assert inv.free("n1") == 1
    assert not inv.allocate("n1", 2)
    assert inv.free("n1") == 1
    inv.release("n1", 3)
    assert inv.free("n1") == 4
    inv.release("n1", 99)  # clamped at capacity
    assert inv.free("n1") == 4


def test_down_node_has_no_free_cpus():
    pm = make_pm()
    pm.inventory.allocate("n1", 1)
    pm.inventory.node_failed("n1")
    assert pm.inventory.free("n1") == 0
    assert pm.pick_nodes("a", 2, 1) == ["n2"]
    pm.inventory.release("n1", 1)  # no refund while down
    assert pm.inventory.node_returned("n1", placed=1)
    assert pm.inventory.free("n1") == 3


def test_pick_nodes_respects_cpus_per_node():
    pm = make_pm()
    pm.inventory.allocate("n1", 2)
    assert pm.pick_nodes("a", 2, 3) == ["n2"]
    assert pm.pick_nodes("a", 2, 2) == ["n1", "n2"]


def test_lease_lifecycle():
    pm = make_pm()
    cands = pm.lease_candidates("a", needed=1, cpus_per_node=4)
    assert len(cands) == 1 and cands[0].owner_pool == "b"
    lease = cands[0]
    lease.job_id = "j1"
    pm.add_lease(lease)
    assert pm.pool_of(lease.node) == "a"
    assert lease.node in pm.nodes_in_pool("a")
    returned = pm.return_leases("j1")
    assert [l.node for l in returned] == [lease.node]
    assert pm.pool_of(lease.node) == "b"


def test_busy_nodes_not_leased():
    pm = make_pm()
    pm.inventory.allocate("n3", 1)
    pm.inventory.allocate("n4", 1)
    assert pm.lease_candidates("a", needed=1, cpus_per_node=1) == []


def test_non_lendable_pool_keeps_nodes():
    pm = PoolManager([
        PoolSpec("a", ["n1"]),
        PoolSpec("b", ["n2"], lendable=False),
    ])
    pm.inventory.learn(_rows("n1", "n2"))
    assert pm.lease_candidates("a", needed=1, cpus_per_node=1) == []


def test_pool_stats():
    pm = make_pm()
    pm.inventory.allocate("n1", 2)
    stats = pm.pool_stats()
    assert stats["a"]["free_cpus"] == 6
    assert stats["a"]["total_cpus"] == 8
    assert stats["b"]["nodes_up"] == 2


# -- policy unit tests --------------------------------------------------------


def rec(job_id, submitted, duration):
    return JobRecord(
        spec=JobSpec(job_id=job_id, user="u", nodes=1, cpus_per_node=1, duration=duration),
        submitted_at=submitted,
    )


def test_fifo_orders_by_submission():
    jobs = [rec("b", 2.0, 1.0), rec("a", 1.0, 99.0)]
    assert [j.spec.job_id for j in order_queue("fifo", jobs)] == ["a", "b"]


def test_sjf_orders_by_duration():
    jobs = [rec("long", 1.0, 100.0), rec("short", 2.0, 1.0)]
    assert [j.spec.job_id for j in order_queue("sjf", jobs)] == ["short", "long"]


def test_unknown_policy_rejected():
    with pytest.raises(SchedulingError):
        order_queue("lifo", [])


@given(st.lists(st.tuples(st.floats(0, 100), st.floats(1, 100)), min_size=1, max_size=20))
def test_property_sjf_durations_nondecreasing(items):
    jobs = [rec(f"j{i}", sub, dur) for i, (sub, dur) in enumerate(items)]
    ordered = order_queue("sjf", jobs)
    durations = [j.spec.duration for j in ordered]
    assert durations == sorted(durations)


def test_job_record_payload_roundtrip():
    record = rec("j1", 5.0, 10.0)
    record.state = JobState.RUNNING
    record.assigned_nodes = ["n1"]
    record.outstanding = {"n1"}
    assert JobRecord.from_payload(record.to_payload()).to_payload() == record.to_payload()


# -- server integration -----------------------------------------------------


def test_submit_run_complete(kernel, sim, pws):
    reply = pws_rpc(kernel, sim, SUBMIT,
                    {"user": "alice", "nodes": 2, "cpus_per_node": 2, "duration": 20.0, "pool": "batch"})
    assert reply["ok"]
    job_id = reply["job_id"]
    sim.run(until=sim.now + 2.0)
    status = pws_rpc(kernel, sim, STATUS, {"job_id": job_id})
    assert status["job"]["state"] == "running"
    assert len(status["job"]["assigned_nodes"]) == 2
    sim.run(until=sim.now + 30.0)
    status = pws_rpc(kernel, sim, STATUS, {"job_id": job_id})
    assert status["job"]["state"] == "done"
    # CPUs are free again.
    for node in status["job"]["assigned_nodes"]:
        assert kernel.cluster.node(node).busy_cpus == 0


def test_submit_validation(kernel, sim, pws):
    reply = pws_rpc(kernel, sim, SUBMIT,
                    {"user": "a", "nodes": 0, "cpus_per_node": 1, "duration": 1.0, "pool": "batch"})
    assert reply["ok"] is False
    reply = pws_rpc(kernel, sim, SUBMIT,
                    {"user": "a", "nodes": 1, "cpus_per_node": 1, "duration": 1.0, "pool": "nope"})
    assert "unknown pool" in reply["error"]


def test_cancel_running_job(kernel, sim, pws):
    reply = pws_rpc(kernel, sim, SUBMIT,
                    {"user": "a", "nodes": 1, "cpus_per_node": 4, "duration": 500.0, "pool": "batch"})
    job_id = reply["job_id"]
    sim.run(until=sim.now + 2.0)
    reply = pws_rpc(kernel, sim, CANCEL, {"job_id": job_id})
    assert reply["ok"]
    sim.run(until=sim.now + 2.0)
    status = pws_rpc(kernel, sim, STATUS, {"job_id": job_id})
    assert status["job"]["state"] == "cancelled"
    assert all(kernel.cluster.node(n).busy_cpus == 0 for n in kernel.cluster.compute_nodes())


def test_dynamic_leasing_and_return(kernel, sim, pws):
    # interactive pool has 4 nodes (p2 computes+backup); ask for 6.
    reply = pws_rpc(kernel, sim, SUBMIT,
                    {"user": "b", "nodes": 6, "cpus_per_node": 2, "duration": 15.0,
                     "pool": "interactive"})
    assert reply["ok"]
    sim.run(until=sim.now + 2.0)
    assert len(pws.pm.leases) == 2
    assert sim.trace.records("pws.lease")
    pools = pws_rpc(kernel, sim, POOLS, {})
    assert pools["pools"]["interactive"]["leases_in"] == 2
    assert pools["pools"]["batch"]["leases_out"] == 2
    sim.run(until=sim.now + 30.0)
    assert pws.pm.leases == []  # returned after completion


def test_sjf_pool_runs_short_job_first(kernel, sim, pws):
    # Occupy the batch pool entirely so leasing cannot bail out the
    # interactive queue, then fill the interactive pool.
    pws_rpc(kernel, sim, SUBMIT,
            {"user": "hog", "nodes": 8, "cpus_per_node": 4, "duration": 500.0, "pool": "batch"})
    filler = pws_rpc(kernel, sim, SUBMIT,
                     {"user": "f", "nodes": 4, "cpus_per_node": 4, "duration": 30.0,
                      "pool": "interactive"})
    sim.run(until=sim.now + 2.0)
    long = pws_rpc(kernel, sim, SUBMIT,
                   {"user": "l", "nodes": 4, "cpus_per_node": 4, "duration": 100.0,
                    "pool": "interactive"})
    short = pws_rpc(kernel, sim, SUBMIT,
                    {"user": "s", "nodes": 4, "cpus_per_node": 4, "duration": 10.0,
                     "pool": "interactive"})
    sim.run(until=sim.now + 34.0)  # filler (30 s) done; short (10 s) mid-run
    status_short = pws_rpc(kernel, sim, STATUS, {"job_id": short["job_id"]})
    status_long = pws_rpc(kernel, sim, STATUS, {"job_id": long["job_id"]})
    assert status_short["job"]["state"] == "running"
    assert status_long["job"]["state"] == "queued"
    assert status_short["job"]["started_at"] < 50.0


def test_node_failure_requeues_job(kernel, sim, pws, injector):
    reply = pws_rpc(kernel, sim, SUBMIT,
                    {"user": "a", "nodes": 2, "cpus_per_node": 2, "duration": 200.0, "pool": "batch"})
    job_id = reply["job_id"]
    sim.run(until=sim.now + 2.0)
    victim = pws_rpc(kernel, sim, STATUS, {"job_id": job_id})["job"]["assigned_nodes"][0]
    injector.crash_node(victim)
    # detection (5s hb) + diagnosis (~2s) + event propagation, then requeue+redispatch
    sim.run(until=sim.now + 30.0)
    status = pws_rpc(kernel, sim, STATUS, {"job_id": job_id})
    assert status["job"]["state"] == "running"
    assert victim not in status["job"]["assigned_nodes"]
    assert sim.trace.counter("pws.requeues") == 1
    sim.run(until=sim.now + 250.0)
    assert pws_rpc(kernel, sim, STATUS, {"job_id": job_id})["job"]["state"] == "done"


def test_scheduler_ha_state_survives_process_failure(kernel, sim, pws, injector):
    """§5.4 property 3: the scheduling group is recovered by the GSD and
    resumes from checkpointed state."""
    r1 = pws_rpc(kernel, sim, SUBMIT,
                 {"user": "a", "nodes": 1, "cpus_per_node": 1, "duration": 60.0, "pool": "batch"})
    sim.run(until=sim.now + 2.0)
    node = kernel.placement[("pws", "p0")]
    injector.kill_process(node, "pws")
    sim.run(until=sim.now + 10.0)  # service check period (5s) + restart
    fresh = kernel.live_daemon("pws", kernel.placement[("pws", "p0")])
    assert fresh is not pws and fresh.alive
    assert r1["job_id"] in fresh.jobs
    assert sim.trace.records("pws.state_recovered")
    # The running job still completes (reconciliation/events).
    sim.run(until=sim.now + 120.0)
    status = pws_rpc(kernel, sim, STATUS, {"job_id": r1["job_id"]})
    assert status["job"]["state"] == "done"


def test_event_driven_not_polling(kernel, sim, pws):
    """PWS consumes events; it does not poll nodes for resources."""
    before = sim.trace.counter("pws.events_seen")
    pws_rpc(kernel, sim, SUBMIT,
            {"user": "a", "nodes": 1, "cpus_per_node": 1, "duration": 5.0, "pool": "batch"})
    sim.run(until=sim.now + 15.0)
    assert sim.trace.counter("pws.events_seen") > before  # APP_STARTED/EXITED arrived
    assert sim.trace.counter("pbs.polls") == 0
