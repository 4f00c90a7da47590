"""Walltime enforcement (PWS) + tier scaling (business runtime)."""

import pytest

from repro.errors import SchedulingError
from repro.sim import drive
from repro.userenv.business import BizAppSpec, TierSpec, install_business_runtime
from repro.userenv.pws.jobs import JobSpec
from repro.userenv.pws.server import STATUS, SUBMIT
from tests.userenv.conftest import pws_rpc

# -- walltime ------------------------------------------------------------


def test_walltime_validation():
    with pytest.raises(SchedulingError):
        JobSpec(job_id="j", user="u", nodes=1, cpus_per_node=1, duration=1.0, walltime=0)
    spec = JobSpec(job_id="j", user="u", nodes=1, cpus_per_node=1, duration=1.0, walltime=9.0)
    assert JobSpec.from_payload(spec.to_payload()).walltime == 9.0


def test_job_within_walltime_completes(kernel, sim, pws):
    reply = pws_rpc(kernel, sim, SUBMIT,
                    {"user": "a", "nodes": 1, "cpus_per_node": 1, "duration": 10.0,
                     "walltime": 60.0, "pool": "batch"})
    sim.run(until=sim.now + 20.0)
    assert pws_rpc(kernel, sim, STATUS, {"job_id": reply["job_id"]})["job"]["state"] == "done"
    assert sim.trace.counter("pws.walltime_kills") == 0


def test_overrunning_job_killed_at_walltime(kernel, sim, pws):
    reply = pws_rpc(kernel, sim, SUBMIT,
                    {"user": "a", "nodes": 2, "cpus_per_node": 2, "duration": 500.0,
                     "walltime": 20.0, "pool": "batch"})
    job_id = reply["job_id"]
    sim.run(until=sim.now + 30.0)
    status = pws_rpc(kernel, sim, STATUS, {"job_id": job_id})
    assert status["job"]["state"] == "failed"
    assert sim.trace.counter("pws.walltime_kills") == 1
    # Resources freed, tasks really gone.
    for node in status["job"]["assigned_nodes"]:
        assert kernel.cluster.node(node).busy_cpus == 0
    # The kill-induced APP_FAILED events must not double-penalize.
    sim.run(until=sim.now + 20.0)
    assert pws_rpc(kernel, sim, STATUS, {"job_id": job_id})["job"]["state"] == "failed"


def test_walltime_guard_survives_scheduler_restart(kernel, sim, pws, injector):
    reply = pws_rpc(kernel, sim, SUBMIT,
                    {"user": "a", "nodes": 1, "cpus_per_node": 1, "duration": 500.0,
                     "walltime": 40.0, "pool": "batch"})
    sim.run(until=sim.now + 5.0)
    injector.kill_process(kernel.placement[("pws", "p0")], "pws")
    sim.run(until=sim.now + 60.0)  # GSD restarts PWS; guard re-armed
    status = pws_rpc(kernel, sim, STATUS, {"job_id": reply["job_id"]})
    assert status["job"]["state"] == "failed"
    assert sim.trace.counter("pws.walltime_kills") >= 1


# -- wildcard subscriptions ----------------------------------------------


def test_wildcard_type_subscription(kernel, sim):
    from tests.kernel.test_events import publish, subscribe_collector

    inbox = subscribe_collector(kernel, sim, "p0c0", "fam", types=("node.*",))
    publish(kernel, sim, "p0c1", "node.failure", {"n": 1})
    publish(kernel, sim, "p0c1", "node.recovery", {"n": 2})
    publish(kernel, sim, "p0c1", "service.failure", {"n": 3})
    sim.run(until=sim.now + 0.5)
    assert [e.type for e in inbox] == ["node.failure", "node.recovery"]


# -- business tier scaling ------------------------------------------------


@pytest.fixture()
def runtime(kernel, sim):
    rt = install_business_runtime(kernel, partition_id="p1")
    sim.run(until=sim.now + 2.0)
    rt.deploy(BizAppSpec(name="shop", tiers=(TierSpec("web", 2, cpus=1),)))
    sim.run(until=sim.now + 2.0)
    return rt


def test_scale_up(kernel, sim, runtime):
    assert runtime.scale("shop", "web", 4) == 4
    sim.run(until=sim.now + 2.0)
    assert runtime.app_status("shop")["tiers"]["web"] == 4


def test_scale_down_releases_resources(kernel, sim, runtime):
    busy_before = sum(kernel.cluster.node(n).busy_cpus for n in kernel.cluster.nodes)
    assert runtime.scale("shop", "web", 1) == 1
    sim.run(until=sim.now + 2.0)
    assert runtime.app_status("shop")["tiers"]["web"] == 1
    busy_after = sum(kernel.cluster.node(n).busy_cpus for n in kernel.cluster.nodes)
    assert busy_after == busy_before - 1
    # The retired replica is not healed back.
    sim.run(until=sim.now + 10.0)
    assert runtime.app_status("shop")["tiers"]["web"] == 1


def test_scale_validation(kernel, sim, runtime):
    from repro.errors import UserEnvError

    with pytest.raises(UserEnvError):
        runtime.scale("shop", "web", 0)
    with pytest.raises(UserEnvError):
        runtime.scale("ghost", "web", 2)
    with pytest.raises(UserEnvError):
        runtime.scale("shop", "db", 2)


def test_scale_via_rpc(kernel, sim, runtime):
    sig = kernel.cluster.transport.rpc(
        "p0c0", runtime.node_id, "bizrt", "bizrt.scale",
        {"name": "shop", "tier": "web", "replicas": 3})
    reply = drive(sim, sig)
    assert reply == {"ok": True, "replicas": 3}
    sig = kernel.cluster.transport.rpc(
        "p0c0", runtime.node_id, "bizrt", "bizrt.scale",
        {"name": "shop", "tier": "nope", "replicas": 3})
    assert drive(sim, sig)["ok"] is False
