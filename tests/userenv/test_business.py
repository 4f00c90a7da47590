"""Business application runtime: deploy, balance, self-heal, availability."""

import pytest

from repro.errors import UserEnvError
from repro.userenv.business import BizAppSpec, TierSpec, install_business_runtime


@pytest.fixture()
def runtime(kernel, sim):
    rt = install_business_runtime(kernel, partition_id="p1")
    sim.run(until=sim.now + 2.0)
    return rt


def shop():
    return BizAppSpec(name="shop", tiers=(TierSpec("web", 3, cpus=1), TierSpec("db", 1, cpus=2)))


def test_spec_validation():
    with pytest.raises(UserEnvError):
        BizAppSpec(name="", tiers=(TierSpec("web", 1),))
    with pytest.raises(UserEnvError):
        BizAppSpec(name="x", tiers=())
    with pytest.raises(UserEnvError):
        BizAppSpec(name="x", tiers=(TierSpec("a", 1), TierSpec("a", 1)))
    with pytest.raises(UserEnvError):
        TierSpec("t", 0)


def test_deploy_starts_all_replicas(kernel, sim, runtime):
    runtime.deploy(shop())
    sim.run(until=sim.now + 3.0)
    status = runtime.app_status("shop")
    assert status["serving"]
    assert status["tiers"] == {"web": 3, "db": 1}
    # Replicas occupy real CPUs on real nodes.
    nodes = {r.node for r in runtime.apps["shop"].replicas}
    assert all(kernel.cluster.node(n).busy_cpus > 0 for n in nodes)


def test_load_balancer_round_robin(kernel, sim, runtime):
    runtime.deploy(shop())
    sim.run(until=sim.now + 3.0)
    targets = [runtime.route("shop", "web") for _ in range(6)]
    assert len(set(targets)) == 3  # spread over all three replicas
    assert targets[:3] == targets[3:]  # stable rotation


def test_route_unknown_app_or_dead_tier(kernel, sim, runtime):
    with pytest.raises(UserEnvError):
        runtime.route("ghost", "web")


def test_node_failure_heals_replicas(kernel, sim, runtime, injector):
    runtime.deploy(shop())
    sim.run(until=sim.now + 3.0)
    victim = next(r.node for r in runtime.apps["shop"].replicas if r.tier == "web")
    injector.crash_node(victim)
    sim.run(until=sim.now + 30.0)  # detect + diagnose + NODE_FAILURE event + heal
    status = runtime.app_status("shop")
    assert status["tiers"]["web"] == 3
    assert all(r.node != victim for r in runtime.apps["shop"].replicas if r.healthy)
    assert sim.trace.counter("bizrt.heals") >= 1


def test_replica_process_failure_heals(kernel, sim, runtime, injector):
    runtime.deploy(shop())
    sim.run(until=sim.now + 3.0)
    replica = runtime.apps["shop"].replicas[0]
    injector.kill_process(replica.node, f"job.{replica.job_id}")
    sim.run(until=sim.now + 5.0)  # APP_FAILED event -> heal
    status = runtime.app_status("shop")
    assert status["tiers"]["web"] == 3


def test_availability_accounting(kernel, sim, runtime, injector):
    app = BizAppSpec(name="fragile", tiers=(TierSpec("db", 1, cpus=2),))
    runtime.deploy(app)
    sim.run(until=sim.now + 3.0)
    assert runtime.app_status("fragile")["availability"] > 0.9
    replica = runtime.apps["fragile"].replicas[0]
    injector.crash_node(replica.node)
    sim.run(until=sim.now + 60.0)
    status = runtime.app_status("fragile")
    assert status["serving"]  # healed
    assert 0.0 < status["availability"] < 1.0  # downtime was recorded


def test_deploy_via_rpc_interface(kernel, sim, runtime):
    from repro.sim import drive

    sig = kernel.cluster.transport.rpc(
        "p0c0", runtime.node_id, "bizrt", "bizrt.deploy",
        {"name": "crm", "tiers": [{"name": "web", "replicas": 2, "cpus": 1}]},
    )
    assert drive(sim, sig)["ok"]
    sim.run(until=sim.now + 3.0)
    sig = kernel.cluster.transport.rpc("p0c0", runtime.node_id, "bizrt", "bizrt.status", {})
    reply = drive(sim, sig)
    assert reply["apps"]["crm"]["serving"]


def test_duplicate_deploy_rejected(kernel, sim, runtime):
    from repro.sim import drive

    runtime.deploy(shop())
    sig = kernel.cluster.transport.rpc(
        "p0c0", runtime.node_id, "bizrt", "bizrt.deploy",
        {"name": "shop", "tiers": [{"name": "web", "replicas": 1, "cpus": 1}]},
    )
    assert drive(sim, sig)["ok"] is False
