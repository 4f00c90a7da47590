"""Edge-case batch: late RPC replies, loopback, queued-cancel, ES outage
semantics, multi-app isolation."""

import pytest

from repro.kernel import ports
from repro.sim import drive


def test_late_rpc_reply_after_timeout_is_dropped(kernel, sim):
    """A reply arriving after the caller timed out must not blow up or
    fire the signal twice."""
    def slow_handler(msg):
        # Manual late reply: 2 s after a 0.5 s timeout.
        kernel.sim.schedule(2.0, lambda: kernel.cluster.transport.send(
            "p0s0", msg.src_node, f"_rpc.{msg.rpc_id}", "slow.reply", {"late": True}))
        return None

    kernel.cluster.transport.bind("p0s0", "slow", slow_handler)
    sig = kernel.cluster.transport.rpc("p0c0", "p0s0", "slow", "slow.q", {}, timeout=0.5)
    sim.run(until=sim.now + 5.0)
    assert sig.fired and sig.value is None  # timed out; late reply ignored
    assert sim.trace.records("net.unbound", port=sig.name.replace("rpc.", "_rpc."))


def test_loopback_rpc(kernel, sim):
    """A node can RPC itself (used by co-located services)."""
    kernel.cluster.transport.bind("p0c0", "echo", lambda m: {"me": m.src_node})
    reply = drive(sim, kernel.cluster.transport.rpc("p0c0", "p0c0", "echo", "q", {}))
    assert reply == {"me": "p0c0"}


def test_cancel_queued_job(kernel, sim):
    from repro.userenv.pws import PoolSpec, install_pws
    from repro.userenv.pws.server import CANCEL, STATUS, SUBMIT

    install_pws(kernel, [PoolSpec("q", kernel.cluster.compute_nodes())])
    sim.run(until=sim.now + 2.0)

    def rpc(mtype, payload):
        return drive(sim, kernel.cluster.transport.rpc(
            "p0c0", kernel.placement[("pws", "p0")], "pws", mtype, payload, timeout=5.0))

    rpc(SUBMIT, {"user": "f", "nodes": 9, "cpus_per_node": 4, "duration": 100.0, "pool": "q"})
    queued = rpc(SUBMIT, {"user": "w", "nodes": 9, "cpus_per_node": 4, "duration": 10.0,
                          "pool": "q"})
    sim.run(until=sim.now + 2.0)
    assert rpc(STATUS, {"job_id": queued["job_id"]})["job"]["state"] == "queued"
    assert rpc(CANCEL, {"job_id": queued["job_id"]})["ok"]
    assert rpc(STATUS, {"job_id": queued["job_id"]})["job"]["state"] == "cancelled"
    # Cancelling again fails cleanly.
    assert rpc(CANCEL, {"job_id": queued["job_id"]})["ok"] is False


def test_events_published_during_es_outage_are_lost_but_flow_resumes(kernel, sim, injector):
    """Documented at-most-once semantics: no buffering at suppliers."""
    from tests.kernel.test_events import publish, subscribe_collector

    inbox = subscribe_collector(kernel, sim, "p0c0", "c", types=("custom.z",))
    sim.run(until=sim.now + 1.0)
    es_node = kernel.placement[("es", "p0")]
    injector.kill_process(es_node, "es")
    # Publish into the void (fire-and-forget supplier, dead ES).
    kernel.client("p0c1").publish("custom.z", {"phase": "lost"})
    sim.run(until=sim.now + 40.0)  # GSD restarts ES, state from checkpoint
    publish(kernel, sim, "p0c1", "custom.z", {"phase": "after"})
    sim.run(until=sim.now + 1.0)
    assert [e.data["phase"] for e in inbox] == ["after"]


def test_two_business_apps_are_isolated(kernel, sim):
    from repro.userenv.business import BizAppSpec, TierSpec, install_business_runtime

    runtime = install_business_runtime(kernel, partition_id="p1")
    sim.run(until=sim.now + 2.0)
    runtime.deploy(BizAppSpec(name="a", tiers=(TierSpec("web", 2, cpus=1),)))
    runtime.deploy(BizAppSpec(name="b", tiers=(TierSpec("web", 2, cpus=1),)))
    sim.run(until=sim.now + 2.0)
    runtime.scale("a", "web", 4)
    sim.run(until=sim.now + 2.0)
    assert runtime.app_status("a")["tiers"]["web"] == 4
    assert runtime.app_status("b")["tiers"]["web"] == 2
    # Kill one of b's replicas: a is untouched.
    replica = next(r for r in runtime.apps["b"].replicas if r.healthy)
    kernel.cluster.hostos(replica.node).kill_process(f"job.{replica.job_id}")
    sim.run(until=sim.now + 5.0)
    assert runtime.app_status("b")["tiers"]["web"] == 2  # healed
    assert runtime.app_status("a")["tiers"]["web"] == 4


def test_bulletin_delete_rpc(kernel, sim):
    db = kernel.placement[("db", "p0")]
    t = kernel.cluster.transport
    drive(sim, t.rpc("p0c0", db, ports.DB, ports.DB_PUT,
                     {"table": "t", "key": "k", "row": {"v": 1}}))
    reply = drive(sim, t.rpc("p0c0", db, ports.DB, ports.DB_DELETE, {"table": "t", "key": "k"}))
    assert reply == {"ok": True}
    reply = drive(sim, t.rpc("p0c0", db, ports.DB, ports.DB_DELETE, {"table": "t", "key": "k"}))
    assert reply == {"ok": False}
