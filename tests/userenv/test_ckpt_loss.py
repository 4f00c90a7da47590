"""Lossy-fabric checkpoint durability: the user-environment registries
must survive dropped ``ckpt.save`` datagrams.

Before the retried-save change, ``_checkpoint`` was a fire-and-forget
``send``: one lost datagram silently dropped the whole registry snapshot
and the next restart resurrected stale state.  These tests pin seeds
where the fabric provably eats checkpoint-save attempts and assert the
``rpc_retry`` path still lands the state for the next incarnation."""

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.kernel import KernelTimings, PhoenixKernel, ports
from repro.sim import Simulator, drive
from repro.userenv.business import BizAppSpec, TierSpec, install_business_runtime
from repro.userenv.pws import PoolSpec, install_pws


def build_lossy(seed, loss_rate=0.15, computes=3):
    sim = Simulator(seed=seed)
    cluster = Cluster(
        sim, ClusterSpec.build(partitions=2, computes=computes, loss_rate=loss_rate)
    )
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=5.0))
    kernel.boot()
    sim.run(until=6.0)
    return sim, cluster, kernel


def ckpt_save_losses(sim, src_node):
    return [
        r for r in sim.trace.records("net.loss")
        if r["mtype"] == ports.CKPT_SAVE and r["src"] == src_node
    ]


def test_business_registry_survives_dropped_ckpt_saves():
    """Seed 3 drops several of the runtime's ``ckpt.save`` attempts on the
    15%-loss fabric; the retried save still lands, and a restarted runtime
    reloads the app registry byte-identically."""
    sim, cluster, kernel = build_lossy(seed=3)
    rt = install_business_runtime(kernel, partition_id="p1")
    sim.run(until=sim.now + 2.0)
    rt.deploy(BizAppSpec(name="shop", tiers=(TierSpec("web", 2, cpus=1),)))
    sim.run(until=sim.now + 3.0)
    for replicas in (3, 4):
        rt.scale("shop", "web", replicas)
        sim.run(until=sim.now + 3.0)

    # The fabric provably ate checkpoint-save attempts, and the transport
    # had to retry RPCs to get state through.
    assert ckpt_save_losses(sim, rt.node_id)
    assert sim.trace.counter("rpc.retries") > 0
    registry_before = [r.to_payload() for r in rt.apps["shop"].replicas]

    FaultInjector(cluster).kill_process(rt.node_id, "bizrt")
    sim.run(until=sim.now + 12.0)  # GSD restarts the runtime
    fresh = kernel.live_daemon("bizrt", kernel.placement[("bizrt", "p1")])
    assert fresh is not rt and fresh.alive
    assert sim.trace.records("bizrt.state_recovered")
    assert fresh.apps["shop"].spec == rt.apps["shop"].spec
    assert [r.to_payload() for r in fresh.apps["shop"].replicas] == registry_before


def test_pws_job_registry_survives_dropped_ckpt_saves():
    """Same property for the PWS: submitted jobs survive a server restart
    even when the lossy fabric drops checkpoint-save datagrams."""
    sim, cluster, kernel = build_lossy(seed=6)
    computes = cluster.compute_nodes()
    server = install_pws(kernel, [PoolSpec("batch", computes)])
    sim.run(until=sim.now + 2.0)

    job_ids = []
    for i in range(4):
        # The submit itself rides the lossy fabric too — retry it (a
        # duplicate submit just adds a job; the assertion is unaffected).
        sig = cluster.transport.rpc_retry(
            "p0c0", server.node_id, "pws", "pws.submit",
            {"user": "alice", "nodes": 1, "cpus_per_node": 1,
             "duration": 500.0, "pool": "batch"},
            attempts=4,
        )
        reply = drive(sim, sig)
        assert reply and reply["ok"], reply
        job_ids.append(reply["job_id"])
        sim.run(until=sim.now + 2.0)

    assert ckpt_save_losses(sim, server.node_id)
    assert sim.trace.counter("rpc.retries") > 0

    FaultInjector(cluster).kill_process(server.node_id, "pws")
    sim.run(until=sim.now + 12.0)
    fresh = kernel.live_daemon("pws", kernel.placement[("pws", "p0")])
    assert fresh is not server and fresh.alive
    assert sim.trace.records("pws.state_recovered")
    assert set(job_ids) <= set(fresh.jobs)
