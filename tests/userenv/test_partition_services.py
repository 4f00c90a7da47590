"""A user environment reaches its partition's event service and bulletin
through ``ServiceDaemon.subscribe`` / ``exec_query``, both retried: one
lost datagram must not leave a runtime, a console or a scheduler deaf to
failures or blind to the cluster's resources."""

import pytest

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.kernel import KernelTimings, PhoenixKernel, ports
from repro.kernel.events import types as ev
from repro.sim import Simulator, drive
from repro.userenv.business import BizAppSpec, TierSpec, install_business_runtime
from repro.userenv.inventory import NODES_QUERY
from repro.userenv.monitoring import install_gridview
from repro.userenv.pws import PoolSpec, install_pws


def _world():
    sim = Simulator(seed=3)
    cluster = Cluster(sim, ClusterSpec.build(partitions=2, computes=3))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=5.0))
    kernel.boot()
    sim.run(until=10.0)
    return sim, kernel


def _lose_first(monkeypatch, kernel, mtype, matches):
    """Lose the first ``mtype`` datagram whose payload ``matches``."""
    transport, lost = kernel.cluster.transport, []
    send = transport.send

    def lossy(src, dst, port, sent_mtype, payload=None, *args, **kwargs):
        if sent_mtype == mtype and not lost and matches(payload or {}):
            lost.append(payload)
            return True
        return send(src, dst, port, sent_mtype, payload, *args, **kwargs)

    monkeypatch.setattr(transport, "send", lossy)
    return lost


def _consumer(name):
    return lambda payload: payload.get("consumer_id") == name


def _runtime_heals_a_crashed_replica(sim, kernel):
    rt = install_business_runtime(kernel, partition_id="p0")
    sim.run(until=sim.now + 2.0)
    rt.deploy(BizAppSpec(name="shop", tiers=(TierSpec("web", 1),)))
    sim.run(until=sim.now + 10.0)
    crashed = rt.apps["shop"].routes["web"][0].node
    FaultInjector(kernel.cluster).crash_node(crashed)
    sim.run(until=sim.now + 120.0)
    assert sim.trace.counter("bizrt.heals") == 1
    assert [r.node for r in rt.apps["shop"].routes["web"]] != [crashed]


def _console_hears_a_node_failure(sim, kernel):
    gridview = install_gridview(kernel)
    sim.run(until=sim.now + 2.0)
    FaultInjector(kernel.cluster).crash_node("p1c0")
    sim.run(until=sim.now + 60.0)
    assert [event.type for event in gridview.event_log] == [ev.NODE_FAILURE]


def _scheduler_runs_a_job(sim, kernel):
    server = install_pws(kernel, [PoolSpec("batch", kernel.cluster.compute_nodes())],
                         partition_id="p0")
    sim.run(until=sim.now + 2.0)
    reply = drive(sim, kernel.cluster.transport.rpc(
        "p0c0", server.node_id, "pws", "pws.submit",
        {"user": "alice", "nodes": 1, "cpus_per_node": 1, "duration": 10.0, "pool": "batch"},
        timeout=5.0))
    assert reply and reply["ok"], reply
    sim.run(until=sim.now + 120.0)
    assert server.jobs[reply["job_id"]].state.value == "done"


CASES = {
    "bizrt-subscribe": (ports.ES_SUBSCRIBE, _consumer("bizrt"), _runtime_heals_a_crashed_replica),
    "gridview-subscribe": (ports.ES_SUBSCRIBE, _consumer("gridview"),
                           _console_hears_a_node_failure),
    "pws-inventory": (ports.DB_EXEC,
                      lambda payload: payload.get("query") == NODES_QUERY,
                      _scheduler_runs_a_job),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_lost_datagram_does_not_blind_a_user_environment(case, monkeypatch):
    """The first subscription or inventory read is lost in flight; its
    retry lands, so the environment still sees what happens next."""
    mtype, matches, check = CASES[case]
    sim, kernel = _world()
    lost = _lose_first(monkeypatch, kernel, mtype, matches)
    check(sim, kernel)
    assert lost
