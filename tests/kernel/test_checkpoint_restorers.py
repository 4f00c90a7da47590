"""Load-site audit: every restorer leaves the checkpoint it was handed intact.

A checkpoint is one frozen value shared by the primary's store, the
replica's store and every reader (DESIGN.md, "Rows are values").  Its
nested dicts refuse edits, but a nested list cannot: a restorer that
extended, sorted or popped one in place would corrupt the stored entry
for the next failover.  Each test runs one failover through one restorer
and checks that every entry a store handed out (``load`` or ``dump``)
still equals the plain copy taken when it left the store.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.kernel import KernelTimings, PhoenixKernel, ports
from repro.kernel.bulletin.query import Agg, Query
from repro.kernel.checkpoint.store import CheckpointStore
from repro.sim import Simulator, drive
from repro.userenv.business import BizAppSpec, TierSpec, install_business_runtime
from repro.userenv.pws import PoolSpec, install_pws
from tests.kernel.test_bulletin import _thaw
from tests.kernel.test_events import publish, subscribe_collector
from tests.kernel.test_views_integration import NODES_BY_STATE, _put_job, _register


@pytest.fixture()
def handed(monkeypatch):
    """``(key, data, plain copy of data)`` for every entry a store hands out."""
    out = []
    load, dump = CheckpointStore.load, CheckpointStore.dump

    def spy_load(self, key, version=None, at_time=None):
        entry = load(self, key, version=version, at_time=at_time)
        if entry is not None:
            out.append((key, entry.data, _thaw(entry.data)))
        return entry

    def spy_dump(self):
        dumped = dump(self)
        out.extend((key, blob["data"], _thaw(blob["data"])) for key, blob in dumped.items())
        return dumped

    monkeypatch.setattr(CheckpointStore, "load", spy_load)
    monkeypatch.setattr(CheckpointStore, "dump", spy_dump)
    return out


@pytest.fixture()
def rig():
    sim = Simulator(seed=11)
    cluster = Cluster(sim, ClusterSpec.build(partitions=3, computes=3))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=5.0,
                                                          deadline_grace=0.1))
    kernel.boot()
    sim.run(until=10.0)
    return sim, kernel, FaultInjector(cluster)


def _assert_intact(handed, key):
    assert any(k == key for k, _, _ in handed), f"{key} was never restored"
    for k, data, before in handed:
        assert _thaw(data) == before, k


def test_es_restores_registry_and_outbox_without_editing_them(rig, handed):
    sim, kernel, injector = rig
    subscribe_collector(kernel, sim, "p1c0", "c1", types=("custom.*",), partition="p1")
    sim.run(until=sim.now + 1.0)
    injector.crash_node("p1s0")  # p1's ES host: forwards to it stay queued
    for i in range(3):
        publish(kernel, sim, "p0c0", "custom.tick", {"i": i}, partition="p0")
    sim.run(until=sim.now + 3.0)  # the batch times out, requeues, checkpoints
    es_node = kernel.placement[("es", "p0")]
    injector.kill_process(es_node, "es")
    kernel.start_service("es", es_node)
    sim.run(until=sim.now + 1.0)
    assert sim.trace.records("es.state_recovered")[-1]["outbox"] >= 3
    _assert_intact(handed, "es.subscriptions.p0")


def test_gsd_restores_node_state_without_editing_it(rig, handed):
    sim, kernel, injector = rig
    injector.crash_node("p1c1")
    sim.run(until=sim.now + 15.0)  # detected, diagnosed, committed
    injector.kill_process("p1s0", "gsd")
    kernel.start_service("gsd", "p1s0")
    sim.run(until=sim.now + 2.0)
    assert sim.trace.records("gsd.state_recovered")[-1]["entries"] > 0
    _assert_intact(handed, "gsd.state.p1")


def test_bulletin_rebuilds_views_and_tables_without_editing_them(rig, handed):
    sim, kernel, injector = rig
    client = kernel.client(kernel.cluster.partitions[0].server)
    _register(sim, client, "t.nodes", NODES_BY_STATE, "p1")
    injector.crash_node(kernel.placement[("db", "p1")])
    sim.run(until=sim.now + 60.0)  # failover + rebuild from checkpoints
    assert sim.trace.records("db.views_rebuilt")
    _assert_intact(handed, "db.views.p1")
    _assert_intact(handed, "db.tables.p1")


def test_as_of_reads_past_tables_without_editing_them(rig, handed):
    sim, kernel, _ = rig
    client = kernel.client(kernel.cluster.partitions[0].server)
    _register(sim, client, "t.jobs", Query(table="jobs", aggs=(Agg("count", "*", "n"),)), "p0")
    _put_job(sim, kernel, client, "job1", {"app": "linpack", "phase": "running"})
    sim.run(until=sim.now + 1.0)  # past the checkpoint debounce
    t_between = sim.now
    _put_job(sim, kernel, client, "job1", {"app": "linpack", "phase": "done"})
    sim.run(until=sim.now + 1.0)
    past = drive(sim, client.exec_query(Query(table="jobs", as_of=t_between)))
    assert [row["phase"] for row in past["rows"]] == ["running"]
    _assert_intact(handed, "db.tables.p0")


def test_business_runtime_restores_apps_without_editing_them(rig, handed):
    sim, kernel, injector = rig
    rt = install_business_runtime(kernel, partition_id="p1")
    sim.run(until=sim.now + 2.0)
    rt.deploy(BizAppSpec(name="shop", tiers=(TierSpec("web", 2, cpus=1),)))
    sim.run(until=sim.now + 3.0)
    injector.kill_process(rt.node_id, "bizrt")
    sim.run(until=sim.now + 12.0)  # the GSD restarts the runtime
    assert sim.trace.records("bizrt.state_recovered")[-1]["apps"] == 1
    _assert_intact(handed, "bizrt.state")


def test_pws_restores_jobs_without_editing_them(rig, handed):
    sim, kernel, injector = rig
    server = install_pws(kernel, [PoolSpec("batch", kernel.cluster.compute_nodes())])
    sim.run(until=sim.now + 2.0)
    reply = drive(sim, kernel.cluster.transport.rpc(
        "p0c0", server.node_id, "pws", "pws.submit",
        {"user": "a", "nodes": 2, "cpus_per_node": 1, "duration": 500.0, "pool": "batch"}))
    assert reply["ok"]
    sim.run(until=sim.now + 2.0)
    injector.kill_process(server.node_id, "pws")
    sim.run(until=sim.now + 12.0)
    assert sim.trace.records("pws.state_recovered")[-1]["jobs"] == 1
    _assert_intact(handed, "pws.state")


def test_checkpoint_primary_absorbs_the_replica_without_editing_it(rig, handed):
    sim, kernel, injector = rig
    t = kernel.cluster.transport
    ckpt_node = kernel.placement[("ckpt", "p0")]
    drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_SAVE,
                     {"key": "k", "data": {"items": [{"v": 1}, [2]]}}))
    sim.run(until=sim.now + 1.0)
    injector.kill_process(ckpt_node, "ckpt")
    backup = kernel.placement[("ckpt.replica", "p0")]
    fresh = kernel.start_service("ckpt", backup)
    sim.run(until=sim.now + 1.0)
    assert sim.trace.records("ckpt.synced")
    replica = kernel.live_daemon("ckpt.replica", backup)
    assert fresh.store.load("k").data is replica.store.load("k").data
    _assert_intact(handed, "k")
