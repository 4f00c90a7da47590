"""A daemon's durable state has one path, ``ServiceDaemon.save_state`` /
``load_state``: every save is acked and retried, every load is retried,
and a blob its owner cannot parse is refused (counted and marked
``ckpt.unreadable``, read as not found) instead of raising out of
``sim.run`` at the owner's next restart.  Only a key's owner writes it
(the checkpoint service refuses every other sender), but the owner's
own blob can still be one its next incarnation cannot parse.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.kernel import KernelTimings, PhoenixKernel, ports
from repro.kernel.bulletin.query import Agg, Query
from repro.kernel.daemon import ServiceDaemon
from repro.sim import Simulator, drive
from repro.userenv.business import BizAppSpec, TierSpec, install_business_runtime
from repro.userenv.pws import PoolSpec, install_pws
from tests.kernel.save_model import save_state_model

#: owner -> (its service, partition, checkpoint key, partitions x computes)
OWNERS = {
    "gsd": ("gsd", "p1", "gsd.state.p1", (3, 1)),
    "es": ("es", "p1", "es.subscriptions.p1", (3, 1)),
    "bizrt": ("bizrt", "p0", "bizrt.state", (2, 2)),
    "pws": ("pws", "p0", "pws.state", (2, 2)),
    "db.tables": ("db", "p0", "db.tables.p0", (2, 1)),
    "db.views": ("db", "p0", "db.views.p0", (2, 1)),
}


def _world(partitions, computes):
    sim = Simulator(seed=3)
    cluster = Cluster(sim, ClusterSpec.build(partitions=partitions, computes=computes))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=5.0))
    kernel.boot()
    sim.run(until=10.0)
    return sim, kernel


def _owner_world(owner):
    """A booted world where ``owner`` runs and has saved its state once."""
    service, pid, _key, shape = OWNERS[owner]
    sim, kernel = _world(*shape)
    client = kernel.client(kernel.cluster.partitions[0].server)
    if service == "bizrt":
        install_business_runtime(kernel, partition_id=pid).deploy(
            BizAppSpec(name="shop", tiers=(TierSpec("web", 1),)))
    elif service == "pws":
        install_pws(kernel, [PoolSpec("batch", kernel.cluster.compute_nodes())], partition_id=pid)
    elif owner == "db.views":
        drive(sim, client.register_view("n", Query("nodes", aggs=(Agg("count", "*", "n"),))))
    sim.run(until=sim.now + 2.0)
    return sim, kernel, client


def _save(sim, kernel, partition, key, data, sender=None):
    """One ``ckpt.save`` of ``key`` from ``sender`` (default: the node of the
    service the key names); returns the reply."""
    sender = sender or kernel.placement[(key.split(".", 1)[0], partition)]
    return drive(sim, kernel.cluster.transport.rpc(
        sender, kernel.placement[("ckpt", partition)],
        ports.CKPT, ports.CKPT_SAVE, {"key": key, "data": data}, timeout=5.0))


def _restore_from(owner, data):
    """Write ``data`` under ``owner``'s key, then make the owner read it:
    its process is killed and its GSD restarts it, or, for the bulletin's
    tables, an ``AS OF`` read pulls them.  Returns the world and the read."""
    service, pid, key, _shape = OWNERS[owner]
    sim, kernel, client = _owner_world(owner)
    reply = _save(sim, kernel, pid, key, data)
    assert reply and reply["ok"]
    if owner == "db.tables":
        return sim, kernel, drive(sim, client.exec_query(Query("jobs", as_of=sim.now)))
    FaultInjector(kernel.cluster).kill_process(kernel.placement[(service, pid)], service)
    sim.run(until=sim.now + 60.0)
    return sim, kernel, None


@pytest.mark.parametrize("owner, data", [
    ("gsd", {"node_state": [1]}),
    ("es", {"subs": [{"x": 1}]}),
    ("bizrt", {"apps": [{"name": "x"}]}),
    ("pws", {"jobs": [{"spec": {}}]}),
    ("db.tables", {"tables": {"jobs": [1]}}),
    ("gsd", {"node_state": {"p1c0": 5}}),
])
def test_a_malformed_checkpoint_is_refused_not_a_crash(owner, data):
    sim, kernel, read = _restore_from(owner, data)
    service, pid, key, _shape = OWNERS[owner]
    assert sim.trace.counter("ckpt.unreadable") == 1
    assert [mark["key"] for mark in sim.trace.records("ckpt.unreadable")] == [key]
    if read is not None:
        assert pid in read["partitions_missing"]
    else:  # restarted on the refused blob, and running
        assert kernel.live_daemon(service, kernel.placement[(service, pid)]).alive


_NAMES = st.sampled_from([
    "node_state", "subs", "outbox", "apps", "jobs", "leases", "job_seq", "tables", "views",
    "name", "tiers", "replicas", "spec", "state", "job_id", "consumer_id", "node", "port",
    "query", "table", "_key", "_partition", "_updated_at", "p0", "p1", "p0c0", "up", "down",
])


def _containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(_NAMES, inner, max_size=3)


_VALUES = st.recursive(st.none() | st.booleans() | st.integers(-1, 3) | st.floats() | _NAMES,
                       _containers, max_leaves=10)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(owner=st.sampled_from(sorted(OWNERS)), data=st.dictionaries(_NAMES, _VALUES, max_size=3))
def test_no_blob_the_save_contract_accepts_raises_out_of_the_run(owner, data):
    _restore_from(owner, data)


def _drop_first(monkeypatch, kernel, mtype, key):
    """Lose the first ``mtype`` datagram for ``key`` in flight."""
    transport, lost = kernel.cluster.transport, []
    send = transport.send

    def lossy(src, dst, port, sent_mtype, payload=None, *args, **kwargs):
        if sent_mtype == mtype and (payload or {}).get("key") == key and not lost:
            lost.append(payload)
            return True
        return send(src, dst, port, sent_mtype, payload, *args, **kwargs)

    monkeypatch.setattr(transport, "send", lossy)
    return lost


@pytest.mark.parametrize("owner, mtype", [("gsd", ports.CKPT_SAVE), ("bizrt", ports.CKPT_LOAD)],
                         ids=["gsd-commit", "runtime-reload"])
def test_a_lost_datagram_does_not_lose_durable_state(owner, mtype, monkeypatch):
    """A lost first attempt is retried: the GSD's commit lands (its
    successor starts out believing the dead node down) and the runtime's
    reload still finds its apps."""
    service, pid, key, _shape = OWNERS[owner]
    sim, kernel, _client = _owner_world(owner)
    lost = _drop_first(monkeypatch, kernel, mtype, key)
    injector = FaultInjector(kernel.cluster)
    if owner == "gsd":
        injector.crash_node("p1c0")
        sim.run(until=sim.now + 30.0)  # detected, diagnosed, committed
    injector.kill_process(kernel.placement[(service, pid)], service)
    sim.run(until=sim.now + 60.0)
    restarted = kernel.live_daemon(service, kernel.placement[(service, pid)])
    assert lost
    if owner == "gsd":  # it restarts believing the node down, not re-detecting it
        assert kernel.checkpoint(pid).store.load(key).data == {"node_state": {"p1c0": "down"}}
        assert [mark["entries"] for mark in sim.trace.records("gsd.state_recovered")] == [1]
    else:
        assert list(restarted.apps) == ["shop"]


def test_a_retried_save_never_lands_over_a_newer_one(monkeypatch):
    """Two commits back to back, the first one's datagram lost: its retry
    carries the older snapshot, so the newer one is sent only after it."""
    sim, kernel = _world(3, 2)
    gsd = kernel.live_daemon("gsd", kernel.placement[("gsd", "p1")])
    lost = _drop_first(monkeypatch, kernel, ports.CKPT_SAVE, "gsd.state.p1")
    gsd._set_node_state("p1c0", "down")
    gsd._set_node_state("p1c1", "down")
    sim.run(until=sim.now + 5.0)
    assert lost and gsd.node_state == {"p1c0": "down", "p1c1": "down"}
    assert kernel.checkpoint("p1").store.load("gsd.state.p1").data == {"node_state": gsd.node_state}


def test_only_the_owner_writes_its_checkpoint():
    """A compute node's save of the GSD's key is refused, so the GSD's
    successor still holds the node it judged down and never exports it
    ``up``; a key that names no placed service stays writable by any
    client, and the replica takes writes only from its primary."""
    sim, kernel = _world(3, 2)
    injector = FaultInjector(kernel.cluster)
    injector.crash_node("p1c0")
    sim.run(until=30.0)
    reply = _save(sim, kernel, "p1", "gsd.state.p1", {"node_state": {}}, sender="p2c1")
    assert reply["ok"] is False and sim.trace.counter("ckpt.refused") == 1
    assert _save(sim, kernel, "p1", "svc.state", {"x": 1}, sender="p2c1")["ok"]
    replica = kernel.placement[("ckpt.replica", "p1")]
    reply = drive(sim, kernel.cluster.transport.rpc(
        "p2c1", replica, ports.CKPT_REPLICA, ports.CKPT_REPLICATE,
        {"key": "gsd.state.p1", "data": {"node_state": {}}, "version": 9}))
    assert reply["ok"] is False and sim.trace.counter("ckpt.refused") == 2
    assert kernel.checkpoint("p1").store.load("gsd.state.p1").data == {
        "node_state": {"p1c0": "down"}}

    killed = sim.now
    injector.kill_process(kernel.placement[("gsd", "p1")], "gsd")
    client = kernel.client("p2c1")
    for after in (9.0, 12.0, 15.0):
        sim.run(until=killed + after)
        rows = drive(sim, client.query_bulletin("node_state", {"_key": "p1c0"}))["rows"]
        assert [row["state"] for row in rows] == ["down"], after


# -- one save per key on the wire: the line against its process model ----------
class _Heard:
    """A signal waiter that records when and with what a caller's save settled."""

    def __init__(self, sim, log, index):
        self.sim, self.log, self.index = sim, log, index

    def _wake_soon(self, value):
        self.log.append((self.index, self.sim.now, value))


_KEYS = ("es.prop.a", "es.prop.b")
#: A save takes ~1.2 ms to ack: calls this close overlap, the others mostly not.
_AT = st.floats(0.0, 0.003) | st.floats(0.0, 3.0)


def _save_scenario(save, calls, lost, kill_at):
    """Run ``calls`` (time, key) through ``save`` (the production call or the
    model) from p0's event service, dropping the ``ckpt.save`` datagrams and
    acks of its node that ``lost`` names in send order, the service killed
    at ``kill_at``; return every datagram, ack and stored blob."""
    sim, kernel = _world(2, 1)
    transport = kernel.cluster.transport
    es = kernel.live_daemon("es", kernel.placement[("es", "p0")])
    wire, heard, fates = [], [], iter(lost)
    send = transport.send

    def lossy(src, dst, port, mtype, payload=None, *args, **kwargs):
        mine = (mtype == ports.CKPT_SAVE and payload["key"] in _KEYS
                or mtype == f"{ports.CKPT_SAVE}.reply" and dst == es.node_id)
        if mine:
            wire.append((sim.now, mtype, payload.get("key"), payload.get("data")))
            if next(fates, False):
                return True  # accepted, lost in flight
        return send(src, dst, port, mtype, payload, *args, **kwargs)

    transport.send = lossy

    def call(index, key):
        signal = save(es, key, {"n": index})
        if signal is None:
            heard.append((index, sim.now, "not sent"))
        else:
            signal._register(_Heard(sim, heard, index))

    start = sim.now
    for index, (at, key) in enumerate(calls):
        sim.schedule(at, call, index, key)
    if kill_at is not None:
        sim.schedule(kill_at, FaultInjector(kernel.cluster).kill_process, es.node_id, "es")
    sim.run(until=start + 20.0)
    store = kernel.checkpoint("p0").store
    return {"wire": wire, "heard": sorted(heard, key=lambda h: (h[1], h[0])),
            "stored": {key: store.load(key) and store.load(key).data for key in _KEYS}}


@settings(max_examples=25, deadline=None)
@given(calls=st.lists(st.tuples(_AT, st.sampled_from(_KEYS)),
                      min_size=1, max_size=8),
       lost=st.lists(st.booleans(), max_size=12),
       kill_at=st.none() | _AT)
def test_property_the_save_line_equals_the_process_model(calls, lost, kill_at):
    """Saves of two keys at random times, datagrams and acks lost, the
    saver killed mid-way: the production line sends the datagrams, answers
    each caller and stores the blobs the one-process-per-key model does."""
    got = _save_scenario(ServiceDaemon.save_state, calls, lost, kill_at)
    want = _save_scenario(save_state_model, calls, lost, kill_at)
    assert got == want
    assert len(got["heard"]) == len(calls)
