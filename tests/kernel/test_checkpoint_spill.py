"""Aged-checkpoint spill (DESIGN.md §16 satellite): AS OF beyond the window.

With ``ckpt_spill_aged`` on, versions pruned past ``ckpt_retention_window``
move to a stable spill tier (a slot in the node's :class:`HostOS` stable
store) instead of being dropped, so time travel reaches past the
in-memory window.  Off by default: pruning still drops, byte-identically.
"""

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.cluster.hostos import HostOS
from repro.kernel import KernelTimings, PhoenixKernel, ports
from repro.kernel.bulletin.query import Agg, Query
from repro.kernel.checkpoint.store import CheckpointStore
from repro.sim import Simulator, drive


# -- store-level spill tier ---------------------------------------------------


def test_aged_versions_move_to_spill_and_load_falls_back():
    spill = {}
    store = CheckpointStore(retention_window=5.0, spill=spill)
    store.save("k", {"v": 1}, now=0.0)
    store.save("k", {"v": 2}, now=1.0)
    store.save("k", {"v": 3}, now=20.0)  # horizon 15.0 ages out v1, v2
    assert [b["version"] for b in spill["k"]] == [1, 2]
    # In-memory window misses both reads; the spill tier answers.
    assert store.load("k", version=1).data == {"v": 1}
    assert store.load("k", at_time=1.5).data == {"v": 2}
    assert store.load("k", at_time=-1.0) is None  # before the first save
    assert store.versions("k") == [1, 2, 3]


def test_spill_reads_are_isolated_copies():
    spill = {}
    store = CheckpointStore(retention_window=5.0, spill=spill)
    store.save("k", {"v": {"nested": 1}}, now=0.0)
    store.save("k", {"v": {"nested": 2}}, now=20.0)
    loaded = store.load("k", version=1)
    loaded.data["v"]["nested"] = 99
    assert store.load("k", version=1).data == {"v": {"nested": 1}}


def test_no_spill_keeps_legacy_drop_behavior():
    store = CheckpointStore(retention_window=5.0)
    store.save("k", {"v": 1}, now=0.0)
    store.save("k", {"v": 2}, now=20.0)
    assert store.load("k", version=1) is None
    assert store.versions("k") == [2]


def test_delete_clears_spill_slot():
    spill = {}
    store = CheckpointStore(retention_window=5.0, spill=spill)
    store.save("k", {"v": 1}, now=0.0)
    store.save("k", {"v": 2}, now=20.0)
    assert store.delete("k")
    assert "k" not in spill
    assert store.versions("k") == []


# -- host stable store --------------------------------------------------------


def test_hostos_stable_store_roundtrip_is_isolated():
    sim = Simulator(seed=1)
    cluster = Cluster(sim, ClusterSpec.build(partitions=1, computes=1))
    host = cluster.hostos("p0c0")
    assert isinstance(host, HostOS)
    payload = {"inner": [1, 2]}
    host.stable_write("slot", payload)
    payload["inner"].append(3)  # caller's copy mutating must not leak in
    first = host.stable_read("slot")
    assert first == {"inner": [1, 2]}
    first["inner"].append(4)  # nor the reader's copy leak back
    assert host.stable_read("slot") == {"inner": [1, 2]}
    host.stable_delete("slot")
    assert host.stable_read("slot", default="gone") == "gone"


def test_stable_store_survives_node_crash_and_boot():
    sim = Simulator(seed=1)
    cluster = Cluster(sim, ClusterSpec.build(partitions=2, computes=2))
    kernel = PhoenixKernel(cluster)
    kernel.boot()
    sim.run(until=5.0)
    cluster.hostos("p0c0").stable_write("marker", {"epoch": 7})
    injector = FaultInjector(cluster)
    injector.crash_node("p0c0")
    sim.run(until=sim.now + 5.0)
    injector.boot_node("p0c0")
    sim.run(until=sim.now + 5.0)
    assert cluster.hostos("p0c0").stable_read("marker") == {"epoch": 7}


# -- end to end: AS OF past the retention window ------------------------------


def _time_travel_run(spill_aged: bool):
    """Boot, write two generations of a job row, age the first past the
    retention window, return the AS OF read landing between them."""
    sim = Simulator(seed=11)
    cluster = Cluster(sim, ClusterSpec.build(partitions=3, computes=2))
    timings = KernelTimings(ckpt_retention_window=6.0, ckpt_spill_aged=spill_aged)
    kernel = PhoenixKernel(cluster, timings=timings)
    kernel.boot()
    sim.run(until=10.0)
    client = kernel.client(cluster.partitions[0].server)
    # Base-table checkpointing runs only under view-driven maintenance.
    reply = drive(sim, client.register_view(
        "tt.jobs", Query(table="jobs", aggs=(Agg("count", "*", "n"),)), partition="p0"
    ), max_time=30.0)
    assert reply and reply.get("ok")
    db_node = kernel.placement[("db", "p0")]

    def put(row):
        reply = drive(sim, client._transport.rpc(
            client.node_id, db_node, ports.DB, ports.DB_PUT,
            {"table": "apps", "key": "job1", "row": row}, timeout=5.0,
        ))
        assert reply == {"ok": True}

    put({"app": "linpack", "phase": "running"})
    sim.run(until=sim.now + 2.0)
    t_between = sim.now
    put({"app": "linpack", "phase": "done"})
    # Retention pruning runs at save time: a third write long after the
    # 6 s window forces the "running"-era checkpoint out of memory.
    sim.run(until=sim.now + 60.0)
    put({"app": "linpack", "phase": "archived"})
    sim.run(until=sim.now + 5.0)
    past = drive(sim, client.exec_query(
        Query(table="jobs", where={"_key": "job1"}, as_of=t_between)), max_time=30.0)
    assert past is not None
    return past


def test_as_of_beyond_window_answers_from_spill():
    past = _time_travel_run(spill_aged=True)
    assert [r["phase"] for r in past["rows"]] == ["running"]


def test_as_of_beyond_window_empty_without_spill():
    """The control: with spill off, the same read finds nothing — the
    pre-spill bounded-history behavior is unchanged."""
    past = _time_travel_run(spill_aged=False)
    assert past["rows"] == []
