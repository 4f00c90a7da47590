"""Checkpoint service: store semantics, replication, anti-entropy pull."""

from collections import OrderedDict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.message import SizedDict
from repro.errors import CheckpointError
from repro.kernel import ports
from repro.kernel.checkpoint.store import CheckpointStore
from repro.sim import drive

# -- store unit tests --------------------------------------------------------


def test_store_save_and_load_roundtrip():
    store = CheckpointStore()
    v = store.save("k", {"a": 1}, now=5.0)
    assert v == 1
    entry = store.load("k")
    assert entry.data == {"a": 1}
    assert entry.version == 1
    assert entry.saved_at == 5.0


def test_store_versions_increment():
    store = CheckpointStore()
    assert store.save("k", {"a": 1}, now=0.0) == 1
    assert store.save("k", {"a": 2}, now=1.0) == 2
    assert store.load("k").data == {"a": 2}


def test_store_snapshots_are_isolated():
    """A sender's later edit cannot reach the store (lists copied, dicts
    frozen at save); a reader's edit of what it loaded is refused."""
    store = CheckpointStore()
    data = {"nested": {"x": 1}, "items": [{"y": 2}, [3]]}
    store.save("k", data, now=0.0)
    data["nested"]["x"] = 999
    data["items"][0]["y"] = 999
    data["items"][1].append(4)
    data["items"].append("late")
    saved = {"nested": {"x": 1}, "items": [{"y": 2}, [3]]}
    assert store.load("k").data == saved
    loaded = store.load("k")
    with pytest.raises(TypeError):
        loaded.data["nested"]["x"] = -1
    with pytest.raises(TypeError):
        loaded.data["items"][0]["y"] = -1
    assert store.load("k").data == saved


def test_store_hands_out_the_stored_value():
    """Load, dump and a peer's absorb share the one frozen object; a
    frozen input is stored as is."""
    store = CheckpointStore()
    store.save("k", {"a": [1, {"b": 2}]}, now=0.0)
    assert store.load("k").data is store.load("k").data
    assert store.load("k") is store.load("k")
    assert store.dump()["k"]["data"] is store.load("k").data
    peer = CheckpointStore()
    peer.absorb(store.dump(), now=1.0)
    assert peer.load("k").data is store.load("k").data
    frozen = SizedDict({"c": 3})
    store.save("f", frozen, now=0.0)
    assert store.load("f").data is frozen
    store.save("o", OrderedDict(a=[1]), now=0.0)  # any dict freezes as a dict
    assert type(store.load("o").data) is SizedDict and store.load("o").data == {"a": [1]}


def test_store_stale_explicit_version_rejected():
    store = CheckpointStore()
    store.save("k", {"a": 1}, now=0.0, version=5)
    with pytest.raises(CheckpointError):
        store.save("k", {"a": 0}, now=1.0, version=3)
    assert store.save("k", {"a": 2}, now=1.0, version=5) == 5


def test_store_empty_key_rejected():
    with pytest.raises(CheckpointError):
        CheckpointStore().save("", {}, now=0.0)
    with pytest.raises(CheckpointError):
        CheckpointStore().save(["x"], {}, now=0.0)
    with pytest.raises(CheckpointError):
        CheckpointStore().save("k", [1], now=0.0)


def test_store_delete_and_missing_load():
    store = CheckpointStore()
    store.save("k", {}, now=0.0)
    assert store.delete("k") is True
    assert store.delete("k") is False
    assert store.load("k") is None


def test_store_dump_absorb_merges_newer_versions():
    a = CheckpointStore()
    b = CheckpointStore()
    a.save("x", {"v": "a"}, now=0.0)
    a.save("y", {"v": "a"}, now=0.0)
    b.save("y", {"v": "b2"}, now=1.0, version=2)
    updated = b.absorb(a.dump(), now=2.0)
    assert updated == 1  # only "x"; "y" is newer locally
    assert b.load("y").data == {"v": "b2"}
    assert b.load("x").data == {"v": "a"}


@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 100)),
        min_size=1,
        max_size=30,
    )
)
def test_property_store_last_write_wins_and_version_monotone(writes):
    store = CheckpointStore()
    latest: dict[str, int] = {}
    versions: dict[str, int] = {}
    for key, value in writes:
        v = store.save(key, {"value": value}, now=0.0)
        assert v == versions.get(key, 0) + 1
        versions[key] = v
        latest[key] = value
    for key, value in latest.items():
        assert store.load(key).data == {"value": value}


# -- daemon integration -----------------------------------------------------


def test_daemon_save_load_delete_over_rpc(kernel, sim):
    t = kernel.cluster.transport
    ckpt_node = kernel.placement[("ckpt", "p0")]
    reply = drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_SAVE,
                             {"key": "svc.state", "data": {"n": 42}}))
    assert reply == {"ok": True, "version": 1}
    reply = drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_LOAD, {"key": "svc.state"}))
    assert reply["found"] and reply["data"] == {"n": 42}
    reply = drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_DELETE, {"key": "svc.state"}))
    assert reply == {"ok": True}
    reply = drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_LOAD, {"key": "svc.state"}))
    assert reply == {"found": False}


def test_saves_replicate_to_backup_node(kernel, sim):
    t = kernel.cluster.transport
    ckpt_node = kernel.placement[("ckpt", "p0")]
    drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_SAVE,
                     {"key": "k", "data": {"v": 7, "l": [{"w": 1}]}}))
    sim.run(until=sim.now + 1.0)  # let async replication land
    replica = kernel.live_daemon("ckpt.replica", kernel.placement[("ckpt.replica", "p0")])
    primary = kernel.live_daemon("ckpt", ckpt_node)
    assert replica.store.load("k").data == {"v": 7, "l": [{"w": 1}]}
    # The primary replicates the value it froze: one object, two stores.
    assert replica.store.load("k").data is primary.store.load("k").data
    reply = drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_LOAD, {"key": "k"}))
    assert reply["data"] is primary.store.load("k").data


def test_restarted_primary_pulls_from_replica(kernel, sim, injector):
    t = kernel.cluster.transport
    ckpt_node = kernel.placement[("ckpt", "p0")]
    drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_SAVE,
                     {"key": "k", "data": {"v": 1}}))
    sim.run(until=sim.now + 1.0)
    injector.kill_process(ckpt_node, "ckpt")
    # Restart on the *backup* node (simulating migration) and verify the
    # fresh instance syncs the replica's contents.
    backup = kernel.placement[("ckpt.replica", "p0")]
    fresh = kernel.start_service("ckpt", backup)
    sim.run(until=sim.now + 1.0)
    assert fresh.store.load("k").data == {"v": 1}
    assert sim.trace.records("ckpt.synced")


def test_concurrent_saves_commit_in_arrival_order(kernel, sim):
    """Back-to-back saves of one key must land last-writer-wins by
    *arrival*, even though a bigger (slower-to-commit) stale payload pays
    a longer storage delay than the small fresh one behind it."""
    t = kernel.cluster.transport
    ckpt_node = kernel.placement[("ckpt", "p0")]
    big_stale = {"state": "old", "pad": "x" * 4096}
    t.send("p0c0", ckpt_node, ports.CKPT, ports.CKPT_SAVE,
           {"key": "svc.race", "data": big_stale})
    t.send("p0c0", ckpt_node, ports.CKPT, ports.CKPT_SAVE,
           {"key": "svc.race", "data": {"state": "new"}})
    sim.run(until=sim.now + 5.0)
    reply = drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_LOAD,
                             {"key": "svc.race"}))
    assert reply["found"] and reply["data"] == {"state": "new"}
    assert reply["version"] == 2


def test_malformed_payloads_are_refused_not_raised(kernel, sim):
    """Any node may send a ``ckpt.*`` request: a missing or mistyped field
    is answered ``ok: False`` and counted, never raised out of the run,
    and an empty key no longer strands its save queue."""
    t = kernel.cluster.transport
    primary = kernel.placement[("ckpt", "p0")]
    replica = kernel.placement[("ckpt.replica", "p0")]
    bad = [
        (primary, ports.CKPT, ports.CKPT_SAVE, {}),
        (primary, ports.CKPT, ports.CKPT_SAVE, {"key": ["x"], "data": {}}),
        (primary, ports.CKPT, ports.CKPT_SAVE, {"key": "", "data": {}}),
        (primary, ports.CKPT, ports.CKPT_SAVE, {"key": "k", "data": [1]}),
        (primary, ports.CKPT, ports.CKPT_LOAD, {}),
        (primary, ports.CKPT, ports.CKPT_LOAD, {"key": "k", "version": "1"}),
        (primary, ports.CKPT, ports.CKPT_LOAD, {"key": "k", "at_time": "now"}),
        (primary, ports.CKPT, ports.CKPT_LOAD, {"key": "k", "at_time": True}),
        (primary, ports.CKPT, ports.CKPT_DELETE, {}),
        (replica, ports.CKPT_REPLICA, ports.CKPT_REPLICATE, {"key": "k", "data": {}}),
        (replica, ports.CKPT_REPLICA, ports.CKPT_REPLICATE,
         {"key": "k", "data": None, "version": 1}),
        (replica, ports.CKPT_REPLICA, ports.CKPT_ABSORB, {"dump": 5}),
        (replica, ports.CKPT_REPLICA, ports.CKPT_ABSORB, {"dump": {"k": {"data": {}}}}),
        (replica, ports.CKPT_REPLICA, ports.CKPT_ABSORB,
         {"dump": {"k": {"data": {}, "version": 1, "saved_at": "t"}}}),
        (replica, ports.CKPT_REPLICA, ports.CKPT_DELETE, {"key": 3}),
        (replica, ports.CKPT_REPLICA, ports.CKPT_LOAD, {}),
    ]
    for node, port, mtype, payload in bad:
        reply = drive(sim, t.rpc("p0c0", node, port, mtype, payload))
        assert reply is not None and reply["ok"] is False, (mtype, payload)
        assert mtype in reply["error"]
    assert sim.trace.counter("ckpt.refused") == len(bad)
    reply = drive(sim, t.rpc("p0c0", primary, ports.CKPT, ports.CKPT_SAVE,
                             {"key": "k", "data": {"v": 1}}))
    assert reply == {"ok": True, "version": 1}
    sim.run(until=sim.now + 1.0)
    replica_store = kernel.live_daemon("ckpt.replica", replica).store
    assert replica_store.keys() == ["k"]


def test_replica_marks_only_a_stale_write_stale(kernel, sim):
    t = kernel.cluster.transport
    primary, replica = kernel.placement[("ckpt", "p0")], kernel.placement[("ckpt.replica", "p0")]
    for version in (3, 2):
        t.send(primary, replica, ports.CKPT_REPLICA, ports.CKPT_REPLICATE,
               {"key": "k", "data": {"v": version}, "version": version})
        sim.run(until=sim.now + 0.5)
    assert [r["key"] for r in sim.trace.records("ckpt.replica_stale")] == ["k"]
    assert kernel.live_daemon("ckpt.replica", replica).store.load("k").data == {"v": 3}
