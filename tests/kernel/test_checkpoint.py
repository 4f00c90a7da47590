"""Checkpoint service: store semantics, replication, anti-entropy pull."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    store = CheckpointStore()
    data = {"nested": {"x": 1}}
    store.save("k", data, now=0.0)
    data["nested"]["x"] = 999
    assert store.load("k").data == {"nested": {"x": 1}}
    loaded = store.load("k")
    loaded.data["nested"]["x"] = -1
    assert store.load("k").data == {"nested": {"x": 1}}


def test_store_stale_explicit_version_rejected():
    store = CheckpointStore()
    store.save("k", {"a": 1}, now=0.0, version=5)
    with pytest.raises(CheckpointError):
        store.save("k", {"a": 0}, now=1.0, version=3)
    assert store.save("k", {"a": 2}, now=1.0, version=5) == 5


def test_store_empty_key_rejected():
    with pytest.raises(CheckpointError):
        CheckpointStore().save("", {}, now=0.0)


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
                     {"key": "k", "data": {"v": 7}}))
    sim.run(until=sim.now + 1.0)  # let async replication land
    replica = kernel.live_daemon("ckpt.replica", kernel.placement[("ckpt.replica", "p0")])
    assert replica.store.load("k").data == {"v": 7}


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
