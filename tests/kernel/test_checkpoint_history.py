"""Checkpoint version history (rollback support)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.kernel import ports
from repro.kernel.checkpoint.store import CheckpointStore
from repro.sim import drive


def test_history_retains_recent_versions():
    store = CheckpointStore(history=3)
    for i in range(1, 6):
        store.save("k", {"v": i}, now=float(i))
    assert store.versions("k") == [3, 4, 5]
    assert store.load("k").data == {"v": 5}
    assert store.load("k", version=3).data == {"v": 3}
    assert store.load("k", version=1) is None  # evicted
    assert store.load("k", version=99) is None


def test_history_depth_one_behaves_like_latest_only():
    store = CheckpointStore(history=1)
    store.save("k", {"v": 1}, now=0.0)
    store.save("k", {"v": 2}, now=1.0)
    assert store.versions("k") == [2]


def test_idempotent_rewrite_of_same_version():
    store = CheckpointStore()
    store.save("k", {"v": 1}, now=0.0, version=7)
    store.save("k", {"v": 2}, now=1.0, version=7)
    assert store.versions("k") == [7]
    assert store.load("k").data == {"v": 2}


def test_invalid_history_depth():
    with pytest.raises(CheckpointError):
        CheckpointStore(history=0)


def test_delete_drops_all_versions():
    store = CheckpointStore()
    store.save("k", {"v": 1}, now=0.0)
    store.save("k", {"v": 2}, now=1.0)
    assert store.delete("k")
    assert store.versions("k") == []


def test_dump_only_latest_but_absorb_preserves_monotonicity():
    a = CheckpointStore()
    a.save("k", {"v": 1}, now=0.0)
    a.save("k", {"v": 2}, now=1.0)
    b = CheckpointStore()
    assert b.absorb(a.dump(), now=2.0) == 1
    assert b.versions("k") == [2]


@given(st.lists(st.integers(0, 50), min_size=1, max_size=30))
def test_property_history_is_suffix_of_saves(values):
    store = CheckpointStore(history=4)
    for i, v in enumerate(values):
        store.save("k", {"v": v}, now=float(i))
    retained = store.versions("k")
    assert retained == list(range(len(values) + 1 - len(retained), len(values) + 1))
    for version in retained:
        assert store.load("k", version=version).data == {"v": values[version - 1]}


def test_load_specific_version_over_rpc(kernel, sim):
    t = kernel.cluster.transport
    ckpt_node = kernel.placement[("ckpt", "p0")]
    for i in (1, 2, 3):
        drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_SAVE,
                         {"key": "svc", "data": {"gen": i}}))
    reply = drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_LOAD,
                             {"key": "svc", "version": 2}))
    assert reply["found"] and reply["data"] == {"gen": 2}
    assert reply["versions"] == [1, 2, 3]
    reply = drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_LOAD, {"key": "svc"}))
    assert reply["data"] == {"gen": 3}
