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


# -- time-based retention (``retention_window``) ------------------------------

def test_retention_window_keeps_whole_span():
    """A time window retains every version younger than the window even
    past the 4-version count cap the default policy would enforce."""
    store = CheckpointStore(retention_window=10.0)
    for i in range(1, 9):
        store.save("k", {"v": i}, now=float(i))
    # At now=8.0 the horizon is -2.0: nothing aged out yet.
    assert store.versions("k") == list(range(1, 9))


def test_retention_window_ages_out_but_keeps_latest():
    store = CheckpointStore(retention_window=5.0)
    store.save("k", {"v": 1}, now=0.0)
    store.save("k", {"v": 2}, now=1.0)
    store.save("k", {"v": 3}, now=20.0)  # horizon 15.0 evicts v1, v2
    assert store.versions("k") == [3]
    store2 = CheckpointStore(retention_window=5.0)
    store2.save("k", {"v": 1}, now=0.0)
    # A lone stale version survives: the latest is always kept.
    store2.save("k2", {"v": 9}, now=100.0)
    assert store2.versions("k") == [1]


def test_retention_window_validation():
    with pytest.raises(CheckpointError):
        CheckpointStore(retention_window=0.0)
    with pytest.raises(CheckpointError):
        CheckpointStore(retention_window=-3.0)


def test_retention_window_knob_reaches_ckpt_daemons(sim):
    """``KernelTimings.ckpt_retention_window`` configures every checkpoint
    daemon's store (primary and replica)."""
    from repro.cluster import Cluster, ClusterSpec
    from repro.kernel import KernelTimings, PhoenixKernel

    cluster = Cluster(sim, ClusterSpec.build(partitions=2, computes=2))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(ckpt_retention_window=120.0))
    kernel.boot()
    sim.run(until=5.0)
    stores = [
        daemon.store for (service, _), daemon in kernel._live.items()
        if service == "ckpt"
    ]
    assert stores and all(s.retention_window == 120.0 for s in stores)
    t = cluster.transport
    ckpt_node = kernel.placement[("ckpt", "p0")]
    for i in range(1, 8):
        drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_SAVE,
                         {"key": "svc", "data": {"gen": i}}))
    reply = drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_LOAD,
                             {"key": "svc", "version": 1}))
    assert reply["found"]  # the count cap (4) no longer applies
    assert reply["versions"] == list(range(1, 8))


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
