"""Checkpoint storage I/O cost model."""

import pytest

from repro.kernel import ports
from repro.kernel.timings import ckpt_write_cost
from repro.sim import drive


def test_write_cost_formula():
    assert ckpt_write_cost(0) == pytest.approx(0.001)
    assert ckpt_write_cost(50_000_000) == pytest.approx(1.001)


def test_small_save_acks_in_milliseconds(kernel, sim):
    ckpt_node = kernel.placement[("ckpt", "p0")]
    t0 = sim.now
    reply = drive(sim, kernel.cluster.transport.rpc(
        "p0c0", ckpt_node, ports.CKPT, ports.CKPT_SAVE, {"key": "k", "data": {"v": 1}}))
    assert reply == {"ok": True, "version": 1}
    assert sim.now - t0 < 0.01


def test_large_save_pays_bandwidth(kernel, sim):
    ckpt_node = kernel.placement[("ckpt", "p0")]
    big = {"blob": "x" * 5_000_000}  # ~5 MB -> ~0.1 s at 50 MB/s
    t0 = sim.now
    reply = drive(sim, kernel.cluster.transport.rpc(
        "p0c0", ckpt_node, ports.CKPT, ports.CKPT_SAVE,
        {"key": "big", "data": big}, timeout=2.0))
    assert reply["ok"]
    elapsed = sim.now - t0
    assert 0.09 < elapsed < 0.2


def test_concurrent_saves_keep_version_order(kernel, sim):
    ckpt_node = kernel.placement[("ckpt", "p0")]
    t = kernel.cluster.transport
    sigs = [
        t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_SAVE,
              {"key": "k", "data": {"n": i}})
        for i in range(3)
    ]
    for sig in sigs:
        drive(sim, sig)
    versions = [sig.value["version"] for sig in sigs]
    # Independent datagrams may reorder in flight; versions are unique and
    # dense, and the stored value is whichever commit got version 3.
    assert sorted(versions) == [1, 2, 3]
    last_writer = versions.index(3)
    reply = drive(sim, t.rpc("p0c0", ckpt_node, ports.CKPT, ports.CKPT_LOAD, {"key": "k"}))
    assert reply["version"] == 3
    assert reply["data"] == {"n": last_writer}
