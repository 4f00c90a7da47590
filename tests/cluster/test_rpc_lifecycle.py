"""RPC lifecycle: timer hygiene, fail-fast, retries, and in-flight caps."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.sim import Simulator, drive


def bind_echo(cluster, node_id, port):
    cluster.transport.bind(node_id, port, lambda msg: {"echo": msg.payload})


# -- timer hygiene (the tentpole regression) -----------------------------


def test_reply_cancels_timeout_event(cluster, sim):
    bind_echo(cluster, "p0c1", "svc")
    sig = cluster.transport.rpc("p0c0", "p0c1", "svc", "q", {"n": 1}, timeout=30.0)
    reply = drive(sim, sig)
    assert reply == {"echo": {"n": 1}}
    # The 30s timeout event must be gone the moment the reply landed —
    # nothing left but possibly compaction residue.
    assert sim.pending_events == 0


def test_pending_events_stay_bounded_across_many_rpcs(cluster, sim):
    """The leak this PR fixes: 1000 sequential successful RPCs used to
    leave 1000 pending timeout events (peak pending_events == N); with
    cancel-on-reply the peak tracks in-flight count, not history."""
    bind_echo(cluster, "p0c1", "svc")
    peak = 0
    for i in range(1000):
        sig = cluster.transport.rpc("p0c0", "p0c1", "svc", "q", {"i": i}, timeout=30.0)
        peak = max(peak, sim.pending_events)
        assert drive(sim, sig) is not None
    assert peak <= 4  # O(in-flight), not O(N)
    assert sim.pending_events == 0
    assert len(sim._heap) <= 200  # compaction keeps dead entries swept


def test_timeout_fires_when_no_reply(cluster, sim):
    # Bound port whose handler returns None -> no reply is ever sent.
    cluster.transport.bind("p0c1", "mute", lambda msg: None)
    sig = cluster.transport.rpc("p0c0", "p0c1", "mute", "q", timeout=0.5)
    assert drive(sim, sig) is None
    assert sim.now == pytest.approx(0.5)
    assert sim.pending_events == 0  # reply port unbound, nothing leaks


# -- fail-fast on send-time drop ----------------------------------------


def test_rpc_fails_next_tick_when_send_refused(cluster, sim):
    for net in cluster.networks.values():
        net.set_link("p0c0", False)  # every local NIC down: send() is False
    sig = cluster.transport.rpc("p0c0", "p0c1", "svc", "q", timeout=30.0)
    assert drive(sim, sig) is None
    assert sim.now < 0.001  # failed immediately, not after the 30s budget
    assert sim.pending_events == 0


def test_rpc_to_dead_destination_still_burns_timeout(cluster, sim):
    """Send succeeds (the sender cannot see a remote crash), so the RPC
    must take the full timeout — diagnosis timing depends on this."""
    cluster.node("p0c1").crash()
    sig = cluster.transport.rpc("p0c0", "p0c1", "svc", "q", timeout=0.5)
    assert drive(sim, sig) is None
    assert sim.now == pytest.approx(0.5)


# -- rpc_retry -----------------------------------------------------------


def test_rpc_retry_validates_parameters(cluster):
    with pytest.raises(Exception):
        cluster.transport.rpc_retry("p0c0", "p0c1", "svc", "q", attempts=0)
    with pytest.raises(Exception):
        cluster.transport.rpc_retry("p0c0", "p0c1", "svc", "q", backoff=0.5)


def test_rpc_retry_succeeds_first_attempt_without_retrying(cluster, sim):
    bind_echo(cluster, "p0c1", "svc")
    sig = cluster.transport.rpc_retry("p0c0", "p0c1", "svc", "q", {"n": 2})
    assert drive(sim, sig) == {"echo": {"n": 2}}
    assert sim.trace.counter("rpc.retries") == 0


def test_rpc_retry_survives_lossy_network(sim):
    """With 15% loss over a quarter of single-shot RPCs die (request or
    reply leg); six retrying attempts make every call get through."""
    spec = ClusterSpec.build(partitions=1, computes=2, networks=("lossy",), loss_rate=0.15)
    cluster = Cluster(sim, spec)
    bind_echo(cluster, "p0c1", "svc")
    got = 0
    for i in range(20):
        sig = cluster.transport.rpc_retry(
            "p0c0", "p0c1", "svc", "q", {"i": i}, timeout=4.0, attempts=6
        )
        if drive(sim, sig) is not None:
            got += 1
    assert got == 20
    assert sim.trace.counter("rpc.retries") > 0  # loss really happened
    assert sim.pending_events == 0


def test_rpc_retry_gives_up_within_total_budget(cluster, sim):
    cluster.node("p0c1").crash()
    start = sim.now
    sig = cluster.transport.rpc_retry(
        "p0c0", "p0c1", "svc", "q", timeout=2.0, attempts=3, jitter=0.0
    )
    assert drive(sim, sig) is None
    # Total budget semantics: attempts split the window, they don't extend it.
    assert sim.now - start == pytest.approx(2.0, abs=0.01)
    assert sim.trace.records("rpc.gave_up", dst="p0c1")


def test_rpc_retry_inflight_cap_queues_excess_calls(cluster, sim):
    cluster.transport.bind("p0c1", "slow", lambda msg: None)  # never replies
    sigs = [
        cluster.transport.rpc_retry(
            "p0c0", "p0c1", "slow", "q", timeout=1.0, attempts=1, inflight_cap=2
        )
        for _ in range(6)
    ]
    sim.run(until=0.001)
    assert cluster.transport._inflight.get("p0c1", 0) <= 2
    assert sim.trace.counter("rpc.inflight_queued") == 4
    for sig in sigs:
        drive(sim, sig)
    assert all(sig.fired for sig in sigs)
    assert cluster.transport._inflight.get("p0c1", 0) == 0  # gates drained


# -- bind collision diagnostics -----------------------------------------


def test_ownerless_rebind_leaves_collision_trace(cluster, sim):
    cluster.transport.bind("p0c0", "shared", lambda msg: None)
    assert not sim.trace.records("transport.bind_collision")
    cluster.transport.bind("p0c0", "shared", lambda msg: None)
    assert sim.trace.records("transport.bind_collision", node="p0c0", port="shared")
