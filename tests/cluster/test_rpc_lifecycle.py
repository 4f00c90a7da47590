"""RPC lifecycle: timer hygiene, fail-fast, retries, and in-flight caps."""

import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.errors import TransportError
from repro.sim import Proc, Simulator, drive
from tests.cluster.retry_model import rpc_retry_model


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


def test_rpc_retry_refuses_an_inflight_cap_below_one(cluster, sim):
    """A zero cap used to park the call on a gate nothing ever fires: the
    signal never fired and the simulation simply drained."""
    bind_echo(cluster, "p0c1", "svc")
    with pytest.raises(TransportError, match="in-flight cap"):
        cluster.transport.rpc_retry("p0c0", "p0c1", "svc", "q", inflight_cap=0)
    cluster.transport.max_inflight_per_dest = 0
    with pytest.raises(TransportError, match="in-flight cap"):
        cluster.transport.rpc_retry("p0c0", "p0c1", "svc", "q")
    assert sim.pending_events == 0
    assert cluster.transport._inflight_gates == {}
    cluster.transport.max_inflight_per_dest = 1
    assert drive(sim, cluster.transport.rpc_retry("p0c0", "p0c1", "svc", "q", {"n": 1})) == {
        "echo": {"n": 1}}


def test_rpc_retry_releases_its_slot_when_an_attempt_raises(cluster, sim):
    """An attempt that raises (here: an unknown fabric) still gives back the
    in-flight slot and wakes the next queued call."""
    cluster.transport.bind("p0c1", "slow", lambda msg: None)
    bad = cluster.transport.rpc_retry("p0c0", "p0c1", "slow", "q", network="nope",
                                      inflight_cap=1)
    queued = cluster.transport.rpc_retry("p0c0", "p0c1", "slow", "q", timeout=0.5,
                                         attempts=1, inflight_cap=1)
    with pytest.raises(TransportError, match="unknown network"):
        sim.run()
    assert not bad.fired
    assert drive(sim, queued) is None and queued.fired
    assert cluster.transport._inflight == {} and cluster.transport._inflight_gates == {}


class _FireLog:
    """A signal waiter that records when and with what each call settled."""

    def __init__(self, sim, log, index):
        self.sim, self.log, self.index = sim, log, index

    def _wake_soon(self, value):
        self.log.append((self.index, self.sim.now, value))


_CALL = st.fixed_dictionaries({
    "at": st.floats(0.0, 1.5),
    "dst": st.sampled_from(["p0c1", "p0c2"]),
    "port": st.sampled_from(["svc", "svc", "mute"]),
    "timeout": st.floats(0.01, 1.5),
    "attempts": st.integers(1, 4),
    "backoff": st.floats(1.0, 3.0),
    "jitter": st.sampled_from([0.0, 0.1, 0.5, 2.0, 10.0]),  # 10: a pause eats the budget
    "cap": st.one_of(st.none(), st.integers(1, 3)),
})


def _retry_scenario(retry, seed, loss_rate, crash, calls):
    """Run ``calls`` through ``retry`` (the production call or the model) on
    a lossy 3-compute cluster whose ``p0c1`` may crash and boot mid-call;
    return everything observable."""
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, ClusterSpec.build(partitions=1, computes=3, networks=("lossy",),
                                             loss_rate=loss_rate))
    transport = cluster.transport
    transport.max_inflight_per_dest = 2
    for node in ("p0c1", "p0c2"):
        bind_echo(cluster, node, "svc")
        transport.bind(node, "mute", lambda msg: None)
    if crash is not None:
        down_at, down_for = crash
        sim.schedule(down_at, cluster.node("p0c1").crash)
        sim.schedule(down_at + down_for, cluster.node("p0c1").boot)
    fired = []

    def start_call(i, call):
        signal = retry(
            transport, "p0c0", call["dst"], call["port"], "q", {"i": i},
            timeout=call["timeout"], attempts=call["attempts"], backoff=call["backoff"],
            jitter=call["jitter"], inflight_cap=call["cap"],
        )
        signal._register(_FireLog(sim, fired, i))

    for i, call in enumerate(calls):
        sim.schedule(call["at"], start_call, i, call)
    sim.run()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        sim.trace.export_jsonl(path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read()
    return {
        "fired": fired,
        "events_executed": sim.events_executed,
        "rpc_counters": sim.trace.counters("rpc."),
        "lines": lines,
        "drained": (transport._inflight, dict(transport._inflight_gates)),
    }


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    loss_rate=st.sampled_from([0.0, 0.2, 0.5]),
    crash=st.one_of(st.none(), st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0))),
    calls=st.lists(_CALL, min_size=1, max_size=6),
)
def test_property_retry_machine_equals_the_process_loop(seed, loss_rate, crash, calls):
    """The event-driven retry call schedules the events, draws the jitter
    and leaves the counters and records the spawned loop does, and runs
    no process of its own."""
    def production(transport, *args, **kwargs):
        return transport.rpc_retry(*args, **kwargs)

    procs = []
    real_init = Proc.__init__

    def counting_init(self, *args, **kwargs):
        procs.append(self)
        real_init(self, *args, **kwargs)

    with mock.patch.object(Proc, "__init__", counting_init):
        got = _retry_scenario(production, seed, loss_rate, crash, calls)
    assert procs == []
    want = _retry_scenario(rpc_retry_model, seed, loss_rate, crash, calls)
    assert got == want
    assert len(got["fired"]) == len(calls)
    assert got["drained"] == ({}, {})


# -- bind collision diagnostics -----------------------------------------


def test_ownerless_rebind_leaves_collision_trace(cluster, sim):
    cluster.transport.bind("p0c0", "shared", lambda msg: None)
    assert not sim.trace.records("transport.bind_collision")
    cluster.transport.bind("p0c0", "shared", lambda msg: None)
    assert sim.trace.records("transport.bind_collision", node="p0c0", port="shared")
