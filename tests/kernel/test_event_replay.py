"""Late-subscriber event replay + job priority ordering."""

from repro.kernel.events.types import Event
from repro.sim import drive
from tests.kernel.test_events import publish


def subscribe_with_replay(kernel, sim, node, consumer_id, types=(), replay=0):
    inbox = []
    port = f"sink.{consumer_id}"
    kernel.cluster.transport.bind(
        node, port,
        lambda msg: inbox.append(
            (Event.from_payload(msg.payload["event"]), msg.payload.get("replayed", False))
        ),
    )
    reply = drive(sim, kernel.client(node).subscribe(consumer_id, port, types=types,
                                                     replay=replay))
    assert reply and reply["ok"]
    return inbox


def test_late_subscriber_catches_up(kernel, sim):
    for i in range(5):
        publish(kernel, sim, "p0c1", "custom.tick", {"i": i})
    sim.run(until=sim.now + 0.5)
    inbox = subscribe_with_replay(kernel, sim, "p0c0", "late", types=("custom.tick",), replay=3)
    sim.run(until=sim.now + 0.5)
    assert [(e.data["i"], replayed) for e, replayed in inbox] == [
        (2, True), (3, True), (4, True),
    ]
    # Live events keep flowing afterwards, unmarked.
    publish(kernel, sim, "p0c1", "custom.tick", {"i": 99})
    sim.run(until=sim.now + 0.5)
    assert inbox[-1][0].data["i"] == 99 and inbox[-1][1] is False


def test_replay_respects_filters(kernel, sim):
    publish(kernel, sim, "p0c1", "custom.a", {"v": 1})
    publish(kernel, sim, "p0c1", "custom.b", {"v": 2})
    sim.run(until=sim.now + 0.5)
    inbox = subscribe_with_replay(kernel, sim, "p0c0", "filtered", types=("custom.b",), replay=10)
    sim.run(until=sim.now + 0.5)
    assert [e.type for e, _ in inbox] == ["custom.b"]


def test_no_replay_by_default(kernel, sim):
    publish(kernel, sim, "p0c1", "custom.x", {})
    sim.run(until=sim.now + 0.5)
    inbox = subscribe_with_replay(kernel, sim, "p0c0", "fresh", types=("custom.x",))
    sim.run(until=sim.now + 0.5)
    assert inbox == []


def test_replay_covers_forwarded_events_too(kernel, sim):
    """Events published at another partition reach this instance's history
    via federation forwarding."""
    publish(kernel, sim, "p2c0", "custom.far", {"v": 7}, partition="p2")
    sim.run(until=sim.now + 0.5)
    inbox = subscribe_with_replay(kernel, sim, "p0c0", "far", types=("custom.far",), replay=5)
    sim.run(until=sim.now + 0.5)
    assert len(inbox) == 1 and inbox[0][0].data["v"] == 7


# -- job priorities (scheduler ordering) --------------------------------------


def test_priority_orders_fifo_band():
    from repro.userenv.pws.jobs import JobRecord, JobSpec
    from repro.userenv.pws.scheduler import order_queue

    jobs = [
        JobRecord(spec=JobSpec("low", "u", 1, 1, 5.0, priority=0), submitted_at=1.0),
        JobRecord(spec=JobSpec("high", "u", 1, 1, 5.0, priority=10), submitted_at=2.0),
        JobRecord(spec=JobSpec("mid", "u", 1, 1, 5.0, priority=5), submitted_at=0.5),
    ]
    assert [j.spec.job_id for j in order_queue("fifo", jobs)] == ["high", "mid", "low"]


def test_priority_roundtrips_payload():
    from repro.userenv.pws.jobs import JobSpec

    spec = JobSpec("j", "u", 1, 1, 5.0, priority=7)
    assert JobSpec.from_payload(spec.to_payload()).priority == 7


def test_high_priority_job_dispatches_first(kernel, sim):
    from repro.userenv.pws import PoolSpec, install_pws
    from repro.userenv.pws.server import STATUS, SUBMIT
    from repro.sim import drive as _drive

    install_pws(kernel, [PoolSpec("q", kernel.cluster.compute_nodes(), lendable=False)])
    sim.run(until=sim.now + 2.0)

    def rpc(mtype, payload):
        sig = kernel.cluster.transport.rpc(
            "p0c0", kernel.placement[("pws", "p0")], "pws", mtype, payload, timeout=5.0)
        return _drive(sim, sig)

    # Fill the pool, then queue a low- and a high-priority job.
    filler = rpc(SUBMIT, {"user": "f", "nodes": 9, "cpus_per_node": 4, "duration": 20.0,
                          "pool": "q"})
    low = rpc(SUBMIT, {"user": "l", "nodes": 9, "cpus_per_node": 4, "duration": 10.0,
                       "pool": "q", "priority": 0})
    high = rpc(SUBMIT, {"user": "h", "nodes": 9, "cpus_per_node": 4, "duration": 10.0,
                        "pool": "q", "priority": 9})
    sim.run(until=sim.now + 25.0)  # filler done -> one job starts
    assert rpc(STATUS, {"job_id": high["job_id"]})["job"]["state"] == "running"
    assert rpc(STATUS, {"job_id": low["job_id"]})["job"]["state"] == "queued"
