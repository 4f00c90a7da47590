"""Bulletin housekeeping: stale detector rows are evicted."""


def test_dead_node_rows_expire(kernel, sim, injector):
    sim.run(until=10.0)  # detectors exported at least twice
    db = kernel.bulletin("p0")
    assert db.store.get("node_metrics", "p0c0") is not None
    injector.crash_node("p0c0")
    # After 4 detector intervals without exports, the row is gone.
    sim.run(until=sim.now + 6 * kernel.timings.detector_interval)
    assert db.store.get("node_metrics", "p0c0") is None
    assert db.store.get("net_state", "p0c0") is None
    assert sim.trace.counter("db.expired") > 0


def test_live_node_rows_survive(kernel, sim):
    sim.run(until=10.0 + 8 * kernel.timings.detector_interval)
    db = kernel.bulletin("p0")
    for node_id in kernel.cluster.partition("p0").all_nodes:
        assert db.store.get("node_metrics", node_id) is not None, node_id


def test_finished_app_rows_expire_eventually(kernel, sim):
    from repro.sim import drive

    client = kernel.client("p0s0")
    drive(sim, client.spawn_job("p0c0", "ephemeral", cpus=1, duration=2.0))
    sim.run(until=sim.now + 5.0)
    db = kernel.bulletin("p0")
    assert db.store.query("apps", {"job_id": "ephemeral"})
    sim.run(until=sim.now + 14 * kernel.timings.detector_interval)
    assert db.store.query("apps", {"job_id": "ephemeral"}) == []
