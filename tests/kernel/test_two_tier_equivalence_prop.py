"""Property: two-tier federation preserves view contents.

The same deterministic job workload and fault schedule run twice — once
on the flat full-mesh federation and once on the two-tier region
topology (DESIGN.md §16) — must converge to float-equal materialized
view contents, even when the schedule crashes an aggregator partition's
server mid-stream (forcing aggregator failover and a watermark-gap
resync at every remote view engine).  Inside the two-tier run the view
must also equal a from-scratch scan, which pins IVM over the relayed
``db.delta`` feed itself, not just cross-topology agreement.  A
key-value ``where`` read over ``node_state`` must equal the union of the
instances' own stores, and agree across the two topologies.

The workload writes only the ``apps`` table (explicit puts, retried
through failovers), so the compared contents are independent of
node-metric sampling and identical across topologies by construction —
any divergence is a federation bug, not workload noise.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.kernel import KernelTimings, PhoenixKernel, ports
from repro.kernel.bulletin.query import Agg, Query
from repro.sim import Simulator, drive
from tests.kernel.test_bulletin_views import rows_close
from tests.kernel.test_views_integration import _equivalent

JOBS_VIEW = Query(
    table="jobs",
    group_by=("phase",),
    aggs=(Agg("count", "*", "n"), Agg("min", "seq", "lo"), Agg("max", "seq", "hi")),
)

#: ``agg_crash`` kills p2s0 — in the two-tier run p2 is region 1's
#: aggregator, so this forces failover to p3 mid-stream; the flat run
#: takes the identical fault for a fair reference.
_ACTIONS = ("put", "put", "agg_crash", "recover", "idle")


def _put_retrying(sim, kernel, client, partition, key, row):
    """DB_PUT that rides out a bulletin failover; both topologies must
    end with identical table contents, so a put may not be dropped."""
    for _ in range(12):
        db_node = kernel.placement.get(("db", partition))
        if db_node is not None and kernel.cluster.node(db_node).up:
            reply = drive(sim, client._transport.rpc(
                client.node_id, db_node, ports.DB, ports.DB_PUT,
                {"table": "apps", "key": key, "row": row}, timeout=5.0,
            ), max_time=10.0)
            if reply == {"ok": True}:
                return
        sim.run(until=sim.now + 5.0)
    raise AssertionError(f"put {key!r} to {partition} never succeeded")


def _run_scenario(seed, actions, region_size, probe=False):
    sim = Simulator(seed=seed)
    cluster = Cluster(
        sim, ClusterSpec.build(partitions=6, computes=2, region_size=region_size)
    )
    timings = KernelTimings(heartbeat_interval=5.0, deadline_grace=0.1)
    kernel = PhoenixKernel(cluster, timings=timings)
    kernel.boot()
    sim.run(until=10.0)
    injector = FaultInjector(cluster)
    client = kernel.client(cluster.partitions[0].server)
    # View owner on p0 (region 0): in the two-tier run, deltas from p2..p5
    # reach it relayed through the region aggregators.
    reply = drive(sim, client.register_view("prop.jobs", JOBS_VIEW, partition="p0"),
                  max_time=60.0)
    assert reply and reply.get("ok"), reply

    job_seq = 0
    crashed = False
    for action in actions:
        if action == "put":
            job_seq += 1
            partition = f"p{job_seq % 6}"
            _put_retrying(sim, kernel, client, partition, f"job{job_seq}", {
                "app": "prop", "seq": job_seq,
                "phase": ("running", "done")[job_seq % 2],
            })
        elif action == "agg_crash" and not crashed and cluster.node("p2s0").up:
            injector.crash_node("p2s0")
            crashed = True
        elif action == "recover" and crashed and not cluster.node("p2s0").up:
            injector.boot_node("p2s0")
            for svc in ("ppm", "detector", "wd"):
                if not cluster.hostos("p2s0").process_alive(svc):
                    kernel.start_service(svc, "p2s0")
        sim.run(until=sim.now + 12.0)

    sim.run(until=sim.now + 90.0)  # settle: failover, resync, rebuild
    if probe:
        # A write *after* the churn settles must still reach the view
        # through the (possibly failed-over) aggregator relay; earlier rows
        # may have expired from the bulletin by now, this one cannot.
        _put_retrying(sim, kernel, client, "p3", "probe", {
            "app": "prop", "seq": 99, "phase": "late",
        })
        sim.run(until=sim.now + 15.0)
    view = _equivalent(sim, client, "prop.jobs", JOBS_VIEW, attempts=20)
    return view["rows"], _up_nodes(sim, kernel, client)


def _up_nodes(sim, kernel, client):
    """A ``where`` read over the physical ``node_state`` table equals the
    union of every instance's own store: the read's ``where`` is pushed
    into each probe, through the region aggregators on two tiers."""
    up = {"state": "up"}
    reply = drive(sim, client.query_bulletin("node_state", where=up), max_time=30.0)
    assert reply is not None and reply["partitions_missing"] == [], reply
    reference = sorted(row["_key"] for part in kernel.cluster.partitions
                       for row in kernel.bulletin(part.partition_id).store.query("node_state", up))
    assert sorted(row["_key"] for row in reply["rows"]) == reference
    return reference


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(0, 2**16),
    actions=st.lists(st.sampled_from(_ACTIONS), min_size=2, max_size=5),
)
def test_two_tier_view_contents_equal_flat_reference(seed, actions):
    flat, flat_up = _run_scenario(seed, actions, region_size=None)
    two_tier, two_tier_up = _run_scenario(seed, actions, region_size=2)
    assert rows_close(
        sorted(flat, key=str), sorted(two_tier, key=str)
    ), f"flat={flat!r} two_tier={two_tier!r}"
    assert flat_up == two_tier_up


@pytest.mark.parametrize("region_size", [None, 2])
def test_regression_put_put_agg_crash_view_keeps_lost_row(region_size):
    """p2's bulletin restarts with an empty, henceforth quiet ``apps``
    table: only its epoch announce tells the owner on p0 to drop job2
    (failed on both topologies before the announce existed)."""
    _run_scenario(0, ["put", "put", "agg_crash"], region_size=region_size)


def test_aggregator_failover_mid_stream_converges():
    """The deterministic worst case: puts land while the remote region's
    aggregator is down, so deltas arrive through the successor with a
    watermark gap the view engine must resync across."""
    rows, _up = _run_scenario(7, ["put", "agg_crash", "put", "put", "recover", "put"],
                              region_size=2, probe=True)
    phases = {r["phase"]: r["n"] for r in rows}
    assert phases.get("late") == 1, rows
