"""Property: a registered view equals a from-scratch scan under random churn.

Hypothesis drives a short campaign against a live cluster — compute-node
kills and recoveries, job-row lifecycle, and bulletin failovers on the
view owner's partition mid-stream — then requires the materialized view
to converge back to exact (float-tolerant) agreement with the full-scan
reference, and a time-travel read to stay self-consistent.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.kernel import KernelTimings, PhoenixKernel, ports
from repro.kernel.bulletin.query import Agg, Query
from repro.sim import Simulator, drive
from tests.kernel.test_bulletin_views import rows_close
from tests.kernel.test_views_integration import _equivalent

NODES_VIEW = Query(
    table="nodes",
    group_by=("state",),
    aggs=(
        Agg("count", "*", "n"),
        Agg("sum", "cpu_pct", "cpu"),
        Agg("min", "cpu_pct", "lo"),
        Agg("max", "cpu_pct", "hi"),
    ),
)
JOBS_VIEW = Query(table="jobs", group_by=("phase",), aggs=(Agg("count", "*", "n"),))
#: A view over a physical table, read as itself.
STATE_VIEW = Query(table="node_state", group_by=("state",), aggs=(Agg("count", "*", "n"),))
VIEWS = (("prop.nodes", NODES_VIEW), ("prop.jobs", JOBS_VIEW), ("prop.state", STATE_VIEW))

_ACTIONS = ("kill", "recover", "failover", "job", "idle")


def _run_churn(seed, actions):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, ClusterSpec.build(partitions=3, computes=2))
    timings = KernelTimings(heartbeat_interval=5.0, deadline_grace=0.1)
    kernel = PhoenixKernel(cluster, timings=timings)
    kernel.boot()
    sim.run(until=10.0)
    injector = FaultInjector(cluster)
    client = kernel.client(cluster.partitions[0].server)
    for name, query in VIEWS:
        reply = drive(sim, client.register_view(name, query, partition="p1"), max_time=60.0)
        assert reply and reply.get("ok"), reply

    downed: list[str] = []
    job_seq = 0
    for action in actions:
        if action == "kill":
            candidates = [n for n in ("p2c0", "p2c1", "p1c0")
                          if cluster.node(n).up and n not in downed]
            if candidates:
                injector.crash_node(candidates[0])
                downed.append(candidates[0])
        elif action == "recover" and downed:
            node = downed.pop(0)
            injector.boot_node(node)
            for svc in ("ppm", "detector", "wd"):
                if not cluster.hostos(node).process_alive(svc):
                    kernel.start_service(svc, node)
        elif action == "failover":
            # Never the partition's last live node: with nobody left to
            # host the bulletin there is no owner to read the view from.
            owner_node = kernel.placement[("db", "p1")]
            live = [n for n in cluster.partition("p1").all_nodes if cluster.node(n).up]
            if cluster.node(owner_node).up and len(live) > 1:
                injector.crash_node(owner_node)
        elif action == "job":
            job_seq += 1
            db_node = kernel.placement[("db", "p0")]
            drive(sim, client._transport.rpc(
                client.node_id, db_node, ports.DB, ports.DB_PUT,
                {"table": "apps", "key": f"job{job_seq}",
                 "row": {"app": "prop", "phase": ("running", "done")[job_seq % 2]}},
                timeout=5.0,
            ))
        sim.run(until=sim.now + 12.0)

    sim.run(until=sim.now + 60.0)  # settle: failover, rebuild, expiry
    for name, query in VIEWS:
        _equivalent(sim, client, name, query, attempts=20)

    # Time-travel round trip: the recent past must replay from checkpoints
    # with per-partition versions and never raise.
    past = drive(sim, client.exec_query(Query(table="jobs", as_of=sim.now - 1.0)))
    assert past is not None and "rows" in past and "versions" in past


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(0, 2**16),
    actions=st.lists(st.sampled_from(_ACTIONS), min_size=2, max_size=5),
)
def test_view_matches_fresh_scan_under_randomized_churn(seed, actions):
    _run_churn(seed, actions)


def test_regression_failovers_down_to_the_last_node_still_serve():
    """Four back-to-back owner failovers used to take p1 down to zero
    live nodes (a generator bug: nobody left to answer).  The fourth is
    now skipped; three leave one node, which must serve view ≡ scan."""
    _run_churn(0, ["failover"] * 4)
