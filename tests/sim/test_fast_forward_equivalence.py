"""Twin-engine differential harness for quiescence fast-forward.

``Simulator(fast_forward=True)`` may batch-account contracted periodic
firings instead of executing them.  The mode is only admissible if it is
*observably invisible*: the same workload on the exact and fast-forward
engines must produce identical trace records (event order included),
counters, histogram contents, and clocks.  This suite enforces that
three ways:

* engine-level unit tests pin the :class:`PeriodicTask` semantics and the
  skip decision (contract consulted, horizon guard, step() exactness);
* deterministic kernel twins replay the healthy steady state and a fixed
  fault storm on both engines and diff every observable;
* a hypothesis property generates random timed workloads — fail-stop
  faults, gray degradation, NIC flaps, and serve traffic — applies them
  to both engines at identical instants, and asserts full equivalence.

The snapshot/differ machinery is shared with the wheel/heap suite via
:mod:`tests.sim.engine_equivalence`.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.errors import SimulationError
from repro.kernel import KernelClient, KernelTimings, PhoenixKernel
from repro.sim import Simulator, drive
from repro.userenv.monitoring import cluster_view_query

from tests.sim.engine_equivalence import assert_equivalent, diff_snapshots, observable_snapshot

# ---------------------------------------------------------------------------
# Engine-level: PeriodicTask semantics
# ---------------------------------------------------------------------------


def test_periodic_cadence_and_first_delay():
    sim = Simulator()
    fired = []
    sim.periodic(2.0, lambda: fired.append(sim.now), first_delay=1.0)
    sim.run(until=7.0)
    assert fired == [1.0, 3.0, 5.0, 7.0]


def test_periodic_default_first_delay_is_interval():
    sim = Simulator()
    fired = []
    sim.periodic(3.0, lambda: fired.append(sim.now))
    sim.run(until=9.0)
    assert fired == [3.0, 6.0, 9.0]


def test_periodic_cancel_stops_firings_and_updates_pending():
    sim = Simulator()
    fired = []
    task = sim.periodic(1.0, lambda: fired.append(sim.now))
    assert sim.pending_events == 1 and task.active
    sim.run(until=2.0)
    task.cancel()
    assert sim.pending_events == 0 and not task.active
    sim.run(until=10.0)
    assert fired == [1.0, 2.0]
    task.cancel()  # idempotent
    assert sim.pending_events == 0


def test_periodic_cancel_from_inside_callback():
    sim = Simulator()
    fired = []
    task = sim.periodic(1.0, lambda: (fired.append(sim.now), task.cancel()))
    sim.run(until=5.0)
    assert fired == [1.0] and sim.pending_events == 0


def test_periodic_interleaves_with_events_in_seq_order():
    # A periodic firing and a plain event at the same instant keep
    # arming order, exactly like two heap events would.
    sim = Simulator()
    log = []
    sim.periodic(2.0, lambda: log.append(("p", sim.now)))
    sim.schedule(2.0, lambda: log.append(("e", sim.now)))
    sim.run(until=2.0)
    assert log == [("p", 2.0), ("e", 2.0)]


def test_periodic_rejects_bad_intervals_and_first_delay():
    sim = Simulator()
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(SimulationError):
            sim.periodic(bad, lambda: None)
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(SimulationError):
            sim.periodic(1.0, lambda: None, first_delay=bad)


# ---------------------------------------------------------------------------
# Engine-level: the skip decision
# ---------------------------------------------------------------------------


class _ToyContract:
    """Minimal contract: the callback and account() both bump the same
    counter, so a correct engine produces identical counters either way."""

    horizon = 0.5

    def __init__(self, sim, allow=True):
        self.sim = sim
        self.allow = allow
        self.skipped_at: list[float] = []

    def can_skip(self, now):
        return self.allow if isinstance(self.allow, bool) else self.allow(now)

    def account(self, now):
        self.skipped_at.append(now)
        self.sim.trace.count("toy.fires")


def _toy_sim(fast_forward, allow=True):
    sim = Simulator(fast_forward=fast_forward)
    executed = []

    def callback():
        executed.append(sim.now)
        sim.trace.count("toy.fires")

    contract = _ToyContract(sim, allow=allow)
    sim.periodic(1.0, callback, contract=contract)
    return sim, contract, executed


def test_fast_forward_defaults_off():
    sim, contract, executed = _toy_sim(fast_forward=False)
    assert sim.fast_forward is False
    sim.run(until=4.0)
    assert sim.ff_skipped == 0 and contract.skipped_at == []
    assert executed == [1.0, 2.0, 3.0, 4.0]


def test_fast_forward_skips_contracted_firings():
    sim, contract, executed = _toy_sim(fast_forward=True)
    assert sim.fast_forward is True
    sim.run(until=10.0)
    # Horizon 0.5: firings at 1..9 are skippable; 10.0 is within the
    # horizon of until and must execute exactly.
    assert contract.skipped_at == [float(t) for t in range(1, 10)]
    assert executed == [10.0]
    assert sim.ff_skipped == 9 and sim.events_executed == 1
    assert sim.trace.counters()["toy.fires"] == 10


def test_fast_forward_counters_match_exact_engine():
    exact, _, _ = _toy_sim(fast_forward=False)
    ff, _, _ = _toy_sim(fast_forward=True)
    exact.run(until=10.0)
    ff.run(until=10.0)
    assert_equivalent(exact, ff, context="toy periodic")
    assert ff.ff_skipped > 0 and ff.events_executed < exact.events_executed


def test_contract_refusal_falls_back_to_exact_execution():
    sim, contract, executed = _toy_sim(fast_forward=True, allow=False)
    sim.run(until=5.0)
    assert sim.ff_skipped == 0 and contract.skipped_at == []
    assert executed == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_contract_refusal_can_be_instant_dependent():
    sim, contract, executed = _toy_sim(
        fast_forward=True, allow=lambda now: now != 3.0
    )
    sim.run(until=10.0)
    assert 3.0 in executed and 3.0 not in contract.skipped_at
    assert sim.ff_skipped == 8


def test_uncontracted_periodic_never_skips_under_fast_forward():
    sim = Simulator(fast_forward=True)
    fired = []
    sim.periodic(1.0, lambda: fired.append(sim.now))
    sim.run(until=5.0)
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0] and sim.ff_skipped == 0


def test_unbounded_run_never_skips():
    # With no `until` there is no quiescence horizon to respect, so the
    # engine must stay exact (max_events bounds the otherwise-endless run).
    sim, contract, executed = _toy_sim(fast_forward=True)
    sim.run(max_events=4)
    assert sim.ff_skipped == 0 and contract.skipped_at == []
    assert executed == [1.0, 2.0, 3.0, 4.0]


def test_step_is_always_exact():
    sim, contract, executed = _toy_sim(fast_forward=True)
    assert sim.peek() == 1.0
    for _ in range(3):
        assert sim.step() is True
    assert executed == [1.0, 2.0, 3.0]
    assert sim.ff_skipped == 0 and contract.skipped_at == []


# ---------------------------------------------------------------------------
# Kernel-level twins
# ---------------------------------------------------------------------------

_NETWORKS = ("mgmt", "data", "ipc")


def _world(fast_forward, *, partitions=2, computes=3, hb=5.0, det=2.5, seed=11):
    """One booted kernel world; twins differ only in the engine mode."""
    sim = Simulator(seed=seed, fast_forward=fast_forward)
    cluster = Cluster(sim, ClusterSpec.build(partitions=partitions, computes=computes))
    timings = KernelTimings(heartbeat_interval=hb, detector_interval=det)
    kernel = PhoenixKernel(cluster, timings=timings)
    kernel.boot()
    return sim, cluster, kernel


def test_healthy_steady_state_is_equivalent_and_actually_skips():
    exact, _, _ = _world(False)
    ff_sim, _, _ = _world(True)
    exact.run(until=61.3)
    ff_sim.run(until=61.3)
    assert_equivalent(exact, ff_sim, context="healthy steady state")
    assert ff_sim.ff_skipped > 100  # the steady state is almost all skips
    assert ff_sim.events_executed < exact.events_executed / 2


def test_fixed_fault_storm_is_equivalent():
    """The deterministic storm: process kill, node crash + reboot, NIC
    flap, gray degradation — each forces fall-back to exact execution,
    then recovery re-enables skipping."""

    def replay(fast_forward):
        sim, cluster, kernel = _world(fast_forward)
        inj = FaultInjector(cluster)
        victim = sorted(cluster.nodes)[-1]

        def reboot():
            # Construction-tool style: reboot restarts the node-local
            # daemons (node death is recovery-0; nobody migrates a WD).
            inj.boot_node(victim)
            for svc in ("ppm", "detector", "wd"):
                kernel.start_service(svc, victim)

        schedule = [
            (7.3, lambda: inj.kill_process(victim, "detector")),
            (13.1, lambda: inj.crash_node(victim)),
            (26.4, reboot),
            (31.9, lambda: inj.fail_nic(victim, "data")),
            (40.2, lambda: inj.restore_nic(victim, "data")),
            (44.0, lambda: inj.degrade_link(victim, "mgmt", loss=0.3, latency_mult=5.0)),
            (52.5, lambda: inj.restore_link(victim, "mgmt")),
        ]
        for when, action in schedule:
            sim.run(until=when)
            action()
        sim.run(until=75.7)
        return sim

    exact = replay(False)
    ff_sim = replay(True)
    assert_equivalent(exact, ff_sim, context="fault storm")
    assert ff_sim.ff_skipped > 0
    assert ff_sim.events_executed < exact.events_executed


def test_registered_view_is_equivalent():
    """Once a view maintains the tables the detectors export, every put
    publishes a ``db.delta`` at its *arrival* instant — an effect the
    export contract does not account, so it must refuse to skip."""

    def replay(fast_forward):
        sim, _, kernel = _world(fast_forward)
        sim.run(until=6.0)
        reply = drive(sim, KernelClient(kernel, "p0c0").register_view("v", cluster_view_query()))
        assert reply and reply.get("ok")
        sim.run(until=61.3)
        return sim

    exact = replay(False)
    ff_sim = replay(True)
    assert_equivalent(exact, ff_sim, context="registered view")
    assert ff_sim.ff_skipped > 0  # WD beats still skip


# ---------------------------------------------------------------------------
# Hypothesis: random workloads on both engines
# ---------------------------------------------------------------------------

_ACTION_KINDS = (
    "kill_detector",
    "kill_ppm",
    "crash",
    "boot",
    "fail_nic",
    "restore_nic",
    "degrade",
    "restore_quality",
    "publish",
    "query",
)

_SCHEDULES = st.lists(
    st.tuples(
        st.floats(min_value=0.11, max_value=14.0, allow_nan=False, allow_infinity=False),
        st.sampled_from(_ACTION_KINDS),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=7,
)


def _apply_action(kind, sel, cluster, kernel, inj):
    """Apply one workload action; guards are pure reads of world state, so
    twin worlds (which the test asserts stay identical) take the same
    branch."""
    nodes = sorted(cluster.nodes)
    node = nodes[sel % len(nodes)]
    net = _NETWORKS[sel % len(_NETWORKS)]
    if kind in ("kill_detector", "kill_ppm"):
        svc = kind.removeprefix("kill_")
        if cluster.node(node).up and cluster.hostos(node).process_alive(svc):
            inj.kill_process(node, svc)
    elif kind == "crash":
        if cluster.node(node).up:
            inj.crash_node(node)
    elif kind == "boot":
        if not cluster.node(node).up:
            inj.boot_node(node)
            for svc in ("ppm", "detector", "wd"):
                if not cluster.hostos(node).process_alive(svc):
                    kernel.start_service(svc, node)
    elif kind == "fail_nic":
        if cluster.networks[net].link_up(node):
            inj.fail_nic(node, net)
    elif kind == "restore_nic":
        if not cluster.networks[net].link_up(node):
            inj.restore_nic(node, net)
    elif kind == "degrade":
        inj.degrade_link(node, net, loss=0.2, latency_mult=3.0, direction="out")
    elif kind == "restore_quality":
        inj.restore_link(node, net)
    elif kind in ("publish", "query"):
        up = cluster.nodes_up()
        if not up:
            return
        client = KernelClient(kernel, up[sel % len(up)])
        part = sorted(p.partition_id for p in cluster.spec.partitions)[0]
        if kind == "publish":
            if kernel.placement.get(("es", part)) is not None:
                client.publish("test.tick", {"n": sel}, partition=part)
        else:
            if kernel.placement.get(("db", part)) is not None:
                client.query_bulletin("node_metrics", partition=part)


def _replay_schedule(fast_forward, schedule):
    sim, cluster, kernel = _world(fast_forward)
    inj = FaultInjector(cluster)
    for dt, kind, sel in schedule:
        sim.run(until=sim.now + dt)
        _apply_action(kind, sel, cluster, kernel, inj)
    sim.run(until=sim.now + 17.0)  # settle window: recoveries complete
    return sim


@settings(max_examples=50, deadline=None)
@given(schedule=_SCHEDULES)
def test_random_workloads_are_engine_equivalent(schedule):
    exact = _replay_schedule(False, schedule)
    ff_sim = _replay_schedule(True, schedule)
    problems = diff_snapshots(observable_snapshot(exact), observable_snapshot(ff_sim))
    assert not problems, "engines diverged:\n  " + "\n  ".join(problems[:12])
