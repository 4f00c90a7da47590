"""Serving tier: admission control, routing fairness, the routing list's
one writer, traffic + spans, backpressure events, the SLO autoscaler, and
requests as event-driven calls held to the process model."""

import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, FaultInjector
from repro.errors import UserEnvError
from repro.kernel import KernelTimings, timings
from repro.sim import Proc, Simulator
from repro.userenv.business import (
    AdmissionQueue,
    ArrivalProfile,
    Autoscaler,
    AutoscalePolicy,
    BizAppSpec,
    RequestClass,
    TierPolicy,
    TierSpec,
    TrafficGenerator,
    install_business_runtime,
)
from repro.userenv.business.runtime import AppState, BusinessRuntime, Replica
from repro.userenv.business.traffic import BACKPRESSURE_ON
from repro.userenv.construction import ConstructionTool
from tests.kernel.test_events import subscribe_collector
from tests.userenv.request_model import start_model


# -- admission queue: boundedness property --------------------------------

OPS = st.lists(
    st.one_of(
        st.just(("arrive",)),
        st.just(("finish",)),
        st.tuples(st.just("limit"), st.integers(min_value=0, max_value=8)),
    ),
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(ops=OPS, cap=st.integers(min_value=1, max_value=12))
def test_admission_queue_is_bounded(ops, cap):
    """Under any arrival/finish/limit-change interleaving: the wait queue
    never exceeds its cap, overflow is rejected-and-counted (never
    silently dropped), and every admission is accounted for."""
    sim = Simulator(seed=0, trace_capacity=0)
    limit_box = [2]
    queue = AdmissionQueue(sim, "web", limit=lambda: limit_box[0], queue_cap=cap)
    arrivals = rejected = fired = finished = 0
    parked: list = []
    granted: list = []

    for op in ops:
        if op[0] == "arrive":
            arrivals += 1
            signal = queue.try_enter()
            if signal is None:
                rejected += 1
            elif signal.fired:
                granted.append(signal)
            else:
                parked.append(signal)
        elif op[0] == "finish":
            if granted:
                granted.pop()
                finished += 1
                queue.leave()
        else:
            limit_box[0] = op[1]
        # Parked arrivals promoted by leave()/try_enter() regrants.
        for signal in [s for s in parked if s.fired]:
            parked.remove(signal)
            granted.append(signal)
        fired = len(granted) + finished
        assert queue.depth == len(parked) <= cap
        assert queue.rejected == rejected
        assert queue.admitted == fired
        assert queue.busy == fired - finished
        # Conservation: every arrival is granted, parked, or rejected.
        assert fired + len(parked) + rejected == arrivals
    # Once the limit is positive again and slots drain, the queue empties.
    limit_box[0] = max(limit_box[0], 1)
    queue.grant()
    while queue.busy:
        queue.leave()
    assert queue.depth == 0


def test_admission_queue_rejects_when_full():
    sim = Simulator(seed=0)
    queue = AdmissionQueue(sim, "web", limit=lambda: 1, queue_cap=2)
    first = queue.try_enter()
    assert first is not None and first.fired
    parked = [queue.try_enter() for _ in range(2)]
    assert all(s is not None and not s.fired for s in parked)
    assert queue.try_enter() is None  # full -> rejected
    assert queue.rejected == 1
    queue.leave()
    assert parked[0].fired  # FIFO handoff
    assert queue.depth == 1


# -- a runtime without a kernel; routing fairness property ----------------

class _StubRuntime(BusinessRuntime):
    """The runtime's routing state and its one health writer, without a
    kernel: backpressure events are logged instead of published.  Every
    tier of ``spec`` gets one replica per entry of ``healthy``, up or down
    as it says."""

    def __init__(self, sim, spec, healthy):
        self.sim = sim
        self.apps = {spec.name: AppState(spec=spec)}
        self._traffic = None
        self.published = []
        for tier in spec.tiers:
            for i, up in enumerate(healthy):
                self.apps[spec.name].set_replica(
                    Replica(app=spec.name, tier=tier.name, index=i, node=f"{tier.name}{i}"), up)

    def publish(self, event_type, data):
        self.published.append((self.sim.now, event_type, dict(data)))

    def set_health(self, tier, index, healthy):
        state = self.apps["shop"]
        replica = state.tier_replicas(tier)[index]
        if replica.healthy != healthy:
            self._set_replica(state, replica, healthy)


def _web_shop(sim, healthy):
    """A one-tier ``shop`` whose ``web`` replicas are up as ``healthy`` says."""
    return _StubRuntime(sim, BizAppSpec(name="shop", tiers=(TierSpec("web", len(healthy)),)),
                        healthy)


@settings(max_examples=60, deadline=None)
@given(
    masks=st.lists(
        st.lists(st.booleans(), min_size=1, max_size=6).filter(any),
        min_size=1, max_size=4,
    ),
    rounds=st.integers(min_value=1, max_value=4),
)
def test_route_round_robin_fairness_under_churn(masks, rounds):
    """Between churn events, a window of k*len(healthy) consecutive
    requests lands exactly k times on every healthy replica — the
    paper's load-balancing promise, kill/heal churn included."""
    sim = Simulator(seed=0, trace_capacity=0)
    rt = _web_shop(sim, masks[0])
    state = rt.apps["shop"]
    for mask in masks:
        # Churn through the one writer: indices persist, health flips.
        while len(state.replicas) < len(mask):
            n = len(state.replicas)
            state.set_replica(Replica(app="shop", tier="web", index=n, node=f"n{n}"), False)
        for i, replica in enumerate(state.replicas):
            state.set_replica(replica, mask[i] if i < len(mask) else False)
        healthy = [r for r in state.replicas if r.healthy]
        assert [id(r) for r in state.routes["web"]] == [id(r) for r in healthy]
        hits = {r.job_id: 0 for r in healthy}
        for _ in range(rounds * len(healthy)):
            hits[rt.route_replica("shop", "web").job_id] += 1
        assert set(hits.values()) == {rounds}


def test_route_raises_when_tier_down():
    sim = Simulator(seed=0, trace_capacity=0)
    rt = _web_shop(sim, [False, False])
    with pytest.raises(UserEnvError):
        rt.route_replica("shop", "web")
    with pytest.raises(UserEnvError):
        rt.route_replica("nosuch", "web")


# -- routing list == scan under real churn ---------------------------------

def _scan(state, tier):
    """The oracle: what the routing list replaced, a scan per request."""
    return [r for r in state.replicas if r.tier == tier and r.healthy]


def _repair_node(kernel, injector, node):
    """Boot a crashed node and restart its per-node kernel services."""
    injector.boot_node(node)
    for svc in ("ppm", "detector", "wd"):
        if not kernel.cluster.hostos(node).process_alive(svc):
            kernel.start_service(svc, node)


CHURN = st.lists(
    st.sampled_from(["scale_up", "scale_down", "kill_node", "heal_nodes",
                     "spawn_fail", "reload"]),
    min_size=1, max_size=5,
)
SLOTS = 4
ONE_CLASS = [RequestClass(name="get", service_times={"web": 0.01, "db": 0.01})]


@settings(max_examples=8, deadline=None)
@given(ops=CHURN)
@mock.patch.dict(timings.SPAWN_TIMES, bizapp=1.0)
def test_routing_list_equals_the_scan_under_churn(ops):
    """After any sequence of deploy, scale up/down, node kill + heal, a
    spawn that fails with its node, and a runtime restart that reloads
    the registry from its checkpoint, every tier's routing list is the
    scan of ``state.replicas`` (same replicas, same order) and each
    admission limit is its length times the slots per replica."""
    sim = Simulator(seed=7)
    tool = ConstructionTool(sim)
    kernel = tool.build(
        ClusterSpec.build(partitions=2, computes=3),
        timings=KernelTimings(heartbeat_interval=5.0),
    )
    injector = FaultInjector(kernel.cluster)
    sim.run(until=6.0)
    workers = [n for n in kernel.cluster.compute_nodes() if n.startswith("p0")]
    rt = install_business_runtime(kernel, worker_nodes=workers, partition_id="p0")
    sim.run(until=sim.now + 2.0)
    rt.deploy(BizAppSpec(name="shop", tiers=(TierSpec("web", 2), TierSpec("db", 1))))
    gen = TrafficGenerator(rt, "shop", ONE_CLASS, slots_per_replica=SLOTS)
    crashed: list[str] = []

    def settle(seconds):
        for _ in range(int(seconds)):
            sim.run(until=sim.now + 1.0)
            state = rt.apps["shop"]
            for tier in ("web", "db"):
                scan = _scan(state, tier)
                assert [id(r) for r in state.routes[tier]] == [id(r) for r in scan]
                assert gen.queues[tier].limit() == len(scan) * SLOTS

    settle(4)
    for op in ops:
        state = rt.apps["shop"]
        web = len(state.tier_replicas("web"))
        up = [n for n in workers if n not in crashed]
        if op == "scale_up":
            rt.scale("shop", "web", web + 1)
        elif op == "scale_down" and web > 1:
            rt.scale("shop", "web", web - 1)
        elif op == "kill_node" and len(up) > 1:
            victim = next((r.node for r in state.replicas
                           if r.healthy and r.node in up), None)
            if victim is not None:
                injector.crash_node(victim)
                crashed.append(victim)
        elif op == "heal_nodes":
            for node in crashed:
                _repair_node(kernel, injector, node)
            crashed.clear()
        elif op == "spawn_fail" and len(up) > 1:
            rt.scale("shop", "web", web + 1)
            spawning = next((r.node for r in state.replicas
                             if not r.healthy and r.node is not None), None)
            if spawning is not None:  # dies under its replica's spawn
                injector.crash_node(spawning)
                crashed.append(spawning)
        elif op == "reload":
            injector.kill_process(rt.node_id, "bizrt")
            sim.run(until=sim.now + 12.0)
            rt = kernel.live_daemon("bizrt", kernel.placement[("bizrt", "p0")])
            assert rt.alive and "shop" in rt.apps
            gen = TrafficGenerator(rt, "shop", ONE_CLASS, slots_per_replica=SLOTS)
        settle(10)


def test_requests_queued_while_a_tier_is_down_are_served_once_it_heals():
    """Requests that queue while a tier has no healthy replica are
    granted when the runtime heals it, not only at the next arrival or
    release — after the last arrival there is none."""
    sim = Simulator(seed=5)
    tool = ConstructionTool(sim)
    kernel = tool.build(ClusterSpec.build(partitions=2, computes=4),
                        timings=KernelTimings(heartbeat_interval=5.0))
    sim.run(until=6.0)
    workers = [n for n in kernel.cluster.compute_nodes() if n.startswith("p0")]
    rt = install_business_runtime(kernel, worker_nodes=workers, partition_id="p0")
    sim.run(until=sim.now + 2.0)
    rt.deploy(BizAppSpec(name="shop", tiers=(TierSpec("web", 1, cpus=1),)))
    sim.run(until=sim.now + 2.0)
    get = [RequestClass(name="get", service_times={"web": 0.01})]
    gen = TrafficGenerator(rt, "shop", get, profile=ArrivalProfile("poisson", rate=5000.0))
    replica = rt.apps["shop"].replicas[0]
    FaultInjector(kernel.cluster).crash_node(replica.node)
    deadline = sim.now + 60.0
    while replica.healthy and sim.now < deadline:  # until the runtime marks it down
        sim.step()
    assert not replica.healthy and gen.queues["web"].limit() == 0
    gen.start(max_requests=20)
    sim.run(until=sim.now + 120.0)
    assert replica.healthy
    assert gen.stats["get"].completed == 20
    assert gen.queues["web"].depth == 0 and gen.inflight == 0


# -- integration: generator, spans, backpressure, autoscaler ---------------

@pytest.fixture()
def serving(kernel, sim):
    workers = [n for n in kernel.cluster.compute_nodes() if n.startswith("p0")]
    rt = install_business_runtime(kernel, worker_nodes=workers, partition_id="p0")
    sim.run(until=sim.now + 2.0)
    rt.deploy(BizAppSpec(name="shop", tiers=(
        TierSpec("web", 2, cpus=1), TierSpec("db", 1, cpus=1))))
    sim.run(until=sim.now + 2.0)
    return rt


CLASSES = [
    RequestClass(name="browse", service_times={"web": 0.01, "db": 0.005},
                 weight=0.8, slo_p99=0.5),
    RequestClass(name="report", service_times={"web": 0.01, "db": 0.05},
                 weight=0.2, heavy_tail_sigma=0.8),
]


def test_traffic_generator_serves_and_observes(kernel, sim, serving):
    gen = TrafficGenerator(serving, "shop", CLASSES,
                           profile=ArrivalProfile("poisson", rate=50.0))
    gen.start(max_requests=300)
    while not gen.done or gen.inflight:
        sim.run(until=sim.now + 5.0)
    summary = gen.class_summary()
    assert gen.generated == 300
    assert sum(e["completed"] for e in summary.values()) > 250
    for name, entry in summary.items():
        assert entry["completed"] > 0
        assert entry["p99"] > entry["p50"] > 0.0
        hist = sim.trace.histogram(f"bizreq.latency.{name}")
        assert hist is not None and hist.count == entry["completed"]
    # Admission state surfaces through the daemon health row.
    row = serving.health_snapshot()
    assert set(row["serving_queues"]) == {"web", "db"}
    assert row["apps"]["shop"]["serving"]


def test_request_span_decomposes_route_queue_service(kernel, sim, serving):
    gen = TrafficGenerator(serving, "shop", CLASSES,
                           profile=ArrivalProfile("poisson", rate=50.0),
                           span_sample=1)
    gen.start(max_requests=20)
    while not gen.done or gen.inflight:
        sim.run(until=sim.now + 5.0)
    roots = [r for r in sim.trace.records("bizreq.request")
             if r["outcome"] == "ok"]
    assert roots
    root = roots[0]
    children = [r for r in sim.trace.records("bizreq.")
                if r.fields.get("parent_id") == root["span_id"]]
    by_cat = {}
    for rec in children:
        by_cat.setdefault(rec.category, []).append(rec)
    # One queue wait and one service stretch per tier walked.
    assert {r["tier"] for r in by_cat["bizreq.queue"]} == {"web", "db"}
    assert {r["tier"] for r in by_cat["bizreq.service"]} == {"web", "db"}
    for rec in by_cat["bizreq.service"]:
        assert rec["node"] is not None
    # The routing decisions are marked against the same span.
    routes = [r for r in sim.trace.records("bizrt.route")
              if r.fields.get("span_id") == root["span_id"]]
    assert {r["tier"] for r in routes} == {"web", "db"}


def test_overload_engages_backpressure_and_bounds_queue(kernel, sim, serving):
    inbox = subscribe_collector(kernel, sim, "p1c0", "bpwatch",
                                types=(BACKPRESSURE_ON,), partition="p0")
    slow = [RequestClass(name="slow", service_times={"web": 0.5, "db": 0.5})]
    gen = TrafficGenerator(serving, "shop", slow,
                           profile=ArrivalProfile("poisson", rate=100.0),
                           queue_cap=8, slots_per_replica=2)
    gen.start(max_requests=400)
    while not gen.done:
        sim.run(until=sim.now + 5.0)
    sim.run(until=sim.now + 10.0)
    # The queue saturated: backpressure engaged and was published via ES,
    # and the overflow was rejected rather than queued without bound.
    assert sim.trace.counter("bizrt.backpressure_transitions") >= 1
    assert any(e.data["app"] == "shop" for e in inbox)
    assert gen.stats["slow"].rejected > 0
    assert all(q.depth <= 8 for q in gen.queues.values())


def test_autoscaler_grows_tier_under_pressure():
    sim = Simulator(seed=5)
    tool = ConstructionTool(sim)
    kernel = tool.build(
        ClusterSpec.build(partitions=2, computes=4),
        timings=KernelTimings(heartbeat_interval=5.0,
                              health_report_interval=1.0),
    )
    sim.run(until=6.0)
    workers = [n for n in kernel.cluster.compute_nodes() if n.startswith("p0")]
    rt = install_business_runtime(kernel, worker_nodes=workers, partition_id="p0")
    sim.run(until=sim.now + 2.0)
    rt.deploy(BizAppSpec(name="shop", tiers=(TierSpec("web", 1, cpus=1),)))
    sim.run(until=sim.now + 2.0)

    slow = [RequestClass(name="slow", service_times={"web": 0.2})]
    gen = TrafficGenerator(rt, "shop", slow,
                           profile=ArrivalProfile("poisson", rate=40.0),
                           queue_cap=64, slots_per_replica=4)
    scaler = Autoscaler(
        rt, "shop", {"web": TierPolicy(min_replicas=1, max_replicas=4)},
        policy=AutoscalePolicy(interval=2.0, cooldown=4.0, queue_high=4),
    )
    scaler.start()
    gen.start(duration=40.0)
    sim.run(until=sim.now + 50.0)

    assert sim.trace.counter("bizrt.autoscale.up") >= 1
    assert len(rt.apps["shop"].tier_replicas("web")) > 1
    assert any(a["direction"] == "up" for a in scaler.actions)
    assert rt.capacity_audit()["drift"] == 0


# -- requests are calls: the event-driven walk equals the process model ----

_CLASS = st.builds(
    lambda i, web, app, db, sigma, weight: RequestClass(
        name=f"c{i}", service_times={"web": web, "app": app, "db": db},
        heavy_tail_sigma=sigma, weight=weight),
    i=st.integers(0, 9),
    web=st.floats(0.001, 0.05), app=st.floats(0.001, 0.05), db=st.floats(0.001, 0.05),
    sigma=st.sampled_from([0.0, 0.0, 0.4, 1.2]),
    weight=st.floats(0.1, 3.0),
)
#: (at, op, tier, replica): ``kill`` one replica for good; ``outage``: the
#: whole tier down for 0.3 s; ``flap``: the same, except that the heal and
#: a second outage share an instant, so a request granted on the heal
#: finds no replica to route to (healed for good 0.2 s later).
_CHURN = st.lists(st.tuples(
    st.floats(0.0, 1.5),
    st.sampled_from(["kill", "outage", "flap"]),
    st.integers(0, 2),
    st.integers(0, 2),
), max_size=4)
_SCENARIO = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "profile": st.builds(ArrivalProfile, kind=st.sampled_from(["poisson", "bursty", "diurnal"]),
                         rate=st.floats(50.0, 800.0), period=st.floats(0.2, 2.0)),
    "classes": st.lists(_CLASS, min_size=1, max_size=3, unique_by=lambda c: c.name),
    "tiers": st.integers(1, 3),
    "replicas": st.integers(1, 3),
    "queue_cap": st.integers(1, 6),
    "slots": st.integers(1, 3),
    "span_sample": st.sampled_from([0, 1, 3]),
    "stop": st.one_of(st.tuples(st.just("duration"), st.floats(0.05, 1.0)),
                      st.tuples(st.just("budget"), st.integers(0, 200))),
    "churn": _CHURN,
})
_TIERS = ("web", "app", "db")


def _serve_scenario(start, sc):
    """Serve ``sc`` through ``start(gen, duration, max_requests)`` (the
    production generator or the process model), observing every 0.1 s;
    return everything observable."""
    sim = Simulator(seed=sc["seed"])
    spec = BizAppSpec(name="shop", tiers=tuple(TierSpec(t, sc["replicas"])
                                               for t in _TIERS[:sc["tiers"]]))
    rt = _StubRuntime(sim, spec, [True] * sc["replicas"])
    gen = TrafficGenerator(rt, "shop", sc["classes"], profile=sc["profile"],
                           queue_cap=sc["queue_cap"], slots_per_replica=sc["slots"],
                           span_sample=sc["span_sample"])
    for at, op, tier, index in sc["churn"]:
        tier = _TIERS[tier % sc["tiers"]]
        if op == "kill":
            sim.schedule(at, rt.set_health, tier, index % sc["replicas"], False)
            continue
        flips = [(at, False), (at + 0.3, True)]
        if op == "flap":
            flips += [(at + 0.3, False), (at + 0.5, True)]
        for when, healthy in flips:
            for i in range(sc["replicas"]):
                sim.schedule(when, rt.set_health, tier, i, healthy)
    kind, amount = sc["stop"]
    start(gen, **({"duration": amount} if kind == "duration" else {"max_requests": amount}))
    slices = []
    for k in range(1, 31):
        sim.run(until=k * 0.1)
        slices.append((sim.events_executed, gen.generated, gen.inflight, gen.done,
                       gen.admission_snapshot()))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        sim.trace.export_jsonl(path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read()
    return {
        "slices": slices,
        "stats": {name: vars(s) for name, s in gen.stats.items()},
        "counters": sim.trace.counters(),
        "histograms": {n: h.to_payload() for n, h in sim.trace.histograms("").items()},
        "lines": lines,
        "published": rt.published,
        "cursors": {t: r.cursor for t, r in rt.apps["shop"].routes.items()},
    }


def _count_procs():
    """Patch ``Proc.__init__`` to log every process built; returns (log, patch)."""
    built = []
    real_init = Proc.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("name") or (args[2] if len(args) > 2 else ""))
        real_init(self, *args, **kwargs)

    return built, mock.patch.object(Proc, "__init__", counting_init)


@settings(max_examples=60, deadline=None)
@given(sc=_SCENARIO)
# A request lost on the killed replica frees the slot that drains the
# one-deep queue: its span closes before the backpressure-off mark.
@example(sc={
    "seed": 0, "profile": ArrivalProfile("poisson", rate=521.0),
    "classes": [RequestClass(name=f"c{i}", service_times={"web": web, "app": 0.03125,
                                                          "db": 0.03125})
                for i, web in enumerate((0.046875, 0.03125))],
    "tiers": 1, "replicas": 2, "queue_cap": 1, "slots": 1, "span_sample": 1,
    "stop": ("duration", 1.0), "churn": [(0.5, "kill", 0, 0)],
})
def test_property_request_calls_equal_the_process_model(sc):
    """The event-driven requests and arrival callback schedule the events,
    draw the service times and leave the counters, histograms, records,
    admission state and routing cursors the spawned generators do — across
    arrival profiles, queueing and rejection, heavy tails, a replica killed
    mid-service, a tier down and healed, and both ways of stopping — and
    build no process."""
    built, patch = _count_procs()
    with patch:
        got = _serve_scenario(lambda gen, **stop: gen.start(**stop), sc)
    assert built == []
    want = _serve_scenario(start_model, sc)
    assert got == want


def test_a_served_request_builds_no_process():
    """Neither a request nor an arrival is a process: serving 2 000
    requests through a queueing, rejecting, churning tier builds none."""
    sim = Simulator(seed=1)
    spec = BizAppSpec(name="shop", tiers=(TierSpec("web", 2), TierSpec("db", 2)))
    rt = _StubRuntime(sim, spec, [True, True])
    gen = TrafficGenerator(rt, "shop", CLASSES, profile=ArrivalProfile("bursty", rate=400.0),
                           queue_cap=4, slots_per_replica=1, span_sample=3)
    sim.schedule(1.0, rt.set_health, "db", 0, False)
    sim.schedule(2.0, rt.set_health, "db", 0, True)
    built, patch = _count_procs()
    with patch:
        gen.start(max_requests=2000)
        sim.run(until=60.0)
    assert built == []
    assert gen.generated == 2000 and gen.done and gen.inflight == 0
    summary = gen.class_summary()
    assert sum(c["rejected"] for c in summary.values()) > 0
    assert sum(c["completed"] for c in summary.values()) > 0


def test_a_second_start_is_refused():
    """Starting a generator twice would run two arrival loops sharing one
    ``generated`` counter and ``done`` flag: double the offered load."""
    sim = Simulator(seed=0)
    rt = _web_shop(sim, [True])
    gen = TrafficGenerator(rt, "shop", [RequestClass(name="get", service_times={"web": 0.001})],
                           profile=ArrivalProfile("poisson", rate=100.0))
    with pytest.raises(UserEnvError, match="need a duration"):
        gen.start()
    gen.start(duration=1.0)
    with pytest.raises(UserEnvError, match="already started"):
        gen.start(duration=1.0)
    sim.run(until=3.0)
    assert gen.done and 60 < gen.generated < 140


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_service_times_and_rates_are_refused(bad):
    """A NaN or infinite mean would put a NaN or infinite sleep on the
    event heap (or, as a rate, a zero gap forever): refused on entry."""
    with pytest.raises(UserEnvError, match="finite"):
        RequestClass(name="get", service_times={"web": bad}, heavy_tail_sigma=0.5)
    for field_name in ("rate", "period"):
        with pytest.raises(UserEnvError, match="finite"):
            ArrivalProfile("diurnal", **{field_name: bad})
    with pytest.raises(UserEnvError):
        ArrivalProfile("bursty", burst_factor=bad)
