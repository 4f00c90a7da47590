"""Unit tests for fault injection and the synthetic resource model."""

import math

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec, FaultInjector, LoadProfile, ResourceModel
from repro.cluster.metrics import _clamp
from repro.cluster.node import NodeMetrics
from repro.errors import ClusterError
from repro.sim import Simulator


@pytest.fixture()
def injector(cluster):
    return FaultInjector(cluster)


def test_kill_process_marks_trace(cluster, sim, injector):
    cluster.hostos("p0c0").start_process("wd")
    fault = injector.kill_process("p0c0", "wd", case="t1")
    assert fault.kind == "process"
    assert not cluster.hostos("p0c0").process_alive("wd")
    rec = sim.trace.first("fault.injected", case="t1")
    assert rec is not None and rec["kind"] == "process" and rec["node"] == "p0c0"


def test_kill_process_requires_running_process(cluster, injector):
    with pytest.raises(ClusterError):
        injector.kill_process("p0c0", "wd")


def test_crash_node(cluster, sim, injector):
    injector.crash_node("p0c0", case="t2")
    assert not cluster.node("p0c0").up
    with pytest.raises(ClusterError):
        injector.crash_node("p0c0")
    injector.boot_node("p0c0")
    assert cluster.node("p0c0").up


def test_fail_and_restore_nic(cluster, injector):
    injector.fail_nic("p0c0", "mgmt", case="t3")
    assert not cluster.networks["mgmt"].link_up("p0c0")
    with pytest.raises(ClusterError):
        injector.fail_nic("p0c0", "mgmt")
    injector.restore_nic("p0c0", "mgmt")
    assert cluster.networks["mgmt"].link_up("p0c0")


def test_fail_nic_unknown_network(injector):
    with pytest.raises(ClusterError):
        injector.fail_nic("p0c0", "nope")


def test_fabric_and_split_and_heal(cluster, injector):
    injector.fail_fabric("ipc")
    assert not cluster.networks["ipc"].fabric_up
    injector.restore_fabric("ipc")
    assert cluster.networks["ipc"].fabric_up
    injector.split_network("mgmt", [{"p0c0"}, {"p0c1"}])
    assert not cluster.networks["mgmt"].path_open("p0c0", "p0c1")
    injector.heal_network("mgmt")
    assert cluster.networks["mgmt"].path_open("p0c0", "p0c1")


def test_scheduled_fault_fires_at_delay(cluster, sim, injector):
    cluster.hostos("p0c0").start_process("wd")
    injector.at(10.0, "kill_process", "p0c0", "wd", case="later")
    sim.run(until=9.9)
    assert cluster.hostos("p0c0").process_alive("wd")
    sim.run(until=10.1)
    assert not cluster.hostos("p0c0").process_alive("wd")
    rec = sim.trace.first("fault.injected", case="later")
    assert rec.time == 10.0


def test_injected_list_accumulates(cluster, injector):
    cluster.hostos("p0c0").start_process("wd")
    injector.kill_process("p0c0", "wd")
    injector.crash_node("p0c1")
    assert [f.kind for f in injector.injected] == ["process", "node"]


# -- correlated fabric-wide degradation ------------------------------------


def test_degrade_fabric_applies_one_profile_to_whole_fabric(cluster, sim, injector):
    fault = injector.degrade_fabric("ipc", loss=0.2, latency_mult=2.0, case="gray")
    assert fault.kind == "degrade_fabric"
    profile = cluster.networks["ipc"].fabric_degradation()
    assert profile is not None
    assert profile.loss == 0.2 and profile.latency_mult == 2.0
    # Other fabrics untouched; per-link profiles unaffected.
    assert cluster.networks["mgmt"].fabric_degradation() is None
    rec = sim.trace.first("fault.injected", case="gray")
    assert rec["kind"] == "degrade_fabric" and rec["target"] == "ipc"
    assert rec["loss"] == 0.2 and rec["latency_mult"] == 2.0


def test_restore_fabric_quality_pairs_repair_mark(cluster, sim, injector):
    injector.degrade_fabric("data", loss=0.1, case="gray2")
    injector.restore_fabric_quality("data", case="gray2")
    assert cluster.networks["data"].fabric_degradation() is None
    injected = sim.trace.first("fault.injected", case="gray2")
    repaired = sim.trace.first("fault.repaired", case="gray2")
    assert injected is not None and repaired is not None
    assert repaired["kind"] == "degrade_fabric"
    assert repaired.time >= injected.time


def test_degrade_fabric_drops_are_counted(cluster, sim, injector):
    net = cluster.networks["ipc"]
    injector.degrade_fabric("ipc", loss=1.0)
    t = cluster.transport
    t.bind("p0c1", "ping", lambda msg: None)
    # loss=1.0 drops at send time; the sender sees it as a silent loss.
    assert not t.send("p0c0", "p0c1", "ping", "hello", {}, network="ipc")
    sim.run(until=sim.now + 1.0)
    assert net.dropped > 0
    assert sim.trace.counter("net.ipc.degraded_drops") > 0


def test_latency_only_profile_delays_but_never_drops(cluster, sim, injector):
    """``loss=0, latency_mult>1`` is pure congestion: zero drops, and
    delivery takes measurably longer than on a clean fabric."""
    t = cluster.transport
    arrivals = []
    t.bind("p0c1", "ping", lambda msg: arrivals.append(sim.now))
    t0 = sim.now
    t.send("p0c0", "p0c1", "ping", "hello", {}, network="ipc")
    sim.run(until=sim.now + 5.0)
    clean_rtt = arrivals[0] - t0
    injector.degrade_fabric("ipc", loss=0.0, latency_mult=8.0)
    t1 = sim.now
    t.send("p0c0", "p0c1", "ping", "hello", {}, network="ipc")
    sim.run(until=sim.now + 5.0)
    assert len(arrivals) == 2
    assert sim.trace.counter("net.ipc.degraded_drops") == 0
    assert arrivals[1] - t1 > clean_rtt  # inflated latency, no loss


def test_degrade_fabric_unknown_network(injector):
    with pytest.raises(ClusterError):
        injector.degrade_fabric("nope", loss=0.5)
    with pytest.raises(ClusterError):
        injector.restore_fabric_quality("nope")


# -- resource model --------------------------------------------------------


def test_idle_metrics_match_common_load_profile(cluster, sim):
    model = cluster.resources
    node = cluster.node("p0c0")
    samples = [model.sample(node) for _ in range(300)]
    cpu = sum(s.cpu_pct for s in samples) / len(samples)
    mem = sum(s.mem_pct for s in samples) / len(samples)
    swap = sum(s.swap_pct for s in samples) / len(samples)
    # Figure 6 'common load': ~5.5% CPU, ~18.6% mem, ~0.72% swap.
    assert 3.0 < cpu < 8.0
    assert 16.0 < mem < 21.0
    assert 0.0 <= swap < 2.0


def test_busy_node_raises_cpu_and_mem(cluster):
    model = cluster.resources
    node = cluster.node("p0c0")
    idle = [model.sample(node).cpu_pct for _ in range(50)]
    node.allocate_cpus(4)
    busy = [model.sample(node).cpu_pct for _ in range(50)]
    assert sum(busy) / 50 > sum(idle) / 50 + 50


def test_metrics_bounded(cluster):
    model = ResourceModel(cluster.sim, profile=LoadProfile.heavy_load(), smoothing=0.0)
    node = cluster.node("p0c0")
    node.allocate_cpus(4)
    for _ in range(200):
        m = model.sample(node)
        assert 0.0 <= m.cpu_pct <= 100.0
        assert 0.0 <= m.mem_pct <= 100.0
        assert 0.0 <= m.swap_pct <= 100.0
        assert m.disk_io_mbps >= 0.0
        assert m.net_io_mbps >= 0.0


def test_metrics_deterministic_across_runs(small_spec):
    from repro.cluster import Cluster
    from repro.sim import Simulator

    def sample_series():
        sim = Simulator(seed=7)
        cluster = Cluster(sim, small_spec)
        node = cluster.node("p0c0")
        return [cluster.resources.sample(node).cpu_pct for _ in range(20)]

    assert sample_series() == sample_series()


def _vector_draw_sampler(profile, smoothing, rng):
    """The reference: ``ResourceModel.sample`` as one five-wide
    ``normal(0, scales)`` draw per sample, AR(1) state kept as arrays."""
    state = {}

    def clamp(x, lo=0.0, hi=100.0):
        return max(lo, min(hi, x))

    def sample(node):
        p = profile
        prev = state.get(node.node_id)
        noise_scales = np.array([p.cpu_noise, p.mem_noise, p.swap_noise, p.io_noise, p.io_noise])
        shock = rng.normal(0.0, noise_scales)
        if prev is None:
            now = shock
        else:
            now = smoothing * prev + (1.0 - smoothing) * shock
        state[node.node_id] = now
        busy_frac = node.busy_cpus / node.spec.cpus if node.spec.cpus else 0.0
        return NodeMetrics(
            cpu_pct=clamp(p.cpu_base + busy_frac * 92.0 + now[0]),
            mem_pct=clamp(p.mem_base + busy_frac * 45.0 + now[1]),
            swap_pct=clamp(p.swap_base + max(0.0, busy_frac - 0.8) * 20.0 + now[2], 0.0, 100.0),
            disk_io_mbps=max(0.0, p.disk_io_base + busy_frac * 15.0 + now[3]),
            net_io_mbps=max(0.0, p.net_io_base + busy_frac * 30.0 + now[4]),
        )

    return sample


#: Bases on the bounds, so both clamps and both floors fire.
_EDGE_LOAD = LoadProfile(cpu_base=8.0, mem_base=0.0, swap_base=0.0, disk_io_base=0.0,
                         net_io_base=0.0)


@pytest.mark.parametrize("smoothing", [0.0, 0.5, 0.8])
@pytest.mark.parametrize("profile", [LoadProfile.common_load(), LoadProfile.heavy_load(),
                                     _EDGE_LOAD], ids=["common", "heavy", "edge"])
def test_block_sampler_equals_the_vector_draw_value_and_type(profile, smoothing):
    """Every value, as a Python ``float`` (the wire size model gives every
    float one width, but a payload should not carry NumPy scalars), across
    many nodes, several noise blocks and busy levels up to every CPU."""
    cluster = Cluster(Simulator(seed=9), ClusterSpec.build(partitions=4, computes=14))
    model = ResourceModel(cluster.sim, profile=profile, smoothing=smoothing)
    reference = _vector_draw_sampler(profile, smoothing, Simulator(seed=9).rngs.stream("metrics"))
    nodes = [cluster.node(n) for n in sorted(cluster.nodes)]
    on_bound = set()
    for rnd in range(24):
        for k, node in enumerate(nodes):
            node.busy_cpus = (k + rnd) % (node.spec.cpus + 1)
            got, want = model.sample(node).as_dict(), reference(node).as_dict()
            for field, value in want.items():
                assert type(got[field]) is float and got[field] == value, (rnd, k, field)
                on_bound.add((field, value in (0.0, 100.0)))
    if profile is _EDGE_LOAD:
        assert all((field, True) in on_bound for field in want)
        assert any(not clamped for _, clamped in on_bound)


@pytest.mark.parametrize("lo, hi", [(0.0, 100.0), (0.0, math.inf)])
def test_clamp_matches_min_max_on_the_bounds(lo, hi):
    """Random draws never land exactly on a bound; the edges are checked
    here against the reference ``max(lo, min(hi, x))``, value and type."""
    for x in (lo, -0.0, math.nextafter(lo, -1.0), math.nextafter(lo, 1.0), 50.0, 100.0,
              math.nextafter(100.0, 0.0), math.nextafter(100.0, 200.0), 1e300):
        want = max(lo, min(hi, x))
        got = _clamp(x, lo, hi)
        assert type(got) is float and got == want, x


def test_invalid_smoothing_rejected(sim):
    with pytest.raises(ValueError):
        ResourceModel(sim, smoothing=1.0)


def test_metrics_as_dict(cluster):
    m = cluster.resources.sample(cluster.node("p0c0"))
    d = m.as_dict()
    assert set(d) == {"cpu_pct", "mem_pct", "swap_pct", "disk_io_mbps", "net_io_mbps"}
