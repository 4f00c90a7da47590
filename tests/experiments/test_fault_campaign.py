"""Fault campaign harness tests."""

import pytest

from repro.experiments.fault_campaign import (
    CLASSES,
    CampaignResult,
    render_campaign,
    run_campaign_class,
)


@pytest.fixture(scope="module")
def wd_process_campaign():
    return run_campaign_class("wd", "process", injections=5, seed=1)


def test_full_coverage(wd_process_campaign):
    r = wd_process_campaign
    assert r.injected == 5
    assert r.coverage == 1.0
    assert len(r.detect) == len(r.diagnose) == len(r.recover) == 5


def test_random_phase_detection_distribution(wd_process_campaign):
    """Random-phase injections: detection spreads over (grace, interval+grace),
    unlike the beat-aligned single-shot tables."""
    detects = wd_process_campaign.detect
    assert all(0.0 < d <= 10.2 for d in detects)
    assert max(detects) - min(detects) > 1.0  # genuinely spread


def test_diagnosis_and_recovery_independent_of_phase(wd_process_campaign):
    r = wd_process_campaign
    assert all(abs(d - 0.29) < 0.02 for d in r.diagnose)
    assert all(abs(v - 0.10) < 0.05 for v in r.recover)


def test_node_class_repairs_between_injections():
    r = run_campaign_class("wd", "node", injections=3, seed=2)
    assert r.coverage == 1.0
    assert all(abs(d - 2.03) < 0.1 for d in r.diagnose)


def test_gsd_class():
    r = run_campaign_class("gsd", "process", injections=3, seed=3)
    assert r.coverage == 1.0
    assert all(abs(v - 2.0) < 0.2 for v in r.recover)


def test_render_handles_empty_class():
    text = render_campaign({("wd", "process"): CampaignResult(injected=2, recovered=0)})
    assert "0%" in text
    assert "wd/process" in text


def test_classes_table_sane():
    assert ("wd", "node") in CLASSES
    assert all(len(c) == 2 for c in CLASSES)


def test_campaign_injections_are_spanned(wd_process_campaign):
    """Every injected fault runs inside one closed ``campaign.fault`` span."""
    # The fixture result object has no trace handle; re-run a tiny class.
    import repro.experiments.fault_campaign as fc
    from repro.cluster import Cluster, ClusterSpec, FaultInjector
    from repro.kernel import KernelTimings, PhoenixKernel
    from repro.sim import Simulator

    sim = Simulator(seed=4, trace_capacity=None)
    cluster = Cluster(sim, ClusterSpec.build(partitions=4, computes=6))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=10.0))
    kernel.boot()
    injector = FaultInjector(cluster)
    rng = sim.rngs.stream("campaign.wd.process")
    sim.run(until=20.0)
    span = sim.trace.span("campaign.fault", component="wd", situation="process", case="c0")
    injector.current_span = span
    target = fc._pick_target(cluster, kernel, "wd", rng)
    injector.kill_process(target, "wd", case="c0")
    span.end(recovered=True)
    injector.current_span = None
    [mark] = sim.trace.records("fault.injected")
    assert mark.get("span_id") == span.span_id
    [closed] = [r for r in sim.trace.records("campaign.fault")
                if r.get("duration") is not None]
    assert closed.get("case") == "c0" and closed.get("recovered") is True


def test_campaign_spans_one_per_injection(wd_process_campaign):
    assert wd_process_campaign.fault_spans == wd_process_campaign.injected


# -- partition campaign (quorum-gated regroup) --------------------------------


@pytest.fixture(scope="module")
def even_split_campaign():
    from repro.experiments.fault_campaign import run_partition_class

    return run_partition_class("even-split", injections=1, seed=0)


def test_partition_classes_table_sane():
    from repro.experiments.fault_campaign import PARTITION_CLASSES

    assert "even-split" in PARTITION_CLASSES
    assert "fabric-gray" in PARTITION_CLASSES and "fabric-latency" in PARTITION_CLASSES
    assert len(PARTITION_CLASSES) == len(set(PARTITION_CLASSES))


def test_even_split_invariants(even_split_campaign):
    r = even_split_campaign
    assert r.injected == 1 and r.coverage == 1.0
    assert r.dual_leader_intervals == 0
    assert r.minority_placement_writes == 0
    assert r.minority_ckpt_writes == 0
    assert r.parks == 2 and r.unparks == 2  # both minority partitions
    assert r.takeovers == 0  # tie-break keeps the p0-side leader
    assert len(r.detect) == r.injected  # first park latency per injection
    assert all(0.0 < d <= 60.0 for d in r.detect)  # bounded time-to-park


def test_even_split_regroups_correlate_with_fault_spans(even_split_campaign):
    """Every regroup census runs span-correlated under ``campaign.fault``."""
    assert even_split_campaign.correlated_regroups > 0


def test_partition_render_and_check(even_split_campaign):
    from repro.experiments.fault_campaign import (
        check_partition_campaign,
        render_partition_campaign,
    )

    results = {"even-split": even_split_campaign}
    text = render_partition_campaign(results)
    assert "even-split" in text and "dual-leader" in text
    assert check_partition_campaign(results) == []
    # A doctored dual-leader interval trips the gate.
    import dataclasses

    bad = dataclasses.replace(even_split_campaign, dual_leader_intervals=1)
    problems = check_partition_campaign({"even-split": bad})
    assert any("dual-leader" in p for p in problems)


def test_minority_write_counters_fire_on_a_synthetic_trace():
    """The partition campaign's two minority-write counters read commit
    marks by split side and time window; a healthy run leaves both at 0,
    so show on a hand-made trace that each can count."""
    from repro.experiments.fault_campaign import (
        _gsd_state_commits,
        _placement_commits,
        _writes_by,
    )
    from repro.sim.trace import Trace

    clock = [0.0]
    trace = Trace(clock=lambda: clock[0])
    marks = [
        (5.0, "placement.committed", dict(service="metagroup", scope="leader", node="p3s0")),
        (12.0, "placement.committed", dict(service="metagroup", scope="leader", node="p3s0")),
        (12.0, "placement.committed", dict(service="metagroup", scope="leader", node="p0s0")),
        (12.0, "placement.committed", dict(service="es", scope="p3", node="p3s0")),
        (13.0, "ckpt.committed", dict(key="gsd.state.p3", node="p3s0", version=7)),
        (13.0, "ckpt.committed", dict(key="es.registry.p3", node="p3s0", version=2)),
        (13.0, "ckpt.committed", dict(key="gsd.state.p0", node="p0s0", version=9)),
        (25.0, "ckpt.committed", dict(key="gsd.state.p3", node="p3s0", version=8)),
    ]
    for t, category, fields in marks:
        clock[0] = t
        trace.mark(category, **fields)
    minority = {"p3s0", "p3c0"}
    # One minority leadership placement and one minority gsd.state commit
    # inside [10, 20]; other sides, services, keys and times do not count.
    assert _writes_by(_placement_commits(trace), minority, 10.0, 20.0) == 1
    assert _writes_by(_gsd_state_commits(trace), minority, 10.0, 20.0) == 1
    assert _writes_by(_gsd_state_commits(trace), minority, 0.0, 30.0) == 2
    assert _writes_by(_placement_commits(trace), {"p1s0"}, 0.0, 30.0) == 0
