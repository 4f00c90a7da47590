"""Serving-tier campaign — the §business-hosting evaluation under real load.

The paper promises 7x24 availability and load balancing for hosted
business applications but never reports a serving benchmark.  This
campaign drives a three-tier application (web → app → db) with an
open-loop traffic generator — ~1M simulated requests by default, three
request classes with distinct service-time distributions and p99 SLOs —
through admission control and an SLO autoscaler, and injects a worker
node kill-and-recover cycle mid-run.

Acceptance gates (``--check``):

* the full request budget was generated and ≥ 97% completed,
* every request class's p99 stays within its SLO *through the outage*,
* zero lost-capacity drift: after the kill/heal/recover churn,
  ``capacity == free + placed`` reconciles exactly on every up worker
  (:meth:`BusinessRuntime.capacity_audit`),
* the SLA event pair (violated/restored) is never left dangling,
* no request is still queued or in service once the drain ends.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Any

from repro.cluster import Cluster, ClusterSpec, FaultInjector, NodeRole
from repro.experiments.report import format_table
from repro.kernel import KernelTimings, PhoenixKernel
from repro.sim import Simulator
from repro.units import fmt_time
from repro.userenv.business import (
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

#: The campaign's request mix: a cheap majority class, a mid-weight
#: transactional class, and a rare heavy-tailed reporting class.
REQUEST_CLASSES = (
    RequestClass(
        name="browse", weight=0.70, slo_p99=0.50,
        service_times={"web": 0.020, "app": 0.012, "db": 0.008},
    ),
    RequestClass(
        name="checkout", weight=0.25, slo_p99=1.00, heavy_tail_sigma=0.6,
        service_times={"web": 0.025, "app": 0.030, "db": 0.020},
    ),
    RequestClass(
        name="report", weight=0.05, slo_p99=5.0, heavy_tail_sigma=1.2,
        service_times={"web": 0.030, "app": 0.080, "db": 0.120},
    ),
)

APP = "shop"
TIERS = (TierSpec("web", 6, cpus=1), TierSpec("app", 4, cpus=1), TierSpec("db", 3, cpus=2))

SCALE_BOUNDS = {
    "web": TierPolicy(min_replicas=4, max_replicas=10, step=2),
    "app": TierPolicy(min_replicas=3, max_replicas=8, step=1),
    "db": TierPolicy(min_replicas=2, max_replicas=6, step=1),
}


def build_profile(kind: str, rate: float) -> ArrivalProfile:
    """An arrival profile whose *long-run mean* equals ``rate``."""
    if kind == "poisson":
        return ArrivalProfile("poisson", rate=rate)
    if kind == "bursty":
        burst_factor, duty = 3.0, 0.2
        base = rate / (1.0 + duty * (burst_factor - 1.0))
        return ArrivalProfile("bursty", rate=base, period=40.0,
                              burst_factor=burst_factor, duty=duty)
    if kind == "diurnal":
        return ArrivalProfile("diurnal", rate=rate, period=120.0, amplitude=0.5)
    raise ValueError(f"unknown profile {kind!r}")


@dataclass
class ServeResult:
    requests: int = 0
    generated: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    duration_s: float = 0.0
    classes: dict[str, dict[str, Any]] = field(default_factory=dict)
    drift: int = -1
    audit: dict[str, Any] = field(default_factory=dict)
    autoscale_up: int = 0
    autoscale_down: int = 0
    backpressure_marks: int = 0
    sla_violations: int = 0
    sla_restores: int = 0
    killed_node: str | None = None
    events_executed: int = 0
    #: Requests still queued or in service after the drain.
    unfinished: int = 0


def run_serve_campaign(
    requests: int = 1_000_000,
    seed: int = 0,
    rate: float = 2000.0,
    profile: str = "diurnal",
    kill: bool = True,
    span_sample: int = 0,
    trace_capacity: int | None = 0,
) -> ServeResult:
    """Run the serving campaign; deterministic per (requests, seed, rate,
    profile, kill)."""
    sim = Simulator(seed=seed, trace_capacity=trace_capacity)
    cluster = Cluster(sim, ClusterSpec.build(partitions=2, computes=6))
    timings = KernelTimings(heartbeat_interval=5.0, health_report_interval=2.5)
    kernel = PhoenixKernel(cluster, timings=timings)
    kernel.boot()
    injector = FaultInjector(cluster)
    sim.run(until=6.0)

    # Pure compute nodes only: backups stay free for kernel failover, and
    # the mid-run kill then never doubles as a server-node failure test.
    workers = [n for n in cluster.compute_nodes()
               if cluster.node(n).role is NodeRole.COMPUTE]
    runtime = install_business_runtime(kernel, worker_nodes=workers, partition_id="p0")
    sim.run(until=sim.now + 2.0)
    runtime.deploy(BizAppSpec(name=APP, tiers=TIERS))
    sim.run(until=sim.now + 3.0)

    arrival = build_profile(profile, rate)
    generator = TrafficGenerator(
        runtime, APP, list(REQUEST_CLASSES), profile=arrival,
        queue_cap=256, slots_per_replica=16, span_sample=span_sample,
    )
    scaler = Autoscaler(
        runtime, APP, SCALE_BOUNDS,
        policy=AutoscalePolicy(interval=5.0, cooldown=20.0, queue_high=16),
        class_slos={c.name: c.slo_p99 for c in REQUEST_CLASSES if c.slo_p99},
    )
    scaler.start()

    start = sim.now
    duration = requests / arrival.mean_rate()
    generator.start(max_requests=requests)
    kill_at = start + 0.4 * duration
    recover_at = start + 0.6 * duration
    victim: str | None = None

    if kill:
        sim.run(until=kill_at)
        state = runtime.apps[APP]
        victim = state.routes["web"][0].node
        injector.crash_node(victim)
        sim.run(until=recover_at)
        injector.boot_node(victim)
        for svc in ("ppm", "detector", "wd"):
            if not cluster.hostos(victim).process_alive(svc):
                kernel.start_service(svc, victim)

    # Run the arrival process dry, then drain in-flight requests.
    step = max(duration / 20.0, 1.0)
    while not generator.done:
        sim.run(until=sim.now + step)
    drain_deadline = sim.now + 120.0
    while generator.inflight and sim.now < drain_deadline:
        sim.run(until=sim.now + 1.0)

    result = ServeResult(
        requests=requests,
        generated=generator.generated,
        duration_s=sim.now - start,
        classes=generator.class_summary(),
        killed_node=victim,
        events_executed=sim.events_executed,
        unfinished=generator.inflight,
    )
    for entry in result.classes.values():
        result.completed += entry["completed"]
        result.rejected += entry["rejected"]
        result.failed += entry["failed"]
    result.audit = runtime.capacity_audit()
    result.drift = result.audit["drift"]
    result.autoscale_up = int(sim.trace.counter("bizrt.autoscale.up"))
    result.autoscale_down = int(sim.trace.counter("bizrt.autoscale.down"))
    result.backpressure_marks = int(
        sim.trace.counter("bizrt.backpressure_transitions"))
    result.sla_violations = int(sim.trace.counter("bizrt.sla.down"))
    result.sla_restores = int(sim.trace.counter("bizrt.sla.up"))
    return result


def render_serve(result: ServeResult) -> str:
    """Per-class outcome/latency table plus the campaign summary line."""
    rows = []
    for name, entry in sorted(result.classes.items()):
        slo = entry.get("slo_p99")
        p99 = entry.get("p99")
        verdict = "-"
        if slo is not None and p99 is not None:
            verdict = "OK" if entry.get("slo_ok") else "BREACH"
        rows.append([
            name,
            entry["generated"],
            entry["completed"],
            entry["rejected"],
            entry["failed"],
            fmt_time(entry["p50"]) if "p50" in entry else "-",
            fmt_time(p99) if p99 is not None else "-",
            fmt_time(slo) if slo is not None else "-",
            verdict,
        ])
    table = format_table(
        ["class", "generated", "completed", "rejected", "failed",
         "p50", "p99", "SLO p99", "verdict"],
        rows,
        title=(
            f"Serving campaign — {result.generated} requests over "
            f"{fmt_time(result.duration_s)} virtual"
        ),
    )
    summary = (
        f"capacity drift: {result.drift}  autoscale: +{result.autoscale_up}"
        f"/-{result.autoscale_down}  sla: {result.sla_violations} down"
        f"/{result.sla_restores} up  killed: {result.killed_node or '-'}"
    )
    return f"{table}\n{summary}"


def check_serve(result: ServeResult) -> list[str]:
    """CI acceptance gates; returns violations (empty = pass)."""
    problems = []
    if result.generated < result.requests:
        problems.append(
            f"generated {result.generated} < requested {result.requests}")
    if result.generated and result.completed / result.generated < 0.97:
        problems.append(
            f"completed {result.completed}/{result.generated} < 97%")
    if result.unfinished:
        problems.append(
            f"{result.unfinished} requests still queued or in service after the drain")
    for name, entry in sorted(result.classes.items()):
        if not entry["completed"]:
            problems.append(f"class {name}: no completions")
            continue
        slo = entry.get("slo_p99")
        if slo is not None and entry.get("p99", 0.0) > slo:
            problems.append(
                f"class {name}: p99 {entry['p99']:.3f}s exceeds SLO {slo:.3f}s")
    if result.drift != 0:
        problems.append(f"lost-capacity drift {result.drift} != 0")
    if result.sla_violations != result.sla_restores:
        problems.append(
            f"dangling SLA transitions: {result.sla_violations} down vs "
            f"{result.sla_restores} up")
    return problems


def main(argv: list[str] | None = None) -> None:
    """``python -m repro serve`` — run the campaign, print the report."""
    parser = argparse.ArgumentParser(
        description="Serving-tier campaign: open-loop load, admission "
                    "control, SLO autoscaling, mid-run node kill")
    parser.add_argument("--requests", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rate", type=float, default=2000.0)
    parser.add_argument("--profile", choices=("poisson", "bursty", "diurnal"),
                        default="diurnal")
    parser.add_argument("--no-kill", action="store_true",
                        help="skip the mid-run node kill/recover cycle")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero on any acceptance-gate violation")
    args = parser.parse_args(argv)
    result = run_serve_campaign(
        requests=args.requests, seed=args.seed, rate=args.rate,
        profile=args.profile, kill=not args.no_kill,
    )
    print(render_serve(result))
    if args.check:
        problems = check_serve(result)
        for problem in problems:
            print(f"FAIL: {problem}")
        if problems:
            raise SystemExit(1)
        print("serve campaign gates: OK")


if __name__ == "__main__":
    main()
