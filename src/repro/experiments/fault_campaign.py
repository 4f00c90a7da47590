"""Statistical fault campaign — Tables 1–3 generalized to distributions.

The paper reports one number per (component, situation) cell.  A
production-credible evaluation wants distributions: this harness injects
many faults of each class at *random phases* against random targets on
the paper testbed and aggregates detection / diagnosis / recovery
latencies (mean, p95, max) plus the campaign's coverage — every injected
fault must be detected and recovered.

The **gray campaign** (``--gray``) extends the matrix beyond fail-stop
faults to the conditions real clusters lose leaders to:

* ``gray/link-loss``  — 20 % one-way loss on a compute node's links;
  the suspicion-based detector must ride it out (zero spurious
  failovers, zero takeovers);
* ``gray/link-flap``  — a seeded down/up flap schedule on one data
  link; every down edge must be detected as a NIC failure and every up
  edge must be seen restored, still with no full-node failovers;
* ``gray/asym-split`` — the leader's outbound links go fully lossy
  while inbound stays up (one-way partition).  Exactly one epoch-bumped
  takeover must happen, and after the heal the stale leader must fence
  and stand down — the campaign samples leadership continuously and the
  count of *same-epoch* dual-leader intervals must be zero.

The **partition campaign** (``--partition``) is the split-brain torture
matrix for the quorum-gated regroup protocol (DESIGN.md §15).  Every
class splits (or degrades) the cluster along partition boundaries,
samples leadership *and write acceptance* continuously, and enforces the
two protocol invariants on every seeded schedule:

1. zero same-epoch dual-leader intervals, and
2. zero minority-accepted leadership placement writes, plus zero
   minority-accepted ``gsd.state`` checkpoint commits once the bounded
   regroup window has elapsed.

Classes: ``clean-split`` (the leader's partition isolated 1-vs-3 — the
majority takes over, the old leader parks), ``even-split`` (2-vs-2 — the
MCS tie-breaker keeps exactly the low-partition side alive),
``asym-inbound`` (a deaf leader: inbound loss only — it must park with
no takeover), ``fabric-gray`` (correlated fabric-wide loss on every
fabric at once), ``fabric-latency`` (fabric-wide latency inflation with
zero loss — nothing may be evicted), and ``flap-split`` (the partition
flaps faster than diagnosis completes — suspicion must ride it out).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.experiments.report import format_table
from repro.kernel import KernelTimings, PhoenixKernel
from repro.sim import Simulator
from repro.units import fmt_time
from repro.util import summarize

#: Fault classes exercised by the campaign (component, situation).
CLASSES = (
    ("wd", "process"),
    ("wd", "node"),
    ("wd", "network"),
    ("gsd", "process"),
    ("es", "process"),
)


@dataclass
class CampaignResult:
    injected: int = 0
    recovered: int = 0
    detect: list[float] = field(default_factory=list)
    diagnose: list[float] = field(default_factory=list)
    recover: list[float] = field(default_factory=list)
    #: Closed ``gsd.failover`` root spans seen by the campaign — each one
    #: is a full causal tree (detect → diagnose → recover) in the trace.
    failover_spans: int = 0
    #: Closed ``campaign.fault`` scenario spans — one per injection, with
    #: the injector's fault.injected/fault.repaired marks correlated to it.
    fault_spans: int = 0

    @property
    def coverage(self) -> float:
        return self.recovered / self.injected if self.injected else 0.0


def run_campaign_class(
    component: str,
    situation: str,
    injections: int = 8,
    seed: int = 0,
    heartbeat_interval: float = 10.0,
    spec: ClusterSpec | None = None,
) -> CampaignResult:
    """Inject ``injections`` faults of one class, sequentially, at random
    phases and random eligible targets; measure each recovery."""
    sim = Simulator(seed=seed, trace_capacity=None)
    cluster = Cluster(sim, spec or ClusterSpec.build(partitions=4, computes=6))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=heartbeat_interval))
    kernel.boot()
    injector = FaultInjector(cluster)
    rng = sim.rngs.stream(f"campaign.{component}.{situation}")
    result = CampaignResult()
    sim.run(until=2.0 * heartbeat_interval)

    for i in range(injections):
        # Random phase within a beat period.
        sim.run(until=sim.now + float(rng.uniform(0.2, 1.2)) * heartbeat_interval)
        target = _pick_target(cluster, kernel, component, rng)
        if target is None:
            continue
        t0 = sim.now
        detect_component = component
        # Each injection is one causal scenario: the span parents the
        # injector's fault.injected/fault.repaired marks via current_span.
        span = sim.trace.span(
            "campaign.fault", component=component, situation=situation,
            case=f"c{i}", target=target,
        )
        injector.current_span = span
        if situation == "process":
            injector.kill_process(target, component, case=f"c{i}")
        elif situation == "node":
            injector.crash_node(target, case=f"c{i}")
        else:
            injector.fail_nic(target, "data", case=f"c{i}")
        result.injected += 1

        deadline = t0 + 6.0 * heartbeat_interval
        marks = None
        while sim.now < deadline:
            sim.run(until=min(sim.now + heartbeat_interval, deadline))
            marks = _find_marks(sim, detect_component, component, situation, target, t0)
            if marks is not None:
                break
        if marks is None:
            span.end(recovered=False)
            injector.current_span = None
            continue  # unrecovered: coverage < 1 will flag it
        detected, diagnosed, recovered = marks
        result.recovered += 1
        result.detect.append(detected - t0)
        result.diagnose.append(diagnosed - detected)
        result.recover.append(recovered - diagnosed)

        # Repair so the next injection starts from a healthy cluster.
        _repair(cluster, kernel, injector, component, situation, target)
        span.end(recovered=True)
        injector.current_span = None
        sim.run(until=sim.now + 2.0 * heartbeat_interval)
    result.failover_spans = sum(
        1 for r in sim.trace.iter_records("gsd.failover") if r.get("duration") is not None
    )
    result.fault_spans = sum(
        1 for r in sim.trace.iter_records("campaign.fault") if r.get("duration") is not None
    )
    return result


def _pick_target(cluster, kernel, component: str, rng) -> str | None:
    if component == "wd":
        candidates = [
            n for n in cluster.compute_nodes()
            if cluster.node(n).up and cluster.hostos(n).process_alive("wd")
        ]
    else:
        candidates = [
            kernel.placement[(component, p.partition_id)]
            for p in cluster.partitions[1:]  # spare the leader for gsd kills
            if kernel._partition_daemon(component, p.partition_id).alive
        ]
    if not candidates:
        return None
    return str(rng.choice(sorted(candidates)))


def _find_marks(sim, detect_component, component, situation, target, t0):
    match = {"network": "data"} if situation == "network" else {}
    detected = next(
        (r for r in sim.trace.iter_records("failure.detected", component=detect_component,
                                           node=target, **match) if r.time > t0),
        None,
    )
    diagnosed = next(
        (r for r in sim.trace.iter_records("failure.diagnosed", component=component,
                                           kind=situation, node=target, **match) if r.time > t0),
        None,
    )
    recovered = next(
        (r for r in sim.trace.iter_records("failure.recovered", component=component,
                                           kind=situation, node=target, **match) if r.time > t0),
        None,
    )
    if detected and diagnosed and recovered:
        return detected.time, diagnosed.time, recovered.time
    return None


def _repair(cluster, kernel, injector, component, situation, target) -> None:
    if situation == "node":
        injector.boot_node(target)
        for svc in ("ppm", "detector", "wd"):
            if not cluster.hostos(target).process_alive(svc):
                kernel.start_service(svc, target)
    elif situation == "network":
        injector.restore_nic(target, "data")


# -- gray-failure campaign ---------------------------------------------------

#: Gray fault classes (``gray/<kind>`` in reports).
GRAY_CLASSES = ("link-loss", "link-flap", "asym-split")

#: Full-failure verdicts: a diagnosis of one of these kinds while the
#: subject is actually alive is a spurious failover.
_FULL_KINDS = ("process", "node")


@dataclass
class GrayCampaignResult:
    """Outcome of one gray fault class.

    ``dual_leader_intervals`` counts sampled instants where two live
    GSDs claimed leadership **at the same epoch** — the split-brain
    hazard epoch fencing exists to prevent; it must be zero.
    ``stale_leader_time`` is the (expected, benign) span during which an
    unreachable old leader still *believed* it led at a superseded
    epoch, before self-demoting or standing down.
    """

    kind: str = ""
    injected: int = 0
    covered: int = 0
    spurious_failovers: int = 0
    dual_leader_intervals: int = 0
    stale_leader_time: float = 0.0
    suspected: int = 0
    false_suspicions: int = 0
    fenced: int = 0
    nic_reports: int = 0
    repairs: int = 0
    detect: list[float] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        return self.covered / self.injected if self.injected else 0.0


def _leader_claims(kernel) -> list[tuple[str, int]]:
    """(node, epoch) for every live GSD currently claiming leadership."""
    claims = []
    for (service, node), daemon in kernel._live.items():
        if service != "gsd" or not daemon.alive:
            continue
        mg = daemon.metagroup
        if mg.view is not None and mg.is_leader:
            claims.append((node, mg.view.epoch))
    return claims


class _LeaderSampler:
    """Advance the sim in slices, sampling leadership claims each step."""

    def __init__(self, sim, kernel, result: GrayCampaignResult, slice_s: float) -> None:
        self.sim = sim
        self.kernel = kernel
        self.result = result
        self.slice_s = slice_s

    def run_until(self, until: float) -> None:
        while self.sim.now < until:
            self.sim.run(until=min(self.sim.now + self.slice_s, until))
            claims = _leader_claims(self.kernel)
            if len(claims) > 1:
                self.result.stale_leader_time += self.slice_s
                epochs = [epoch for _, epoch in claims]
                if len(epochs) != len(set(epochs)):
                    self.result.dual_leader_intervals += 1


def _count_spurious(sim, t0: float, exempt_node: str | None = None) -> int:
    """Full-failure diagnoses after ``t0`` against subjects that never
    died.  ``exempt_node`` excludes diagnoses *about* or *by* a node that
    was genuinely unreachable (the isolated leader in an asym split)."""
    spurious = 0
    for r in sim.trace.iter_records("failure.diagnosed"):
        if r.time <= t0 or r.get("kind") not in _FULL_KINDS:
            continue
        if exempt_node is not None and exempt_node in (r.get("node"), r.get("by")):
            continue
        spurious += 1
    return spurious


def run_gray_class(
    kind: str,
    injections: int = 4,
    seed: int = 0,
    heartbeat_interval: float = 10.0,
    loss: float = 0.2,
    spec: ClusterSpec | None = None,
) -> GrayCampaignResult:
    """Run one gray fault class; see module docstring for the scenarios."""
    if kind not in GRAY_CLASSES:
        raise ValueError(f"unknown gray class {kind!r}; expected one of {GRAY_CLASSES}")
    sim = Simulator(seed=seed, trace_capacity=None)
    cluster = Cluster(sim, spec or ClusterSpec.build(partitions=4, computes=6))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=heartbeat_interval))
    kernel.boot()
    injector = FaultInjector(cluster)
    rng = sim.rngs.stream(f"campaign.gray.{kind}")
    networks = sorted(cluster.networks)
    result = GrayCampaignResult(kind=kind)
    sampler = _LeaderSampler(sim, kernel, result, slice_s=0.25 * heartbeat_interval)
    sim.run(until=2.0 * heartbeat_interval)
    start = sim.now

    for i in range(injections):
        sim.run(until=sim.now + float(rng.uniform(0.2, 1.2)) * heartbeat_interval)
        t0 = sim.now
        case = f"g{i}"

        if kind == "link-loss":
            target = _pick_target(cluster, kernel, "wd", rng)
            if target is None:
                continue
            span = sim.trace.span("campaign.fault", gray=kind, case=case, target=target)
            injector.current_span = span
            drops0 = sum(sim.trace.counter(f"net.{n}.degraded_drops") for n in networks)
            for net in networks:
                injector.degrade_link(target, net, loss=loss, direction="out", case=case)
            result.injected += 1
            sampler.run_until(sim.now + 6.0 * heartbeat_interval)
            for net in networks:
                injector.restore_link(target, net, case=case)
            drops = sum(sim.trace.counter(f"net.{n}.degraded_drops") for n in networks)
            if drops > drops0:
                result.covered += 1
            span.end(covered=drops > drops0)
            injector.current_span = None
            sampler.run_until(sim.now + 2.0 * heartbeat_interval)

        elif kind == "link-flap":
            target = _pick_target(cluster, kernel, "wd", rng)
            if target is None:
                continue
            flaps = 3
            down_time = up_time = 1.5 * heartbeat_interval
            span = sim.trace.span("campaign.fault", gray=kind, case=case, target=target)
            injector.current_span = span
            injector.flap_link(
                target, "data", flaps=flaps, down_time=down_time, up_time=up_time, case=case
            )
            result.injected += 1
            sampler.run_until(sim.now + flaps * (down_time + up_time) + 2.0 * heartbeat_interval)
            span.end()
            injector.current_span = None
            downs = [
                r.time for r in sim.trace.iter_records(
                    "fault.injected", kind="flap", node=target, case=case)
            ]
            detects = [
                r.time for r in sim.trace.iter_records(
                    "failure.detected", component="wd", node=target, network="data")
                if r.time > t0
            ]
            restores = [
                r.time for r in sim.trace.iter_records(
                    "network.restored", component="wd", node=target, network="data")
                if r.time > t0
            ]
            if len(detects) >= flaps and len(restores) >= flaps:
                result.covered += 1
            for edge in downs:
                first = next((t for t in detects if t > edge), None)
                if first is not None:
                    result.detect.append(first - edge)

        else:  # asym-split
            claims = _leader_claims(kernel)
            if len(claims) != 1:
                continue
            leader_node, leader_epoch = claims[0]
            span = sim.trace.span("campaign.fault", gray=kind, case=case, target=leader_node)
            injector.current_span = span
            for net in networks:
                injector.degrade_link(leader_node, net, loss=1.0, direction="out", case=case)
            result.injected += 1
            sampler.run_until(sim.now + 8.0 * heartbeat_interval)
            for net in networks:
                injector.restore_link(leader_node, net, case=case)
            span.end()
            injector.current_span = None
            sampler.run_until(sim.now + 6.0 * heartbeat_interval)
            takeovers = [
                r for r in sim.trace.iter_records("leader.takeover") if r.time > t0
            ]
            final = _leader_claims(kernel)
            views = {
                d.metagroup.view.key
                for (svc, _), d in kernel._live.items()
                if svc == "gsd" and d.alive and d.metagroup.view is not None
            }
            stood_down = any(
                r.time > t0
                for r in sim.trace.iter_records("gsd.superseded", node=leader_node)
            )
            if (
                len(takeovers) == 1
                and takeovers[0].get("epoch") == leader_epoch + 1
                and len(final) == 1
                and final[0][0] != leader_node
                and len(views) == 1
                and stood_down
            ):
                result.covered += 1
                result.detect.append(takeovers[0].time - t0)
            result.spurious_failovers += max(0, len(takeovers) - 1)
            result.spurious_failovers += _count_spurious(sim, t0, exempt_node=leader_node)

    if kind in ("link-loss", "link-flap"):
        # Nothing actually died: every full-failure diagnosis and every
        # takeover over the whole run is spurious.
        result.spurious_failovers = _count_spurious(sim, start)
        result.spurious_failovers += sum(
            1 for r in sim.trace.iter_records("leader.takeover") if r.time > start
        )
    result.suspected = sum(1 for _ in sim.trace.iter_records("failure.suspected"))
    result.false_suspicions = int(sim.trace.counter("gsd.false_suspicions"))
    result.fenced = sum(1 for _ in sim.trace.iter_records("gsd.fenced"))
    result.nic_reports = sum(
        1 for r in sim.trace.iter_records("failure.diagnosed", kind="network")
        if r.time > start
    )
    result.repairs = len(injector.repaired)
    return result


def run_gray_campaign(
    injections: int = 4, seed: int = 0
) -> dict[str, GrayCampaignResult]:
    """One GrayCampaignResult per class in GRAY_CLASSES."""
    return {
        kind: run_gray_class(kind, injections=injections, seed=seed)
        for kind in GRAY_CLASSES
    }


def render_gray_campaign(results: dict[str, GrayCampaignResult]) -> str:
    """Aggregate table: coverage + robustness gates per gray class."""
    rows = []
    for kind, r in sorted(results.items()):
        latency = "-"
        if r.detect:
            d = summarize(r.detect)
            latency = f"{fmt_time(d.mean)} (max {fmt_time(d.max)})"
        rows.append([
            f"gray/{kind}",
            r.injected,
            f"{100 * r.coverage:.0f}%",
            r.spurious_failovers,
            r.dual_leader_intervals,
            fmt_time(r.stale_leader_time) if r.stale_leader_time else "0",
            r.suspected,
            r.fenced,
            latency,
        ])
    return format_table(
        ["gray class", "injected", "coverage", "spurious", "dual-leader",
         "stale-belief", "suspected", "fenced", "detect mean (max)"],
        rows,
        title="Gray-failure campaign — loss, flaps, asymmetric splits (10 s heartbeat)",
    )


def check_gray_campaign(results: dict[str, GrayCampaignResult]) -> list[str]:
    """Acceptance gates for CI: returns a list of violations (empty = pass)."""
    problems = []
    for kind, r in sorted(results.items()):
        if r.dual_leader_intervals:
            problems.append(
                f"gray/{kind}: {r.dual_leader_intervals} same-epoch dual-leader intervals"
            )
        if r.spurious_failovers:
            problems.append(f"gray/{kind}: {r.spurious_failovers} spurious failovers")
        if kind in ("link-flap", "asym-split") and r.coverage < 1.0:
            problems.append(f"gray/{kind}: coverage {100 * r.coverage:.0f}% < 100%")
    return problems


# -- partition (split-brain) campaign ---------------------------------------

#: Split-brain torture classes (``partition/<kind>`` in reports).
PARTITION_CLASSES = (
    "clean-split",     # leader's partition isolated 1-vs-3
    "even-split",      # 2-vs-2: only the MCS tie-break side may act
    "asym-inbound",    # deaf leader: inbound loss=1.0, outbound clean
    "fabric-gray",     # correlated loss on every fabric at once
    "fabric-latency",  # fabric-wide latency inflation, zero loss
    "flap-split",      # partition flaps faster than diagnosis
)

#: Classes whose fault is a *sustained* split with a well-defined
#: minority side — the checkpoint-commit invariant is enforced there.
_SUSTAINED_SPLITS = ("clean-split", "even-split", "asym-inbound")


@dataclass
class PartitionCampaignResult:
    """Outcome of one partition fault class.

    The two hard invariants are ``dual_leader_intervals`` (same-epoch,
    sampled continuously — split brain) and the ``minority_*`` write
    counters (a parked side acting on state it must not own).  Everything
    else is observability: parks/unparks pair up, refusals show the
    parked side actually hit its write gates, and
    ``correlated_regroups`` counts ``gsd.regroup`` census spans whose
    parent is the campaign's own ``campaign.fault`` scenario span.
    """

    kind: str = ""
    injected: int = 0
    covered: int = 0
    dual_leader_intervals: int = 0
    stale_leader_time: float = 0.0
    minority_placement_writes: int = 0
    minority_ckpt_writes: int = 0
    parks: int = 0
    unparks: int = 0
    write_refusals: int = 0
    takeovers: int = 0
    correlated_regroups: int = 0
    detect: list[float] = field(default_factory=list)  # time to first park

    @property
    def coverage(self) -> float:
        return self.covered / self.injected if self.injected else 0.0


def _placement_commits(trace):
    """Accepted meta-group leadership placements (commit marks; the
    campaign boots with ``trace_commit_marks=True``)."""
    return trace.iter_records("placement.committed", service="metagroup", scope="leader")


def _gsd_state_commits(trace):
    """``gsd.state.*`` checkpoint commits (commit marks)."""
    return (
        r for r in trace.iter_records("ckpt.committed")
        if str(r.get("key", "")).startswith("gsd.state.")
    )


def _writes_by(records, nodes: set[str], start: float, end: float) -> int:
    """How many of ``records`` the ``nodes`` side made inside ``[start, end]``."""
    return sum(1 for r in records if start <= r.time <= end and r.get("node") in nodes)


def _side_nodes(cluster, partition_ids) -> set[str]:
    """All nodes (server, backups, computes) of the given partitions."""
    wanted = set(partition_ids)
    nodes: set[str] = set()
    for part in cluster.partitions:
        if part.partition_id in wanted:
            nodes.update(part.all_nodes)
    return nodes


def _gsds(kernel) -> list:
    return [d for (svc, _), d in kernel._live.items() if svc == "gsd" and d.alive]


def _settled(kernel, members: int) -> bool:
    """Post-heal convergence: one leader claim, one view key everywhere,
    every view full-size, nobody parked."""
    gsds = _gsds(kernel)
    if len(_leader_claims(kernel)) != 1:
        return False
    views = {d.metagroup.view.key for d in gsds if d.metagroup.view is not None}
    return (
        len(views) == 1
        and all(
            d.metagroup.view is not None and len(d.metagroup.view.members) == members
            for d in gsds
        )
        and not any(d.metagroup.parked for d in gsds)
    )


def _parks_since(sim, t0: float, node: str | None = None) -> list:
    return [
        r for r in sim.trace.iter_records("quorum.lost")
        if r.time > t0 and (node is None or r.get("node") == node)
    ]


def run_partition_class(
    kind: str,
    injections: int = 2,
    seed: int = 0,
    heartbeat_interval: float = 10.0,
    spec: ClusterSpec | None = None,
    trace_export: str | None = None,
) -> PartitionCampaignResult:
    """Run one partition fault class; see module docstring for scenarios.

    ``trace_export`` writes the full trace (with commit marks) to a JSONL
    file afterwards, so :mod:`repro.experiments.trace_check` can re-verify
    the leadership invariants from the trace alone."""
    if kind not in PARTITION_CLASSES:
        raise ValueError(
            f"unknown partition class {kind!r}; expected one of {PARTITION_CLASSES}"
        )
    hb = heartbeat_interval
    sim = Simulator(seed=seed, trace_capacity=None)
    cluster = Cluster(sim, spec or ClusterSpec.build(partitions=4, computes=2))
    # Commit marks make the exported trace self-contained evidence for
    # the external checker (they are off by default for byte-identity of
    # the figure traces; this campaign is not one of those).
    kernel = PhoenixKernel(
        cluster,
        timings=KernelTimings(heartbeat_interval=hb, trace_commit_marks=True),
    )
    kernel.boot()
    injector = FaultInjector(cluster)
    rng = sim.rngs.stream(f"campaign.partition.{kind}")
    networks = sorted(cluster.networks)
    parts = [p.partition_id for p in cluster.partitions]
    all_nodes = set(cluster.nodes)
    result = PartitionCampaignResult(kind=kind)
    sampler = _LeaderSampler(sim, kernel, result, slice_s=0.25 * hb)
    #: A true minority needs detection (≈2 beats) + diagnosis + the report
    #: watchdog + one census round to park; after this bound it must not
    #: commit another checkpoint write until the heal.
    park_grace = 5.0 * hb
    fault_span_ids: set[str] = set()

    sim.run(until=2.0 * hb)
    for i in range(injections):
        sim.run(until=sim.now + float(rng.uniform(0.2, 1.2)) * hb)
        case = f"s{i}"
        t0 = sim.now
        claims = _leader_claims(kernel)
        if len(claims) != 1:
            continue
        leader_node, leader_epoch = claims[0]
        leader_part = cluster.node(leader_node).partition_id
        span = sim.trace.span("campaign.fault", partition=kind, case=case)
        injector.current_span = span
        fault_span_ids.add(span.span_id)
        result.injected += 1
        drops0 = sum(sim.trace.counter(f"net.{n}.degraded_drops") for n in networks)
        covered = False

        if kind in ("clean-split", "even-split"):
            minority_parts = parts[2:] if kind == "even-split" else [leader_part]
            minority = _side_nodes(cluster, minority_parts)
            groups = [minority, all_nodes - minority]
            for net in networks:
                injector.split_network(net, groups, case=case)
            sampler.run_until(sim.now + 10.0 * hb)
            heal_t = sim.now
            for net in networks:
                injector.heal_network(net, case=case)
            span.end()
            injector.current_span = None
            sampler.run_until(sim.now + 10.0 * hb)
            parks = _parks_since(sim, t0)
            takeovers = [
                r for r in sim.trace.iter_records("leader.takeover") if r.time > t0
            ]
            result.minority_placement_writes += _writes_by(
                _placement_commits(sim.trace), minority, t0, heal_t
            )
            result.minority_ckpt_writes += _writes_by(
                _gsd_state_commits(sim.trace), minority, t0 + park_grace, heal_t
            )
            if parks:
                result.detect.append(parks[0].time - t0)
            if kind == "clean-split":
                # Majority takes over at epoch+1; the cut-off old
                # leader parks, then rejoins as a plain member.
                covered = (
                    bool(_parks_since(sim, t0, node=leader_node))
                    and len(takeovers) == 1
                    and takeovers[0].get("epoch") == leader_epoch + 1
                    and _settled(kernel, len(parts))
                )
            else:
                # Tie-break: the low-partition side keeps the leader
                # it already had; the other side parks, no takeover.
                minority_parked = {
                    r.get("node")
                    for r in parks
                    if cluster.node(r.get("node")).partition_id in minority_parts
                }
                final = _leader_claims(kernel)
                covered = (
                    len(minority_parked) == len(minority_parts)
                    and not takeovers
                    and _settled(kernel, len(parts))
                    and final and final[0][0] == leader_node
                )

        elif kind == "asym-inbound":
            # The leader goes deaf: everything it sends still lands,
            # nothing it is sent arrives.  Peers keep hearing a live
            # leader so nobody may take over; the leader's own census
            # gets no acks, so it must park until the link heals.
            minority = _side_nodes(cluster, [leader_part])
            for net in networks:
                injector.degrade_link(
                    leader_node, net, loss=1.0, direction="in", case=case
                )
            sampler.run_until(sim.now + 10.0 * hb)
            heal_t = sim.now
            for net in networks:
                injector.restore_link(leader_node, net, direction="in", case=case)
            span.end()
            injector.current_span = None
            sampler.run_until(sim.now + 10.0 * hb)
            parks = _parks_since(sim, t0, node=leader_node)
            takeovers = [
                r for r in sim.trace.iter_records("leader.takeover") if r.time > t0
            ]
            result.minority_placement_writes += _writes_by(
                _placement_commits(sim.trace), minority, t0, heal_t
            )
            result.minority_ckpt_writes += _writes_by(
                _gsd_state_commits(sim.trace), minority, t0 + park_grace, heal_t
            )
            if parks:
                result.detect.append(parks[0].time - t0)
            final = _leader_claims(kernel)
            covered = (
                bool(parks)
                and not takeovers
                and _settled(kernel, len(parts))
                and final and final[0][0] == leader_node
            )

        elif kind in ("fabric-gray", "fabric-latency"):
            loss = 0.15 if kind == "fabric-gray" else 0.0
            mult = 1.0 if kind == "fabric-gray" else 3.0
            for net in networks:
                injector.degrade_fabric(
                    net, loss=loss, latency_mult=mult, case=case
                )
            sampler.run_until(sim.now + 8.0 * hb)
            for net in networks:
                injector.restore_fabric_quality(net, case=case)
            span.end()
            injector.current_span = None
            sampler.run_until(sim.now + 8.0 * hb)
            drops = sum(
                sim.trace.counter(f"net.{n}.degraded_drops") for n in networks
            )
            takeovers = sum(
                1 for r in sim.trace.iter_records("leader.takeover") if r.time > t0
            )
            if kind == "fabric-gray":
                covered = drops > drops0 and _settled(kernel, len(parts))
            else:
                # Pure latency inflation: nothing is lost, so nothing
                # may be detected, evicted, parked, or taken over.
                covered = (
                    drops == drops0
                    and not _parks_since(sim, t0)
                    and takeovers == 0
                    and _settled(kernel, len(parts))
                )

        else:  # flap-split
            minority = _side_nodes(cluster, parts[2:])
            groups = [minority, all_nodes - minority]
            for cycle in range(3):
                for net in networks:
                    injector.split_network(net, groups, case=f"{case}.{cycle}")
                sampler.run_until(sim.now + 0.5 * hb)
                heal_t = sim.now
                for net in networks:
                    injector.heal_network(net, case=f"{case}.{cycle}")
                sampler.run_until(sim.now + 1.5 * hb)
            span.end()
            injector.current_span = None
            sampler.run_until(sim.now + 8.0 * hb)
            result.minority_placement_writes += _writes_by(
                _placement_commits(sim.trace), minority, t0, heal_t
            )
            covered = _settled(kernel, len(parts))

        if covered:
            result.covered += 1

    result.parks = sum(1 for _ in sim.trace.iter_records("quorum.lost"))
    result.unparks = sum(1 for _ in sim.trace.iter_records("quorum.regained"))
    result.write_refusals = sum(
        1 for _ in sim.trace.iter_records("regroup.write_refused")
    )
    result.takeovers = sum(1 for _ in sim.trace.iter_records("leader.takeover"))
    result.correlated_regroups = sum(
        1 for r in sim.trace.iter_records("gsd.regroup")
        if r.get("duration") is not None and r.get("parent_id") in fault_span_ids
    )
    if trace_export is not None:
        sim.trace.export_jsonl(trace_export)
    return result


def run_partition_campaign(
    injections: int = 2, seed: int = 0, trace_dir: str | None = None
) -> dict[str, PartitionCampaignResult]:
    """One PartitionCampaignResult per class in PARTITION_CLASSES.

    ``trace_dir`` exports one ``partition-<kind>.jsonl`` trace per class
    for the external :mod:`repro.experiments.trace_check` audit."""
    return {
        kind: run_partition_class(
            kind, injections=injections, seed=seed,
            trace_export=f"{trace_dir}/partition-{kind}.jsonl" if trace_dir else None,
        )
        for kind in PARTITION_CLASSES
    }


def render_partition_campaign(results: dict[str, PartitionCampaignResult]) -> str:
    """Aggregate table: invariants + regroup observability per class."""
    rows = []
    for kind, r in sorted(results.items()):
        park = "-"
        if r.detect:
            d = summarize(r.detect)
            park = f"{fmt_time(d.mean)} (max {fmt_time(d.max)})"
        rows.append([
            f"partition/{kind}",
            r.injected,
            f"{100 * r.coverage:.0f}%",
            r.dual_leader_intervals,
            r.minority_placement_writes + r.minority_ckpt_writes,
            f"{r.parks}/{r.unparks}",
            r.write_refusals,
            r.correlated_regroups,
            park,
        ])
    return format_table(
        ["partition class", "injected", "coverage", "dual-leader", "minority-writes",
         "park/unpark", "refused", "regroups", "park mean (max)"],
        rows,
        title="Partition campaign — quorum-gated regroup torture (10 s heartbeat)",
    )


def check_partition_campaign(results: dict[str, PartitionCampaignResult]) -> list[str]:
    """Acceptance gates for CI: returns a list of violations (empty = pass)."""
    problems = []
    for kind, r in sorted(results.items()):
        if r.dual_leader_intervals:
            problems.append(
                f"partition/{kind}: {r.dual_leader_intervals} same-epoch "
                f"dual-leader intervals"
            )
        if r.minority_placement_writes:
            problems.append(
                f"partition/{kind}: {r.minority_placement_writes} minority-accepted "
                f"leadership placement writes"
            )
        if r.minority_ckpt_writes:
            problems.append(
                f"partition/{kind}: {r.minority_ckpt_writes} minority-accepted "
                f"gsd.state checkpoint writes after the regroup window"
            )
        if r.coverage < 1.0:
            problems.append(f"partition/{kind}: coverage {100 * r.coverage:.0f}% < 100%")
        if kind in _SUSTAINED_SPLITS and not r.parks:
            problems.append(f"partition/{kind}: no quorum.lost park observed")
        if kind in _SUSTAINED_SPLITS and r.parks != r.unparks:
            problems.append(
                f"partition/{kind}: {r.parks} parks vs {r.unparks} unparks (leak)"
            )
        if kind == "fabric-latency" and (r.parks or r.takeovers):
            problems.append(
                f"partition/{kind}: lossless latency inflation caused "
                f"{r.parks} parks / {r.takeovers} takeovers"
            )
    return problems


def run_campaign(injections: int = 8, seed: int = 0) -> dict[tuple[str, str], CampaignResult]:
    """One CampaignResult per fault class in CLASSES."""
    return {
        (component, situation): run_campaign_class(component, situation,
                                                   injections=injections, seed=seed)
        for component, situation in CLASSES
    }


def render_campaign(results: dict[tuple[str, str], CampaignResult]) -> str:
    """Aggregate table: coverage + latency summaries per class."""
    rows = []
    for (component, situation), r in sorted(results.items()):
        if not r.detect:
            rows.append([f"{component}/{situation}", r.injected, "0%", "-", "-", "-",
                         r.failover_spans])
            continue
        d, g, v = summarize(r.detect), summarize(r.diagnose), summarize(r.recover)
        rows.append([
            f"{component}/{situation}",
            r.injected,
            f"{100 * r.coverage:.0f}%",
            f"{fmt_time(d.mean)} (p95 {fmt_time(d.p95)})",
            f"{fmt_time(g.mean)}",
            f"{fmt_time(v.mean)}",
            r.failover_spans,
        ])
    return format_table(
        ["fault class", "injected", "coverage", "detect mean (p95)", "diagnose mean",
         "recover mean", "spans"],
        rows,
        title="Fault campaign — random-phase injections (10 s heartbeat)",
    )


def main(argv: list[str] | None = None) -> None:
    """CLI: run the campaign and print the table."""
    parser = argparse.ArgumentParser(description="Random-phase fault campaign")
    parser.add_argument("--injections", type=int, default=None,
                        help="injections per class (default: 8 fail-stop, "
                             "4 gray, 2 partition)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--gray", action="store_true",
        help="run the gray-failure classes (loss/flap/asym-split) instead of fail-stop",
    )
    parser.add_argument(
        "--partition", action="store_true",
        help="run the split-brain torture classes (clean/even/asym splits, "
             "fabric-wide gray and latency, flapping partitions)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="with --gray or --partition: exit nonzero on any invariant "
             "violation — same-epoch dual leaders, minority-accepted "
             "writes, spurious failovers, incomplete coverage (CI gate)",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="with --partition: export one partition-<class>.jsonl trace "
             "per class for `python -m repro tracecheck`",
    )
    args = parser.parse_args(argv)
    if args.partition:
        results = run_partition_campaign(
            injections=args.injections if args.injections is not None else 2,
            seed=args.seed,
            trace_dir=args.trace_dir,
        )
        print(render_partition_campaign(results))
        if args.check:
            problems = check_partition_campaign(results)
            for problem in problems:
                print(f"FAIL: {problem}")
            if problems:
                raise SystemExit(1)
            print("partition campaign gates: OK")
        return
    if args.gray:
        results = run_gray_campaign(
            injections=args.injections if args.injections is not None else 4,
            seed=args.seed,
        )
        print(render_gray_campaign(results))
        if args.check:
            problems = check_gray_campaign(results)
            for problem in problems:
                print(f"FAIL: {problem}")
            if problems:
                raise SystemExit(1)
            print("gray campaign gates: OK")
        return
    print(render_campaign(run_campaign(
        injections=args.injections if args.injections is not None else 8,
        seed=args.seed,
    )))


if __name__ == "__main__":
    main()
