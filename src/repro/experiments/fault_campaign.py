"""Fault campaigns — Tables 1–3 generalized: one table of fault classes, one driver.

Paper §5.1 fills every cell of Tables 1–3 the same way: inject a fault,
then read detect / diagnose / recover off the kernel's trace marks.  Here
that recipe is data.  A :class:`FaultClass` row says *what* a class is —
whom to aim at, how to inject and heal, how many heartbeats to hold the
fault and to let the cluster settle, which side is the minority if the
fault splits the cluster, and the ``covered`` predicate that decides
whether the kernel handled the injection.  One driver, :func:`_run_class`,
owns *how* every row runs: world boot and warm-up (:class:`World`), the
per-class RNG stream and its draw order (phase, then target), the
``campaign.fault`` span that parents the injector's marks, the hold and
settle windows, the repair, the post-window accounting (takeovers,
parks), the leadership verdict and the trace export.  One mark
search, :func:`measure_recovery`, serves the rows and the Tables 1–3
harness alike: a table cell is a fail-stop row with a beat-aligned phase
and a fixed target on the paper testbed.

Three families of rows (DESIGN.md §10 has the class table):

* **fail-stop** (the default) — the paper's process / node / NIC faults
  at random phases against random targets; every one must be detected,
  diagnosed and recovered;
* **gray** (``--gray``) — the conditions real clusters lose leaders to:
  lossy links, flapping links, a one-way partition of the leader;
* **partition** (``--partition``) — the split-brain torture matrix for
  the quorum-gated regroup protocol (DESIGN.md §15).

Every world boots with ``trace_commit_marks``; at the end of a class the
driver asks the one leadership judge,
:func:`repro.experiments.trace_check.check_trace`, for the verdict over
the class's own trace (``python -m repro tracecheck`` gives the same one
from the export): same-epoch claims, parked or minority commits, and the
stale-belief time.  A split's ``campaign.fault`` span names its minority.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.experiments.report import format_table
from repro.experiments.trace_check import check_trace
from repro.kernel import KernelTimings, PhoenixKernel
from repro.sim import Simulator
from repro.units import fmt_time
from repro.util import summarize

#: Network interface used for NIC-failure injections.
TARGET_NETWORK = "data"
#: Down/up cycles of the flapping rows (``link-flap``, ``flap-split``).
FLAPS = 3
#: A true minority needs detection (≈2 beats) + diagnosis + the report
#: watchdog + one census round to park; this many beats into a split its
#: minority must not commit another checkpoint write until the heal.
PARK_GRACE = 5.0
#: Full-failure verdicts: a diagnosis of one of these kinds while the
#: subject is actually alive is a spurious failover.
_FULL_KINDS = ("process", "node")


def _count(category: str):
    """A result field the driver sets to the whole run's number of
    ``category`` trace records (for a span category: closed spans)."""
    return field(default=0, metadata={"count": category})


@dataclass
class ClassResult:
    """What every fault class reports: injections, how many of them the
    kernel covered, latency samples, and the leadership verdict of
    :func:`~repro.experiments.trace_check.check_trace` over its trace.

    ``dual_leader_intervals`` (overlapping claims **at the same epoch**:
    split brain) and the ``minority_*`` writes (a parked or cut-off node
    committing state it must not own) must be zero.  ``stale_leader_time``
    is the (expected, benign) time during which an unreachable old leader
    still *believed* it led at a superseded epoch.
    """

    injected: int = 0
    detect: list[float] = field(default_factory=list)
    dual_leader_intervals: int = 0
    stale_leader_time: float = 0.0
    minority_placement_writes: int = 0
    minority_ckpt_writes: int = 0

    @property
    def coverage(self) -> float:
        """Share of injections the row's ``covered`` predicate accepted."""
        return self.covered / self.injected if self.injected else 0.0


@dataclass
class CampaignResult(ClassResult):
    """A fail-stop class: covered means recovered."""

    recovered: int = 0
    diagnose: list[float] = field(default_factory=list)
    recover: list[float] = field(default_factory=list)
    #: Closed ``gsd.failover`` root spans seen by the campaign — each one
    #: is a full causal tree (detect → diagnose → recover) in the trace.
    failover_spans: int = _count("gsd.failover")
    #: Closed ``campaign.fault`` scenario spans — one per injection, with
    #: the injector's fault.injected/fault.repaired marks correlated to it.
    fault_spans: int = _count("campaign.fault")

    @property
    def covered(self) -> int:
        return self.recovered

    @covered.setter
    def covered(self, count: int) -> None:
        self.recovered = count


@dataclass
class GrayCampaignResult(ClassResult):
    """A gray class; ``detect`` is flap edge → NIC report (``link-flap``)
    or injection → takeover (``asym-split``)."""

    covered: int = 0
    spurious_failovers: int = 0
    suspected: int = _count("failure.suspected")
    fenced: int = _count("gsd.fenced")


@dataclass
class PartitionCampaignResult(ClassResult):
    """A partition class; ``detect`` is injection → first park.

    Beyond the leadership verdict this is observability: parks/unparks
    pair up, refusals show the parked side actually hit its write gates, and
    ``correlated_regroups`` counts ``gsd.regroup`` census spans whose
    parent is one of the campaign's own ``campaign.fault`` spans.
    """

    covered: int = 0
    parks: int = _count("quorum.lost")
    unparks: int = _count("quorum.regained")
    write_refusals: int = _count("regroup.write_refused")
    takeovers: int = _count("leader.takeover")
    correlated_regroups: int = 0


@dataclass(frozen=True)
class FaultClass:
    """One fault class as data.  Durations are in heartbeats; every
    callback takes the :class:`World`, aimed at the current injection."""

    family: str
    kind: Any  # (component, situation) for a fail-stop row, else the class name
    pick: Callable  # → the node to aim at, or None to skip the injection
    inject: Callable
    heal: Callable | None  # None: the fault heals itself or needs no repair
    hold: float
    settle: float
    covered: Callable
    #: → ids of the partitions the fault cuts off from quorum.
    minority: Callable | None = None
    #: Polled after every heartbeat of the hold window; the first
    #: non-None value ends the hold early and is kept as ``world.found``.
    until: Callable | None = None
    #: When set, ``covered`` is judged at heal time and stamped on the
    #: ``campaign.fault`` span under this name; otherwise it is judged
    #: after the settle window and the span closes bare.
    stamp: str | None = None
    #: inject → hold → heal → gap, this many times under one span.
    cycles: int = 1
    gap: float = 0.0
    #: A sustained split with a well-defined minority: time-to-park is
    #: measured, and parks must be seen and pair with unparks.
    sustained: bool = False
    #: The fault takes nothing away, so over the whole run no failover,
    #: park or takeover is legitimate.
    quiet: bool = False
    #: False where coverage is reported but not gated (whether a low loss
    #: rate drops anything within the hold is a matter of chance).
    must_cover: bool = True


class World:
    """A booted campaign world, warmed up past two heartbeat rounds: the
    one place a fault harness builds its simulator, cluster, kernel,
    injector, RNG stream and result.  It also carries the injection in
    progress (:meth:`aim`) for the row's callbacks."""

    def __init__(self, row: FaultClass, seed: int, hb: float,
                 spec: ClusterSpec | None = None, loss: float = 0.2) -> None:
        family = _FAMILIES[row.family]
        self.hb = hb
        self.loss = loss
        self.sim = Simulator(seed=seed, trace_capacity=None)
        self.cluster = Cluster(
            self.sim, spec or ClusterSpec.build(partitions=4, computes=family.computes))
        self.kernel = PhoenixKernel(self.cluster, timings=KernelTimings(
            heartbeat_interval=hb, trace_commit_marks=True))
        self.kernel.boot()
        self.injector = FaultInjector(self.cluster)
        self.rng = self.sim.rngs.stream(
            "campaign." + _label(row.family, row.kind).replace("/", "."))
        self.networks = sorted(self.cluster.networks)
        self.parts = [p.partition_id for p in self.cluster.partitions]
        self.result = family.result()
        self.sim.run(until=2.0 * hb)
        self.start = self.sim.now

    def aim(self, case: str, target: str) -> None:
        """Begin one injection, now: what the callbacks read as ``case``,
        ``target``, ``t0``, ``epoch`` and ``drops0``.  The driver adds
        ``minority``, ``found``, ``takeovers`` and ``parks``
        as the windows pass."""
        self.case, self.target, self.t0 = case, target, self.sim.now
        #: The target's leadership epoch, if it leads.
        self.epoch = dict(_leader_claims(self.kernel)).get(target)
        self.drops0 = self.degraded_drops()
        self.minority: set[str] = set()
        self.takeovers = self.parks = ()

    def advance(self, beats: float, poll: Callable | None = None):
        """Run ``beats`` heartbeats; a ``poll`` is asked after each one,
        and its first non-None answer ends the run and is returned."""
        until = self.sim.now + beats * self.hb
        while self.sim.now < until:
            self.sim.run(until=min(self.sim.now + self.hb, until) if poll else until)
            if poll is not None and (found := poll()) is not None:
                return found
        return None

    def since(self, category: str, t0: float, **match) -> list:
        """Trace records of ``category`` after ``t0``."""
        return [r for r in self.sim.trace.iter_records(category, **match) if r.time > t0]

    def degraded_drops(self) -> float:
        return sum(self.sim.trace.counter(f"net.{n}.degraded_drops") for n in self.networks)

    def settled(self) -> bool:
        """Post-heal convergence: one leader claim, one view key
        everywhere, every view full-size, nobody parked."""
        gsds = _gsds(self.kernel)
        return (
            len(_leader_claims(self.kernel)) == 1
            and len(_view_keys(self.kernel)) == 1
            and all(
                d.metagroup.view is not None and len(d.metagroup.view.members) == len(self.parts)
                for d in gsds
            )
            and not any(d.metagroup.parked for d in gsds)
        )

    def led_by_target(self) -> bool:
        return self.settled() and _leader_claims(self.kernel)[0][0] == self.target

    def target_parked(self) -> bool:
        return any(r.get("node") == self.target for r in self.parks)

    def one_takeover(self) -> bool:
        """Exactly one takeover, epoch-bumped by one over the target's."""
        return len(self.takeovers) == 1 and self.takeovers[0].get("epoch") == self.epoch + 1


def measure_recovery(trace, component: str, situation: str, t0: float,
                     node: str | None = None) -> tuple[float, float, float] | None:
    """Times of the first detect / diagnose / recover marks after ``t0``
    for one fail-stop fault, or None until all three exist.

    ``node`` narrows the search to marks about that node (a campaign has
    many injections in one trace).  A dead *server* node is detected
    through the meta-group ring, so the kernel (correctly) attributes
    that detection to the GSD: the ``es/node`` cell reads detection from
    the ``gsd`` mark and diagnosis/recovery from the ES marks, matching
    what the paper's measurement would have observed.
    """
    match = {"network": TARGET_NETWORK} if situation == "network" else {}
    if node is not None:
        match["node"] = node
    detector = "gsd" if (component, situation) == ("es", "node") else component
    times = []
    for category, about in (
        ("failure.detected", {"component": detector}),
        ("failure.diagnosed", {"component": component, "kind": situation}),
        ("failure.recovered", {"component": component, "kind": situation}),
    ):
        mark = next(
            (r for r in trace.iter_records(category, **about, **match) if r.time > t0), None)
        if mark is None:
            return None
        times.append(mark.time)
    return tuple(times)


# -- what the rows are made of ---------------------------------------------------


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


def _pick_host(component: str) -> Callable:
    return lambda w: _pick_target(w.cluster, w.kernel, component, w.rng)


def _pick_leader(w: World) -> str | None:
    """The leader — only when exactly one GSD claims to be it."""
    claims = _leader_claims(w.kernel)
    return claims[0][0] if len(claims) == 1 else None


def _on_fabrics(method: str, aimed: bool = True, **kwargs) -> Callable:
    """An inject/heal action: ``injector.<method>`` once per fabric, on
    the target's link (``aimed``) or on the fabric as a whole."""
    def act(w: World) -> None:
        for net in w.networks:
            where = (w.target, net) if aimed else (net,)
            getattr(w.injector, method)(*where, case=w.case, **kwargs)
    return act


def _degrade_out(w: World) -> None:
    for net in w.networks:
        w.injector.degrade_link(w.target, net, loss=w.loss, direction="out", case=w.case)


def _flap_link(w: World) -> None:
    w.injector.flap_link(w.target, TARGET_NETWORK, flaps=FLAPS,
                         down_time=1.5 * w.hb, up_time=1.5 * w.hb, case=w.case)


def _split(w: World) -> None:
    groups = [w.minority, set(w.cluster.nodes) - w.minority]
    for net in w.networks:
        w.injector.split_network(net, groups, case=w.case)


def _reboot(w: World) -> None:
    w.injector.boot_node(w.target)
    for svc in ("ppm", "detector", "wd"):
        if not w.cluster.hostos(w.target).process_alive(svc):
            w.kernel.start_service(svc, w.target)


def _leader_side(w: World) -> list[str]:
    return [w.cluster.node(w.target).partition_id]


def _high_half(w: World) -> list[str]:
    return w.parts[2:]


def _leader_claims(kernel) -> list[tuple[str, int]]:
    """(node, epoch) for every live GSD currently claiming leadership."""
    return [
        (d.node_id, d.metagroup.view.epoch) for d in _gsds(kernel)
        if d.metagroup.view is not None and d.metagroup.is_leader
    ]


def _gsds(kernel) -> list:
    return [d for (svc, _), d in kernel._live.items() if svc == "gsd" and d.alive]


def _view_keys(kernel) -> set:
    return {d.metagroup.view.key for d in _gsds(kernel) if d.metagroup.view is not None}


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


def _side_nodes(cluster, partition_ids) -> set[str]:
    """All nodes (server, backups, computes) of the given partitions."""
    wanted = set(partition_ids)
    nodes: set[str] = set()
    for part in cluster.partitions:
        if part.partition_id in wanted:
            nodes.update(part.all_nodes)
    return nodes


def _recovered(w: World) -> bool:
    if w.found is None:
        return False  # unrecovered: coverage < 1 will flag it
    detected, diagnosed, recovered = w.found
    w.result.detect.append(detected - w.t0)
    w.result.diagnose.append(diagnosed - detected)
    w.result.recover.append(recovered - diagnosed)
    return True


def _flaps_seen(w: World) -> bool:
    """Every down edge detected as a NIC failure, every up edge restored."""
    about = dict(component="wd", node=w.target, network=TARGET_NETWORK)
    detects = [r.time for r in w.since("failure.detected", w.t0, **about)]
    restores = w.since("network.restored", w.t0, **about)
    for edge in w.sim.trace.iter_records("fault.injected", kind="flap", node=w.target, case=w.case):
        first = next((t for t in detects if t > edge.time), None)
        if first is not None:
            w.result.detect.append(first - edge.time)
    return len(detects) >= FLAPS and len(restores) >= FLAPS


def _fenced_takeover(w: World) -> bool:
    """Exactly one epoch-bumped takeover, and after the heal the stale
    leader has fenced and stood down behind a single view."""
    w.result.spurious_failovers += max(0, len(w.takeovers) - 1)
    w.result.spurious_failovers += _count_spurious(w.sim, w.t0, exempt_node=w.target)
    final = _leader_claims(w.kernel)
    covered = (
        w.one_takeover()
        and len(final) == 1
        and final[0][0] != w.target
        and len(_view_keys(w.kernel)) == 1
        and bool(w.since("gsd.superseded", w.t0, node=w.target))
    )
    if covered:
        w.result.detect.append(w.takeovers[0].time - w.t0)
    return covered


def _tie_break_held(w: World) -> bool:
    """The low-partition side keeps the leader it already had; every
    partition of the other side parks, and nobody takes over."""
    high = _high_half(w)
    parked = {
        r.get("node") for r in w.parks if w.cluster.node(r.get("node")).partition_id in high
    }
    return len(parked) == len(high) and not w.takeovers and w.led_by_target()


# -- the class tables --------------------------------------------------------------


def failstop_class(component: str, situation: str) -> FaultClass:
    """The fail-stop row for one (component, situation) — a Tables 1–3
    cell: held until the three recovery marks exist, six beats at most."""
    inject, heal = {
        # A killed daemon is restarted by its group: nothing to repair.
        "process": (lambda w: w.injector.kill_process(w.target, component, case=w.case), None),
        "node": (lambda w: w.injector.crash_node(w.target, case=w.case), _reboot),
        "network": (
            lambda w: w.injector.fail_nic(w.target, TARGET_NETWORK, case=w.case),
            lambda w: w.injector.restore_nic(w.target, TARGET_NETWORK),
        ),
    }[situation]
    return FaultClass(
        "fail-stop", (component, situation), _pick_host(component), inject, heal,
        hold=6.0, settle=2.0, covered=_recovered, stamp="recovered",
        until=lambda w: measure_recovery(w.sim.trace, component, situation, w.t0, w.target),
    )


#: Fail-stop classes exercised by the campaign (component, situation).
CLASSES = (
    ("wd", "process"),
    ("wd", "node"),
    ("wd", "network"),
    ("gsd", "process"),
    ("es", "process"),
)
FAILSTOP_ROWS = {kind: failstop_class(*kind) for kind in CLASSES}

_gray = partial(FaultClass, "gray")
_restore_link = _on_fabrics("restore_link")
GRAY_ROWS = {row.kind: row for row in (
    # The suspicion-based detector must ride 20 % one-way loss out.
    _gray(kind="link-loss", pick=_pick_host("wd"), inject=_degrade_out, heal=_restore_link,
          hold=6.0, settle=2.0, covered=lambda w: w.degraded_drops() > w.drops0,
          stamp="covered", quiet=True, must_cover=False),
    # The injector's own schedule flaps the link; the gap lets the last
    # up edge be seen restored before the span closes.
    _gray(kind="link-flap", pick=_pick_host("wd"), inject=_flap_link, heal=None,
          hold=FLAPS * 3.0, gap=2.0, settle=0.0, covered=_flaps_seen, quiet=True),
    # One-way partition: the leader's heartbeats vanish, inbound stays up.
    _gray(kind="asym-split", pick=_pick_leader, heal=_restore_link, hold=8.0, settle=6.0,
          inject=_on_fabrics("degrade_link", loss=1.0, direction="out"),
          covered=_fenced_takeover),
)}
#: Gray fault classes (``gray/<kind>`` in reports).
GRAY_CLASSES = tuple(GRAY_ROWS)

_partition = partial(FaultClass, "partition", pick=_pick_leader)
_heal_split = _on_fabrics("heal_network", aimed=False)
_restore_fabric = _on_fabrics("restore_fabric_quality", aimed=False)
PARTITION_ROWS = {row.kind: row for row in (
    # 1-vs-3: the majority takes over at epoch+1; the cut-off old leader
    # parks, then rejoins as a plain member.
    _partition(kind="clean-split", inject=_split, heal=_heal_split, hold=10.0, settle=10.0,
               minority=_leader_side, sustained=True,
               covered=lambda w: w.target_parked() and w.one_takeover() and w.settled()),
    # 2-vs-2: only the MCS tie-break side may act.
    _partition(kind="even-split", inject=_split, heal=_heal_split, hold=10.0, settle=10.0,
               minority=_high_half, sustained=True, covered=_tie_break_held),
    # Everything the deaf leader sends still lands, so peers keep hearing
    # a live leader and nobody may take over; its own census gets no
    # acks, so it must park until the link heals.
    _partition(kind="asym-inbound", inject=_on_fabrics("degrade_link", loss=1.0, direction="in"),
               heal=_on_fabrics("restore_link", direction="in"), hold=10.0, settle=10.0,
               minority=_leader_side, sustained=True,
               covered=lambda w: w.target_parked() and not w.takeovers and w.led_by_target()),
    # Correlated loss on every fabric at once.
    _partition(kind="fabric-gray", heal=_restore_fabric, hold=8.0, settle=8.0,
               inject=_on_fabrics("degrade_fabric", aimed=False, loss=0.15, latency_mult=1.0),
               covered=lambda w: w.degraded_drops() > w.drops0 and w.settled()),
    # Pure latency inflation: nothing is lost, so nothing may be
    # detected, evicted, parked, or taken over.
    _partition(kind="fabric-latency", heal=_restore_fabric, hold=8.0, settle=8.0, quiet=True,
               inject=_on_fabrics("degrade_fabric", aimed=False, loss=0.0, latency_mult=3.0),
               covered=lambda w: (w.degraded_drops() == w.drops0 and not w.parks
                                  and not w.takeovers and w.settled())),
    # The split heals before diagnosis completes, so suspicion must ride
    # it out; only the placement-write invariant has a window here.
    _partition(kind="flap-split", inject=_split, heal=_heal_split, hold=0.5, gap=1.5,
               cycles=FLAPS, settle=8.0, minority=_high_half, covered=World.settled),
)}
#: Split-brain torture classes (``partition/<kind>`` in reports).
PARTITION_CLASSES = tuple(PARTITION_ROWS)


# -- per family: whole-run totals, report columns, gates ----------------------------


def _finish_gray(w: World, row: FaultClass) -> None:
    if row.quiet:
        # Nothing actually died: every full-failure diagnosis and every
        # takeover over the whole run is spurious.
        w.result.spurious_failovers = _count_spurious(w.sim, w.start) + len(
            w.since("leader.takeover", w.start))


def _finish_partition(w: World, row: FaultClass) -> None:
    trace = w.sim.trace
    fault_spans = {r.get("span_id") for r in trace.iter_records("campaign.fault")}
    w.result.correlated_regroups = sum(
        1 for r in trace.iter_records("gsd.regroup") if r.get("parent_id") in fault_spans)


def _label(family: str, kind) -> str:
    """Report label (``wd/process``, ``gray/link-loss``); dotted, it
    names the class's RNG stream."""
    return "/".join(kind) if family == "fail-stop" else f"{family}/{kind}"


def _pct(r: ClassResult) -> str:
    return f"{100 * r.coverage:.0f}%"


def _mean(samples: list[float], spread: str | None = None) -> str:
    """``mean`` or ``mean (<spread> value)`` of latency samples; ``-`` if none."""
    if not samples:
        return "-"
    stats = summarize(samples)
    if spread is None:
        return fmt_time(stats.mean)
    return f"{fmt_time(stats.mean)} ({spread} {fmt_time(getattr(stats, spread))})"


@dataclass(frozen=True)
class _Family:
    """What a family's rows share: how its world boots, how its spans and
    cases are tagged, and how its results are totalled, printed, gated."""

    rows: dict
    result: type
    computes: int  # per partition of the default 4-partition world
    case: str  # case-tag prefix
    span: Callable  # (row, world) → ``campaign.fault`` span fields, in trace order
    title: str
    head: str  # header of the label column
    #: (header, result attribute or ``cell(result)``) after the label.
    columns: tuple
    #: (``violated(row, result)``, message template over ``r`` and ``pct``).
    gates: tuple
    #: ``finish(world, row)``: whole-run totals beyond the ``_count`` fields.
    finish: Callable = lambda w, row: None


#: The leadership verdict's gates, applied to every family.
_LEADERSHIP = (
    (lambda c, r: r.dual_leader_intervals,
     "{r.dual_leader_intervals} same-epoch dual-leader intervals"),
    (lambda c, r: r.minority_placement_writes,
     "{r.minority_placement_writes} minority-accepted leadership placement writes"),
    (lambda c, r: r.minority_ckpt_writes,
     "{r.minority_ckpt_writes} minority-accepted gsd.state checkpoint writes "
     "after the regroup window"),
)
_COVERAGE = (lambda c, r: c.must_cover and r.coverage < 1.0, "coverage {pct} < 100%")

_FAMILIES = {
    "fail-stop": _Family(
        FAILSTOP_ROWS, CampaignResult, computes=6, case="c",
        span=lambda c, w: dict(
            component=c.kind[0], situation=c.kind[1], case=w.case, target=w.target),
        title="Fault campaign — random-phase injections (10 s heartbeat)",
        head="fault class",
        columns=(
            ("injected", "injected"), ("coverage", _pct),
            ("detect mean (p95)", lambda r: _mean(r.detect, "p95")),
            ("diagnose mean", lambda r: _mean(r.diagnose)),
            ("recover mean", lambda r: _mean(r.recover)),
            ("spans", "failover_spans"),
        ),
        gates=(*_LEADERSHIP, _COVERAGE),
    ),
    "gray": _Family(
        GRAY_ROWS, GrayCampaignResult, computes=6, case="g",
        span=lambda c, w: dict(gray=c.kind, case=w.case, target=w.target),
        finish=_finish_gray,
        title="Gray-failure campaign — loss, flaps, asymmetric splits (10 s heartbeat)",
        head="gray class",
        columns=(
            ("injected", "injected"), ("coverage", _pct), ("spurious", "spurious_failovers"),
            ("dual-leader", "dual_leader_intervals"),
            ("stale-belief", lambda r: fmt_time(r.stale_leader_time) if r.stale_leader_time else "0"),
            ("suspected", "suspected"), ("fenced", "fenced"),
            ("detect mean (max)", lambda r: _mean(r.detect, "max")),
        ),
        gates=(
            *_LEADERSHIP,
            (lambda c, r: r.spurious_failovers, "{r.spurious_failovers} spurious failovers"),
            _COVERAGE,
        ),
    ),
    "partition": _Family(
        PARTITION_ROWS, PartitionCampaignResult, computes=2, case="s",
        span=lambda c, w: dict(partition=c.kind, case=w.case, minority=sorted(w.minority)),
        finish=_finish_partition,
        title="Partition campaign — quorum-gated regroup torture (10 s heartbeat)",
        head="partition class",
        columns=(
            ("injected", "injected"), ("coverage", _pct),
            ("dual-leader", "dual_leader_intervals"),
            ("minority-writes", lambda r: r.minority_placement_writes + r.minority_ckpt_writes),
            ("park/unpark", lambda r: f"{r.parks}/{r.unparks}"),
            ("refused", "write_refusals"), ("regroups", "correlated_regroups"),
            ("park mean (max)", lambda r: _mean(r.detect, "max")),
        ),
        gates=(
            *_LEADERSHIP,
            _COVERAGE,
            (lambda c, r: c.sustained and not r.parks, "no quorum.lost park observed"),
            (lambda c, r: c.sustained and r.parks != r.unparks,
             "{r.parks} parks vs {r.unparks} unparks (leak)"),
            (lambda c, r: c.quiet and (r.parks or r.takeovers),
             "lossless latency inflation caused {r.parks} parks / {r.takeovers} takeovers"),
        ),
    ),
}


# -- the driver ----------------------------------------------------------------------


def _run_class(row: FaultClass, injections: int, seed: int, hb: float,
               spec: ClusterSpec | None = None, loss: float = 0.2,
               trace_export: str | None = None) -> ClassResult:
    """Inject ``injections`` faults of one class, sequentially, at random
    phases; every injection is one ``campaign.fault`` causal scenario."""
    family = _FAMILIES[row.family]
    w = World(row, seed, hb, spec, loss)
    sim, trace, result = w.sim, w.sim.trace, w.result
    for i in range(injections):
        # The seeded schedule: a random phase within a beat period, then
        # (where the row draws one) a random eligible target.
        sim.run(until=sim.now + float(w.rng.uniform(0.2, 1.2)) * hb)
        target = row.pick(w)
        if target is None:
            continue
        w.aim(f"{family.case}{i}", target)
        if row.minority is not None:
            w.minority = _side_nodes(w.cluster, row.minority(w))
        # The span parents the injector's fault.injected/fault.repaired
        # marks (and the regroup censuses) via current_span.
        span = trace.span("campaign.fault", **family.span(row, w))
        w.injector.current_span = span
        result.injected += 1
        stamp = {}
        for cycle in range(row.cycles):
            if row.cycles > 1:
                w.case = f"{family.case}{i}.{cycle}"
            row.inject(w)
            w.found = w.advance(row.hold, row.until and partial(row.until, w))
            if row.stamp:
                stamp[row.stamp] = covered = bool(row.covered(w))
            # Repair so the next injection starts from a healthy cluster.
            if row.heal is not None:
                row.heal(w)
            w.advance(row.gap)
        span.end(**stamp)
        w.injector.current_span = None
        w.advance(row.settle)
        w.takeovers = w.since("leader.takeover", w.t0)
        w.parks = w.since("quorum.lost", w.t0)
        if row.sustained and w.parks:
            result.detect.append(w.parks[0].time - w.t0)
        if not row.stamp:
            covered = bool(row.covered(w))
        result.covered += covered
    for f in fields(result):
        if "count" in f.metadata:
            setattr(result, f.name, len(trace.records(f.metadata["count"])))
    verdict = check_trace(trace.records(), ckpt_grace=PARK_GRACE * hb)
    result.dual_leader_intervals = len(verdict.dual_leader)
    result.stale_leader_time = verdict.stale_belief
    result.minority_placement_writes = verdict.writes("placement")
    result.minority_ckpt_writes = verdict.writes("ckpt")
    family.finish(w, row)
    if trace_export is not None:
        trace.export_jsonl(trace_export)
    return result


def _row(family: str, kind: str) -> FaultClass:
    rows = _FAMILIES[family].rows
    if kind not in rows:
        raise ValueError(f"unknown {family} class {kind!r}; expected one of {tuple(rows)}")
    return rows[kind]


def run_campaign_class(
    component: str,
    situation: str,
    injections: int = 8,
    seed: int = 0,
    heartbeat_interval: float = 10.0,
    spec: ClusterSpec | None = None,
) -> CampaignResult:
    """Inject ``injections`` fail-stop faults of one class at random
    phases and random eligible targets; measure each recovery."""
    row = failstop_class(component, situation)
    return _run_class(row, injections, seed, heartbeat_interval, spec)


def run_gray_class(
    kind: str,
    injections: int = 4,
    seed: int = 0,
    heartbeat_interval: float = 10.0,
    loss: float = 0.2,
    spec: ClusterSpec | None = None,
) -> GrayCampaignResult:
    """Run one gray fault class (``loss`` is ``link-loss``'s drop rate)."""
    return _run_class(_row("gray", kind), injections, seed, heartbeat_interval, spec, loss)


def run_partition_class(
    kind: str,
    injections: int = 2,
    seed: int = 0,
    heartbeat_interval: float = 10.0,
    spec: ClusterSpec | None = None,
    trace_export: str | None = None,
) -> PartitionCampaignResult:
    """Run one partition fault class.

    ``trace_export`` writes the full trace to a JSONL file afterwards, so
    ``python -m repro tracecheck`` can re-verify the leadership verdict
    from the trace alone."""
    return _run_class(_row("partition", kind), injections, seed, heartbeat_interval, spec,
                      trace_export=trace_export)


def _run_family(family: str, injections: int, seed: int, trace_dir: str | None) -> dict:
    """Every row of one family at the default 10 s heartbeat.  ``trace_dir``
    exports one ``<family>-<class>.jsonl`` trace per class (``wd/process``
    → ``fail-stop-wd-process.jsonl``) for the external
    :mod:`repro.experiments.trace_check` audit."""
    def export(kind) -> str | None:
        name = "-".join(kind) if family == "fail-stop" else kind
        return f"{trace_dir}/{family}-{name}.jsonl" if trace_dir else None

    return {
        kind: _run_class(row, injections, seed, 10.0, trace_export=export(kind))
        for kind, row in _FAMILIES[family].rows.items()
    }


def run_campaign(
    injections: int = 8, seed: int = 0, trace_dir: str | None = None
) -> dict[tuple[str, str], CampaignResult]:
    """One CampaignResult per fault class in CLASSES."""
    return _run_family("fail-stop", injections, seed, trace_dir)


def run_gray_campaign(
    injections: int = 4, seed: int = 0, trace_dir: str | None = None
) -> dict[str, GrayCampaignResult]:
    """One GrayCampaignResult per class in GRAY_CLASSES."""
    return _run_family("gray", injections, seed, trace_dir)


def run_partition_campaign(
    injections: int = 2, seed: int = 0, trace_dir: str | None = None
) -> dict[str, PartitionCampaignResult]:
    """One PartitionCampaignResult per class in PARTITION_CLASSES."""
    return _run_family("partition", injections, seed, trace_dir)


# -- report and gates ----------------------------------------------------------------


def _render(family: str, results: dict) -> str:
    """Aggregate table of one family's results, one line per class."""
    fam = _FAMILIES[family]
    rows = [
        [_label(family, kind)]
        + [getattr(r, cell) if isinstance(cell, str) else cell(r) for _, cell in fam.columns]
        for kind, r in sorted(results.items())
    ]
    return format_table([fam.head, *(h for h, _ in fam.columns)], rows, title=fam.title)


def _check(family: str, results: dict) -> list[str]:
    """Acceptance gates for CI: returns a list of violations (empty = pass)."""
    fam = _FAMILIES[family]
    return [
        f"{_label(family, kind)}: " + message.format(r=r, pct=_pct(r))
        for kind, r in sorted(results.items())
        for violated, message in fam.gates
        if violated(fam.rows[kind], r)
    ]


def render_campaign(results: dict[tuple[str, str], CampaignResult]) -> str:
    """Aggregate table: coverage + latency summaries per fail-stop class."""
    return _render("fail-stop", results)


def render_gray_campaign(results: dict[str, GrayCampaignResult]) -> str:
    """Aggregate table: coverage + robustness gates per gray class."""
    return _render("gray", results)


def render_partition_campaign(results: dict[str, PartitionCampaignResult]) -> str:
    """Aggregate table: invariants + regroup observability per class."""
    return _render("partition", results)


def check_campaign(results: dict[tuple[str, str], CampaignResult]) -> list[str]:
    """Fail-stop gates: every injected fault detected and recovered."""
    return _check("fail-stop", results)


def check_gray_campaign(results: dict[str, GrayCampaignResult]) -> list[str]:
    """Gray gates: no same-epoch dual leaders, no spurious failovers,
    every flap edge and asymmetric split handled."""
    return _check("gray", results)


def check_partition_campaign(results: dict[str, PartitionCampaignResult]) -> list[str]:
    """Partition gates: no same-epoch dual leaders, no minority-accepted
    writes, full coverage, parks paired with unparks, latency ridden out."""
    return _check("partition", results)


def main(argv: list[str] | None = None) -> None:
    """CLI: run one family's campaign, print its table, apply its gates."""
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
        help="exit nonzero on any gate violation — incomplete coverage, "
             "same-epoch dual leaders, spurious failovers, minority-accepted "
             "writes (CI gate)",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="export one <family>-<class>.jsonl trace per class "
             "for `python -m repro tracecheck`",
    )
    args = parser.parse_args(argv)
    family = "partition" if args.partition else "gray" if args.gray else "fail-stop"
    run = {"fail-stop": run_campaign, "gray": run_gray_campaign,
           "partition": run_partition_campaign}[family]
    options = {"seed": args.seed, "trace_dir": args.trace_dir}
    if args.injections is not None:
        options["injections"] = args.injections
    results = run(**options)
    print(_render(family, results))
    if args.check:
        problems = _check(family, results)
        for problem in problems:
            print(f"FAIL: {problem}")
        if problems:
            raise SystemExit(1)
        print(f"{family} campaign gates: OK")


if __name__ == "__main__":
    main()
