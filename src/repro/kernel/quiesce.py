"""Quiescence fast-forward contracts for the kernel's periodic producers.

A contract pairs a :class:`~repro.sim.PeriodicTask` with two hooks the
engine calls under ``Simulator(fast_forward=True)``:

* ``can_skip(now)`` — a **pure read** of world state answering "is this
  firing's entire cascade the healthy steady-state transaction?".  It
  must refuse whenever the real firing would do *anything* beyond the
  accounted effects: a dead or unplaced peer, a lossy or degraded link,
  a closed path, a monitor subject mid-diagnosis, a supervised process
  needing restart, a backlogged FIFO flow.  Refusal is always safe — the
  engine then executes the callback exactly.
* ``account(now)`` — replays the cascade's full observable transaction
  as plain arithmetic: every counter, every RNG draw **in stream
  order**, every histogram observation, every bulletin row, every
  deadline re-arm, with values bit-identical to event-by-event
  execution (delivery-dependent values are computed at the arrival
  instant the delivery *would* have happened).

**The commit-instant caveat** (see DESIGN.md §13): ``account`` commits
delivery-side effects at the firing instant, up to one in-flight latency
before the exact engine would.  Skipped cascades emit no trace records
and only touch order-insensitive aggregates (counters, histograms,
bulletin rows) plus deadline timers keyed to the same absolute fire
times, so any *quiescent* instant — one at least ``horizon`` seconds
past the last skippable firing — observes identical state.  The engine
enforces quiescent run boundaries by refusing to skip a firing within
``contract.horizon`` of ``run(until=...)``; in-simulation logic that
reads these aggregates mid-window (health self-reports) disables
skipping via ``can_skip`` instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.message import estimate_size
from repro.kernel import ports
from repro.kernel.bulletin.service import TABLE_NET_STATE, TABLE_NODE_METRICS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.network import Network
    from repro.kernel.detectors.service import DetectorDaemon
    from repro.kernel.group.watchdaemon import WatchDaemon

#: Engine-side quiescence margin, seconds: a firing within this distance
#: of ``run(until=...)`` is never skipped, so every run boundary observes
#: a state with no analytically-committed effects still "in flight".
#: Generous against kernel-fabric latencies (sub-millisecond base plus
#: exponential jitter whose tail past this bound has probability ~e^-1e4).
QUIESCE_HORIZON = 1.0

#: Largest FIFO flow-clock backlog (seconds past the firing instant) a
#: skippable cascade may inherit.  The per-flow clamp in
#: :func:`_replay_transmit` reproduces the exact path bit-for-bit, so a
#: *small* backlog — e.g. a detector export and a WD beat sharing one
#: firing instant and one ``(src, server)`` flow — is safe to account.
#: The budget only has to keep clamped arrivals inside the engine's
#: ``QUIESCE_HORIZON`` commit window; the other half of the horizon
#: absorbs the fresh latency draw.
_FLOW_BACKLOG_BUDGET = QUIESCE_HORIZON / 2


def _replay_transmit(net: "Network", trace, src: str, dst: str, size: int, now: float) -> float:
    """Replicate ``Network.transmit`` + delivery bookkeeping for a
    guaranteed-deliverable message; returns the arrival instant.

    Mirrors the exact path for a clean link: no loss draw (zero loss
    rate), no degradation draws (no profiles — both preconditions are
    ``can_skip``'s job), one latency draw from the fabric's RNG stream,
    the per-flow FIFO clamp, and the delivered/rx accounting the
    transport's ``_deliver`` would do.
    """
    trace.count(f"net.{net.name}.msgs")
    trace.count(f"net.{net.name}.bytes", size)
    arrival = now + net.latency_sample(src, dst, size)
    flow = (src, dst)
    prev = net._flow_clock.get(flow, 0.0)
    if arrival < prev:
        arrival = prev
    net._flow_clock[flow] = arrival
    net.delivered += 1
    trace.count(f"rx.{dst}")
    return arrival


def _clean_fabric(net: "Network", src: str, dst: str, now: float) -> bool:
    """True when a datagram ``src → dst`` on ``net`` is guaranteed to be
    delivered with no side effects beyond :func:`_replay_transmit`."""
    if net.spec.loss_rate > 0:
        return False
    if net._degraded and (
        net.degradation(src, "out") is not None or net.degradation(dst, "in") is not None
    ):
        return False
    if not net.path_open(src, dst):
        return False
    # A *systematically* backlogged FIFO flow (post-degradation queueing)
    # pushes arrivals past the engine's quiescence horizon — let it drain
    # exactly.  Micro-backlogs within the budget are clamped identically
    # by the exact path and by _replay_transmit, so they stay skippable.
    if net._flow_clock.get((src, dst), 0.0) - now > _FLOW_BACKLOG_BUDGET:
        return False
    return True


class WdBeatContract:
    """Skip-and-account contract for one WD's heartbeat firing
    (``_send_beat`` + ``_check_local_services``)."""

    __slots__ = ("wd",)

    horizon = QUIESCE_HORIZON

    def __init__(self, wd: "WatchDaemon") -> None:
        self.wd = wd

    def _target(self) -> str | None:
        wd = self.wd
        return wd.gsd_node or wd.kernel.placement.get(("gsd", wd.partition_id))

    def can_skip(self, now: float) -> bool:
        wd = self.wd
        if wd.timings.health_report_interval is not None:
            return False  # mid-window counter sampling would see early commits
        if wd.hp is None or not wd.hp.alive:
            return False
        cluster = wd.cluster
        src = wd.node_id
        if not cluster.node(src).up:
            return False
        target = self._target()
        if target is None or target == src:
            return False  # exact path is a silent no-op but cheap; don't model it
        if not cluster.node(target).up:
            return False
        transport = wd.transport
        if not transport.bound(target, ports.GSD_HB):
            return False
        gsd = wd.kernel.live_daemon("gsd", target)
        if gsd is None or not gsd.alive:
            return False
        state = gsd.wd_monitor._subjects.get(src)
        if state is None or state.suspended:
            return False
        usable = 0
        for name in transport._net_order:
            net = transport.networks[name]
            if not net.usable_from(src):
                continue  # exact path skips this fabric too: no effects
            usable += 1
            if not _clean_fabric(net, src, target, now):
                return False
            if name in state.nic_stale:
                return False  # delivery would run the on_nic_restore cascade
            if state.timers.get(name) is None:
                return False  # no armed deadline to re-arm analytically
        if usable == 0:
            return False  # exact path marks wd.beat_unsendable
        hostos = cluster.hostos(src)
        for svc in wd.LOCAL_SUPERVISED:
            if svc not in wd._svc_recovering and not hostos.process_alive(svc):
                return False  # _check_local_services would start a recovery
        return True

    def account(self, now: float) -> None:
        wd = self.wd
        src = wd.node_id
        target = self._target()
        wd._seq += 1
        size = estimate_size({"node": src, "seq": wd._seq})
        transport = wd.transport
        gsd = wd.kernel.live_daemon("gsd", target)
        monitor = gsd.wd_monitor
        trace = wd.sim.trace
        for name in transport._net_order:
            net = transport.networks[name]
            if not net.usable_from(src):
                continue
            arrival = _replay_transmit(net, trace, src, target, size, now)
            # _deliver dispatched to GSD._on_heartbeat (HB_WD branch):
            trace.count("gsd.wd_beats_seen")
            monitor.beat(src, name, when=arrival)
        trace.count("wd.beats")
        # _check_local_services: can_skip proved it a pure-read no-op.


class DetectorExportContract:
    """Skip-and-account contract for one detector's export firing
    (``_export_once`` with no tracked apps)."""

    __slots__ = ("det",)

    horizon = QUIESCE_HORIZON

    def __init__(self, det: "DetectorDaemon") -> None:
        self.det = det

    def can_skip(self, now: float) -> bool:
        det = self.det
        if det.timings.health_report_interval is not None:
            return False
        if det.hp is None or not det.hp.alive:
            return False
        if det._apps:
            return False  # per-app rows ride the exact path
        cluster = det.cluster
        src = det.node_id
        if not cluster.node(src).up:
            return False
        db_node = det.kernel.placement.get(("db", det.partition_id))
        if db_node is None:
            return False  # exact path returns early without counting
        if not cluster.node(db_node).up:
            return False
        transport = det.transport
        if not transport.bound(db_node, ports.DB):
            return False
        db = det.kernel.live_daemon("db", db_node)
        if db is None or not db.alive:
            return False
        if not db._publish_tables.isdisjoint((TABLE_NODE_METRICS, TABLE_NET_STATE)):
            # A registered view maintains a table we write: the put would
            # publish a db.delta (sent, and stamped, at the arrival
            # instant) and arm the table-checkpoint debounce.
            return False
        net = transport._pick_network(src, None)
        if net is None:
            return False
        return _clean_fabric(net, src, db_node, now)

    def account(self, now: float) -> None:
        det = self.det
        src = det.node_id
        db_node = det.kernel.placement.get(("db", det.partition_id))
        transport = det.transport
        net = transport._pick_network(src, None)
        db = det.kernel.live_daemon("db", db_node)
        trace = det.sim.trace
        node = det.cluster.node(src)
        # The metrics draw happens at the firing instant in the exact
        # path too, keeping the shared "metrics" stream in order.
        row = det.cluster.resources.sample(node).as_dict()
        row["busy_cpus"] = node.busy_cpus
        row["cpus"] = node.spec.cpus
        nic_row = {
            name: n.usable_from(src) for name, n in det.cluster.networks.items()
        }
        partition = db.partition_id
        for table, key, r in (
            (TABLE_NODE_METRICS, src, row),
            (TABLE_NET_STATE, src, {"nics": nic_row}),
        ):
            size = estimate_size({"table": table, "key": key, "row": r})
            arrival = _replay_transmit(net, trace, src, db_node, size, now)
            # _deliver dispatched to the bulletin's DB_PUT branch:
            db.store.put(table, key, r, now=arrival, partition=partition)
            trace.count("db.puts")
            trace.observe("db.put", arrival - now)
        det.samples_exported += 1
        trace.count("detector.exports")
