"""Failover, written once: detect → diagnose → recover (paper Tables 1–3).

Every cell of Tables 1–3 is one tier (WD, GSD ring, the GSD's own node)
crossed with one situation, and every tier runs :class:`Failover`: a
``gsd.failover`` root span, ``failure.detected``, a ``gsd.diagnose``
child returning the verdict, ``failure.diagnosed``, the tier's recovery,
then ``failure.recovered`` or ``recovery.failed`` (DESIGN.md §9).

Verdicts: one quiet fabric among beating ones is a **network** failure
(three redundant fabrics: the ``NETWORK_FAILURE`` event is the whole
recovery).  A full miss on a remote subject is probed on every fabric:
any OS pong → the **process** died; no pongs → the **node** died —
confirmed after extra probe rounds for compute nodes, or one window plus
a short cross-check for server nodes.  Each round also queries the
monitored process itself (the WD's process-query port, the GSD's status
port — owner-bound, so a dead process never answers); a reply proves the
silence gray (a lossy link ate the beats) and the verdict **alive**
resumes monitoring instead of failing the subject over.

Each probe round is real traffic — OS pings with a timeout, evaluated at
the end of a fixed window — so diagnosing times emerge from
``timings.PROBE_WINDOW`` and friends, not from sleeps before marks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.kernel import ports
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.events import types as ev
from repro.kernel.group.monitor import HeartbeatMonitor
from repro.kernel.timings import (
    LOCAL_CHECK_DELAY,
    NIC_ANALYSIS_DELAY,
    NODE_CONFIRM_ROUNDS,
    PING_TIMEOUT,
    PROBE_WINDOW,
    RPC_TIMEOUT,
    SERVER_NODE_CONFIRM_DELAY,
)
from repro.sim import Span, Timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.group.gsd import GSDDaemon

#: Diagnosis verdicts.
PROCESS = "process"
NODE = "node"
ALIVE = "alive"
NETWORK = "network"

#: Per-service liveness probes: (port, mtype, payload) answered only by
#: the monitored process itself (owner-bound endpoints).
_LIVENESS_PROBES = {
    "wd": (ports.WD, ports.WD_PROC_QUERY, {"process": "wd"}),
    "gsd": (ports.GSD, ports.GSD_STATUS, {}),
}


def diagnose(daemon: ServiceDaemon, subject_node: str, server_mode: bool, span: Span | None,
             service: str):
    """Coroutine: probe ``subject_node`` and the monitored ``service`` on
    it; return ``PROCESS``, ``NODE`` or ``ALIVE``.

    ``server_mode`` selects the fast path used for server nodes (single
    window + confirm delay, ~0.3 s) instead of the retried probes used for
    compute nodes (~2 s).  ``span`` parents the probe RPCs' spans, so a
    failover trace shows each probe round under the diagnosis step.
    """
    networks = list(daemon.cluster.networks)
    port, mtype, payload = _LIVENESS_PROBES[service]
    rounds = 1 if server_mode else 1 + NODE_CONFIRM_ROUNDS
    for _ in range(rounds):
        signals = [
            daemon.transport.ping(
                daemon.node_id, subject_node, network, timeout=PING_TIMEOUT, span=span,
            )
            for network in networks
        ]
        queries = [
            daemon.rpc(
                subject_node, port, mtype, dict(payload), network=network,
                timeout=PING_TIMEOUT, span=span,
            )
            for network in networks
        ]
        yield Timeout(PROBE_WINDOW)
        for sig in queries:
            reply = sig.value if sig.fired else None
            if reply and reply.get("alive", True):
                return ALIVE
        if any(sig.fired and sig.value for sig in signals):
            return PROCESS
    if server_mode:
        # Cross-check with another ring member before declaring a server
        # node dead (modeled as a short fixed confirmation exchange).
        yield Timeout(SERVER_NODE_CONFIRM_DELAY)
    return NODE


def pick_migration_target(daemon: ServiceDaemon, partition_id: str,
                          exclude: set[str]) -> str | None:
    """Select the node that will adopt a migrated service.

    "GSD member next to it in the ring structure will select a new node
    for migrating GSD" (paper §4.4): preference order is the partition's
    declared backup nodes, then any live compute node, excluding the dead
    host and any targets already tried.
    """
    part = daemon.cluster.partition(partition_id)
    for node_id in list(part.backups) + list(part.computes):
        if node_id not in exclude and daemon.cluster.node(node_id).up:
            return node_id
    return None


class Failover:
    """One tier's failover path, run by the partition's GSD.

    A remote tier (watch daemons, the meta-group ring) is told of
    silences by its :attr:`monitor`, whose four callbacks are this
    path's.  A ``local`` tier (the GSD's own node: its service group and
    NICs) has no monitor and no probe — the process table and the NICs
    are on this host — and calls :meth:`detect` / :meth:`restored` from
    its check loop.  ``component`` names the tier in every mark; a local
    service's failure names the service.  A tier overrides only what
    differs: :meth:`recover` (default: restart the process in place) and
    the hooks above it.
    """

    #: Diagnose a full miss the server-node way (one probe window).
    server_mode = False
    #: Watch a subject again after its recovery failed (:meth:`failed`).
    rearm_failed = True

    def __init__(self, gsd: "GSDDaemon", component: str, local: bool = False) -> None:
        self.gsd = gsd
        self.sim = gsd.sim
        self.component = component
        self.local = local
        #: (node, component, network) of every failover in flight.
        self.recovering: set[tuple[str, str, str | None]] = set()
        self.monitor = None if local else HeartbeatMonitor(
            gsd.sim,
            networks=list(gsd.cluster.networks),
            interval=gsd.timings.heartbeat_interval,
            grace=gsd.timings.deadline_grace,
            on_nic_miss=self.detect,
            on_nic_restore=self.restored,
            on_full_miss=self.detect,
            on_return=self.returned,
        )

    # -- what a tier supplies ------------------------------------------------
    def admit(self, node: str, network: str | None) -> bool:
        """May a silence of ``node`` (of one ``network`` of it) open a failover?"""
        return True

    def begin(self, node: str) -> Any:
        """What recovery needs from before a full miss's diagnosis; None aborts."""
        return ()

    def recover(self, root: Span, node: str, component: str, kind: str, context: Any):
        """Coroutine: recover from a ``PROCESS`` or ``NODE`` verdict; returns
        the root's close fields (:meth:`recovered`, :meth:`failed`)."""
        return (yield from self.restart(root, node, component))

    def rearm(self, node: str) -> None:
        """Watch ``node`` again, with a fresh deadline."""
        if self.monitor is not None:
            self.monitor.expect(node)

    def network_changed(self, node: str, network: str, up: bool) -> None:
        """A NIC verdict or restoration, after its event is published."""

    def on_return(self, node: str) -> None:
        """Beats from ``node`` resumed after a suspension."""

    # -- the path --------------------------------------------------------------
    def detect(self, node: str, network: str | None = None, component: str | None = None) -> None:
        """Open the failover of ``node`` — of one ``network`` of it, or of
        its ``component`` process."""
        gsd = self.gsd
        component = component or self.component
        key = (node, component, network)
        # A dead daemon's leftover timers are inert; one failover per subject.
        if not gsd.alive or key in self.recovering or not self.admit(node, network):
            return
        self.recovering.add(key)
        at = {"network": network} if network else {}
        # A NIC's verdict is known at detection: its root opens with it.
        opened = {"component": component, "kind": NETWORK} if network else {"component": component}
        root = self.sim.trace.span("gsd.failover", **opened, node=node, **at)
        root.mark("failure.detected", component=component, node=node, **at, by=gsd.node_id)
        gsd.spawn(self._failover(root, key), name=f"{gsd.node_id}/gsd.failover")

    def _failover(self, root: Span, key: tuple[str, str, str | None]):
        node, component, network = key
        me = self.gsd.node_id
        at = {"network": network} if network else {}
        # A verdict reached by probing another node names who reached it and
        # is stamped on the root's close; a local process's goes unstamped.
        probed = network is None and not self.local
        try:
            context = self.begin(node) if network is None else ()
            if context is None:
                root.end(aborted=True)
                return
            diag = root.child("gsd.diagnose", node=node, **(at or self._names(component)))
            if self.local:
                # Same-host check: the process table is local (Table 3: 12 us).
                yield LOCAL_CHECK_DELAY
                kind = NETWORK if network else PROCESS
            elif network:
                yield NIC_ANALYSIS_DELAY
                kind = NETWORK
            else:
                kind = yield from diagnose(
                    self.gsd, node, self.server_mode, span=diag, service=component
                )
            diag.end(kind=kind)
            if kind == ALIVE:
                # Gray failure: the subject answered its own liveness query,
                # so the silent heartbeats were eaten by the network, not a
                # death.  Resume monitoring instead of failing it over.
                root.mark("suspicion.cleared", component=component, node=node, by=me)
                self.sim.trace.count("gsd.false_suspicions")
                self.rearm(node)
                close = {"ok": True}
            else:
                root.mark(
                    "failure.diagnosed", component=component, kind=kind, node=node, **at,
                    **({"by": me} if probed else {}),
                )
                if kind == NETWORK:
                    # Three redundant fabrics: nothing to migrate, recovery is free.
                    close = self.recovered(
                        root, node, component, NETWORK,
                        (ev.NETWORK_FAILURE, {"node": node, "network": network}), **at,
                    )
                    self.network_changed(node, network, up=False)
                else:
                    close = yield from self.recover(root, node, component, kind, context)
            root.end(**({"kind": kind} if probed else {}), **close)
        finally:
            self.recovering.discard(key)

    def restored(self, node: str, network: str) -> None:
        """A quiet fabric of ``node`` beats again."""
        if not self.gsd.alive:
            return
        self.sim.trace.mark(
            "network.restored", component=self.component, node=node, network=network
        )
        self.gsd.publish(ev.NETWORK_RECOVERY, {"node": node, "network": network})
        self.network_changed(node, network, up=True)

    def returned(self, node: str) -> None:
        if self.gsd.alive:
            self.on_return(node)

    # -- recovery building blocks ------------------------------------------------
    def restart(self, root: Span, node: str, component: str):
        """Coroutine: restart ``component``, whose process died on the live
        ``node``, in place — through that node's PPM, or on this node when
        the tier is local."""
        gsd = self.gsd
        gsd.publish(ev.SERVICE_FAILURE, {"service": component, "node": node}, span=root)
        rec = root.child("gsd.recover", node=node, **self._names(component), action="restart")
        if self.local:
            yield gsd.timings.spawn_time(component)
            if not gsd.cluster.hostos(node).process_alive(component):
                # (An administrator may have restarted it concurrently,
                # e.g. a rolling restart; starting twice would be a bug.)
                gsd.kernel.start_service(component, node)
            ok = True
        else:
            ok = yield from self.start_remote(node, component, rec)
        rec.end(ok=ok)
        if not ok:
            return self.failed(root, node, component)
        return self.recovered(
            root, node, component, PROCESS,
            (ev.SERVICE_RECOVERY, {"service": component, "node": node}),
        )

    def start_remote(self, node: str, component: str, span: Span):
        """Coroutine: ask ``node``'s PPM to (re)start ``component``; True once
        acknowledged.  The timeout covers its spawn time plus the round trips."""
        timeout = self.gsd.timings.spawn_time(component) + 2.0 * RPC_TIMEOUT
        reply = yield self.gsd.rpc(node, ports.PPM, ports.PPM_START_SERVICE,
                                   {"service": component}, timeout=timeout, span=span)
        return bool(reply and reply.get("ok"))

    def recovered(self, root: Span, node: str, component: str, kind: str,
                  event: tuple[str, dict[str, Any]] | None = None, **fields: Any) -> dict:
        """Mark the recovery, then publish its ``event`` under the root."""
        root.mark("failure.recovered", component=component, kind=kind, node=node, **fields)
        if event is not None:
            self.gsd.publish(*event, span=root)
        return {"ok": True}

    def failed(self, root: Span, node: str, component: str, **fields: Any) -> dict:
        """Mark the failed recovery and watch the subject again, as the ALIVE
        verdict does: its next silence is diagnosed afresh instead of
        leaving it suspended for good."""
        root.mark("recovery.failed", component=component, node=node, **fields)
        if self.rearm_failed:
            self.rearm(node)
        return {"ok": False}

    def _names(self, component: str) -> dict[str, str]:
        """A local tier's steps name the service they act on."""
        return {"service": component} if self.local else {}
