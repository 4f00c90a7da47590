"""Group Service Daemon (GSD) — one per partition, the HA keystone.

"A GSD takes charge of a partition" (paper §4.3): it receives watch-daemon
heartbeats from every node of its partition over all fabrics, detects /
diagnoses / recovers node, process, and NIC failures, supervises the
partition's service group (event, data bulletin, checkpoint services on
the same server node — Figure 4), and represents the partition in the
meta-group ring (:mod:`repro.kernel.group.metagroup`).

Acting as an event supplier, the GSD pushes failure/recovery events
through the event service, and exports partition-wide node state to the
data bulletin.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.message import Message
from repro.kernel import ports
from repro.kernel.bulletin.service import TABLE_NODE_STATE
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.events import types as ev
from repro.kernel.group.metagroup import MetaGroup
from repro.kernel.group.monitor import HeartbeatMonitor
from repro.kernel.group.recovery import (
    ALIVE,
    NODE,
    PROCESS,
    diagnose,
    pick_migration_target,
    restart_service_remote,
)
from repro.kernel.timings import LOCAL_CHECK_DELAY, NIC_ANALYSIS_DELAY
from repro.sim import Span


class GSDDaemon(ServiceDaemon):
    """Group service daemon of one partition."""

    SERVICE = "gsd"
    #: Service group co-located with the GSD on the partition server node.
    MANAGED = ("ckpt", "db", "es")

    def __init__(self, kernel, node_id: str) -> None:
        super().__init__(kernel, node_id)
        self.node_state: dict[str, str] = {}  # node -> "up" | "down"
        self.metagroup = MetaGroup(self)
        self.wd_monitor = HeartbeatMonitor(
            kernel.sim,
            networks=list(kernel.cluster.networks),
            interval=self.timings.heartbeat_interval,
            grace=self.timings.deadline_grace,
            on_nic_miss=self._on_wd_nic_miss,
            on_nic_restore=self._on_wd_nic_restore,
            on_full_miss=self._on_wd_full_miss,
            on_return=self._on_wd_return,
        )
        self._svc_recovering: set[str] = set()
        self._local_nics_ok: dict[str, bool] | None = None
        #: Node-state changes seen while parked await a post-heal flush.
        self._node_state_dirty = False

    def managed_services(self) -> tuple[str, ...]:
        """Kernel service group plus user services registered for this
        partition (e.g. the PWS scheduling group, §5.4)."""
        extra = tuple(
            svc for svc, pid in self.kernel.user_services.items() if pid == self.partition_id
        )
        return self.MANAGED + extra

    # -- lifecycle -----------------------------------------------------------
    def on_start(self) -> None:
        self._announce_to_wds()
        self.spawn(self._startup(), name=f"{self.node_id}/gsd.startup")
        self.spawn(self._service_check_loop(), name=f"{self.node_id}/gsd.svccheck")
        self.spawn(self.metagroup.beat_loop(), name=f"{self.node_id}/gsd.ringbeat")

    def _startup(self):
        # 1. Make sure the partition's service group exists (after a
        #    migration this is where ES/DB/CKPT come back on the backup node).
        yield from self._ensure_services()
        yield from self._ensure_ckpt_replica()
        # 2. Reload persisted partition state from the checkpoint service.
        yield from self._load_state()
        # 3. Watch the partition's nodes.
        for member in self.cluster.partition(self.partition_id).all_nodes:
            if member != self.node_id and self.node_state.get(member) != "down":
                self.wd_monitor.expect(member)
        self._export_all_node_state()
        # 4. (Re)join the meta-group if we are not in the current view.
        yield from self.metagroup.join_loop()
        # 5. A journal replay left deferred state: flush now that we are
        #    joined — unless we are (still) on a minority side, in which
        #    case on_unpark flushes when quorum returns.  View membership
        #    cannot decide this (a stale full view survives a split), so
        #    when quorum gating is on we run one explicit census first:
        #    a restarted-while-split GSD parks here instead of committing.
        mg = self.metagroup
        if self._node_state_dirty and not mg.parked:
            if mg.quorum_enabled():
                yield from mg._census("journal_flush", initiate=False)
            if not mg.parked and self._node_state_dirty:
                self._node_state_dirty = False
                self._commit_node_state()
                self._export_all_node_state()

    def _announce_to_wds(self) -> None:
        for member in self.cluster.partition(self.partition_id).all_nodes:
            if member != self.node_id:
                self.send(member, ports.WD, ports.WD_GSD_ANNOUNCE, {"node": self.node_id})

    def _ensure_services(self):
        for svc in self.managed_services():
            old_node = self.kernel.placement.get((svc, self.partition_id))
            daemon = self.kernel.live_daemon(svc, old_node) if old_node else None
            if daemon is not None and daemon.alive:
                continue
            yield self.timings.spawn_time(svc)
            self.kernel.start_service(svc, self.node_id)
            if old_node is not None and old_node != self.node_id:
                # Migration: the service group followed the GSD here.
                self.sim.trace.mark(
                    "failure.recovered", component=svc, kind="node", node=old_node, dst=self.node_id
                )
                self.publish(
                    ev.SERVICE_RECOVERY,
                    {"service": svc, "node": self.node_id, "migrated_from": old_node},
                )

    def _ensure_ckpt_replica(self):
        """Keep the checkpoint replica alive and *off* the primary's node.

        A migration pulls the whole service group onto one node (usually
        the backup node — where the replica already lives), and a dead
        backup node takes the replica with it: either way one further
        node loss would erase every checkpoint in the partition.  Restore
        the primary/replica separation whenever it degrades, then have
        the primary reseed the fresh replica with its full store.
        """
        pid = self.partition_id
        primary = self.kernel.placement.get(("ckpt", pid))
        replica = self.kernel.placement.get(("ckpt.replica", pid))
        old_daemon = self.kernel.live_daemon("ckpt.replica", replica)
        replica_ok = (
            old_daemon is not None and old_daemon.alive and replica != primary
        )
        if primary is None or replica_ok:
            return
        target = pick_migration_target(self, pid, exclude={primary})
        if target is None:
            return  # one survivor: colocation beats no replica at all
        yield self.timings.spawn_time("ckpt.replica")
        if self.kernel.placement.get(("ckpt.replica", pid)) not in (replica, primary):
            return  # someone else (a newer GSD incarnation) fixed it meanwhile
        self.kernel.start_service("ckpt.replica", target)
        if old_daemon is not None and old_daemon.alive:
            old_daemon.stop()  # colocated copy: the primary holds its data
        self.sim.trace.mark(
            "failure.recovered", component="ckpt.replica", kind="placement",
            node=replica, dst=target,
        )
        yield self.rpc_retry(
            primary, ports.CKPT, ports.CKPT_RESEED, {}, call_class="ckpt.save"
        )

    def _load_state(self):
        ckpt_node = self.kernel.placement.get(("ckpt", self.partition_id))
        if ckpt_node is None:
            return
        reply = yield self.rpc_retry(
            ckpt_node, ports.CKPT, ports.CKPT_LOAD, {"key": self._ckpt_key()},
            call_class="ckpt.pull",
        )
        if reply and reply.get("found"):
            self.node_state = dict(reply["data"].get("node_state", {}))
            self.sim.trace.mark("gsd.state_recovered", node=self.node_id, entries=len(self.node_state))
        # Replay a parked-era journal from the local disk: a predecessor
        # that crashed while parked deferred these commits, and the shared
        # checkpoint never saw them.  Merge, then flush once we are joined
        # and unparked (see _startup step 5 / on_unpark).
        host = self.kernel.cluster.hostos(self.node_id)
        journal = host.stable_read(self._journal_key())
        if journal:
            deferred = dict(journal.get("node_state", {}))
            changed = {n: s for n, s in deferred.items() if self.node_state.get(n) != s}
            if changed:
                self.node_state.update(changed)
                self._node_state_dirty = True
                self.sim.trace.mark(
                    "gsd.journal_replayed", node=self.node_id, entries=len(changed)
                )
            else:
                host.stable_delete(self._journal_key())

    # -- messaging ---------------------------------------------------------
    def _on_wd_beat(self, msg: Message) -> None:
        self.sim.trace.count("gsd.wd_beats_seen")
        self.wd_monitor.beat(msg.payload["node"], msg.network)

    def _on_status(self, msg: Message) -> dict[str, Any]:
        view = self.metagroup.view
        return {
            "partition": self.partition_id,
            "node": self.node_id,
            "node_state": dict(self.node_state),
            "view_id": view.view_id if view else None,
            "epoch": view.epoch if view else None,
            "members": [list(m) for m in view.members] if view else [],
            "is_leader": self.metagroup.is_leader,
            "parked": self.metagroup.parked,
        }

    PORTS = {
        ports.GSD_HB: {
            ports.HB_WD: _on_wd_beat,
            ports.HB_GSD: lambda self, msg: self.metagroup.on_ring_beat(msg),
        },
        ports.GSD: {
            ports.GSD_JOIN: lambda self, msg: self.metagroup.on_join(msg),
            ports.GSD_VIEW: lambda self, msg: self.metagroup.on_view(msg),
            ports.GSD_MEMBER_FAILED: lambda self, msg: self.metagroup.on_member_failed(msg),
            ports.GSD_REGROUP_PROBE: lambda self, msg: self.metagroup.on_regroup_probe(msg),
            ports.GSD_REGROUP_ACK: lambda self, msg: self.metagroup.on_regroup_ack(msg),
            ports.GSD_STATUS: _on_status,
        },
    }

    # -- event supply ------------------------------------------------------
    def publish(self, event_type: str, data: dict[str, Any], span: Span | None = None) -> None:
        es_node = self.kernel.placement.get(("es", self.partition_id))
        if es_node is not None:
            payload: dict[str, Any] = {"type": event_type, "data": data}
            if span is not None:
                # The ES parents its publish span on ours, chaining the
                # event's deliveries into the failover's causal tree.
                payload["_span"] = span.span_id
            self.send(es_node, ports.ES, ports.ES_PUBLISH, payload)

    # -- WD monitoring callbacks (Table 1 mechanics) -------------------------
    def _on_wd_nic_miss(self, subject: str, network: str) -> None:
        if not self.alive:  # a dead daemon's leftover timers are inert
            return
        root = self.sim.trace.span(
            "gsd.failover", component="wd", kind="network", node=subject, network=network
        )
        root.mark(
            "failure.detected", component="wd", node=subject, network=network, by=self.node_id
        )
        self.spawn(self._wd_nic_failure(subject, network, root), name=f"{self.node_id}/gsd.wdnic")

    def _wd_nic_failure(self, subject: str, network: str, root: Span):
        diag = root.child("gsd.diagnose", node=subject, network=network)
        yield NIC_ANALYSIS_DELAY
        diag.end(kind="network")
        root.mark(
            "failure.diagnosed", component="wd", kind="network", node=subject, network=network
        )
        root.mark(
            "failure.recovered", component="wd", kind="network", node=subject, network=network
        )
        self.publish(ev.NETWORK_FAILURE, {"node": subject, "network": network}, span=root)
        self._export_net_state(subject, network, up=False)
        root.end(ok=True)

    def _on_wd_nic_restore(self, subject: str, network: str) -> None:
        if not self.alive:
            return
        self.sim.trace.mark("network.restored", component="wd", node=subject, network=network)
        self.publish(ev.NETWORK_RECOVERY, {"node": subject, "network": network})
        self._export_net_state(subject, network, up=True)

    def _on_wd_full_miss(self, subject: str) -> None:
        if not self.alive:
            return
        root = self.sim.trace.span("gsd.failover", component="wd", node=subject)
        root.mark("failure.detected", component="wd", node=subject, by=self.node_id)
        self.spawn(self._wd_failure(subject, root), name=f"{self.node_id}/gsd.wdrecover")

    def _wd_failure(self, subject: str, root: Span):
        diag = root.child("gsd.diagnose", node=subject)
        kind = yield from diagnose(self, subject, server_mode=False, span=diag, service="wd")
        diag.end(kind=kind)
        if kind == ALIVE:
            # Gray failure: the WD answered our direct liveness query, so
            # the silent heartbeats were eaten by the network, not a death.
            # Resume monitoring with a fresh deadline instead of failing
            # the node over.
            root.mark("suspicion.cleared", component="wd", node=subject, by=self.node_id)
            self.sim.trace.count("gsd.false_suspicions")
            self.wd_monitor.expect(subject)
            root.end(kind=kind, ok=True)
            return
        root.mark("failure.diagnosed", component="wd", kind=kind, node=subject, by=self.node_id)
        if kind == PROCESS:
            yield from self.restart_in_place("wd", subject, root)
            return
        # Node death: "each WD is the representative of hosting node for
        # sending heartbeat, and migrating WD means nothing" — recovery 0.
        assert kind == NODE
        self._set_node_state(subject, "down")
        self.publish(
            ev.NODE_FAILURE, {"node": subject, "partition": self.partition_id}, span=root
        )
        root.mark("failure.recovered", component="wd", kind="node", node=subject)
        root.end(kind=kind, ok=True)
        if self.kernel.placement.get(("ckpt.replica", self.partition_id)) == subject:
            # The dead node hosted the checkpoint replica — the one service
            # deliberately kept off the GSD's node, so no migration path
            # re-places it. Restore separation before the next failure.
            self.spawn(self._ensure_ckpt_replica(), name=f"{self.node_id}/gsd.ckptreplica")

    def restart_in_place(self, service: str, node: str, root: Span):
        """Coroutine: restart ``service``, whose process died on a live
        ``node``, through that node's PPM — the process-failure recovery
        of a WD (here) and of a ring member's GSD (the meta-group)."""
        self.publish(ev.SERVICE_FAILURE, {"service": service, "node": node}, span=root)
        rec = root.child("gsd.recover", node=node, action="restart")
        ok = yield from restart_service_remote(self, node, service, span=rec)
        rec.end(ok=ok)
        if ok:
            root.mark("failure.recovered", component=service, kind="process", node=node)
            self.publish(ev.SERVICE_RECOVERY, {"service": service, "node": node}, span=root)
        else:
            root.mark("recovery.failed", component=service, node=node)
        root.end(kind=PROCESS, ok=ok)

    def _on_wd_return(self, subject: str) -> None:
        if not self.alive:
            return
        if self.node_state.get(subject) == "down":
            self._set_node_state(subject, "up")
            self.publish(ev.NODE_RECOVERY, {"node": subject, "partition": self.partition_id})
        self.sim.trace.mark("node.returned", node=subject, by=self.node_id)

    # -- service-group supervision (Table 3 mechanics, Figure 4) ------------
    def _service_check_loop(self):
        while True:
            yield self.timings.service_check_period
            self._check_local_services()
            self._check_local_nics()

    def _check_local_services(self) -> None:
        hostos = self.cluster.hostos(self.node_id)
        for svc in self.managed_services():
            placed = self.kernel.placement.get((svc, self.partition_id))
            if placed != self.node_id or svc in self._svc_recovering:
                continue
            if not hostos.process_alive(svc):
                root = self.sim.trace.span("gsd.failover", component=svc, node=self.node_id)
                root.mark(
                    "failure.detected", component=svc, node=self.node_id, by=self.node_id
                )
                self._svc_recovering.add(svc)
                self.spawn(
                    self._restart_local_service(svc, root), name=f"{self.node_id}/gsd.svcfix"
                )

    def _restart_local_service(self, svc: str, root: Span):
        try:
            # Same-host check: the process table is local (Table 3: 12 us).
            diag = root.child("gsd.diagnose", node=self.node_id, service=svc)
            yield LOCAL_CHECK_DELAY
            diag.end(kind="process")
            root.mark(
                "failure.diagnosed", component=svc, kind="process", node=self.node_id
            )
            self.publish(ev.SERVICE_FAILURE, {"service": svc, "node": self.node_id}, span=root)
            rec = root.child("gsd.recover", node=self.node_id, service=svc, action="restart")
            yield self.timings.spawn_time(svc)
            if not self.cluster.hostos(self.node_id).process_alive(svc):
                # (An administrator may have restarted it concurrently,
                # e.g. a rolling restart; starting twice would be a bug.)
                self.kernel.start_service(svc, self.node_id)
            rec.end(ok=True)
            root.mark(
                "failure.recovered", component=svc, kind="process", node=self.node_id
            )
            self.publish(ev.SERVICE_RECOVERY, {"service": svc, "node": self.node_id}, span=root)
            root.end(ok=True)
        finally:
            self._svc_recovering.discard(svc)

    def _check_local_nics(self) -> None:
        current = {
            name: net.usable_from(self.node_id) for name, net in self.cluster.networks.items()
        }
        previous = self._local_nics_ok
        self._local_nics_ok = current
        if previous is None:
            return
        for network, up in current.items():
            if up == previous.get(network, True):
                continue
            if not up:
                root = self.sim.trace.span(
                    "gsd.failover", component="es", kind="network",
                    node=self.node_id, network=network,
                )
                root.mark(
                    "failure.detected", component="es", node=self.node_id,
                    network=network, by=self.node_id,
                )
                self.spawn(
                    self._local_nic_failure(network, root), name=f"{self.node_id}/gsd.localnic"
                )
            else:
                self.sim.trace.mark(
                    "network.restored", component="es", node=self.node_id, network=network
                )
                self.publish(ev.NETWORK_RECOVERY, {"node": self.node_id, "network": network})

    def _local_nic_failure(self, network: str, root: Span):
        diag = root.child("gsd.diagnose", node=self.node_id, network=network)
        yield LOCAL_CHECK_DELAY
        diag.end(kind="network")
        root.mark(
            "failure.diagnosed", component="es", kind="network", node=self.node_id, network=network
        )
        root.mark(
            "failure.recovered", component="es", kind="network", node=self.node_id, network=network
        )
        self.publish(ev.NETWORK_FAILURE, {"node": self.node_id, "network": network}, span=root)
        root.end(ok=True)

    # -- bookkeeping ---------------------------------------------------------
    def _ckpt_key(self) -> str:
        return f"gsd.state.{self.partition_id}"

    def _journal_key(self) -> str:
        return f"gsd.journal.{self.partition_id}"

    def _set_node_state(self, node: str, state: str) -> None:
        self.node_state[node] = state
        if self.metagroup.parked:
            # Minority refusal (DESIGN.md §15): keep the in-memory belief,
            # defer the checkpoint commit and bulletin export until quorum
            # returns — a parked member must not write durable state.
            # The node's *own disk* is not shared state though: journal the
            # deferred belief there so a crash while parked does not lose
            # it (the restarted GSD replays the journal in _load_state).
            self._node_state_dirty = True
            self.kernel.cluster.hostos(self.node_id).stable_write(
                self._journal_key(), {"node_state": dict(self.node_state)}
            )
            self.sim.trace.mark(
                "regroup.write_refused", node=self.node_id, kind="node_state",
                subject=node, state=state,
            )
            return
        self._commit_node_state()
        self._export_node_state(node, state)

    def _commit_node_state(self) -> None:
        ckpt_node = self.kernel.placement.get(("ckpt", self.partition_id))
        if ckpt_node is not None:
            self.send(
                ckpt_node, ports.CKPT, ports.CKPT_SAVE,
                {"key": self._ckpt_key(), "data": {"node_state": dict(self.node_state)}},
            )
        # The shared commit supersedes any parked-era local journal.
        self.kernel.cluster.hostos(self.node_id).stable_delete(self._journal_key())

    def on_unpark(self) -> None:
        """Quorum regained: flush writes deferred while parked and rebuild
        whatever this side hosted (service group, checkpoint replica)."""
        if self._node_state_dirty:
            self._node_state_dirty = False
            self._commit_node_state()
            self._export_all_node_state()
        self.spawn(self._rebuild_on_unpark(), name=f"{self.node_id}/gsd.unpark")

    def _rebuild_on_unpark(self):
        yield from self._ensure_services()
        yield from self._ensure_ckpt_replica()

    def _export_node_state(self, node: str, state: str) -> None:
        db_node = self.kernel.placement.get(("db", self.partition_id))
        if db_node is not None:
            self.send(
                db_node, ports.DB, ports.DB_PUT,
                {"table": TABLE_NODE_STATE, "key": node, "row": {"state": state}},
            )

    def _export_all_node_state(self) -> None:
        for member in self.cluster.partition(self.partition_id).all_nodes:
            self._export_node_state(member, self.node_state.get(member, "up"))

    def _export_net_state(self, node: str, network: str, up: bool) -> None:
        db_node = self.kernel.placement.get(("db", self.partition_id))
        if db_node is not None:
            self.send(
                db_node, ports.DB, ports.DB_PUT,
                {
                    "table": "net_events",
                    "key": f"{node}:{network}",
                    "row": {"node": node, "network": network, "up": up},
                },
            )
