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
from repro.kernel.group.recovery import NODE, PROCESS, Failover, pick_migration_target

#: Its checkpoint (``gsd.state.<partition>``): each node it has judged.
_STATE = ports.record("gsd state", node_state=ports.mapping(
    ports.NODE, ports.Kind("up|down", lambda v, _: v in ("up", "down"))))


class WatchFailover(Failover):
    """Table 1: the partition's watch daemons, watched by
    ``GSDDaemon.wd_monitor``.  A dead WD is restarted in place; a dead
    node is marked down — "each WD is the representative of hosting node
    for sending heartbeat, and migrating WD means nothing": recovery 0."""

    def recover(self, root, node, component, kind, context):
        if kind == PROCESS:
            return (yield from self.restart(root, node, component))
        gsd = self.gsd
        gsd._set_node_state(node, "down")
        gsd.publish(ev.NODE_FAILURE, {"node": node, "partition": gsd.partition_id}, span=root)
        if gsd.kernel.placement.get(("ckpt.replica", gsd.partition_id)) == node:
            # The dead node hosted the checkpoint replica — the one service
            # deliberately kept off the GSD's node, so no migration path
            # re-places it. Restore separation before the next failure.
            gsd.spawn(gsd._ensure_ckpt_replica(), name=f"{gsd.node_id}/gsd.ckptreplica")
        return self.recovered(root, node, component, NODE)

    def network_changed(self, node, network, up):
        self.gsd.export_row(
            "net_events", f"{node}:{network}", {"node": node, "network": network, "up": up}
        )

    def on_return(self, node):
        gsd = self.gsd
        if gsd.node_state.get(node) == "down":
            gsd._set_node_state(node, "up")
            gsd.publish(ev.NODE_RECOVERY, {"node": node, "partition": gsd.partition_id})
        self.sim.trace.mark("node.returned", node=node, by=gsd.node_id)


class GSDDaemon(ServiceDaemon):
    """Group service daemon of one partition."""

    SERVICE = "gsd"
    #: Service group co-located with the GSD on the partition server node.
    MANAGED = ("ckpt", "db", "es")

    def __init__(self, kernel, node_id: str) -> None:
        super().__init__(kernel, node_id)
        self.node_state: dict[str, str] = {}  # node -> "up" | "down"
        self._ckpt_key = f"gsd.state.{self.partition_id}"
        self._journal_key = f"gsd.journal.{self.partition_id}"
        self.metagroup = MetaGroup(self)
        self.wd_monitor = WatchFailover(self, "wd").monitor
        #: The GSD's own node: its service group and NICs (Table 3).
        self.local_failover = Failover(self, "es", local=True)
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
        loaded = yield from self.load_state(self._ckpt_key, _STATE.check)
        if loaded:
            self.node_state = dict(loaded["data"]["node_state"])
            self.sim.trace.mark("gsd.state_recovered", node=self.node_id, entries=len(self.node_state))
        # Replay a parked-era journal from the local disk: a predecessor
        # that crashed while parked deferred these commits, and the shared
        # checkpoint never saw them.  Merge, then flush once we are joined
        # and unparked (see _startup step 5 / on_unpark).
        host = self.kernel.cluster.hostos(self.node_id)
        journal = host.stable_read(self._journal_key)
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
                host.stable_delete(self._journal_key)

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

    # -- service-group supervision (Table 3 mechanics, Figure 4) ------------
    def _service_check_loop(self):
        local = self.local_failover
        while True:
            yield self.timings.service_check_period
            hostos = self.cluster.hostos(self.node_id)
            for svc in self.managed_services():
                placed = self.kernel.placement.get((svc, self.partition_id))
                if placed == self.node_id and not hostos.process_alive(svc):
                    local.detect(self.node_id, component=svc)
            nics = {name: net.usable_from(self.node_id)
                    for name, net in self.cluster.networks.items()}
            previous, self._local_nics_ok = self._local_nics_ok, nics
            for network, up in nics.items():
                if previous is not None and up != previous.get(network, True):
                    (local.restored if up else local.detect)(self.node_id, network)

    # -- bookkeeping ---------------------------------------------------------
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
                self._journal_key, {"node_state": dict(self.node_state)}
            )
            self.sim.trace.mark(
                "regroup.write_refused", node=self.node_id, kind="node_state",
                subject=node, state=state,
            )
            return
        self._commit_node_state()
        self.export_row(TABLE_NODE_STATE, node, {"state": state})

    def _commit_node_state(self) -> None:
        self.save_state(self._ckpt_key, {"node_state": dict(self.node_state)})
        # The shared commit supersedes any parked-era local journal.
        self.kernel.cluster.hostos(self.node_id).stable_delete(self._journal_key)

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

    def _export_all_node_state(self) -> None:
        for member in self.cluster.partition(self.partition_id).all_nodes:
            self.export_row(TABLE_NODE_STATE, member, {"state": self.node_state.get(member, "up")})
