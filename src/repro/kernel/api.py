"""PhoenixKernel — boot the kernel onto a cluster; public client API.

This is the documented surface user environments build on (paper §4.1
principle 2: "maintaining a stable minimum set of core functions ... we
can easily construct, adapt and extend user environments on the basis of
Phoenix kernel").  User environments import *this module* (plus the port
constants), never the service internals.

Deployment (paper §4.4): one configuration service and one security
service in the whole system; per partition, one instance each of the
group/event/bulletin/checkpoint services on the server node plus a
checkpoint replica on the backup node; on every node, the watch daemon,
detector services, and parallel process management.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.cluster import Cluster
from repro.errors import KernelError, ServiceUnavailable
from repro.kernel import ports
from repro.kernel.bulletin.query import Query
from repro.kernel.bulletin.service import BulletinDaemon
from repro.kernel.checkpoint.service import CheckpointDaemon, CheckpointReplicaDaemon
from repro.kernel.config.service import ConfigServiceDaemon
from repro.kernel.daemon import DaemonRegistry, ServiceDaemon
from repro.kernel.detectors.service import DetectorDaemon
from repro.kernel.events.service import EventServiceDaemon
from repro.kernel.group.gsd import GSDDaemon
from repro.kernel.group.metagroup import View
from repro.kernel.group.watchdaemon import WatchDaemon
from repro.kernel.ppm.parallel import subtree_timeout
from repro.kernel.ppm.service import PPMDaemon
from repro.kernel.timings import RPC_TIMEOUT, KernelTimings
from repro.sim import Signal

#: Services placed on every node.
NODE_SERVICES = ("wd", "ppm", "detector")
#: What ``KernelClient`` calls a partition service it finds unplaced.
_SERVICE_NAMES = {"db": "bulletin", "es": "event service"}


class PhoenixKernel:
    """The Phoenix cluster operating system kernel bound to one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        timings: KernelTimings | None = None,
        secret: bytes = b"phoenix-cluster-secret",
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.timings = timings or KernelTimings()
        self.secret = secret
        self.registry = DaemonRegistry()
        #: (service, scope) -> node currently hosting it.  Scope is the
        #: partition id for partition services, or a wider tag such as
        #: ("metagroup", "leader").
        self.placement: dict[tuple[str, str], str] = {}
        #: Monotone fencing epochs for contested placements (currently the
        #: meta-group leader): a stale-epoch update is rejected, so a
        #: healed ex-leader can never clobber the record of its successor.
        self._placement_epochs: dict[tuple[str, str], int] = {}
        self._live: dict[tuple[str, str], ServiceDaemon] = {}
        #: User-environment services supervised by a partition's GSD
        #: (service name -> partition id).  See :meth:`register_user_service`.
        self.user_services: dict[str, str] = {}
        #: Relational-layer bookkeeping (host-side, like ``placement``):
        #: materialized-view name -> owner partition id.
        self.view_owners: dict[str, str] = {}
        #: Latched True by the first view registration; a restarted
        #: bulletin only probes its checkpoints for maintenance config
        #: when set, so runs that never register a view stay untouched.
        self.view_maintenance = False
        #: Monotone bulletin incarnation counters per partition, stamped
        #: into delta/read watermarks for failover fencing.
        self._db_epochs: dict[str, int] = {}
        #: Federation topology (DESIGN.md §16): the spec's regions in
        #: configured order — one region is the paper's complete graph —
        #: and region index -> aggregator partition id, recomputed
        #: (epoch-fenced) from every installed meta-group view.
        self._region_partitions = cluster.spec.regions()
        self._region_index = {
            pid: idx for idx, pids in enumerate(self._region_partitions) for pid in pids
        }
        #: What message payloads' node and partition names are checked against.
        self.names = ports.Names(cluster.nodes, self._region_index)
        self.region_aggregators: dict[int, str] = {}
        self._aggregator_epoch = 0
        self.booted = False
        self._register_default_factories()

    def _register_default_factories(self) -> None:
        self.registry.register("config", ConfigServiceDaemon)
        self.registry.register("security", SecurityFactory())
        self.registry.register("ckpt", CheckpointDaemon)
        self.registry.register("ckpt.replica", CheckpointReplicaDaemon)
        self.registry.register("db", BulletinDaemon)
        self.registry.register("es", EventServiceDaemon)
        self.registry.register("gsd", GSDDaemon)
        self.registry.register("wd", WatchDaemon)
        self.registry.register("ppm", PPMDaemon)
        self.registry.register("detector", DetectorDaemon)

    # -- boot ------------------------------------------------------------
    def boot(self) -> None:
        """Start every kernel daemon and install the initial meta-group view.

        Boot is the construction tool's moment: placement follows the
        static spec, and the initial view is configuration, not election.
        """
        if self.booted:
            raise KernelError("kernel already booted")
        first_server = self.cluster.partitions[0].server
        self.start_service("config", first_server)
        self.start_service("security", first_server)

        for part in self.cluster.partitions:
            self.start_service("ckpt.replica", part.backups[0])
            for svc in ("ckpt", "db", "es"):
                self.start_service(svc, part.server)

        for node_id in self.cluster.nodes:
            for svc in NODE_SERVICES:
                self.start_service(svc, node_id)

        for part in self.cluster.partitions:
            self.start_service("gsd", part.server)

        members = tuple((p.partition_id, p.server) for p in self.cluster.partitions)
        view = View(view_id=1, members=members)
        for part in self.cluster.partitions:
            self.gsd(part.partition_id).metagroup.install_view(view)
        self.note_placement("metagroup", "leader", members[0][1], epoch=view.epoch)
        self.note_view(view)
        self.booted = True
        if self.timings.trace_commit_marks:
            self.sim.trace.mark("leader.claimed", node=members[0][1], epoch=view.epoch)
        self.sim.trace.mark("kernel.booted", nodes=self.cluster.size, partitions=len(members))

    # -- service lifecycle ---------------------------------------------------
    def start_service(self, service: str, node_id: str) -> ServiceDaemon:
        """Create and start a fresh instance of ``service`` on ``node_id``.

        Used at boot and by every recovery/restart path (via PPM), so
        placement bookkeeping is always current.
        """
        daemon = self.registry.create(service, self, node_id)
        daemon.start()
        self._live[(service, node_id)] = daemon
        if service not in NODE_SERVICES:
            # Anything that is not a per-node daemon is placed per partition
            # (kernel partition services, single instances, user services).
            partition_id = self.cluster.node(node_id).partition_id
            self.placement[(service, partition_id)] = node_id
        return daemon

    def register_user_service(self, service: str, factory, partition_id: str) -> None:
        """Register a user-environment service for GSD supervision.

        This is the paper's "scheduling service group ... created on the
        basis of group service with high availability guaranteed" (§5.4):
        the named service joins the partition's service group — the GSD
        restarts it on process death and migrates it with the group on
        node death.  Place the instance with :meth:`start_service` on the
        partition's server node.
        """
        if service in ("gsd", *GSDDaemon.MANAGED, *NODE_SERVICES, "config", "security"):
            raise KernelError(f"{service!r} is a kernel service name")
        self.registry.register(service, factory)
        self.user_services[service] = partition_id

    def live_daemon(self, service: str, node_id: str | None) -> ServiceDaemon | None:
        """The live (or last) daemon instance of ``service`` on ``node_id``."""
        if node_id is None:
            return None
        return self._live.get((service, node_id))

    def note_placement(
        self, service: str, scope: str, node_id: str, epoch: int | None = None
    ) -> bool:
        """Record that ``service`` for ``scope`` now lives on ``node_id``.

        With ``epoch``, the record is fenced: an update stamped with an
        epoch older than the recorded one is rejected (returns False and
        marks ``gsd.fenced``), so two sides of a healed asymmetric split
        cannot fight over the entry — the higher epoch always wins.
        """
        key = (service, scope)
        if epoch is not None:
            current = self._placement_epochs.get(key)
            if current is not None and epoch < current:
                self.sim.trace.mark(
                    "gsd.fenced", target="placement", service=service, scope=scope,
                    node=node_id, epoch=epoch, current_epoch=current,
                )
                return False
            self._placement_epochs[key] = epoch
        self.placement[key] = node_id
        if self.timings.trace_commit_marks:
            self.sim.trace.mark(
                "placement.committed", service=service, scope=scope,
                node=node_id, epoch=epoch,
            )
        return True

    # -- federation topology (DESIGN.md §16) ---------------------------------
    @property
    def multi_region(self) -> bool:
        """More than one region?  Federation code never branches on this (one
        region just has no remote aggregators); :meth:`note_view` reads it
        to keep one-region traces free of ``region.aggregator`` marks."""
        return len(self._region_partitions) > 1

    def region_of(self, partition_id: str) -> int:
        """Region index of a partition."""
        return self._region_index[partition_id]

    def region_partitions(self, partition_id: str) -> tuple[str, ...]:
        """Configured partition ids of ``partition_id``'s region."""
        return self._region_partitions[self.region_of(partition_id)]

    def is_aggregator(self, partition_id: str) -> bool:
        """Is this partition its region's currently elected aggregator?"""
        return self.region_aggregators.get(self.region_of(partition_id)) == partition_id

    def federation_edges(self, service: str, partition_id: str) -> list[tuple[str, str, bool]]:
        """Placed federation peers of ``partition_id``'s ``service`` instance
        as ``(peer partition, hosting node, crosses_region)``: the own-region
        mesh in configured order, then every other region's aggregator in
        region order — O(P/R + R) edges; with one region, the complete graph.
        """
        own = self.region_of(partition_id)
        peers = [(pid, False) for pid in self._region_partitions[own] if pid != partition_id]
        peers += [
            (agg, True) for idx, agg in sorted(self.region_aggregators.items()) if idx != own
        ]
        return [
            (pid, self.placement[(service, pid)], remote)
            for pid, remote in peers
            if (service, pid) in self.placement
        ]

    def note_view(self, view) -> None:
        """Recompute region aggregators from an installed meta-group view.

        Election is deterministic: each region's aggregator is its first
        configured partition still present in the view (fallback: the
        first configured partition, so a fully evicted region keeps a
        stable target for retries until it rejoins).  Updates are fenced
        by the view epoch — a stale view from a healed minority cannot
        roll the aggregator map backwards.
        """
        # One region has no cross-region edge, hence no election and no
        # ``region.aggregator`` mark in the paper-calibrated traces.
        if not self.multi_region or view is None:
            return
        if view.epoch < self._aggregator_epoch:
            return
        self._aggregator_epoch = view.epoch
        present = {pid for pid, _ in view.members}
        for idx, pids in enumerate(self._region_partitions):
            agg = next((pid for pid in pids if pid in present), pids[0])
            if self.region_aggregators.get(idx) != agg:
                self.region_aggregators[idx] = agg
                self.sim.trace.mark(
                    "region.aggregator", region=idx, partition=agg, epoch=view.epoch
                )

    # -- service accessors (host-side introspection) -------------------------
    def _partition_daemon(self, service: str, partition_id: str) -> ServiceDaemon:
        node = self.placement.get((service, partition_id))
        daemon = self.live_daemon(service, node)
        if daemon is None:
            raise ServiceUnavailable(f"{service} for partition {partition_id} is not placed")
        return daemon

    def gsd(self, partition_id: str) -> GSDDaemon:
        """The partition's live group service daemon."""
        return self._partition_daemon("gsd", partition_id)  # type: ignore[return-value]

    def es(self, partition_id: str) -> EventServiceDaemon:
        """The partition's live event service instance."""
        return self._partition_daemon("es", partition_id)  # type: ignore[return-value]

    def bulletin(self, partition_id: str) -> BulletinDaemon:
        """The partition's live data bulletin instance."""
        return self._partition_daemon("db", partition_id)  # type: ignore[return-value]

    def checkpoint(self, partition_id: str) -> CheckpointDaemon:
        """The partition's live checkpoint service primary."""
        return self._partition_daemon("ckpt", partition_id)  # type: ignore[return-value]

    def config_service(self) -> ConfigServiceDaemon:
        """The single configuration service instance."""
        first = self.cluster.partitions[0].partition_id
        node = self.placement.get(("config", first))
        daemon = self.live_daemon("config", node)
        if daemon is None:
            raise ServiceUnavailable("configuration service is not running")
        return daemon  # type: ignore[return-value]

    def security_service(self):
        """The single security service instance."""
        first = self.cluster.partitions[0].partition_id
        node = self.placement.get(("security", first))
        daemon = self.live_daemon("security", node)
        if daemon is None:
            raise ServiceUnavailable("security service is not running")
        return daemon

    def db_locations(self) -> dict[str, str]:
        """partition id -> node currently hosting its data bulletin."""
        return {
            p.partition_id: self.placement[("db", p.partition_id)]
            for p in self.cluster.partitions
            if ("db", p.partition_id) in self.placement
        }

    def next_db_epoch(self, partition_id: str) -> int:
        """Next bulletin incarnation number for ``partition_id``."""
        epoch = self._db_epochs.get(partition_id, 0) + 1
        self._db_epochs[partition_id] = epoch
        return epoch

    # -- client API ----------------------------------------------------------
    def client(self, node_id: str) -> "KernelClient":
        """Documented user-environment interface, bound to one node."""
        return KernelClient(self, node_id)


class SecurityFactory:
    """Factory wrapper so the registry can build the security daemon
    (kept tiny; exists to avoid an import cycle at module top level)."""

    def __call__(self, kernel: PhoenixKernel, node_id: str) -> ServiceDaemon:
        from repro.kernel.security.service import SecurityServiceDaemon

        return SecurityServiceDaemon(kernel, node_id)


class KernelClient:
    """Client-side bindings of the kernel's documented interfaces.

    Each method issues the underlying protocol traffic from ``node_id``
    and returns a :class:`Signal` that fires with the reply (or ``None``
    on timeout) — callers in coroutines simply ``yield`` it.
    """

    def __init__(self, kernel: PhoenixKernel, node_id: str) -> None:
        self.kernel = kernel
        self.node_id = node_id
        self.sim = kernel.sim
        self._transport = kernel.cluster.transport

    def _node(self, service: str, partition: str | None) -> str:
        """The node serving ``service`` (``db`` or ``es``) for ``partition``
        (default: this client's)."""
        part = partition or self._own_partition()
        node = self.kernel.placement.get((service, part))
        if node is None:
            raise ServiceUnavailable(f"no {_SERVICE_NAMES[service]} placed for partition {part}")
        return node

    # -- data bulletin federation (single access point, Figure 5) -----------
    def query_bulletin(
        self,
        table: str,
        where: dict[str, Any] | None = None,
        partition: str | None = None,
        timeout: float = 5.0,
    ) -> Signal:
        """Read ``table``'s rows matching ``where`` cluster-wide through
        *any* bulletin instance: ``exec_query(Query(table, where))``.

        An aggregate is a typed query (:meth:`exec_query`) or a registered
        view (:meth:`register_view`).
        """
        return self.exec_query(Query(table, where), partition, timeout)

    # -- relational layer (typed queries + materialized views) -----------
    def exec_query(self, query: Query, partition: str | None = None,
                   timeout: float = 15.0) -> Signal:
        """Run a typed relational query through any bulletin instance — the
        one cluster-wide read path, or a read of checkpoint history when
        the query is ``AS OF`` a past time.  A query over a registered
        view's name goes to the view's owner (default partition); a
        malformed name is left for the bulletin to refuse."""
        owners = self.kernel.view_owners
        part = partition or (owners.get(query.table) if isinstance(query.table, str) else None)
        return self._transport.rpc_retry(
            self.node_id, self._node("db", part), ports.DB, ports.DB_EXEC,
            {"query": query.to_payload()}, timeout=timeout,
        )

    def register_view(
        self, name: str, query, partition: str | None = None, timeout: float = 30.0
    ) -> Signal:
        """Register a materialized view on a bulletin instance (default:
        this node's partition); fires once the initial build completes."""
        return self._transport.rpc(
            self.node_id, self._node("db", partition), ports.DB, ports.DB_VIEW_REGISTER,
            {"name": name, "query": query.to_payload()}, timeout=timeout,
        )

    def read_view(self, name: str, partition: str | None = None, timeout: float = 5.0) -> Signal:
        """Read a registered view from its owner: ``exec_query(Query(name))``,
        O(result) bytes."""
        if partition is None and name not in self.kernel.view_owners:
            raise ServiceUnavailable(f"view {name!r} has no registered owner")
        return self.exec_query(Query(name), partition, timeout)

    def drop_view(self, name: str, timeout: float = 5.0) -> Signal:
        """Unregister a view at its owner (delta publishing stays on)."""
        part = self.kernel.view_owners.get(name)
        if part is None:
            raise ServiceUnavailable(f"view {name!r} has no registered owner")
        return self._transport.rpc(
            self.node_id, self._node("db", part), ports.DB, ports.DB_VIEW_DROP,
            {"name": name}, timeout=timeout,
        )

    def list_views(self, partition: str | None = None, timeout: float = 5.0) -> Signal:
        """Owned view definitions + maintenance counters of one instance."""
        return self._transport.rpc(self.node_id, self._node("db", partition), ports.DB,
                                   ports.DB_VIEW_LIST, {}, timeout=timeout)

    # -- event service ---------------------------------------------------
    def subscribe(
        self,
        consumer_id: str,
        port: str,
        types: tuple[str, ...] = (),
        where: dict[str, Any] | None = None,
        partition: str | None = None,
        replay: int = 0,
    ) -> Signal:
        """Register as an event consumer; events arrive on ``port`` of this
        client's node as ``es.event`` messages.

        ``replay`` asks the instance to re-push its last N matching
        retained events first (late-joiner catch-up); type entries may
        use family wildcards (``"node.*"``).
        """
        return self._transport.rpc(
            self.node_id, self._node("es", partition), ports.ES, ports.ES_SUBSCRIBE,
            {
                "consumer_id": consumer_id,
                "node": self.node_id,
                "port": port,
                "types": list(types),
                "where": dict(where or {}),
                "replay": int(replay),
            },
        )

    def unsubscribe(self, consumer_id: str, partition: str | None = None) -> Signal:
        """Remove an event subscription by consumer id."""
        return self._transport.rpc(self.node_id, self._node("es", partition), ports.ES,
                                   ports.ES_UNSUBSCRIBE, {"consumer_id": consumer_id})

    def publish(self, event_type: str, data: dict[str, Any], partition: str | None = None) -> Signal:
        """Publish an event through the partition's event service."""
        return self._transport.rpc(
            self.node_id, self._node("es", partition), ports.ES, ports.ES_PUBLISH,
            {"type": event_type, "data": data},
        )

    # -- parallel commands (PPM tree fan-out) --------------------------------
    def parallel_command(
        self,
        cmd: str,
        targets: list[str],
        args: dict[str, Any] | None = None,
        timeout: float | None = None,
    ) -> Signal:
        """Run ``cmd`` on every node in ``targets``; fires with
        ``{"results": {node: ...}, "errors": {node: reason}}``."""
        if not targets:
            raise KernelError("parallel command needs at least one target")
        if timeout is None:
            timeout = subtree_timeout(RPC_TIMEOUT, len(targets)) + 2.0
        return self._transport.rpc(
            self.node_id, self.node_id, ports.PPM, ports.PPM_PCMD,
            {"cmd": cmd, "args": dict(args or {}), "targets": list(targets)},
            timeout=timeout,
        )

    def spawn_job(
        self, node: str, job_id: str, cpus: int, duration: float, user: str = ""
    ) -> Signal:
        """Load one job task on one node (remote job loading)."""
        return self._transport.rpc(
            self.node_id, node, ports.PPM, ports.PPM_SPAWN_JOB,
            {"job_id": job_id, "cpus": cpus, "duration": duration, "user": user},
        )

    def kill_job(self, node: str, job_id: str) -> Signal:
        """Kill one job task on one node via its PPM daemon."""
        return self._transport.rpc(
            self.node_id, node, ports.PPM, ports.PPM_KILL_JOB, {"job_id": job_id}
        )

    # -- configuration service ---------------------------------------------
    def config_get(self, key: str) -> Signal:
        """Read one configuration key."""
        return self._config_rpc(ports.CONFIG_GET, {"key": key})

    def config_set(self, key: str, value: Any) -> Signal:
        """Write one configuration key (publishes config.changed)."""
        return self._config_rpc(ports.CONFIG_SET, {"key": key, "value": value})

    def config_list(self, prefix: str = "") -> Signal:
        """List configuration keys under a prefix."""
        return self._config_rpc(ports.CONFIG_LIST, {"prefix": prefix})

    def introspect(self) -> Signal:
        """Run the configuration service's cluster self-introspection."""
        return self._config_rpc(ports.CONFIG_INTROSPECT, {})

    def _config_rpc(self, mtype: str, payload: dict[str, Any]) -> Signal:
        first = self.kernel.cluster.partitions[0].partition_id
        node = self.kernel.placement.get(("config", first))
        if node is None:
            raise ServiceUnavailable("configuration service is not placed")
        return self._transport.rpc(self.node_id, node, ports.CONFIG, mtype, payload)

    # -- security service --------------------------------------------------
    def authenticate(self, user: str, password: str) -> Signal:
        """Exchange credentials for a signed token at the security service."""
        return self._security_rpc(ports.SEC_AUTH, {"user": user, "password": password})

    def authorize(self, token: str, action: str) -> Signal:
        """Check ``token`` against the role policy for ``action``."""
        return self._security_rpc(ports.SEC_AUTHORIZE, {"token": token, "action": action})

    def _security_rpc(self, mtype: str, payload: dict[str, Any]) -> Signal:
        first = self.kernel.cluster.partitions[0].partition_id
        node = self.kernel.placement.get(("security", first))
        if node is None:
            raise ServiceUnavailable("security service is not placed")
        return self._transport.rpc(self.node_id, node, ports.SECURITY, mtype, payload)

    # -- helpers ---------------------------------------------------------
    def _own_partition(self) -> str:
        return self.kernel.cluster.node(self.node_id).partition_id
