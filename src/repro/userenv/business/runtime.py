"""Business application runtime environment (paper §3).

"Business application runtime environment is the core of the business
application hosting environment. It manages multi-tier business
applications and guarantees their high-availability and load-balancing."

An application is a set of tiers (web / app / db ...), each with a
replica count.  Replicas run as long-lived processes loaded through PPM;
the runtime subscribes to application/node failure events and re-places
failed replicas, and a per-tier load balancer routes simulated requests
across healthy replicas.  Availability (the 7x24 promise of the paper's
introduction) is tracked per application as uptime of "every tier has at
least one healthy replica".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster.message import Message
from repro.errors import UserEnvError
from repro.kernel import ports
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.events import types as ev
from repro.kernel.events.types import Event
from repro.kernel.ports import DICT, INT, NAME, NODE, NUMBER, declare, each, opt, record
from repro.userenv.inventory import Inventory

PORT = "bizrt"
EVENT_PORT = "bizrt.events"

# control interface (a deploy's tiers are TierSpec fields: name, replicas, cpus)
DEPLOY = declare("bizrt.deploy", PORT, name=NAME, tiers=each(DICT))
SCALE = declare("bizrt.scale", PORT, name=NAME, tier=NAME, replicas=INT)
STATUS = declare("bizrt.status", PORT)

#: A ``bizrt.state`` checkpoint, checked before any of its apps is rebuilt.
_STATE = record("runtime state", apps=opt(each(record(
    "app", name=NAME, tiers=each(DICT), deployed_at=NUMBER, downtime=NUMBER, down_since=opt(NUMBER),
    replicas=each(record("replica", app=NAME, tier=NAME, index=INT, node=opt(NODE)))))))

#: SLA alert event types published by the runtime (consumable by any
#: event-service subscriber, e.g. an operator console).
SLA_VIOLATED = "sla.violated"
SLA_RESTORED = "sla.restored"

#: "Forever" for replica processes (virtual seconds).
REPLICA_LIFETIME = 1e12


@dataclass(frozen=True)
class TierSpec:
    name: str
    replicas: int
    cpus: int = 1

    def __post_init__(self) -> None:
        if self.replicas <= 0 or self.cpus <= 0:
            raise UserEnvError(f"tier {self.name}: replicas and cpus must be positive")


@dataclass(frozen=True)
class BizAppSpec:
    name: str
    tiers: tuple[TierSpec, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise UserEnvError("application needs a name")
        if not self.tiers:
            raise UserEnvError(f"{self.name}: needs at least one tier")
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise UserEnvError(f"{self.name}: duplicate tier names")


@dataclass
class Replica:
    app: str
    tier: str
    index: int
    node: str | None = None
    healthy: bool = False

    @property
    def job_id(self) -> str:
        return f"{self.app}.{self.tier}.{self.index}"

    def to_payload(self) -> dict[str, Any]:
        return {
            "app": self.app, "tier": self.tier, "index": self.index,
            "node": self.node, "healthy": self.healthy,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Replica":
        return cls(
            app=payload["app"], tier=payload["tier"], index=int(payload["index"]),
            node=payload.get("node"), healthy=bool(payload.get("healthy")),
        )


class TierRoute(list):
    """One tier's routing list (its healthy replicas), the round-robin
    cursor over it and the name of its request counter."""

    __slots__ = ("cursor", "counter")

    def __init__(self, app: str, tier: str) -> None:
        super().__init__()
        self.cursor, self.counter = -1, f"bizrt.requests.{app}.{tier}"


@dataclass
class AppState:
    spec: BizAppSpec
    replicas: list[Replica] = field(default_factory=list)
    deployed_at: float = 0.0
    downtime: float = 0.0
    _down_since: float | None = None
    #: Has a violated-SLA alert been raised and not yet cleared?
    alerted_down: bool = False
    #: Per tier, its healthy replicas in ``replicas`` order: what requests
    #: are routed over and admitted against.  Derived state, written only
    #: by :meth:`set_replica`; each list is updated in place, so a holder
    #: of one always reads the current set.
    routes: dict[str, TierRoute] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.routes = {t.name: TierRoute(self.spec.name, t.name) for t in self.spec.tiers}
        for tier in self.routes:
            self._reroute(tier)

    def set_replica(self, replica: Replica, healthy: bool, member: bool = True) -> bool:
        """The one writer of replica health and membership.

        Sets ``replica.healthy``, appends the replica to ``replicas``
        (``member`` and not there yet) or removes it (not ``member``), and
        rebuilds its tier's routing list.  Returns True when that list grew.
        """
        replica.healthy = healthy and member
        at = next((i for i, r in enumerate(self.replicas) if r is replica), None)
        if member and at is None:
            self.replicas.append(replica)
        elif not member and at is not None:
            del self.replicas[at]
        return self._reroute(replica.tier)

    def _reroute(self, tier: str) -> bool:
        route = self.routes[tier]
        before = len(route)
        route[:] = [r for r in self.replicas if r.tier == tier and r.healthy]
        return len(route) > before

    def tier_replicas(self, tier: str) -> list[Replica]:
        return [r for r in self.replicas if r.tier == tier]

    def serving(self) -> bool:
        return all(self.routes.values())

    def note_state(self, now: float) -> str | None:
        """Update downtime accounting after any replica state change.

        Returns ``"down"``/``"up"`` on a serving transition, else None.
        """
        if self.serving():
            if self._down_since is not None:
                self.downtime += now - self._down_since
                self._down_since = None
                return "up"
        elif self._down_since is None:
            self._down_since = now
            return "down"
        return None

    def availability(self, now: float) -> float:
        total = now - self.deployed_at
        if total <= 0:
            return 1.0
        down = self.downtime + ((now - self._down_since) if self._down_since is not None else 0.0)
        return max(0.0, 1.0 - down / total)


class BusinessRuntime(ServiceDaemon):
    """The business application hosting service (GSD-supervisable)."""

    SERVICE = "bizrt"

    def __init__(self, kernel, node_id: str, worker_nodes: list[str] | None = None) -> None:
        super().__init__(kernel, node_id)
        self.apps: dict[str, AppState] = {}
        self.inventory = Inventory(self.cluster.nodes if worker_nodes is None else worker_nodes)
        #: Optional TrafficGenerator surfacing admission state in health rows.
        self._traffic = None

    # -- lifecycle -----------------------------------------------------------
    def on_start(self) -> None:
        self.spawn(self._startup(), name=f"{self.node_id}/bizrt.start")

    def _startup(self):
        # Subscribe *before* rebuilding state: a failure fired while we
        # reconcile must find a consumer.  An event that races ahead of
        # the registry reload is still caught, because _load_state
        # re-checks process liveness after the subscription is live.
        yield from self.subscribe("bizrt", EVENT_PORT,
                                  [ev.APP_FAILED, ev.NODE_FAILURE, ev.NODE_RECOVERY])
        yield from self._load_state()
        yield from self.inventory.load(self)
        # Account for replicas re-adopted from the checkpointed registry,
        # and re-place any that died while we were down (their failure
        # events had no consumer).
        for state in self.apps.values():
            for replica in state.replicas:
                if replica.healthy and replica.node is not None:
                    self.inventory.allocate(replica.node, self._tier_cpus(replica.app, replica.tier))
        for state in self.apps.values():
            for replica in list(state.replicas):
                if not replica.healthy:
                    self.sim.trace.count("bizrt.heals")
                    self._place(replica, self._tier_cpus(replica.app, replica.tier))

    # -- persistence (the runtime itself is GSD-supervised) -----------------
    CKPT_KEY = "bizrt.state"

    def _checkpoint(self) -> None:
        self.save_state(self.CKPT_KEY, {
            "apps": [
                {
                    "name": state.spec.name,
                    "tiers": [
                        {"name": t.name, "replicas": t.replicas, "cpus": t.cpus}
                        for t in state.spec.tiers
                    ],
                    "replicas": [r.to_payload() for r in state.replicas],
                    "deployed_at": state.deployed_at,
                    "downtime": state.downtime,
                    "down_since": state._down_since,
                    "alerted_down": state.alerted_down,
                }
                for state in self.apps.values()
            ],
        })

    def _load_state(self):
        """Rebuild the app registry after a restart/migration; running
        replica processes are independent and simply re-adopted."""
        loaded = yield from self.load_state(self.CKPT_KEY, self._restored_apps)
        if loaded:
            self.apps.update(loaded["data"])
            self.sim.trace.mark("bizrt.state_recovered", apps=len(self.apps))

    def _restored_apps(self, data: dict[str, Any], names: ports.Names) -> dict[str, AppState]:
        """A ``bizrt.state`` checkpoint's apps by name, each replica healthy
        only if its process survived the outage."""
        apps = {}
        _STATE.check(data, names)
        for blob in data.get("apps", []):
            spec = BizAppSpec(blob["name"], tuple(TierSpec(**t) for t in blob["tiers"]))
            state = AppState(spec=spec, deployed_at=blob["deployed_at"],
                             downtime=blob["downtime"])
            # An app that was mid-outage keeps its original outage clock:
            # restarting it at recovery time would over-report availability.
            state._down_since = blob.get("down_since")
            state.alerted_down = bool(blob.get("alerted_down", False))
            for payload in blob["replicas"]:
                replica = Replica.from_payload(payload)
                if (replica.app, replica.tier) not in {(spec.name, t.name) for t in spec.tiers}:
                    raise ValueError(f"replica {replica.job_id} outside its app's tiers")
                # A replica only counts as healthy if its process actually
                # survived our outage (node up + task process alive).
                healthy = replica.healthy and (
                    replica.node is None
                    or (self.cluster.node(replica.node).up
                        and self.cluster.hostos(replica.node).process_alive(
                            f"job.{replica.job_id}"))
                )
                state.set_replica(replica, healthy)
            state.note_state(self.sim.now)
            apps[spec.name] = state
        return apps

    # -- control interface --------------------------------------------------
    def _on_deploy(self, msg: Message) -> dict[str, Any]:
        try:
            spec = BizAppSpec(
                name=msg.payload["name"],
                tiers=tuple(TierSpec(**t) for t in msg.payload["tiers"]),
            )
        except Exception as exc:
            return {"ok": False, "error": str(exc)}
        if spec.name in self.apps:
            return {"ok": False, "error": f"app {spec.name} already deployed"}
        self.deploy(spec)
        return {"ok": True}

    def _on_scale(self, msg: Message) -> dict[str, Any]:
        try:
            count = self.scale(msg.payload["name"], msg.payload["tier"], msg.payload["replicas"])
        except (UserEnvError, KeyError) as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": True, "replicas": count}

    def deploy(self, spec: BizAppSpec) -> AppState:
        """Deploy every tier's replicas across the worker nodes."""
        state = AppState(spec=spec, deployed_at=self.sim.now)
        self.apps[spec.name] = state
        for tier in spec.tiers:
            for index in range(tier.replicas):
                replica = Replica(app=spec.name, tier=tier.name, index=index)
                self._set_replica(state, replica, False)
                self._place(replica, tier.cpus)
        state.note_state(self.sim.now)
        self._checkpoint()
        self.sim.trace.mark("bizrt.deployed", app=spec.name, replicas=len(state.replicas))
        return state

    def scale(self, app: str, tier: str, replicas: int) -> int:
        """Scale a tier up or down (the policy's ``bizapp.scale`` action).

        Scaling up places fresh replicas; scaling down retires the
        highest-index replicas first (killing their processes).  Returns
        the tier's new replica count.
        """
        if replicas <= 0:
            raise UserEnvError("replicas must be positive")
        state = self.apps.get(app)
        if state is None:
            raise UserEnvError(f"unknown application {app!r}")
        cpus = self._tier_cpus(app, tier)
        current = state.tier_replicas(tier)
        if not current:
            raise UserEnvError(f"{app} has no tier {tier!r}")
        if replicas > len(current):
            next_index = max(r.index for r in current) + 1
            for index in range(next_index, next_index + replicas - len(current)):
                replica = Replica(app=app, tier=tier, index=index)
                self._set_replica(state, replica, False)
                self._place(replica, cpus)
        elif replicas < len(current):
            for replica in sorted(current, key=lambda r: -r.index)[: len(current) - replicas]:
                if replica.healthy and replica.node is not None:
                    self.send(replica.node, ports.PPM, ports.PPM_KILL_JOB,
                              {"job_id": replica.job_id})
                    self.inventory.release(replica.node, cpus)
                self._set_replica(state, replica, False, member=False)
        self._note_and_alert(state)
        self._checkpoint()
        self.sim.trace.mark("bizrt.scaled", app=app, tier=tier, replicas=replicas)
        return len(state.tier_replicas(tier))

    def _set_replica(self, state: AppState, replica: Replica, healthy: bool,
                     member: bool = True) -> None:
        """Every health or membership change of a replica goes through
        :meth:`AppState.set_replica` here; when it grows a tier's routing
        list, requests queued at that tier's admission gate are granted
        now rather than at the gate's next arrival or release."""
        if state.set_replica(replica, healthy, member) and self._traffic is not None:
            self._traffic.tier_grew(state.spec.name, replica.tier)

    # -- placement / recovery ------------------------------------------------
    def _pick_node(self, cpus: int, avoid: str | None = None) -> str | None:
        """Least-loaded-first placement across healthy workers."""
        free = self.inventory.free
        candidates = [(free(n), n) for n in self.inventory.nodes() if free(n) >= cpus and n != avoid]
        if not candidates:
            return None
        candidates.sort(key=lambda c: (-c[0], c[1]))
        return candidates[0][1]

    def _place(self, replica: Replica, cpus: int, avoid: str | None = None) -> None:
        # Only unhealthy replicas are placed: new ones, healed ones and
        # failed spawns.
        node = self._pick_node(cpus, avoid=avoid)
        if node is None:
            replica.node = None
            self.sim.trace.mark("bizrt.placement_failed", replica=replica.job_id)
            return
        replica.node = node
        self.inventory.allocate(node, cpus)
        self.spawn(self._start_replica(replica, cpus), name=f"{self.node_id}/bizrt.place")

    def _start_replica(self, replica: Replica, cpus: int):
        # Application startup cost (configurable via extra["spawn.bizapp"]).
        yield self.timings.spawn_time("bizapp")
        reply = yield self.rpc(
            replica.node, ports.PPM, ports.PPM_SPAWN_JOB,
            {
                "job_id": replica.job_id, "cpus": cpus,
                "duration": REPLICA_LIFETIME, "user": f"bizapp:{replica.app}",
            },
        )
        state = self.apps.get(replica.app)
        # The replica may have been retired (scale-down) while the spawn
        # was in flight; its slot must not rejoin the serving set.
        retired = state is None or not any(r is replica for r in state.replicas)
        if reply is not None and reply.get("ok"):
            if retired:
                self.send(replica.node, ports.PPM, ports.PPM_KILL_JOB,
                          {"job_id": replica.job_id})
                self.inventory.release(replica.node, cpus)
                replica.node = None
                return
            self._set_replica(state, replica, True)
            self.sim.trace.count("bizrt.replicas_started")
        else:
            # The replica was unhealthy for the whole spawn and stays so.
            failed_node = replica.node
            self.inventory.release(failed_node, cpus)
            replica.node = None
            if not retired:
                self.sim.trace.count("bizrt.spawn_failed")
                self._place(replica, cpus, avoid=failed_node)
        if not retired:
            self._note_and_alert(state)
            self._checkpoint()

    def _tier_cpus(self, app: str, tier: str) -> int:
        for t in self.apps[app].spec.tiers:
            if t.name == tier:
                return t.cpus
        raise UserEnvError(f"unknown tier {tier} of {app}")

    # -- event-driven self-healing ------------------------------------------
    def _on_event(self, msg: Message) -> None:
        event = Event.from_payload(msg.payload["event"])
        if event.type == ev.NODE_FAILURE:
            node = event.data.get("node", "")
            self.inventory.node_failed(node)
            for state in self.apps.values():
                for replica in state.replicas:
                    if replica.node == node and replica.healthy:
                        self._heal(state, replica, failed_node=node)
        elif event.type == ev.NODE_RECOVERY:
            node = event.data.get("node", "")
            if self.inventory.node_returned(node, self._placed().get(node, 0)):
                self._retry_unplaced()
            elif self.inventory.needs_load(node):
                self.spawn(self._reload_inventory(), name=f"{self.node_id}/bizrt.inventory")
        elif event.type == ev.APP_FAILED:
            job_id = event.data.get("job_id", "")
            for state in self.apps.values():
                for replica in state.replicas:
                    if replica.job_id == job_id and replica.healthy:
                        self._heal(state, replica, failed_node=replica.node)

    PORTS = {
        PORT: {
            DEPLOY: _on_deploy,
            SCALE: _on_scale,
            STATUS: lambda self, msg: {
                "apps": {name: self.app_status(name) for name in sorted(self.apps)}},
        },
        EVENT_PORT: {ports.ES_EVENT: _on_event},
    }

    def _reload_inventory(self):
        yield from self.inventory.load(self)
        self._retry_unplaced()

    def _retry_unplaced(self) -> None:
        """Replicas that could not be placed anywhere get another chance
        once capacity returns (called on NODE_RECOVERY)."""
        for state in self.apps.values():
            for replica in list(state.replicas):
                if not replica.healthy and replica.node is None:
                    self.sim.trace.count("bizrt.replace_retries")
                    self._place(replica, self._tier_cpus(replica.app, replica.tier))

    def _heal(self, state: AppState, replica: Replica, failed_node: str | None) -> None:
        cpus = self._tier_cpus(replica.app, replica.tier)
        self.inventory.release(replica.node, cpus)
        self._set_replica(state, replica, False)
        self._note_and_alert(state)
        self.sim.trace.count("bizrt.heals")
        self._place(replica, cpus, avoid=failed_node)
        # Persist the down transition now: when placement fails (no
        # capacity) no spawn completion will checkpoint for us, and a
        # runtime restart mid-outage must reload the outage clock.
        self._checkpoint()

    def _note_and_alert(self, state: AppState) -> None:
        """Track downtime and publish SLA events on serving transitions —
        the runtime's 7x24 promise made observable."""
        transition = state.note_state(self.sim.now)
        if transition is None:
            return
        if transition == "down":
            state.alerted_down = True
        else:
            if not state.alerted_down:
                return  # initial deployment coming up: not an SLA recovery
            state.alerted_down = False
        event_type = SLA_VIOLATED if transition == "down" else SLA_RESTORED
        self.sim.trace.count(f"bizrt.sla.{transition}")
        self.sim.trace.mark("bizrt.sla", app=state.spec.name, transition=transition)
        self.publish(event_type, {
            "app": state.spec.name,
            "availability": state.availability(self.sim.now),
        })

    # -- load balancing --------------------------------------------------
    def route_replica(self, app: str, tier: str, span=None) -> Replica:
        """Round-robin a request over the tier's routing list.

        Raises :class:`UserEnvError` when the tier is entirely down —
        callers count that as a failed request.  When ``span`` is given
        the routing decision is marked against it, so a request trace
        decomposes into route → queue → service.
        """
        state = self.apps.get(app)
        if state is None:
            raise UserEnvError(f"unknown application {app!r}")
        healthy = state.routes.get(tier)
        if not healthy:
            raise UserEnvError(f"{app}/{tier}: no healthy replica")
        healthy.cursor = at = (healthy.cursor + 1) % len(healthy)
        replica = healthy[at]
        self.sim.trace.count(healthy.counter)
        if span is not None:
            span.mark("bizrt.route", tier=tier, replica=replica.job_id,
                      node=replica.node)
        return replica

    def route(self, app: str, tier: str, span=None) -> str:
        """Route a request and return the chosen replica's node id."""
        return self.route_replica(app, tier, span=span).node

    # -- status --------------------------------------------------------------
    def app_status(self, app: str) -> dict[str, Any]:
        state = self.apps[app]
        return {
            "serving": state.serving(),
            "availability": state.availability(self.sim.now),
            "tiers": {t.name: len(state.routes[t.name]) for t in state.spec.tiers},
        }

    def _placed(self) -> dict[str, int]:
        """CPUs per node of the replicas assigned there (healthy or spawn-in-flight)."""
        placed: dict[str, int] = {}
        for state in self.apps.values():
            for r in state.replicas:
                if r.node is not None:
                    placed[r.node] = placed.get(r.node, 0) + self._tier_cpus(r.app, r.tier)
        return placed

    def capacity_audit(self) -> dict[str, Any]:
        """Reconcile the inventory's free CPUs against its capacity.

        For every up worker, ``capacity == free + placed`` must hold,
        where *placed* counts replicas currently assigned to the node
        (healthy or spawn-in-flight).  ``drift`` sums the absolute
        discrepancies — zero means no capacity was leaked or
        double-refunded across the kill / heal / failed-spawn paths.
        """
        placed, inventory, nodes = self._placed(), self.inventory, {}
        for node in filter(inventory.up, inventory.nodes()):
            capacity, free, held = inventory.capacity(node), inventory.free(node), placed.get(node, 0)
            nodes[node] = {"capacity": capacity, "free": free, "placed": held,
                           "drift": capacity - free - held}
        return {"nodes": nodes, "drift": sum(abs(entry["drift"]) for entry in nodes.values())}

    # -- kernel health -------------------------------------------------------
    def attach_traffic(self, generator) -> None:
        """Surface a TrafficGenerator's admission state through this
        daemon's ``kernel.health`` row (what the autoscaler consumes), and
        tell it when a tier gains a healthy replica."""
        self._traffic = generator

    def health_snapshot(self) -> dict[str, Any]:
        row = super().health_snapshot()
        for name, h in self.sim.trace.histograms("bizreq.latency.").items():
            if h.count:
                row["hist"][name] = h.summary()
        row["apps"] = {
            name: {
                "serving": state.serving(),
                "tiers": {t.name: len(state.routes[t.name]) for t in state.spec.tiers},
            }
            for name, state in sorted(self.apps.items())
        }
        if self._traffic is not None:
            row["serving_queues"] = self._traffic.admission_snapshot()
        return row


def install_business_runtime(kernel, worker_nodes: list[str] | None = None,
                             partition_id: str | None = None) -> BusinessRuntime:
    """Register the runtime in the kernel's service group and start it."""
    pid = partition_id or kernel.cluster.partitions[0].partition_id

    def factory(k, node_id):
        return BusinessRuntime(k, node_id, worker_nodes=worker_nodes)

    kernel.register_user_service("bizrt", factory, pid)
    server_node = kernel.placement[("gsd", pid)]
    return kernel.start_service("bizrt", server_node)
