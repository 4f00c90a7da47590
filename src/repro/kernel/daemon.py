"""Base class for Phoenix kernel service daemons.

A :class:`ServiceDaemon` is one OS process on one node.  The base class
handles the mechanics every service shares — host-process registration,
port binding tied to process liveness, coroutine spawning, and trace
marks for start/stop — so service modules contain protocol logic only.

Restart/migration never reuses a daemon object: the recovery machinery
builds a *fresh* instance via the kernel's :class:`DaemonRegistry`,
mirroring a real exec of a new process (state comes back from the
checkpoint service, :meth:`ServiceDaemon.load_state`, not from Python
object reuse).
"""

from __future__ import annotations

import copy
from collections.abc import Callable, Generator
from typing import TYPE_CHECKING, Any

from repro.cluster.hostos import HostProcess
from repro.cluster.message import Message
from repro.errors import KernelError, ServiceUnavailable
from repro.kernel import ports
from repro.kernel.timings import CKPT_DEBOUNCE, RPC_INFLIGHT_BUDGETS, RPC_TIMEOUT
from repro.sim import Proc, Signal, Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.api import PhoenixKernel

#: Bulletin table carrying the daemons' periodic ``kernel.health``
#: self-reports (defined here, not in the bulletin module, to avoid an
#: import cycle — the bulletin daemon is itself a ServiceDaemon).
HEALTH_TABLE = "kernel_health"

#: Spine latency histograms folded into every health report.
HEALTH_HISTOGRAMS = (
    "rpc.call",
    "rpc.retry",
    "es.publish",
    "es.deliver",
    "es.forward_batch",
    "db.exec",
    "gsd.failover",
    "gsd.diagnose",
    "gsd.recover",
)

#: Spine counters folded into every health report.
HEALTH_COUNTERS = (
    "es.published",
    "es.delivered",
    "es.forward_requeued",
    "es.outbox_dropped",
    "rpc.retries",
    "rpc.inflight_queued",
)


class ServiceDaemon:
    """One kernel service instance on one node."""

    #: Host-process name and default port; subclasses override.
    SERVICE = "svc"
    #: ``port -> {message type -> handler(daemon, msg)}``, bound at start
    #: (:meth:`bind`); each type must be declared for its port in
    #: :mod:`repro.kernel.ports`, which defining the class checks.
    PORTS: dict[str, dict[str, Callable[[Any, Message], Any]]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for port, handlers in cls.PORTS.items():
            for mtype in handlers:
                contract = ports.CONTRACTS.get(mtype)
                if contract is None or contract.ports and port not in contract.ports:
                    raise KernelError(f"{cls.__name__}: {mtype!r} is not declared on port {port!r}")

    def __init__(self, kernel: "PhoenixKernel", node_id: str) -> None:
        self.kernel = kernel
        self.node_id = node_id
        self.cluster = kernel.cluster
        self.partition_id: str = kernel.cluster.node(node_id).partition_id
        self.sim = kernel.sim
        self.transport = kernel.cluster.transport
        self.timings = kernel.timings
        self.hp: HostProcess | None = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Register the host process, bind ports, and start loops."""
        hostos = self.cluster.hostos(self.node_id)
        self.hp = hostos.start_process(self.SERVICE)
        self.sim.trace.mark("service.started", service=self.SERVICE, node=self.node_id)
        for port, handlers in self.PORTS.items():
            self.bind(port, handlers)
        self.on_start()
        interval = self.timings.health_report_interval
        if interval is not None:
            self.spawn(self._health_loop(interval), name=f"{self.node_id}/{self.SERVICE}.health")

    def on_start(self) -> None:
        """Subclass hook: spawn loops here (:attr:`PORTS` are bound already)."""

    def stop(self) -> None:
        """Graceful stop (administrative, not a fault)."""
        if self.hp is not None and self.hp.alive:
            self.hp.kill()
            self.sim.trace.mark("service.stopped", service=self.SERVICE, node=self.node_id)

    @property
    def alive(self) -> bool:
        return self.hp is not None and self.hp.alive and self.cluster.node(self.node_id).up

    # -- plumbing shared by subclasses --------------------------------------
    def bind(self, port: str, handlers: dict[str, Callable[[Any, Message], Any]]) -> None:
        """Serve ``port`` on this node, owned by this daemon's process: each
        message goes to its type's ``handler(daemon, msg)`` once it passes
        the type's declaration (:mod:`repro.kernel.ports`)."""
        assert self.hp is not None, "bind() before start()"
        self.transport.bind(self.node_id, port, PortDispatch(self, port, handlers), owner=self.hp)

    def spawn(self, body: Generator[Any, Any, Any], name: str = "") -> Proc:
        assert self.hp is not None, "spawn() before start()"
        return self.hp.adopt(body, name=name or f"{self.node_id}/{self.SERVICE}")

    def send(
        self,
        dst_node: str,
        dst_port: str,
        mtype: str,
        payload: dict[str, Any] | None = None,
        network: str | None = None,
    ) -> bool:
        return self.transport.send(self.node_id, dst_node, dst_port, mtype, payload, network=network)

    def send_all_networks(
        self, dst_node: str, dst_port: str, mtype: str, payload: dict[str, Any] | None = None
    ) -> int:
        return self.transport.send_all_networks(self.node_id, dst_node, dst_port, mtype, payload)

    def rpc(
        self,
        dst_node: str,
        dst_port: str,
        mtype: str,
        payload: dict[str, Any] | None = None,
        network: str | None = None,
        timeout: float | None = None,
        span: Span | None = None,
    ) -> Signal:
        return self.transport.rpc(
            self.node_id,
            dst_node,
            dst_port,
            mtype,
            payload,
            network=network,
            timeout=RPC_TIMEOUT if timeout is None else timeout,
            span=span,
        )

    def rpc_retry(
        self,
        dst_node: str,
        dst_port: str,
        mtype: str,
        payload: dict[str, Any] | None = None,
        network: str | None = None,
        timeout: float | None = None,
        span: Span | None = None,
        call_class: str | None = None,
    ) -> Signal:
        """Retrying RPC for *idempotent* calls (queries, checkpoint
        save/load, fan-out); same total timeout budget as :meth:`rpc`,
        retry policy from :meth:`Transport.rpc_retry`'s defaults.

        ``call_class`` tags the call site for a per-class in-flight
        budget (``timings.RPC_INFLIGHT_BUDGETS``): wide fan-outs and
        bulky pulls get cheaper per-destination caps than ordinary
        control-plane calls (untagged or unknown classes get the
        transport-global cap).
        """
        return self.transport.rpc_retry(
            self.node_id,
            dst_node,
            dst_port,
            mtype,
            payload,
            network=network,
            timeout=RPC_TIMEOUT if timeout is None else timeout,
            inflight_cap=RPC_INFLIGHT_BUDGETS.get(call_class),
            span=span,
        )

    # -- durable state: the partition's checkpoint service -------------------
    #: Keys with a debounced save pending, and each key's save on the wire
    #: (class-level and empty until a daemon saves).
    _saves_due: frozenset[str] = frozenset()
    _saving: dict[str, "_Save"] | None = None

    def save_state(self, key: str, data: dict[str, Any]) -> Signal | None:
        """Save ``data`` under ``key`` at this partition's checkpoint primary,
        acked and retried; the signal fires with the ack (``None``: none came).
        A retry re-sends its own data, so one save per key is on the wire: a
        call made meanwhile is sent when it settles, and the latest such call's
        data replaces the others'."""
        save = self._saving and self._saving.get(key)
        if save:
            save.data, save.waiting = data, save.waiting or self.sim.signal(name=f"ckpt.{key}")
            return save.waiting
        node = self.kernel.placement.get(("ckpt", self.partition_id))
        if node is None:
            return None
        if self._saving is None:
            self._saving = {}
        save = self._saving[key] = _Save(self, key)
        return save.send(node, data)

    def save_state_soon(self, key: str, snapshot: Callable[[], dict[str, Any] | None]) -> None:
        """One :meth:`save_state` of ``snapshot()`` once ``CKPT_DEBOUNCE``
        has passed and no save of ``key`` is on the wire: every call until
        then coalesces into it, and the snapshot is taken when it is sent
        (``None``: nothing to save)."""
        if key not in self._saves_due:
            self._saves_due |= {key}
            self.sim.schedule(CKPT_DEBOUNCE, self._save_due, key, snapshot)

    def _save_due(self, key: str, snapshot: Callable[[], dict[str, Any] | None]) -> None:
        if self._saving and key in self._saving:
            self.sim.schedule(CKPT_DEBOUNCE, self._save_due, key, snapshot)
            return
        self._saves_due -= {key}
        placed = self.alive and ("ckpt", self.partition_id) in self.kernel.placement
        data = snapshot() if placed else None
        if data is not None:
            self.save_state(key, data)

    def load_state(self, key: str, parse: Callable[[Any, ports.Names], Any] | None = None,
                   partition: str | None = None, at_time: float | None = None,
                   span: Span | None = None):
        """Pull ``key`` (as of ``at_time``) from ``partition``'s checkpoint
        primary (default: this daemon's), retried; the pull is on the wire
        when this returns.  ``yield from`` it for ``None`` (no answer), ``{}``
        (nothing saved, or a blob ``parse(blob, kernel names)`` raises on:
        counted and marked ``ckpt.unreadable``) or ``{"data": …, "version":
        n}``, the blob as ``parse`` (e.g. a ``ports.Kind``'s ``check``) returns it."""
        node = self.kernel.placement.get(("ckpt", partition or self.partition_id))
        payload = {"key": key} if at_time is None else {"key": key, "at_time": at_time}
        pull = None if node is None else self.rpc_retry(
            node, ports.CKPT, ports.CKPT_LOAD, payload, span=span, call_class="ckpt.pull")

        def loaded():
            reply = None if pull is None else (yield pull)
            if reply is None or not reply.get("found"):
                return None if reply is None else {}
            try:
                data = reply["data"] if parse is None else parse(reply["data"], self.kernel.names)
                return {"data": data, "version": reply["version"]}
            except Exception as exc:
                self.sim.trace.count("ckpt.unreadable")
                self.sim.trace.mark("ckpt.unreadable", key=key, node=self.node_id,
                                    error=type(exc).__name__)
                return {}
        return loaded()

    # -- the partition's event service and bulletin ----------------------------
    def publish(self, event_type: str, data: dict[str, Any], span: Span | None = None) -> None:
        """Publish an event at this partition's event service, one way (a lost
        one is lost).  With ``span``, the ES parents its publish span on it,
        chaining the event's deliveries into the caller's causal tree."""
        node = self.kernel.placement.get(("es", self.partition_id))
        if node is not None:
            payload: dict[str, Any] = {"type": event_type, "data": data}
            if span is not None:
                payload["_span"] = span.span_id
            self.send(node, ports.ES, ports.ES_PUBLISH, payload)

    def export_row(self, table: str, key: str, row: dict[str, Any]) -> None:
        """Put one row on this partition's data bulletin, one way: the next
        export replaces a lost one."""
        node = self.kernel.placement.get(("db", self.partition_id))
        if node is not None:
            self.send(node, ports.DB, ports.DB_PUT, {"table": table, "key": key, "row": row})

    def exec_query(self, query: dict[str, Any], timeout: float) -> Signal | None:
        """Run ``query`` (a ``Query`` payload) cluster-wide through this
        partition's bulletin, retried; ``None`` while no bulletin is placed."""
        node = self.kernel.placement.get(("db", self.partition_id))
        if node is None:
            return None
        return self.rpc_retry(node, ports.DB, ports.DB_EXEC, {"query": query}, timeout=timeout)

    def subscribe(self, consumer_id: str, port: str, types: list[str] | tuple[str, ...],
                  where: dict[str, Any] | None = None):
        """Subscribe ``port`` of this node to ``types`` (matching ``where``) at
        this partition's event service, retried.  ``yield from`` it: it asks
        again every ``detector_interval`` while no ES is placed or none acks,
        and returns the ack (re-subscribing a consumer id replaces it in place)."""
        payload = {"consumer_id": consumer_id, "node": self.node_id, "port": port,
                   "types": list(types), "where": dict(where or {}), "replay": 0}
        while True:
            node = self.kernel.placement.get(("es", self.partition_id))
            reply = None if node is None else (
                yield self.rpc_retry(node, ports.ES, ports.ES_SUBSCRIBE, payload))
            if reply is not None:
                return reply
            yield self.timings.detector_interval

    def reply(self, msg: Message, payload: dict[str, Any]) -> None:
        """Answer an RPC later than its handler (for async handlers that
        returned ``None`` and finish in a spawned coroutine)."""
        if msg.rpc_id:
            self.send(msg.src_node, msg.src_port, f"{msg.mtype}.reply", payload)

    # -- kernel health self-reports ------------------------------------------
    def health_snapshot(self) -> dict[str, Any]:
        """The daemon's ``kernel.health`` self-report row.

        Subclasses extend the dict (e.g. the event service adds its
        federation outbox depth).  Histograms/counters come from the
        node-shared trace, so every daemon republishing them keeps the
        bulletin row fresh even when a sibling is wedged.
        """
        trace = self.sim.trace
        hist: dict[str, Any] = {}
        for name in HEALTH_HISTOGRAMS:
            h = trace.histogram(name)
            if h is not None and h.count:
                hist[name] = h.summary()
        counters = {n: trace.counter(n) for n in HEALTH_COUNTERS if trace.counter(n)}
        return {
            "service": self.SERVICE,
            "node": self.node_id,
            "partition": self.partition_id,
            "time": self.sim.now,
            "inflight_rpcs": self.transport.inflight_total(),
            "counters": counters,
            "hist": hist,
        }

    def _health_loop(self, interval: float) -> Generator[Any, Any, None]:
        while True:
            yield interval
            if not self.alive:
                return
            self._publish_health()

    def _publish_health(self) -> None:
        """Push one ``kernel.health`` row to this partition's bulletin."""
        self.export_row(HEALTH_TABLE, f"{self.SERVICE}@{self.node_id}", self.health_snapshot())
        self.sim.trace.count("health.reports")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "dead"
        return f"{type(self).__name__}({self.node_id}, {state})"


class _Save:
    """A key's save on the wire, woken when it settles: the ``data`` saved
    meanwhile is sent next, and ``waiting`` (then ``acked``) fires with its ack."""

    __slots__ = ("daemon", "key", "acked", "data", "waiting")

    def __init__(self, daemon: ServiceDaemon, key: str) -> None:
        self.daemon, self.key = daemon, key
        self.acked = self.data = self.waiting = None

    def send(self, node: str, data: dict[str, Any]) -> Signal:
        sent = self.daemon.rpc_retry(node, ports.CKPT, ports.CKPT_SAVE,
                                     {"key": self.key, "data": data}, call_class="ckpt.save")
        sent._register(self)
        return sent

    def _wake_soon(self, reply: dict[str, Any] | None) -> None:
        if self.acked is not None:
            self.acked.fire(reply)
        daemon, data, self.acked = self.daemon, self.data, self.waiting
        self.data = self.waiting = None
        node = daemon.kernel.placement.get(("ckpt", daemon.partition_id))
        if self.acked is not None and node is not None and daemon.alive:
            self.send(node, data)
        else:
            del daemon._saving[self.key]
            if self.acked is not None:
                self.acked.fire(None)


class PortDispatch:
    """A daemon port's one dispatch: ``routes`` maps each type, declared in
    ``ports.CONTRACTS``, to its ``handler(daemon, msg)``.  A payload that
    breaks its declaration counts ``<family>.refused`` and is answered
    ``ok: False`` (the transport only replies to an RPC: a refused one-way
    message is dropped)."""

    __slots__ = ("daemon", "port", "routes", "names")

    def __init__(self, daemon: ServiceDaemon, port: str,
                 handlers: dict[str, Callable[[Any, Message], Any]]) -> None:
        self.daemon = daemon
        self.port = port
        self.names = daemon.kernel.names
        self.routes = handlers

    def __call__(self, msg: Message) -> Any:
        handler = self.routes.get(msg.mtype)
        if handler is None:
            self.daemon.sim.trace.mark("service.unknown_mtype", service=self.daemon.SERVICE,
                                       port=self.port, mtype=msg.mtype)
            return None
        contract = ports.CONTRACTS[msg.mtype]
        why = contract.refusal(msg.payload, self.names)
        if why is None:
            return handler(self.daemon, msg)
        self.daemon.sim.trace.count(contract.counter)
        return {"ok": False, "error": why, **copy.deepcopy(contract.empty or {})}


class DaemonRegistry:
    """Maps service names to daemon factories for (re)starts anywhere.

    The PPM daemon on each node uses this to honor "start service X here"
    requests during recovery and system construction.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[["PhoenixKernel", str], ServiceDaemon]] = {}

    def register(self, service: str, factory: Callable[["PhoenixKernel", str], ServiceDaemon]) -> None:
        self._factories[service] = factory

    def create(self, service: str, kernel: "PhoenixKernel", node_id: str) -> ServiceDaemon:
        try:
            factory = self._factories[service]
        except KeyError:
            raise ServiceUnavailable(f"no factory registered for service {service!r}") from None
        return factory(kernel, node_id)

    def known(self) -> list[str]:
        return sorted(self._factories)
