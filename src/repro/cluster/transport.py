"""Endpoint registry and message routing over the simulated fabrics.

Phoenix kernel services expose "documented interfaces ... in different
forms with uniformed semantics (such as Socket, RPC and ORB)" (paper
§4.2).  This module provides the two forms every service here uses:

* :meth:`Transport.send` — one-way datagram, silently lost on any failed
  hop (heartbeats, event pushes);
* :meth:`Transport.rpc` — correlated request/reply with timeout (bulletin
  queries, checkpoint save, parallel command calls);
* :meth:`Transport.rpc_retry` — the same request/reply hardened with
  bounded attempts, exponential backoff with jitter, and a
  per-destination in-flight cap (for idempotent control-plane calls);
  each call is one event-driven :class:`_Retry`, not a process.

Network selection mirrors reality: a sender picks the first fabric that is
*locally* usable (its own NIC + carrier); remote failures only surface as
timeouts.  :meth:`Transport.send_all_networks` duplicates a datagram on
every locally-usable fabric — the watch daemon's heartbeat pattern.

Timer discipline: every RPC cancels its timeout the moment the reply
lands (or the send is dropped at source), so the simulator heap holds
O(in-flight) — not O(total issued) — entries even at heartbeat rates.

Observability: each ``rpc``/``rpc_retry`` opens a trace span
(``rpc.call`` / ``rpc.retry``) closed at reply or timeout; callers may
thread a parent span through so control-plane latency decomposes into
the exact RPCs it waited on.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Any

from repro.cluster.hostos import HostProcess
from repro.cluster.message import Message
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.errors import TransportError
from repro.sim import Signal, Simulator
from repro.util import IdAllocator

Handler = Callable[[Message], Any]

#: Reserved port answered by the host OS itself (diagnosis pings).
OS_PING_PORT = "_os.ping"


class Endpoint:
    """One bound (node, port) handler, optionally tied to a host process."""

    __slots__ = ("node_id", "port", "handler", "owner")

    def __init__(self, node_id: str, port: str, handler: Handler, owner: HostProcess | None) -> None:
        self.node_id = node_id
        self.port = port
        self.handler = handler
        self.owner = owner

    @property
    def receiving(self) -> bool:
        return self.owner is None or self.owner.alive


class _Call:
    """One outstanding :meth:`Transport.rpc`, settled once by its reply or
    its timeout.

    The armed timeout's handle points back here through ``on_timeout``, so
    the call drops the handle when it settles: a finished call is freed by
    reference counting alone, with no cycle left for the collector.
    """

    __slots__ = ("transport", "node_id", "port", "signal", "span", "timeout")

    def __init__(self, transport: "Transport", node_id: str, port: str, signal: Signal,
                 span: Any) -> None:
        self.transport = transport
        self.node_id = node_id
        self.port = port
        self.signal = signal
        self.span = span
        self.timeout: Any = None

    def settle(self, value: dict[str, Any] | None) -> None:
        # Settle exactly once (a request dropped at source with a zero
        # timeout runs on_timeout twice).
        if self.signal.fired:
            return
        self.transport.unbind(self.node_id, self.port)
        self.timeout.cancel()
        self.timeout = None
        self.span.end(ok=value is not None)
        self.signal.fire(value)

    def on_reply(self, msg: Message) -> None:
        self.settle(msg.payload)

    def on_timeout(self) -> None:
        self.settle(None)


class _Retry:
    """One :meth:`Transport.rpc_retry` call, a signal waiter stepped by
    events: gate → attempt → reply, or pause → attempt → … → gave up.

    It schedules the events a process running the same loop would: first
    step and every wake at ``+0``, one sleep per non-zero pause.
    ``deadline`` is ``None`` until it holds an in-flight slot.
    """

    __slots__ = ("transport", "request", "timeout", "jitter", "cap", "slices", "span", "signal",
                 "attempt", "deadline")

    def __init__(self, transport: "Transport", request: tuple[Any, ...], timeout: float,
                 jitter: float, cap: int, slices: list[float], span: Any) -> None:
        self.transport = transport
        #: ``(src_node, dst_node, dst_port, mtype, payload, network)``, as rpc() takes them.
        self.request = request
        self.timeout = timeout
        self.jitter = jitter
        self.cap = cap
        self.slices = slices
        self.span = span
        self.signal = transport.sim.signal(name=f"rpc_retry.{request[1]}.{request[3]}")
        self.attempt = 0
        self.deadline: float | None = None
        self._wake_soon(None)

    def _wake_soon(self, value: Any) -> None:
        sim = self.transport.sim
        sim._schedule(sim._now, 0, self._step, (value,))

    def _step(self, reply: dict[str, Any] | None) -> None:
        transport = self.transport
        sim = transport.sim
        if self.deadline is None:  # first step, or woken at the head of the gate queue
            dst_node = self.request[1]
            inflight = transport._inflight
            if inflight.get(dst_node, 0) >= self.cap:
                transport._inflight_gates.setdefault(dst_node, deque()).append(self)
                sim.trace.count("rpc.inflight_queued")
                return
            inflight[dst_node] = inflight.get(dst_node, 0) + 1
            self.deadline = sim._now + self.timeout
            self._attempt()
            return
        attempt = self.attempt
        if reply is not None or attempt + 1 == len(self.slices):
            self._finish(reply, attempt + 1)
            return
        sim.trace.count("rpc.retries")
        pause = self.jitter * self.slices[attempt] * float(transport._retry_rng.random())
        pause = min(pause, max(0.0, self.deadline - sim._now))
        self.attempt = attempt + 1
        if pause > 0:
            sim._schedule(sim._now + pause, 0, self._attempt, ())
        else:
            self._attempt()

    def _attempt(self) -> None:
        remaining = self.deadline - self.transport.sim._now
        if remaining <= 0:
            self._finish(None, len(self.slices))
            return
        try:
            signal = self.transport.rpc(
                *self.request, timeout=min(self.slices[self.attempt], remaining), span=self.span)
        except BaseException:
            self._release()
            raise
        signal._register(self)

    def _finish(self, reply: dict[str, Any] | None, attempts_used: int) -> None:
        if reply is None:
            src_node, dst_node, _, mtype, _, _ = self.request
            self.transport.sim.trace.mark("rpc.gave_up", src=src_node, dst=dst_node, mtype=mtype,
                                          attempts=len(self.slices))
        self.span.end(ok=reply is not None, attempts_used=attempts_used)
        self.signal.fire(reply)
        self._release()

    def _release(self) -> None:
        """Give the slot back and wake the destination's head waiter."""
        transport, dst_node = self.transport, self.request[1]
        count = transport._inflight.pop(dst_node) - 1
        if count:
            transport._inflight[dst_node] = count
        gates = transport._inflight_gates.get(dst_node)
        if gates:
            gates.popleft()._wake_soon(None)
            if not gates:
                del transport._inflight_gates[dst_node]


class Transport:
    """Cluster-wide message router."""

    #: Per-destination cap on concurrent ``rpc_retry`` calls (excess calls
    #: queue at the sender instead of piling onto a struggling node).
    DEFAULT_INFLIGHT_CAP = 32

    def __init__(self, sim: Simulator, networks: dict[str, Network], nodes: dict[str, Node]) -> None:
        self.sim = sim
        self.networks = networks
        self.nodes = nodes
        self._net_order = list(networks)
        self._endpoints: dict[tuple[str, str], Endpoint] = {}
        self._rpc_ids = IdAllocator("rpc")
        self.max_inflight_per_dest = self.DEFAULT_INFLIGHT_CAP
        self._inflight: dict[str, int] = {}
        self._inflight_gates: dict[str, deque[_Retry]] = {}
        self._retry_rng = sim.rngs.stream("transport.retry")
        #: Delivery counter key per node and reply type per request type,
        #: built once rather than formatted per message.
        self._rx_keys = {node_id: f"rx.{node_id}" for node_id in nodes}
        self._reply_mtypes: dict[str, str] = {}
        for node_id in nodes:
            # The host OS answers pings as long as the node is up, daemon or not.
            self.bind(node_id, OS_PING_PORT, lambda msg: {"pong": True}, owner=None)

    # -- endpoints ---------------------------------------------------------
    def bind(self, node_id: str, port: str, handler: Handler, owner: HostProcess | None = None) -> None:
        """Register ``handler`` for messages to ``node_id:port``.

        With an ``owner``, delivery additionally requires the owning host
        process to be alive; rebinding an existing port is allowed only if
        the previous owner is dead (daemon restart).

        An *ownerless* endpoint (owner ``None``) can always be rebound —
        liveness cannot arbitrate between two anonymous handlers — but the
        clobber is no longer silent: it leaves a ``transport.bind_collision``
        trace mark, because the usual cause is a stale one-shot port (an
        ``_rpc.*`` reply port that outlived its call) being overwritten.
        """
        if node_id not in self.nodes:
            raise TransportError(f"unknown node {node_id!r}")
        key = (node_id, port)
        existing = self._endpoints.get(key)
        if existing is not None and existing.receiving:
            if existing.owner is not None:
                if owner is not existing.owner:
                    raise TransportError(f"{node_id}:{port} already bound by a live process")
            else:
                self.sim.trace.mark(
                    "transport.bind_collision",
                    node=node_id,
                    port=port,
                    owned=owner is not None,
                )
        self._endpoints[key] = Endpoint(node_id, port, handler, owner)

    def unbind(self, node_id: str, port: str) -> None:
        self._endpoints.pop((node_id, port), None)

    # -- datagrams ---------------------------------------------------------
    def send(
        self,
        src_node: str,
        dst_node: str,
        dst_port: str,
        mtype: str,
        payload: dict[str, Any] | None = None,
        network: str | None = None,
        rpc_id: str = "",
        src_port: str = "",
    ) -> bool:
        """One-way datagram; returns False when dropped at send time.

        In-flight and receive-side losses are invisible to the sender, as
        on a real network.
        """
        src = self.nodes.get(src_node)
        if src is None:
            raise TransportError(f"unknown source node {src_node!r}")
        if dst_node not in self.nodes:
            raise TransportError(f"unknown destination node {dst_node!r}")
        if not src.up:
            return False  # a crashed node sends nothing
        net = self._pick_network(src_node, network)
        if net is None:
            self.sim.trace.mark("net.no_path", src=src_node, dst=dst_node, mtype=mtype)
            return False
        msg = Message(
            src_node=src_node,
            dst_node=dst_node,
            dst_port=dst_port,
            mtype=mtype,
            payload=dict(payload or {}),
            network=net.name,
            src_port=src_port,
            sent_at=self.sim.now,
            rpc_id=rpc_id,
        )
        return net.transmit(msg, self._deliver)

    def send_all_networks(
        self,
        src_node: str,
        dst_node: str,
        dst_port: str,
        mtype: str,
        payload: dict[str, Any] | None = None,
    ) -> int:
        """Duplicate a datagram on every locally-usable fabric.

        Returns the number of copies accepted for transmission.  This is
        the WD heartbeat pattern: one NIC failure costs nothing because
        the other fabrics still carry the beat.
        """
        sent = 0
        for name in self._net_order:
            if self.networks[name].usable_from(src_node):
                if self.send(src_node, dst_node, dst_port, mtype, payload, network=name):
                    sent += 1
        return sent

    # -- request/reply -----------------------------------------------------
    def rpc(
        self,
        src_node: str,
        dst_node: str,
        dst_port: str,
        mtype: str,
        payload: dict[str, Any] | None = None,
        network: str | None = None,
        timeout: float = 1.0,
        span: Any = None,
    ) -> Signal:
        """Send a request; returns a signal that fires with the reply
        payload (a dict) or ``None`` on timeout/loss.

        The callee's handler return value is the reply: returning ``None``
        means "no reply" and the caller times out.

        Lifecycle guarantees (the messaging-spine contract):

        * the timeout event is **cancelled** the moment the reply arrives,
          so a successful RPC leaves nothing behind in the event heap;
        * a request dropped *at source* (no usable fabric, crashed sender)
          fails the signal on the next tick instead of burning the full
          timeout — no reply can ever arrive for a send that never left.

        Every call opens an ``rpc.call`` span (parented on ``span`` when
        the caller threads one through) closed at reply/timeout, so the
        round-trip latency feeds the ``rpc.call`` histogram and failovers
        decompose into the RPCs they actually waited on.
        """
        rpc_id = self._rpc_ids.next()
        call = _Call(
            self,
            src_node,
            f"_rpc.{rpc_id}",
            self.sim.signal(name=f"rpc.{rpc_id}"),
            self.sim.trace.span("rpc.call", parent=span, src=src_node, dst=dst_node, mtype=mtype),
        )
        self.bind(src_node, call.port, call.on_reply, owner=None)
        call.timeout = self.sim.schedule(timeout, call.on_timeout)
        accepted = self.send(
            src_node, dst_node, dst_port, mtype, payload, network=network, rpc_id=rpc_id,
            src_port=call.port,
        )
        if not accepted:
            # Fail fast on the next tick; settling cancels the armed
            # timeout itself, keeping the settle path single.
            self.sim.schedule(0.0, call.on_timeout)
        return call.signal

    def rpc_retry(
        self,
        src_node: str,
        dst_node: str,
        dst_port: str,
        mtype: str,
        payload: dict[str, Any] | None = None,
        *,
        network: str | None = None,
        timeout: float = 1.0,
        attempts: int = 3,
        backoff: float = 2.0,
        jitter: float = 0.1,
        inflight_cap: int | None = None,
        span: Any = None,
    ) -> Signal:
        """Request/reply with retries for idempotent control-plane calls.

        ``timeout`` is the **total budget**, preserved regardless of
        ``attempts``: the budget is split geometrically across attempts
        (ratio ``backoff``, so later attempts wait longer), and a short
        jittered pause decorrelates retries.  The returned signal fires
        with the first reply, or ``None`` once the budget or attempts are
        exhausted.  Because a retried request may re-execute the handler,
        callers must only use this for idempotent operations (queries,
        checkpoint save/load, parallel-command fan-out).

        A per-destination in-flight cap (``inflight_cap``, defaulting to
        :attr:`max_inflight_per_dest`) bounds concurrent retrying calls to
        one destination: excess calls queue instead of piling correlated
        retry storms onto a struggling node.  A cap below 1 is refused: no
        call could ever take a slot.  The call is one :class:`_Retry`.
        """
        if attempts < 1:
            raise TransportError(f"rpc_retry needs attempts >= 1, got {attempts}")
        if backoff < 1.0:
            raise TransportError(f"rpc_retry backoff must be >= 1.0, got {backoff}")
        cap = self.max_inflight_per_dest if inflight_cap is None else inflight_cap
        if cap < 1:
            raise TransportError(f"rpc_retry needs an in-flight cap >= 1, got {cap}")
        # Geometric split of the budget: weights backoff**i, summing to 1.
        total_weight = sum(backoff**i for i in range(attempts))
        return _Retry(
            self, (src_node, dst_node, dst_port, mtype, payload, network), timeout, jitter, cap,
            [timeout * (backoff**i) / total_weight for i in range(attempts)],
            self.sim.trace.span("rpc.retry", parent=span, src=src_node, dst=dst_node, mtype=mtype),
        ).signal

    def ping(
        self, src_node: str, dst_node: str, network: str, timeout: float = 0.25, span: Any = None
    ) -> Signal:
        """OS-level reachability probe on one specific fabric."""
        return self.rpc(
            src_node, dst_node, OS_PING_PORT, "os.ping", {}, network=network, timeout=timeout,
            span=span,
        )

    def inflight_total(self) -> int:
        """Concurrent ``rpc_retry`` calls currently counted against any
        destination's cap (the health reports' "in-flight RPCs")."""
        return sum(self._inflight.values())

    # -- internals -----------------------------------------------------------
    def _pick_network(self, src_node: str, requested: str | None) -> Network | None:
        if requested is not None:
            net = self.networks.get(requested)
            if net is None:
                raise TransportError(f"unknown network {requested!r}")
            return net if net.usable_from(src_node) else None
        for name in self._net_order:
            net = self.networks[name]
            if net.usable_from(src_node):
                return net
        return None

    def _deliver(self, msg: Message) -> None:
        dst = self.nodes[msg.dst_node]
        trace = self.sim.trace
        if not dst.up:
            trace.mark("net.dst_down", dst=msg.dst_node, mtype=msg.mtype)
            return
        ep = self._endpoints.get((msg.dst_node, msg.dst_port))
        if ep is None or not ep.receiving:
            trace.mark("net.unbound", dst=msg.dst_node, port=msg.dst_port, mtype=msg.mtype)
            return
        trace.count(self._rx_keys[msg.dst_node])
        result = ep.handler(msg)
        if msg.rpc_id and isinstance(result, dict):
            reply_mtype = self._reply_mtypes.get(msg.mtype)
            if reply_mtype is None:
                reply_mtype = self._reply_mtypes[msg.mtype] = f"{msg.mtype}.reply"
            # An RPC request's source port is its caller's reply port.
            self.send(msg.dst_node, msg.src_node, msg.src_port, reply_mtype, result,
                      network=msg.network)
