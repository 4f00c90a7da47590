"""``Transport.rpc_retry`` as a process: the reference the retry machine is held to.

:func:`rpc_retry_model` is the retry loop written as a generator and run
by ``sim.spawn``, the way ``rpc_retry`` itself once ran it.  The
production call (``cluster/transport._Retry``) steps the same loop from
event callbacks; the property in ``test_rpc_lifecycle.py`` runs one
scenario through each and requires the same events, RNG draws, counters
and records.  Like ``tests/sim/engine_equivalence.py``'s sorted-list
engine, this is a specification, not a second implementation to keep in
sync: it changes only when the retry protocol does.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim import Signal


def rpc_retry_model(
    transport: Any,
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
    """The retry loop as a spawned process over ``transport``'s own state
    (in-flight counts, gate queues, ``transport.retry`` RNG stream)."""
    sim = transport.sim
    cap = transport.max_inflight_per_dest if inflight_cap is None else inflight_cap
    outer = sim.signal(name=f"rpc_retry.{dst_node}.{mtype}")
    retry_span = sim.trace.span("rpc.retry", parent=span, src=src_node, dst=dst_node, mtype=mtype)
    total_weight = sum(backoff**i for i in range(attempts))
    slices = [timeout * (backoff**i) / total_weight for i in range(attempts)]

    def body():
        while transport._inflight.get(dst_node, 0) >= cap:
            gate = sim.signal(name=f"rpc_gate.{dst_node}")
            transport._inflight_gates.setdefault(dst_node, deque()).append(gate)
            sim.trace.count("rpc.inflight_queued")
            yield gate
        transport._inflight[dst_node] = transport._inflight.get(dst_node, 0) + 1
        try:
            deadline = sim.now + timeout
            for attempt, attempt_timeout in enumerate(slices):
                remaining = deadline - sim.now
                if remaining <= 0:
                    break
                reply = yield transport.rpc(
                    src_node, dst_node, dst_port, mtype, payload, network=network,
                    timeout=min(attempt_timeout, remaining), span=retry_span,
                )
                if reply is not None:
                    retry_span.end(ok=True, attempts_used=attempt + 1)
                    outer.fire(reply)
                    return
                if attempt + 1 < len(slices):
                    sim.trace.count("rpc.retries")
                    pause = jitter * attempt_timeout * float(transport._retry_rng.random())
                    pause = min(pause, max(0.0, deadline - sim.now))
                    if pause > 0:
                        yield pause
            sim.trace.mark("rpc.gave_up", src=src_node, dst=dst_node, mtype=mtype,
                           attempts=attempts)
            retry_span.end(ok=False, attempts_used=attempts)
            outer.fire(None)
        finally:
            count = transport._inflight.get(dst_node, 0) - 1
            if count <= 0:
                transport._inflight.pop(dst_node, None)
            else:
                transport._inflight[dst_node] = count
            gates = transport._inflight_gates.get(dst_node)
            if gates:
                # A gate is a signal here; the production queue holds its
                # waiters directly.  Either wakes the head waiter at +0.
                gates.popleft().fire(None)
                if not gates:
                    del transport._inflight_gates[dst_node]

    sim.spawn(body(), name=f"rpc_retry.{src_node}->{dst_node}")
    return outer
