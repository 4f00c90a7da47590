"""``ServiceDaemon.save_state`` as a process: the reference its save line is held to.

:func:`save_state_model` keeps one line per key the way the production
call (``kernel/daemon._Save``, a signal waiter) does, but as a generator
run by ``sim.spawn``: one save per key on the wire, the data saved
meanwhile sent when it settles (the latest call's data replacing the
others'), and each caller hearing the ack of the save that carried its
data (``None`` if that save was never sent).  The property in
``test_durable_state.py`` runs one scenario through each and requires the
same datagrams, acks and stored blobs.  Like
``tests/cluster/retry_model.py``, this is a specification, not a second
implementation to keep in sync: it changes only when the save protocol
does.
"""

from __future__ import annotations

from typing import Any

from repro.kernel import ports
from repro.sim import Signal


class _Line:
    """A key's save on the wire, and what was saved meanwhile."""

    def __init__(self) -> None:
        self.data: dict[str, Any] | None = None
        self.waiting: Signal | None = None


def save_state_model(daemon: Any, key: str, data: dict[str, Any]) -> Signal | None:
    """Save ``data`` under ``key`` at ``daemon``'s checkpoint primary."""
    lines = daemon.__dict__.setdefault("_model_lines", {})
    line = lines.get(key)
    if line is not None:
        line.data = data
        line.waiting = line.waiting or daemon.sim.signal(name=f"ckpt.{key}")
        return line.waiting
    node = daemon.kernel.placement.get(("ckpt", daemon.partition_id))
    if node is None:
        return None
    line = lines[key] = _Line()
    sent = _send(daemon, node, key, data)
    daemon.sim.spawn(_drain(daemon, key, line, sent), name=f"ckpt.line.{key}")
    return sent


def _send(daemon: Any, node: str, key: str, data: dict[str, Any]) -> Signal:
    return daemon.rpc_retry(node, ports.CKPT, ports.CKPT_SAVE, {"key": key, "data": data},
                            call_class="ckpt.save")


def _drain(daemon: Any, key: str, line: _Line, sent: Signal):
    """Wait for each save to settle, then send what was saved meanwhile."""
    acked = None
    while True:
        reply = yield sent
        if acked is not None:
            acked.fire(reply)
        data, acked = line.data, line.waiting
        line.data = line.waiting = None
        node = daemon.kernel.placement.get(("ckpt", daemon.partition_id))
        if acked is None or node is None or not daemon.alive:
            del daemon._model_lines[key]
            if acked is not None:
                acked.fire(None)
            return
        sent = _send(daemon, node, key, data)
