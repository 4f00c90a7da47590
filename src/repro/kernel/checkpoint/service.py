"""Checkpoint service — durable state for upper-layer services.

"Based on group service, it provides interfaces for upper-layer services
to save system data, which means that upper-layer services themselves are
responsible for saving and deleting system state by calling interface of
checkpoint service" (paper §4.2).

Deployment per partition: a **primary** on the server node and a
**replica** on the backup node.  Saves are applied locally and replicated
asynchronously; a (re)started primary pulls the replica's contents first
(anti-entropy), which is what lets a service migrated to the backup node
find its state there.  Each key has one sender: a write to the state of
a service placed in this partition (the key's first dotted segment, e.g.
``gsd`` in ``gsd.state.p1``) comes from that service's node, and one to the
replica from the primary; any other is refused (``ckpt.refused``).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.cluster.message import Message, repr_len
from repro.errors import CheckpointError
from repro.kernel import ports
from repro.kernel.checkpoint.store import CheckpointStore
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.timings import ckpt_write_cost


def _one_sender(service_of):
    """Serve a write only from the node of the service ``service_of(msg)``
    names, while one is placed in this partition; refuse any other sender."""
    def wrap(handler):
        def checked(self: ServiceDaemon, msg: Message):
            owner = self.kernel.placement.get((service_of(msg), self.partition_id), msg.src_node)
            if msg.src_node == owner:
                return handler(self, msg)
            self.sim.trace.count("ckpt.refused")
            return {"ok": False, "error": f"{msg.mtype}: written only from {owner}"}
        return checked
    return wrap


_key_owner = _one_sender(lambda msg: msg.payload["key"].split(".", 1)[0])
_primary_only = _one_sender(lambda msg: "ckpt")


class CheckpointDaemon(ServiceDaemon):
    """Primary checkpoint service instance of one partition."""

    SERVICE = "ckpt"

    def __init__(self, kernel, node_id: str) -> None:
        super().__init__(kernel, node_id)
        self.store = CheckpointStore()
        #: Per-key FIFO of pending saves: commits must follow arrival order,
        #: or a small (cheaper-to-write) stale save can overtake and clobber
        #: a larger fresh one while both pay the storage commit delay.
        self._save_q: dict[str, deque[Message]] = {}

    def on_start(self) -> None:
        self.spawn(self._sync_from_replica(), name=f"{self.node_id}/ckpt.sync")

    def _sync_from_replica(self):
        replica_node = self.kernel.placement.get(("ckpt.replica", self.partition_id))
        if replica_node is None:
            return
        # Anti-entropy pull is idempotent; retry so one lost datagram does
        # not cost a whole partition its recovered state.
        reply = yield self.rpc_retry(
            replica_node, ports.CKPT_REPLICA, ports.CKPT_PULL, {}, call_class="ckpt.pull"
        )
        if reply and "dump" in reply:
            updated = self.store.absorb(reply["dump"], self.sim.now)
            self.sim.trace.mark("ckpt.synced", node=self.node_id, keys=updated)

    def _on_save(self, msg: Message) -> None:
        # Saves pay a size-dependent storage commit before acking, and
        # commit in arrival order per key (single writer per key).
        queue = self._save_q.setdefault(msg.payload["key"], deque())
        queue.append(msg)
        if len(queue) == 1:
            self.spawn(self._drain_saves(msg.payload["key"]), name=f"{self.node_id}/ckpt.save")

    def _on_load(self, msg: Message) -> dict[str, Any]:
        entry = self.store.load(
            msg.payload["key"],
            version=msg.payload.get("version"),
            at_time=msg.payload.get("at_time"),
        )
        if entry is None:
            return {"found": False}
        return {
            "found": True,
            "data": entry.data,
            "version": entry.version,
            "saved_at": entry.saved_at,
            "versions": self.store.versions(msg.payload["key"]),
        }

    def _on_delete(self, msg: Message) -> dict[str, Any]:
        ok = self.store.delete(msg.payload["key"])
        replica_node = self.kernel.placement.get(("ckpt.replica", self.partition_id))
        if replica_node is not None:
            self.send(
                replica_node, ports.CKPT_REPLICA, ports.CKPT_DELETE,
                {"key": msg.payload["key"]},
            )
        return {"ok": ok}

    def _on_reseed(self, msg: Message) -> dict[str, Any]:
        # A fresh (relocated) replica starts empty; push the full store
        # so it can cover us from day one, not only for future saves.
        replica_node = self.kernel.placement.get(("ckpt.replica", self.partition_id))
        if replica_node is not None and replica_node != self.node_id:
            self.send(
                replica_node, ports.CKPT_REPLICA, ports.CKPT_ABSORB,
                {"dump": self.store.dump()},
            )
        return {"ok": True, "keys": len(self.store)}

    def _drain_saves(self, key: str):
        queue = self._save_q[key]
        while queue:
            msg = queue[0]
            yield ckpt_write_cost(repr_len(msg.payload["data"]))
            version = self.store.save(key, msg.payload["data"], self.sim.now)
            if self.timings.trace_commit_marks:
                # Commit evidence for the external trace-only checker
                # (repro.experiments.trace_check) — off by default so
                # exported traces stay byte-identical.
                self.sim.trace.mark(
                    "ckpt.committed", key=key, node=self.node_id, version=version
                )
            replica_node = self.kernel.placement.get(("ckpt.replica", self.partition_id))
            if replica_node is not None:  # the frozen value itself: one object, two stores
                self.send(replica_node, ports.CKPT_REPLICA, ports.CKPT_REPLICATE,
                          {"key": key, "data": self.store.load(key).data, "version": version})
            self.sim.trace.count("ckpt.saves")
            self.reply(msg, {"ok": True, "version": version})
            queue.popleft()
        del self._save_q[key]

    PORTS = {ports.CKPT: {
        ports.CKPT_SAVE: _key_owner(_on_save),
        ports.CKPT_LOAD: _on_load,
        ports.CKPT_DELETE: _key_owner(_on_delete),
        ports.CKPT_PULL: lambda self, msg: {"dump": self.store.dump()},
        ports.CKPT_RESEED: _on_reseed,
    }}


class CheckpointReplicaDaemon(ServiceDaemon):
    """Replica on the partition's backup node."""

    SERVICE = "ckpt.replica"

    def __init__(self, kernel, node_id: str) -> None:
        super().__init__(kernel, node_id)
        self.store = CheckpointStore()

    def _on_replicate(self, msg: Message) -> None:
        try:
            self.store.save(
                msg.payload["key"],
                msg.payload["data"],
                self.sim.now,
                version=msg.payload["version"],
            )
        except CheckpointError:
            # Stale replication write: the primary already moved on.
            self.sim.trace.mark("ckpt.replica_stale", key=msg.payload["key"])

    def _on_absorb(self, msg: Message) -> None:
        absorbed = self.store.absorb(msg.payload.get("dump") or {}, self.sim.now)
        self.sim.trace.mark("ckpt.replica_seeded", node=self.node_id, keys=absorbed)

    def _on_delete(self, msg: Message) -> None:
        self.store.delete(msg.payload["key"])

    def _on_load(self, msg: Message) -> dict[str, Any]:
        entry = self.store.load(msg.payload["key"])
        if entry is None:
            return {"found": False}
        return {"found": True, "data": entry.data, "version": entry.version}

    PORTS = {ports.CKPT_REPLICA: {
        ports.CKPT_REPLICATE: _primary_only(_on_replicate),
        ports.CKPT_PULL: lambda self, msg: {"dump": self.store.dump()},
        ports.CKPT_ABSORB: _primary_only(_on_absorb),
        ports.CKPT_DELETE: _primary_only(_on_delete),
        ports.CKPT_LOAD: _on_load,
    }}
