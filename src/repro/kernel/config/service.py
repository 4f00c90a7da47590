"""Configuration service — cluster-wide configuration with introspection.

"It provides cluster-wide configuration information, including information
of physical resources, Phoenix kernel and user environments.
Configuration service has a self-introspection mechanism to automatically
find and diagnose cluster resources, and provides documented interface
for dynamic reconfiguration" (paper §4.2).

A single instance runs on the first partition's server node.  Static keys
are derived from the :class:`ClusterSpec` at start; dynamic keys (current
GSD locations, meta-group leader, user-environment settings) are updated
through :data:`CONFIG_SET`, and every change is published as a
``config.changed`` event.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.message import Message
from repro.kernel import ports
from repro.kernel.config.introspect import introspect_cluster
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.events import types as ev


class ConfigServiceDaemon(ServiceDaemon):
    """The single configuration service instance."""

    SERVICE = "config"

    def __init__(self, kernel, node_id: str) -> None:
        super().__init__(kernel, node_id)
        self._data: dict[str, Any] = {}

    def on_start(self) -> None:
        self._load_static()

    def _load_static(self) -> None:
        spec = self.cluster.spec
        self._data["cluster.node_count"] = spec.node_count
        self._data["cluster.networks"] = list(spec.network_names)
        self._data["cluster.partitions"] = [p.partition_id for p in spec.partitions]
        for part in spec.partitions:
            pfx = f"partition.{part.partition_id}"
            self._data[f"{pfx}.server"] = part.server
            self._data[f"{pfx}.backups"] = list(part.backups)
            self._data[f"{pfx}.computes"] = list(part.computes)
        for node_id, node_spec in spec.nodes.items():
            self._data[f"node.{node_id}.cpus"] = node_spec.cpus
            self._data[f"node.{node_id}.mem_mb"] = node_spec.mem_mb
            self._data[f"node.{node_id}.role"] = node_spec.role.value

    # -- handlers --------------------------------------------------------
    def _on_get(self, msg: Message) -> dict[str, Any]:
        key = msg.payload["key"]
        if key in self._data:
            return {"found": True, "value": self._data[key]}
        return {"found": False}

    def _on_set(self, msg: Message) -> dict[str, Any]:
        key = msg.payload["key"]
        value = msg.payload.get("value")
        old = self._data.get(key)
        self._data[key] = value
        self.sim.trace.count("config.sets")
        # Dynamic reconfiguration is observable: push a config.changed event.
        self.publish(ev.CONFIG_CHANGED, {"key": key, "old": old, "new": value})
        return {"ok": True, "old": old}

    PORTS = {ports.CONFIG: {
        ports.CONFIG_GET: _on_get,
        ports.CONFIG_SET: _on_set,
        ports.CONFIG_LIST: lambda self, msg: {"keys": sorted(
            k for k in self._data if k.startswith(msg.payload.get("prefix") or ""))},
        ports.CONFIG_INTROSPECT: lambda self, msg: {"report": introspect_cluster(self.cluster)},
    }}
