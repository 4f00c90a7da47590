"""Watch daemon (WD) — the per-node heartbeat source.

"Within a partition, the daemons responsible for sending heartbeat are
watch daemons (WD) which reside on every node. WD sends heartbeat to GSD
periodically through all network interfaces of the node" (paper §4.3).

The WD is the node's representative: when the node dies the WD dies with
it, which is why "for WD, in case of node failure, the recovery time is
0, because ... migrating WD means nothing".
"""

from __future__ import annotations

from typing import Any

from repro.cluster.message import Message
from repro.kernel import ports
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.timings import LOCAL_CHECK_DELAY


class WatchDaemon(ServiceDaemon):
    """Per-node heartbeat sender and local daemon supervisor."""

    SERVICE = "wd"
    #: Per-node kernel services the WD supervises locally (the node's
    #: representative also keeps the node's own daemons alive; GSDs keep
    #: the WD itself alive via heartbeats).
    LOCAL_SUPERVISED = ("ppm", "detector")

    def __init__(self, kernel, node_id: str) -> None:
        super().__init__(kernel, node_id)
        self._seq = 0
        #: Current GSD location for this partition (updated by announcements).
        self.gsd_node: str | None = kernel.placement.get(("gsd", self.partition_id))
        self._svc_recovering: set[str] = set()

    def on_start(self) -> None:
        self.spawn(self._beat_loop(), name=f"{self.node_id}/wd.beat")

    def _beat_loop(self):
        while True:
            self._send_beat()
            self._check_local_services()
            yield self.timings.heartbeat_interval

    def _check_local_services(self) -> None:
        hostos = self.cluster.hostos(self.node_id)
        for svc in self.LOCAL_SUPERVISED:
            if svc in self._svc_recovering or hostos.process_alive(svc):
                continue
            self.sim.trace.mark(
                "failure.detected", component=svc, node=self.node_id, by=self.node_id
            )
            self._svc_recovering.add(svc)
            self.spawn(self._restart_local(svc), name=f"{self.node_id}/wd.svcfix")

    def _restart_local(self, svc: str):
        try:
            yield LOCAL_CHECK_DELAY
            self.sim.trace.mark(
                "failure.diagnosed", component=svc, kind="process", node=self.node_id
            )
            yield self.timings.spawn_time(svc)
            if not self.cluster.node(self.node_id).up:
                return
            if not self.cluster.hostos(self.node_id).process_alive(svc):
                self.kernel.start_service(svc, self.node_id)
            self.sim.trace.mark(
                "failure.recovered", component=svc, kind="process", node=self.node_id
            )
        finally:
            self._svc_recovering.discard(svc)

    def _send_beat(self) -> None:
        target = self.gsd_node or self.kernel.placement.get(("gsd", self.partition_id))
        if target is None or target == self.node_id:
            return  # no GSD placed yet, or we host it ourselves (loopback beat is pointless)
        self._seq += 1
        accepted = self.send_all_networks(
            target, ports.GSD_HB, ports.HB_WD, {"node": self.node_id, "seq": self._seq}
        )
        self.sim.trace.count("wd.beats")
        if accepted == 0:
            # Every local NIC refused the beat: the GSD will diagnose us
            # soon, but leave a local mark so the silence is attributable.
            self.sim.trace.mark("wd.beat_unsendable", node=self.node_id, seq=self._seq)

    def _on_gsd_announce(self, msg: Message) -> dict[str, Any]:
        self.gsd_node = msg.payload["node"]
        return {"ok": True}

    PORTS = {ports.WD: {
        ports.WD_GSD_ANNOUNCE: _on_gsd_announce,
        ports.WD_PROC_QUERY: lambda self, msg: {
            "alive": self.cluster.hostos(self.node_id).process_alive(msg.payload["process"])},
    }}
