"""Detector services — the kernel's per-node sensing bundle.

Paper §4.2 names four detectors; they map onto this daemon as follows:

* **physical resource detector** — samples CPU/memory/swap/disk-I/O/net-I/O
  every ``detector_interval`` and exports the row to the partition's data
  bulletin ("fundamental for job management's schedulers");
* **application state detector** — tracks job tasks on this node (fed by
  the PPM daemon), exports their status and resource share, and publishes
  ``app.started``/``app.exited``/``app.failed`` events ("fundamental for
  business application runtime environment");
* **node state / network state detectors** — export this node's local
  view (up, NIC carrier per fabric).  Partition-wide node/network state is
  detected by the group service from heartbeats and exported by the GSD.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.bulletin.service import TABLE_APPS, TABLE_NET_STATE, TABLE_NODE_METRICS
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.events import types as ev
from repro.kernel.ppm.jobs import TaskRecord, TaskState


class DetectorDaemon(ServiceDaemon):
    """Per-node detector services bundle."""

    SERVICE = "detector"

    def __init__(self, kernel, node_id: str) -> None:
        super().__init__(kernel, node_id)
        self._apps: dict[str, dict[str, Any]] = {}
        self.samples_exported = 0

    def on_start(self) -> None:
        self.spawn(self._export_loop(), name=f"{self.node_id}/detector.loop")

    # -- periodic export ---------------------------------------------------
    def _export_loop(self):
        while True:
            self._export_once()
            yield self.timings.detector_interval

    def _export_once(self) -> None:
        node = self.cluster.node(self.node_id)
        metrics = self.cluster.resources.sample(node)
        row = metrics.as_dict()
        row["busy_cpus"] = node.busy_cpus
        row["cpus"] = node.spec.cpus
        self.export_row(TABLE_NODE_METRICS, self.node_id, row)
        nic_row = {
            name: net.usable_from(self.node_id) for name, net in self.cluster.networks.items()
        }
        self.export_row(TABLE_NET_STATE, self.node_id, {"nics": nic_row})
        for app_row in self._apps.values():
            self.export_row(TABLE_APPS, app_row["app_key"], dict(app_row))
        self.samples_exported += 1
        self.sim.trace.count("detector.exports")

    # -- application state detector (fed by PPM, same host) -----------------
    def on_task_update(self, record: TaskRecord) -> None:
        """PPM reports a task start or end; export + publish immediately."""
        app_key = f"{record.spec.job_id}@{self.node_id}"
        row = {
            "app_key": app_key,
            "job_id": record.spec.job_id,
            "node": self.node_id,
            "user": record.spec.user,
            "cpus": record.spec.cpus,
            "state": record.state.value,
            "started_at": record.started_at,
            "finished_at": record.finished_at,
        }
        self._apps[app_key] = row
        self.export_row(TABLE_APPS, app_key, dict(row))
        event_type = {
            TaskState.RUNNING: ev.APP_STARTED,
            TaskState.DONE: ev.APP_EXITED,
            TaskState.FAILED: ev.APP_FAILED,
            TaskState.KILLED: ev.APP_FAILED,
        }[record.state]
        self.publish(event_type, {
            "job_id": record.spec.job_id,
            "node": self.node_id,
            "state": record.state.value,
        })
        if not record.running:
            # Completed tasks stop being re-exported after this final row.
            self._apps.pop(app_key, None)
