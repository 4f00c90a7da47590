"""PBS-style baseline job manager (paper Figure 7, §5.4 comparison).

A faithful skeleton of the classical PBS architecture the paper improves
on: one server that implements *everything itself* —

* resource monitoring by **polling every node** on a fixed period
  ("PBS needs polling continually and consumes network bandwidth");
* per-running-job **status polling** (the MOM poll);
* FIFO scheduling over a single pool;
* **no high availability**: when the server's node dies, job management
  is gone until an operator intervenes, and its queue state dies with it.

It still uses the PPM daemon as its per-node execution agent (standing in
for ``pbs_mom``) so both systems launch identical workloads — the
comparison isolates the *management architecture*, which is what §5.4
evaluates.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.message import Message
from repro.errors import SchedulingError
from repro.kernel import ports
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.ports import NAME, STR, declare, opt
from repro.userenv.pws.jobs import JOB_FIELDS, JobRecord, JobSpec, JobState

PORT = "pbs"

SUBMIT = declare("pbs.submit", PORT, **JOB_FIELDS)
CANCEL = declare("pbs.cancel", PORT, job_id=NAME)
STATUS = declare("pbs.status", PORT, job_id=opt(STR))


class PBSServer(ServiceDaemon):
    """Single polling-based job management server."""

    SERVICE = "pbs"

    def __init__(
        self, kernel, node_id: str, nodes: list[str], poll_interval: float = 10.0
    ) -> None:
        super().__init__(kernel, node_id)
        self.managed_nodes = list(nodes)
        self.poll_interval = poll_interval
        self.jobs: dict[str, JobRecord] = {}
        #: Last polled free-CPU view (stale between polls by design).
        self._free: dict[str, int] = {}
        self._reachable: dict[str, bool] = {node: False for node in nodes}
        self._job_seq = 0

    def on_start(self) -> None:
        self.spawn(self._poll_loop(), name=f"{self.node_id}/pbs.poll")

    # -- user interface ------------------------------------------------------
    def _on_submit(self, msg: Message) -> dict[str, Any]:
        payload = dict(msg.payload)
        if not payload.get("job_id"):
            self._job_seq += 1
            payload["job_id"] = f"pbs-{self._job_seq}"
        try:
            spec = JobSpec.from_payload(payload)
        except SchedulingError as exc:
            return {"ok": False, "error": str(exc)}
        if spec.job_id in self.jobs and self.jobs[spec.job_id].active:
            return {"ok": False, "error": f"job {spec.job_id} already active"}
        self.jobs[spec.job_id] = JobRecord(spec=spec, submitted_at=self.sim.now)
        self.sim.trace.count("pbs.submits")
        return {"ok": True, "job_id": spec.job_id}

    def _on_cancel(self, msg: Message) -> dict[str, Any]:
        job = self.jobs.get(msg.payload["job_id"])
        if job is None or not job.active:
            return {"ok": False, "error": "no such active job"}
        if job.state is JobState.RUNNING:
            for node in job.assigned_nodes:
                self.send(node, ports.PPM, ports.PPM_KILL_JOB, {"job_id": job.spec.job_id})
        job.state = JobState.CANCELLED
        job.finished_at = self.sim.now
        return {"ok": True}

    def _on_status(self, msg: Message) -> dict[str, Any]:
        job_id = msg.payload.get("job_id")
        if job_id:
            job = self.jobs.get(job_id)
            if job is None:
                return {"found": False}
            return {"found": True, "job": job.to_payload()}
        counts: dict[str, int] = {}
        for job in self.jobs.values():
            counts[job.state.value] = counts.get(job.state.value, 0) + 1
        return {"counts": counts, "jobs": sorted(self.jobs)}

    PORTS = {PORT: {SUBMIT: _on_submit, CANCEL: _on_cancel, STATUS: _on_status}}

    # -- the polling heart of PBS (resource monitoring, Figure 7) -------------
    def _poll_loop(self):
        while True:
            # 1. Resource poll: one RPC to every managed node, every period.
            for node in self.managed_nodes:
                self.sim.trace.count("pbs.polls")
                reply = yield self.rpc(node, ports.PPM, ports.PPM_REPORT_LOAD, {}, timeout=0.5)
                if reply is None:
                    self._reachable[node] = False
                else:
                    self._reachable[node] = True
                    self._free[node] = int(reply.get("cpus_free", 0))
            # 2. Job status poll for every running job's every node.
            yield from self._poll_running_jobs()
            # 3. Schedule with the freshly polled picture.
            yield from self._schedule()
            yield self.poll_interval

    def _poll_running_jobs(self):
        for job in list(self.jobs.values()):
            if job.state is not JobState.RUNNING:
                continue
            for node in sorted(job.outstanding):
                self.sim.trace.count("pbs.polls")
                reply = yield self.rpc(
                    node, ports.PPM, ports.PPM_JOB_STATUS, {"job_id": job.spec.job_id},
                    timeout=0.5,
                )
                if job.state is not JobState.RUNNING:
                    break
                if reply is None or not reply.get("found"):
                    self._fail_job(job)
                    break
                state = reply["state"]
                if state == "done":
                    job.outstanding.discard(node)
                    if not job.outstanding:
                        job.state = JobState.DONE
                        job.finished_at = self.sim.now
                        self.sim.trace.count("pbs.completions")
                elif state in ("failed", "killed"):
                    self._fail_job(job)
                    break

    def _fail_job(self, job: JobRecord) -> None:
        for node in job.assigned_nodes:
            if self._reachable.get(node):
                self.send(node, ports.PPM, ports.PPM_KILL_JOB, {"job_id": job.spec.job_id})
        job.state = JobState.FAILED
        job.finished_at = self.sim.now
        self.sim.trace.count("pbs.failures")

    # -- FIFO scheduling over polled (stale) data -----------------------------
    def _schedule(self):
        queued = sorted(
            (j for j in self.jobs.values() if j.state is JobState.QUEUED),
            key=lambda j: (j.submitted_at, j.spec.job_id),
        )
        for job in queued:
            spec = job.spec
            candidates = [
                n for n in self.managed_nodes
                if self._reachable.get(n) and self._free.get(n, 0) >= spec.cpus_per_node
            ]
            if len(candidates) < spec.nodes:
                break  # FIFO head-of-line blocking
            assigned = candidates[: spec.nodes]
            job.state = JobState.RUNNING
            job.started_at = self.sim.now
            job.assigned_nodes = assigned
            job.outstanding = set(assigned)
            self.sim.trace.count("pbs.dispatches")
            # Serial job loading, one RPC per node (no fan-out tree).
            ok = True
            for node in assigned:
                reply = yield self.rpc(
                    node, ports.PPM, ports.PPM_SPAWN_JOB,
                    {
                        "job_id": spec.job_id, "cpus": spec.cpus_per_node,
                        "duration": spec.duration, "user": spec.user,
                    },
                    timeout=1.0,
                )
                if reply is None or not reply.get("ok"):
                    ok = False
                    break
                self._free[node] = self._free.get(node, 0) - spec.cpus_per_node
            if not ok:
                self._fail_job(job)
