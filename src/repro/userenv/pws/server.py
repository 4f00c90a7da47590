"""Phoenix-PWS job management server (paper §5.4, Figure 8).

PWS is built *on* the kernel's documented interfaces — exactly the
point of §5.4: "Phoenix kernel provides most of functions of PBS, and
the development of new PWS system focuses only on the user interface
and scheduling modules".  Concretely:

* resource information comes from the **data bulletin federation**
  (one ``nodes`` query, any instance — no per-node polling), kept in
  the pool nodes' :class:`~repro.userenv.inventory.Inventory`;
* node/application liveness arrives as **event service notifications**
  (NODE_FAILURE, APP_EXITED, ...) instead of a polling loop;
* job loading/killing goes through **PPM parallel commands**;
* scheduler state is **checkpointed**, and the server runs inside the
  partition's service group, so the GSD restarts or migrates it — the
  high-availability property PBS lacks.

Scheduling is multi-pool with per-pool policies and dynamic leasing
(:mod:`repro.userenv.pws.pools`).
"""

from __future__ import annotations

from typing import Any

from repro.cluster.message import Message
from repro.errors import SchedulingError, SecurityError
from repro.kernel import ports
from repro.kernel.ports import INT, NAME, NODE, NUMBER, STR, declare, each, opt, record
from repro.kernel.security.acl import AccessPolicy
from repro.kernel.security.tokens import verify_token
from repro.kernel.bulletin.service import TABLE_APPS
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.events import types as ev
from repro.kernel.events.types import Event
from repro.userenv.pws.jobs import JOB_FIELDS, JobRecord, JobSpec, JobState, split_ppm_job_id
from repro.userenv.pws.pools import Lease, PoolManager, PoolSpec
from repro.userenv.pws.scheduler import head_of_line_blocks, order_queue

PORT = "pws"
EVENT_PORT = "pws.events"
CKPT_KEY = "pws.state"
#: How often running jobs are checked against the bulletin's ``apps``
#: rows (covers task events lost while the scheduler restarted).
RECONCILE_INTERVAL = 15.0

# message types (``token``: a security-service token, when auth is required)
SUBMIT = declare("pws.submit", PORT, token=opt(STR), **JOB_FIELDS)
CANCEL = declare("pws.cancel", PORT, token=opt(STR), job_id=NAME)
STATUS = declare("pws.status", PORT, job_id=opt(STR))
POOLS = declare("pws.pools", PORT)
DRAIN = declare("pws.drain_node", PORT, node=NAME)
UNDRAIN = declare("pws.undrain_node", PORT, node=NAME)
ACCOUNTING = declare("pws.accounting", PORT, user=opt(STR))


#: A ``pws.state`` checkpoint: jobs (specs as a submission is checked) and leases.
_STATE = record("PWS state", leases=opt(each(record(
    "lease", node=NODE, owner_pool=NAME, borrower_pool=NAME, job_id=NAME))), jobs=opt(each(record(
        "job", spec=record("spec", **dict(JOB_FIELDS, job_id=NAME)), state=NAME,
        submitted_at=NUMBER, started_at=opt(NUMBER), finished_at=opt(NUMBER),
        assigned_nodes=each(NODE), outstanding=each(NODE), retries=opt(INT), launches=opt(INT)))))


def _registry(data: dict[str, Any], names: ports.Names) -> tuple[dict[str, JobRecord], list[Lease], int]:
    """A ``pws.state`` checkpoint's jobs by id, leases and job counter."""
    _STATE.check(data, names)
    return ({p["spec"]["job_id"]: JobRecord.from_payload(p) for p in data.get("jobs", [])},
            [Lease.from_payload(p) for p in data.get("leases", [])], int(data.get("job_seq", 0)))


class PWSServer(ServiceDaemon):
    """The PWS scheduling service (one instance, GSD-supervised)."""

    SERVICE = "pws"

    def __init__(self, kernel, node_id: str, pools: list[PoolSpec], max_retries: int = 1,
                 require_auth: bool = False) -> None:
        super().__init__(kernel, node_id)
        self.pm = PoolManager(pools)
        self.inventory = self.pm.inventory
        self.jobs: dict[str, JobRecord] = {}
        self.max_retries = max_retries
        #: With require_auth, submissions/cancellations must carry a token
        #: issued by the security service; the scheduler verifies it
        #: locally with the cluster secret and checks the job.* actions
        #: against the role policy (paper §4.2's security service in use).
        self.require_auth = require_auth
        self.policy = AccessPolicy()
        self._job_seq = 0
        self._ready = False
        #: Open causal spans per job: the ``pws.job`` root plus the
        #: current ``pws.queue`` wait child.  Not checkpointed — a job
        #: adopted after a scheduler restart simply has no open span and
        #: its partial trace still renders.
        self._job_spans: dict[str, Any] = {}
        self._queue_spans: dict[str, Any] = {}

    # -- lifecycle -----------------------------------------------------------
    def on_start(self) -> None:
        self.spawn(self._startup(), name=f"{self.node_id}/pws.startup")
        self.spawn(self._reconcile_loop(), name=f"{self.node_id}/pws.reconcile")

    def _startup(self):
        yield from self._load_state()
        yield from self.inventory.load(self)
        # Re-pin CPU accounting for tasks that were running before a restart.
        for job in self.jobs.values():
            if job.state is JobState.RUNNING:
                for node in job.outstanding:
                    self.inventory.allocate(node, job.spec.cpus_per_node)
        yield from self._subscribe_events()
        self._ready = True
        self.sim.trace.mark("pws.ready", node=self.node_id, jobs=len(self.jobs))
        self._schedule()

    def _load_state(self):
        loaded = yield from self.load_state(CKPT_KEY, _registry)
        if loaded:
            self.jobs, self.pm.leases, self._job_seq = loaded["data"]
            self.sim.trace.mark("pws.state_recovered", jobs=len(self.jobs))
            # Re-arm walltime guards for jobs that were running when the
            # previous incarnation died.
            for job in self.jobs.values():
                if job.state is JobState.RUNNING and job.spec.walltime is not None \
                        and job.started_at is not None:
                    remaining = max(0.0, job.spec.walltime - (self.sim.now - job.started_at))
                    self.spawn(self._rearmed_guard(job, job.launches, remaining),
                               name=f"{self.node_id}/pws.walltime")

    def _subscribe_events(self):
        yield from self.subscribe("pws-server", EVENT_PORT,
                                  [ev.NODE_FAILURE, ev.NODE_RECOVERY, ev.APP_EXITED, ev.APP_FAILED])

    # -- user interface ------------------------------------------------------
    def _authorize(self, msg: Message, action: str) -> str | None:
        """Returns an error string, or None when allowed.  Also pins the
        payload's user to the authenticated identity."""
        if not self.require_auth:
            return None
        try:
            user, roles = verify_token(
                self.kernel.secret, msg.payload.get("token") or "", self.sim.now
            )
        except SecurityError as exc:
            self.sim.trace.count("pws.auth_rejects")
            return f"authentication failed: {exc}"
        if not self.policy.authorized(action, roles):
            self.sim.trace.count("pws.auth_rejects")
            return f"user {user!r} is not authorized for {action}"
        msg.payload["user"] = user
        return None

    def _on_submit(self, msg: Message) -> dict[str, Any]:
        denied = self._authorize(msg, "job.submit")
        if denied:
            return {"ok": False, "error": denied}
        payload = dict(msg.payload)
        payload.pop("token", None)
        if not payload.get("job_id"):
            self._job_seq += 1
            payload["job_id"] = f"pws-{self._job_seq}"
        try:
            spec = JobSpec.from_payload(payload)
        except SchedulingError as exc:
            return {"ok": False, "error": str(exc)}
        if spec.pool not in self.pm.pools:
            return {"ok": False, "error": f"unknown pool {spec.pool!r}"}
        if spec.job_id in self.jobs and self.jobs[spec.job_id].active:
            return {"ok": False, "error": f"job {spec.job_id} already active"}
        self.jobs[spec.job_id] = JobRecord(spec=spec, submitted_at=self.sim.now)
        # A job decomposes causally: pws.job (submit → terminal state)
        # with pws.queue (schedule wait) and pws.dispatch (PPM spawn
        # fan-out) children, so slow submissions are attributable.
        root = self.sim.trace.span("pws.job", job=spec.job_id, pool=spec.pool)
        self._job_spans[spec.job_id] = root
        self._queue_spans[spec.job_id] = root.child("pws.queue")
        self.sim.trace.count("pws.submits")
        self._checkpoint()
        self._schedule()
        return {"ok": True, "job_id": spec.job_id}

    def _on_cancel(self, msg: Message) -> dict[str, Any]:
        denied = self._authorize(msg, "job.cancel")
        if denied:
            return {"ok": False, "error": denied}
        job = self.jobs.get(msg.payload["job_id"])
        if job is None or not job.active:
            return {"ok": False, "error": "no such active job"}
        if job.state is JobState.RUNNING:
            for node in job.assigned_nodes:
                self.send(node, ports.PPM, ports.PPM_KILL_JOB, {"job_id": job.ppm_job_id})
            self._release_job(job)
        job.state = JobState.CANCELLED
        job.finished_at = self.sim.now
        self._close_job_span(job, "cancelled")
        self._checkpoint()
        self._schedule()
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

    def _on_drain(self, msg: Message, drain: bool) -> dict[str, Any]:
        """Administrative cordon: a drained node finishes its running
        tasks but receives no new placements (the Figure 9 console's
        shutdown-node preparation)."""
        node = msg.payload["node"]
        if not self.inventory.known(node):
            return {"ok": False, "error": f"node {node} not managed by any pool"}
        if drain:
            self.inventory.node_failed(node)
        else:
            self._node_returned(node)
        self.sim.trace.mark("pws.drain" if drain else "pws.undrain", node=node)
        if not drain:
            self._schedule()
        return {"ok": True, "node": node, "drained": drain}

    def _on_accounting(self, msg: Message) -> dict[str, Any]:
        """Per-user usage accounting over this scheduler's job history.

        CPU-seconds are charged for actual occupancy: start to finish for
        every completed launch (the batch-system invoice).  Running jobs
        are charged up to "now".
        """
        user_filter = msg.payload.get("user")
        rows: dict[str, dict[str, float]] = {}
        for job in self.jobs.values():
            user = job.spec.user or "(anonymous)"
            if user_filter and user != user_filter:
                continue
            if job.started_at is None:
                occupancy = 0.0
            else:
                end = job.finished_at if job.finished_at is not None else self.sim.now
                occupancy = max(0.0, end - job.started_at) * job.spec.total_cpus
            entry = rows.setdefault(
                user, {"jobs": 0, "done": 0, "failed": 0, "cpu_seconds": 0.0}
            )
            entry["jobs"] += 1
            entry["cpu_seconds"] += occupancy
            if job.state is JobState.DONE:
                entry["done"] += 1
            elif job.state in (JobState.FAILED, JobState.CANCELLED):
                entry["failed"] += 1
        return {"users": rows}

    # -- event-driven updates (no polling!) ----------------------------------
    def _on_event(self, msg: Message) -> None:
        event = Event.from_payload(msg.payload["event"])
        self.sim.trace.count("pws.events_seen")
        if event.type == ev.NODE_FAILURE:
            node = event.data.get("node", "")
            self.inventory.node_failed(node)
            for job in list(self.jobs.values()):
                if job.state is JobState.RUNNING and node in job.outstanding:
                    self._task_failed(job, node)
        elif event.type == ev.NODE_RECOVERY:
            self._node_returned(event.data.get("node", ""))
        elif event.type == ev.APP_EXITED:
            job = self._current_job(event.data.get("job_id", ""))
            if job is not None:
                self._task_done(job, event.data.get("node", ""))
        elif event.type == ev.APP_FAILED:
            job = self._current_job(event.data.get("job_id", ""))
            if job is not None:
                self._task_failed(job, event.data.get("node", ""))
        self._schedule()

    PORTS = {
        PORT: {
            SUBMIT: _on_submit,
            CANCEL: _on_cancel,
            STATUS: _on_status,
            POOLS: lambda self, msg: {"pools": self.pm.pool_stats(),
                                      "leases": [lease.to_payload() for lease in self.pm.leases]},
            DRAIN: lambda self, msg: self._on_drain(msg, drain=True),
            UNDRAIN: lambda self, msg: self._on_drain(msg, drain=False),
            ACCOUNTING: _on_accounting,
        },
        EVENT_PORT: {ports.ES_EVENT: _on_event},
    }

    def _node_returned(self, node: str) -> None:
        self.inventory.node_returned(node, self._placed(node))
        if self.inventory.needs_load(node):
            self.spawn(self._reload_inventory(), name=f"{self.node_id}/pws.inventory")

    def _reload_inventory(self):
        yield from self.inventory.load(self)
        self._schedule()

    def _placed(self, node: str) -> int:
        """CPUs this scheduler's running tasks still hold on ``node``."""
        return sum(job.spec.cpus_per_node for job in self.jobs.values()
                   if job.state is JobState.RUNNING and node in job.outstanding)

    def _current_job(self, ppm_job_id: str) -> JobRecord | None:
        """Resolve an event's task id to a running job, dropping events
        from killed earlier incarnations."""
        base, launches = split_ppm_job_id(ppm_job_id)
        job = self.jobs.get(base)
        if job is None or job.state is not JobState.RUNNING or launches != job.launches:
            return None
        return job

    # -- scheduling ----------------------------------------------------------
    def _schedule(self) -> None:
        if not self._ready:
            return
        for pool_name, pool in sorted(self.pm.pools.items()):
            queued = [
                j for j in self.jobs.values()
                if j.state is JobState.QUEUED and j.spec.pool == pool_name
            ]
            blocking = head_of_line_blocks(pool.policy)
            for job in order_queue(pool.policy, queued):
                if not self._try_place(job):
                    if blocking:
                        break  # head-of-line blocking within the pool
                    self.sim.trace.count("pws.backfill_skips")

    def _try_place(self, job: JobRecord) -> bool:
        spec = job.spec
        nodes = self.pm.pick_nodes(spec.pool, spec.nodes, spec.cpus_per_node)
        leases: list[Lease] = []
        if len(nodes) < spec.nodes:
            leases = self.pm.lease_candidates(
                spec.pool, spec.nodes - len(nodes), spec.cpus_per_node
            )
            if len(nodes) + len(leases) < spec.nodes:
                return False
        for lease in leases:
            lease.job_id = spec.job_id
            self.pm.add_lease(lease)
            self.sim.trace.mark(
                "pws.lease", node=lease.node, from_pool=lease.owner_pool,
                to_pool=lease.borrower_pool, job=spec.job_id,
            )
        assigned = nodes + [l.node for l in leases]
        for node in assigned:
            self.inventory.allocate(node, spec.cpus_per_node)
        job.state = JobState.RUNNING
        job.started_at = self.sim.now
        job.assigned_nodes = assigned
        job.outstanding = set(assigned)
        job.launches += 1
        queue_span = self._queue_spans.pop(spec.job_id, None)
        if queue_span is not None:
            queue_span.end(nodes=len(assigned), launch=job.launches)
        self.sim.trace.count("pws.dispatches")
        self.spawn(self._dispatch_job(job), name=f"{self.node_id}/pws.dispatch")
        if spec.walltime is not None:
            self.spawn(
                self._walltime_guard(job, job.launches), name=f"{self.node_id}/pws.walltime"
            )
        self._checkpoint()
        return True

    def _rearmed_guard(self, job: JobRecord, launch: int, remaining: float):
        yield remaining
        self._expire_walltime(job, launch)

    def _walltime_guard(self, job: JobRecord, launch: int):
        """Kill the job if it outlives its declared walltime (this launch)."""
        yield job.spec.walltime
        self._expire_walltime(job, launch)

    def _expire_walltime(self, job: JobRecord, launch: int) -> None:
        if job.state is not JobState.RUNNING or job.launches != launch:
            return
        self.sim.trace.mark("pws.walltime_exceeded", job=job.spec.job_id)
        self.sim.trace.count("pws.walltime_kills")
        for node in job.assigned_nodes:
            self.send(node, ports.PPM, ports.PPM_KILL_JOB, {"job_id": job.ppm_job_id})
        self._release_job(job)
        job.state = JobState.FAILED
        job.finished_at = self.sim.now
        self.pm.return_leases(job.spec.job_id)
        self._close_job_span(job, "walltime")
        self._checkpoint()
        self._schedule()

    def _dispatch_job(self, job: JobRecord):
        """Load the job's tasks through a PPM parallel command."""
        spec = job.spec
        root = self._job_spans.get(spec.job_id)
        dispatch_span = (root.child("pws.dispatch", nodes=len(job.assigned_nodes))
                         if root is not None else None)
        reply = yield self.rpc(
            self.node_id, ports.PPM, ports.PPM_PCMD,
            {
                "cmd": "spawn_job",
                "args": {
                    "job_id": job.ppm_job_id, "cpus": spec.cpus_per_node,
                    "duration": spec.duration, "user": spec.user,
                },
                "targets": list(job.assigned_nodes),
            },
            timeout=10.0,
            span=dispatch_span,
        )
        if dispatch_span is not None:
            dispatch_span.end(ok=reply is not None)
        if job.state is not JobState.RUNNING:
            return  # cancelled while dispatching
        results = (reply or {}).get("results", {})
        errors = (reply or {}).get("errors", {})
        for node in list(job.assigned_nodes):
            res = results.get(node)
            if res is not None and res.get("ok"):
                continue
            if res is not None and "already running" in str(res.get("error", "")):
                continue  # reconciliation after restart: task is alive
            errors.setdefault(node, str((res or {}).get("error", "unreachable")))
        for node in errors:
            if node in job.outstanding:
                self._task_failed(job, node)
                break  # _task_failed tears down the whole job

    # -- task completion / failure --------------------------------------
    def _close_job_span(self, job: JobRecord, outcome: str) -> None:
        self._queue_spans.pop(job.spec.job_id, None)
        root = self._job_spans.pop(job.spec.job_id, None)
        if root is not None:
            root.end(outcome=outcome, launches=job.launches, retries=job.retries)

    def _task_done(self, job: JobRecord, node: str) -> None:
        if node in job.outstanding:
            job.outstanding.discard(node)
            self.inventory.release(node, job.spec.cpus_per_node)
        if not job.outstanding:
            job.state = JobState.DONE
            job.finished_at = self.sim.now
            self.pm.return_leases(job.spec.job_id)
            self.sim.trace.count("pws.completions")
            self._close_job_span(job, "done")
            self._checkpoint()

    def _task_failed(self, job: JobRecord, failed_node: str) -> None:
        self._release_job(job)
        for node in job.assigned_nodes:
            if node != failed_node and self.inventory.up(node):
                self.send(node, ports.PPM, ports.PPM_KILL_JOB, {"job_id": job.ppm_job_id})
        job.retries += 1
        if job.retries <= self.max_retries:
            job.state = JobState.QUEUED
            job.assigned_nodes = []
            job.outstanding = set()
            self.sim.trace.count("pws.requeues")
            root = self._job_spans.get(job.spec.job_id)
            if root is not None and job.spec.job_id not in self._queue_spans:
                self._queue_spans[job.spec.job_id] = root.child(
                    "pws.queue", retry=job.retries)
        else:
            job.state = JobState.FAILED
            job.finished_at = self.sim.now
            self.sim.trace.count("pws.failures")
            self._close_job_span(job, "failed")
        self.pm.return_leases(job.spec.job_id)
        self._checkpoint()

    def _release_job(self, job: JobRecord) -> None:
        for node in job.outstanding:
            self.inventory.release(node, job.spec.cpus_per_node)
        job.outstanding = set()

    # -- reconciliation (covers events lost during a restart) ----------------
    def _reconcile_loop(self):
        while True:
            yield RECONCILE_INTERVAL
            running = [j for j in self.jobs.values() if j.state is JobState.RUNNING]
            if not running:
                continue
            read = self.exec_query({"table": TABLE_APPS}, timeout=10.0)
            reply = None if read is None else (yield read)
            if reply is None:
                continue
            by_job: dict[tuple[str, str], str] = {
                (row.get("job_id", ""), row.get("node", "")): row.get("state", "")
                for row in reply.get("rows", [])
            }
            for job in running:
                for node in sorted(job.outstanding):
                    state = by_job.get((job.ppm_job_id, node))
                    if state == "done":
                        self._task_done(job, node)
                    elif state in ("failed", "killed"):
                        self._task_failed(job, node)
                        break
            self._schedule()

    # -- persistence -------------------------------------------------------
    def _checkpoint(self) -> None:
        self.save_state(CKPT_KEY, {
            "jobs": [j.to_payload() for j in self.jobs.values()],
            "leases": [l.to_payload() for l in self.pm.leases],
            "job_seq": self._job_seq,
        })


def install_pws(kernel, pools: list[PoolSpec], partition_id: str | None = None,
                max_retries: int = 1, require_auth: bool = False) -> PWSServer:
    """Register PWS in the kernel's service-group machinery and start it
    on the chosen partition's server node."""
    pid = partition_id or kernel.cluster.partitions[0].partition_id

    def factory(k, node_id):
        return PWSServer(k, node_id, pools=[PoolSpec(p.name, list(p.nodes), p.policy, p.lendable) for p in pools],
                         max_retries=max_retries, require_auth=require_auth)

    kernel.register_user_service("pws", factory, pid)
    server_node = kernel.placement[("gsd", pid)]
    return kernel.start_service("pws", server_node)
