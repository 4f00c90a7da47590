"""Parallel process management (PPM) daemon.

Runs on **every** node ("there are only detector service and parallel
process management service running on each computing node" — paper §4.4).
Responsibilities:

* spawn/kill/cleanup job task processes on its node (remote job loading);
* start/stop kernel service daemons on request (the recovery machinery's
  remote-exec arm);
* coordinate tree-fan-out **parallel commands** across node sets.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.message import Message
from repro.errors import SchedulingError
from repro.kernel import ports
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.ppm.jobs import TaskRecord, TaskSpec, TaskState
from repro.kernel.ppm.parallel import split_targets, subtree_timeout
from repro.kernel.timings import RPC_TIMEOUT


class PPMDaemon(ServiceDaemon):
    """Per-node parallel process management service."""

    SERVICE = "ppm"

    def __init__(self, kernel, node_id: str) -> None:
        super().__init__(kernel, node_id)
        self.tasks: dict[str, TaskRecord] = {}

    def _on_start_service(self, msg: Message) -> None:
        self.spawn(self._start_service(msg.payload["service"], msg),
                   name=f"{self.node_id}/ppm.startsvc")

    def _on_pcmd(self, msg: Message) -> None:
        self.spawn(self._run_pcmd(msg), name=f"{self.node_id}/ppm.pcmd")

    # -- job tasks ---------------------------------------------------------
    def _spawn_task(self, payload: dict[str, Any]) -> dict[str, Any]:
        try:
            spec = TaskSpec.from_payload(payload)
        except SchedulingError as exc:
            return {"ok": False, "error": str(exc)}
        node = self.cluster.node(self.node_id)
        existing = self.tasks.get(spec.job_id)
        if existing is not None and existing.running:
            return {"ok": False, "error": f"job {spec.job_id} already running here"}
        if spec.cpus > node.free_cpus:
            return {"ok": False, "error": f"insufficient cpus ({node.free_cpus} free)"}
        hostos = self.cluster.hostos(self.node_id)
        hp = hostos.start_process(spec.process_name())
        node.allocate_cpus(spec.cpus)
        record = TaskRecord(spec=spec, node_id=self.node_id, started_at=self.sim.now)
        self.tasks[spec.job_id] = record

        def on_task_end() -> None:
            if record.running:  # killed or node crash, not normal exit
                record.state = TaskState.KILLED
                record.finished_at = self.sim.now
            if node.up:
                node.release_cpus(spec.cpus)
            self._notify_detector(record)

        hp.on_kill(on_task_end)

        def task_body():
            yield spec.duration
            record.state = TaskState.DONE
            record.finished_at = self.sim.now
            # Process exit: reap on the next event slot (a generator cannot
            # close itself from inside its own frame).
            self.sim.schedule(0.0, hp.kill)

        hp.adopt(task_body(), name=f"{self.node_id}/{spec.process_name()}")
        self.sim.trace.count("ppm.tasks_started")
        self._notify_detector(record)
        return {"ok": True, "job_id": spec.job_id, "node": self.node_id}

    def _kill_task(self, job_id: str) -> dict[str, Any]:
        record = self.tasks.get(job_id)
        if record is None or not record.running:
            return {"ok": False, "error": f"no running task for job {job_id}"}
        hostos = self.cluster.hostos(self.node_id)
        hostos.kill_process(record.spec.process_name())
        return {"ok": True}

    def _cleanup(self) -> dict[str, Any]:
        """Kill every running task and drop finished records (resource
        cleaning up, paper §4.2)."""
        killed = 0
        for record in list(self.tasks.values()):
            if record.running:
                self.cluster.hostos(self.node_id).kill_process(record.spec.process_name())
                killed += 1
        self.tasks = {jid: r for jid, r in self.tasks.items() if r.running}
        return {"ok": True, "killed": killed}

    def _job_status(self, job_id: str) -> dict[str, Any]:
        record = self.tasks.get(job_id)
        if record is None:
            return {"found": False}
        return {
            "found": True,
            "state": record.state.value,
            "started_at": record.started_at,
            "finished_at": record.finished_at,
        }

    def _notify_detector(self, record: TaskRecord) -> None:
        detector = self.kernel.live_daemon("detector", self.node_id)
        if detector is not None and detector.alive:
            detector.on_task_update(record)

    def _report_load(self) -> dict[str, Any]:
        node = self.cluster.node(self.node_id)
        return {
            "cpus": node.spec.cpus,
            "cpus_free": node.free_cpus,
            "tasks_running": sum(1 for r in self.tasks.values() if r.running),
        }

    # -- service management ------------------------------------------------
    def _start_service(self, service: str, msg: Message | None = None):
        """Coroutine: start ``service`` here once its spawn time has passed;
        returns the result, and answers ``msg`` (a ``ppm.start_service``,
        e.g. a failover's remote restart) with it plus this node."""
        yield self.timings.spawn_time(service)
        try:
            self.kernel.start_service(service, self.node_id)
        except Exception as exc:
            result = {"ok": False, "error": str(exc)}
        else:
            result = {"ok": True, "service": service}
        if msg is not None:
            self.reply(msg, {**result, "node": self.node_id} if result["ok"] else result)
        return result

    def _stop_service(self, service: str) -> dict[str, Any]:
        hostos = self.cluster.hostos(self.node_id)
        if not hostos.process_alive(service):
            return {"ok": False, "error": f"{service} not running"}
        hostos.kill_process(service)
        return {"ok": True}

    # -- parallel commands -----------------------------------------------
    def _run_pcmd(self, msg: Message):
        cmd = msg.payload["cmd"]
        args = msg.payload.get("args") or {}
        targets = list(msg.payload.get("targets") or ())
        results: dict[str, Any] = {}
        errors: dict[str, str] = {}

        run_local, branches = split_targets(targets, self.node_id)
        # Forward branches first so subtrees work while we execute locally.
        # Retried within the same subtree budget: a transiently lost branch
        # request/reply degrades to a retry, not a whole subtree reported
        # unreachable (pcmd verbs are idempotent or reject duplicates).
        pending = []
        for branch in branches:
            head = branch[0]
            timeout = subtree_timeout(RPC_TIMEOUT, len(branch))
            sig = self.rpc_retry(
                head,
                ports.PPM,
                ports.PPM_PCMD,
                {"cmd": cmd, "args": args, "targets": branch},
                timeout=timeout,
            )
            pending.append((branch, sig))

        if run_local:
            local = self._exec_cmd(cmd, args)
            if hasattr(local, "send"):  # asynchronous command body
                local = yield from local
            results[self.node_id] = local

        for branch, sig in pending:
            reply = yield sig
            if reply is None:
                for node in branch:
                    errors[node] = "unreachable"
            else:
                results.update(reply.get("results", {}))
                errors.update(reply.get("errors", {}))
        self.reply(msg, {"results": results, "errors": errors})

    def _exec_cmd(self, cmd: str, args: dict[str, Any]):
        """Execute one parallel-command verb locally: the work of the
        ``ppm.<verb>`` port, on ``args`` checked against its declaration.

        Returns a result dict, or a generator for verbs that take time.
        """
        work = self.VERBS.get(cmd)
        if work is None:
            return {"ok": False, "error": f"unknown command {cmd!r}"}
        contract = ports.CONTRACTS.get(f"ppm.{cmd}")
        why = contract.refusal(args, self.kernel.names) if contract is not None else None
        if why is not None:
            return {"ok": False, "error": why}
        return work(self, args)

    #: Each verb's work on its arguments, run by a parallel command's
    #: ``cmd`` and served as ``ppm.<verb>`` (``noop`` is a pcmd verb only).
    #: A verb that takes time returns a coroutine.
    VERBS = {
        "noop": lambda self, args: {"ok": True},
        "spawn_job": lambda self, args: self._spawn_task(args),
        "kill_job": lambda self, args: self._kill_task(args["job_id"]),
        "cleanup": lambda self, args: self._cleanup(),
        "job_status": lambda self, args: self._job_status(args["job_id"]),
        "report_load": lambda self, args: self._report_load(),
        "start_service": lambda self, args: self._start_service(args["service"]),
        "stop_service": lambda self, args: self._stop_service(args["service"]),
    }
    PORTS = {ports.PPM: {
        **{f"ppm.{verb}": lambda self, msg, work=work: work(self, msg.payload)
           for verb, work in VERBS.items() if verb != "noop"},
        ports.PPM_START_SERVICE: _on_start_service,  # replies once started
        ports.PPM_PCMD: _on_pcmd,
    }}
