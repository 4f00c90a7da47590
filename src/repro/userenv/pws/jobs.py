"""Job model shared by the PWS and PBS job management systems."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.errors import SchedulingError
from repro.kernel.ports import INT, NAME, NUMBER, STR, opt

#: A job submission's payload fields (``pws.submit``, ``pbs.submit``);
#: the server names a job that comes without an id.
JOB_FIELDS = dict(job_id=opt(STR), user=opt(STR), nodes=INT, cpus_per_node=INT, duration=NUMBER,
                  pool=opt(NAME), walltime=opt(NUMBER), priority=opt(INT))


class JobState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class JobSpec:
    """A (possibly multi-node) batch job.

    ``walltime`` is the user's declared limit: the scheduler kills the
    job if it is still running that long after start (the classic batch
    system contract).  ``None`` means unlimited.
    """

    job_id: str
    user: str
    nodes: int
    cpus_per_node: int
    duration: float
    pool: str = "default"
    walltime: float | None = None
    #: Higher runs earlier within fifo/backfill pools (sjf ignores it).
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.job_id:
            raise SchedulingError("job needs an id")
        if self.nodes <= 0 or self.cpus_per_node <= 0:
            raise SchedulingError(f"{self.job_id}: nodes and cpus_per_node must be positive")
        if self.duration <= 0:
            raise SchedulingError(f"{self.job_id}: duration must be positive")
        if self.walltime is not None and self.walltime <= 0:
            raise SchedulingError(f"{self.job_id}: walltime must be positive")

    @property
    def total_cpus(self) -> int:
        return self.nodes * self.cpus_per_node

    def to_payload(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "user": self.user,
            "nodes": self.nodes,
            "cpus_per_node": self.cpus_per_node,
            "duration": self.duration,
            "pool": self.pool,
            "walltime": self.walltime,
            "priority": self.priority,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "JobSpec":
        walltime = payload.get("walltime")
        return cls(
            job_id=payload["job_id"],
            user=payload.get("user") or "",
            nodes=int(payload["nodes"]),
            cpus_per_node=int(payload["cpus_per_node"]),
            duration=float(payload["duration"]),
            pool=payload.get("pool") or "default",
            walltime=float(walltime) if walltime is not None else None,
            priority=int(payload.get("priority") or 0),
        )


@dataclass
class JobRecord:
    """Server-side bookkeeping for one job."""

    spec: JobSpec
    state: JobState = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    assigned_nodes: list[str] = field(default_factory=list)
    #: Nodes whose task has not reported completion yet.
    outstanding: set[str] = field(default_factory=set)
    retries: int = 0
    #: Dispatch counter; tags PPM-level task ids so events from a killed
    #: earlier incarnation cannot be mistaken for the current one.
    launches: int = 0

    @property
    def active(self) -> bool:
        return self.state in (JobState.QUEUED, JobState.RUNNING)

    def to_payload(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_payload(),
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "assigned_nodes": list(self.assigned_nodes),
            "outstanding": sorted(self.outstanding),
            "retries": self.retries,
            "launches": self.launches,
        }

    @property
    def ppm_job_id(self) -> str:
        """The task id of the current incarnation as PPM knows it."""
        return f"{self.spec.job_id}#{self.launches}"

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "JobRecord":
        return cls(
            spec=JobSpec.from_payload(payload["spec"]),
            state=JobState(payload["state"]),
            submitted_at=payload["submitted_at"],
            started_at=payload["started_at"],
            finished_at=payload["finished_at"],
            assigned_nodes=list(payload["assigned_nodes"]),
            outstanding=set(payload["outstanding"]),
            retries=int(payload.get("retries", 0)),
            launches=int(payload.get("launches", 0)),
        )


def split_ppm_job_id(ppm_job_id: str) -> tuple[str, int]:
    """Inverse of :attr:`JobRecord.ppm_job_id` (``"j1#2" -> ("j1", 2)``).

    Ids without an incarnation tag parse as incarnation 0.
    """
    base, sep, launches = ppm_job_id.rpartition("#")
    if not sep:
        return ppm_job_id, 0
    try:
        return base, int(launches)
    except ValueError:
        return ppm_job_id, 0
