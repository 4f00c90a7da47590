"""Executable MPI-style workload: bulk-synchronous compute + allreduce.

The strongest form of Table 4's reproduction: instead of *modeling*
Phoenix's Linpack overhead, run an HPL-shaped job **inside the
simulator** — ranks alternate compute phases with tree allreduces over
the simulated networks — and measure the duration with and without the
kernel's daemons on the nodes.

Two physical effects couple the kernel to the workload:

* a steady **CPU tax**: each node's daemons consume
  ``daemon_cpu_fraction`` of a CPU, stretching compute phases by
  ``1/(1 - f)``;
* **OS noise amplification**: daemon wakeups (detector sampling, WD
  beats) interrupt ranks at random; a bulk-synchronous step ends when
  the *slowest* rank arrives at the barrier, so the expected penalty per
  step grows with rank count — the classic reason kernel overhead rises
  (mildly) with scale even though per-node cost is constant.

Both effects are parameterized by the kernel's own ``KernelTimings``;
nothing here is fit to the paper's table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.errors import WorkloadError
from repro.kernel.timings import DAEMON_CPU_FRACTION
from repro.sim import Signal, drive

#: Port prefix for rank-to-rank traffic.
PORT = "mpi"


@dataclass(frozen=True)
class MpiJobSpec:
    """A bulk-synchronous iterative job (HPL-shaped)."""

    job_id: str
    iterations: int = 20
    #: Pure compute time per iteration per rank at full node speed (s).
    work_per_iteration: float = 0.5
    #: Payload of each allreduce (bytes).
    allreduce_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        if not self.job_id:
            raise WorkloadError("mpi job needs an id")
        if self.iterations <= 0 or self.work_per_iteration <= 0:
            raise WorkloadError(f"{self.job_id}: iterations and work must be positive")
        if self.allreduce_bytes <= 0:
            raise WorkloadError(f"{self.job_id}: allreduce_bytes must be positive")


@dataclass(frozen=True)
class NoiseProfile:
    """What the kernel's presence costs each rank.

    ``from_kernel`` derives the defaults from live ``KernelTimings``:
    the steady fraction is the documented daemon CPU share; the
    interruption rate counts the periodic daemon wakeups per node
    (detector sampling + WD beat + local checks), each stealing the CPU
    for roughly one scheduling quantum.
    """

    cpu_fraction: float = 0.0
    interrupt_rate_hz: float = 0.0
    interrupt_cost: float = 0.0

    @classmethod
    def none(cls) -> "NoiseProfile":
        return cls()

    @classmethod
    def from_kernel(cls, timings, interrupt_cost: float = 0.003) -> "NoiseProfile":
        wakeups_per_s = (
            1.0 / timings.detector_interval  # physical-resource sampling
            + 1.0 / timings.heartbeat_interval  # WD beat + local checks
        )
        return cls(
            cpu_fraction=DAEMON_CPU_FRACTION,
            interrupt_rate_hz=wakeups_per_s,
            interrupt_cost=interrupt_cost,
        )


@dataclass
class MpiJobResult:
    job_id: str
    ranks: int
    duration: float
    iterations: int
    #: Wall time of each iteration (compute of slowest rank + allreduce).
    iteration_times: list[float] = field(default_factory=list)
    #: True when a rank died (node crash / kill) before completion — the
    #: rest of the job is torn down, as an MPI runtime would abort it.
    failed: bool = False
    failed_rank: int | None = None


class MpiJob:
    """Runs one spec's ranks on a node list; join :attr:`done` for the result."""

    def __init__(
        self,
        cluster: Cluster,
        nodes: list[str],
        spec: MpiJobSpec,
        noise: NoiseProfile | None = None,
    ) -> None:
        if not nodes:
            raise WorkloadError("mpi job needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise WorkloadError("mpi ranks must be on distinct nodes")
        self.cluster = cluster
        self.sim = cluster.sim
        self.nodes = list(nodes)
        self.spec = spec
        self.noise = noise or NoiseProfile.none()
        self.done: Signal = self.sim.signal(f"mpi.{spec.job_id}.done")
        self._rng = self.sim.rngs.stream(f"mpi.{spec.job_id}")
        self._barrier_arrivals = 0
        self._barrier_release: Signal | None = None
        self._iteration_started = 0.0
        self._result = MpiJobResult(
            job_id=spec.job_id, ranks=len(nodes), duration=0.0, iterations=0
        )

    # -- public -----------------------------------------------------------
    def start(self) -> None:
        """Spawn one rank process per node."""
        started = self.sim.now
        self._iteration_started = started

        def finisher():
            yield self._run_ranks()
            self._result.duration = self.sim.now - started
            self._result.iterations = (
                len(self._result.iteration_times)
                if self._result.failed
                else self.spec.iterations
            )
            self.done.fire(self._result)

        self.sim.spawn(finisher(), name=f"mpi.{self.spec.job_id}.finisher")

    # -- internals ---------------------------------------------------------
    def _run_ranks(self):
        """A Proc that completes when every rank has finished — or aborts
        the whole job when any rank dies (node crash, kill), the way an
        MPI runtime would."""
        from repro.sim import ProcState

        procs = []
        handles = []
        for rank, node in enumerate(self.nodes):
            hp = self.cluster.hostos(node).start_process(f"mpi.{self.spec.job_id}.{rank}")
            proc = hp.adopt(self._rank_body(rank, node), name=f"mpi.{node}.r{rank}")
            procs.append(proc)
            handles.append(hp)

        def waiter():
            from repro.sim import any_of

            remaining = list(enumerate(procs))
            while remaining:
                index, _ = yield any_of(
                    self.sim, [p.done for _, p in remaining], name=f"mpi.{self.spec.job_id}.any"
                )
                rank, proc = remaining.pop(index)
                if proc.state is ProcState.KILLED:
                    self._result.failed = True
                    self._result.failed_rank = rank
                    # Abort: reap every still-running rank process so the
                    # barrier's survivors do not hang forever.
                    for hp in handles:
                        if hp.alive:
                            hp.kill()
                    self.sim.trace.mark(
                        "mpi.aborted", job=self.spec.job_id, failed_rank=rank
                    )
                    return

        return self.sim.spawn(waiter(), name=f"mpi.{self.spec.job_id}.waiter")

    def _compute_time(self) -> float:
        """One rank's compute phase under the configured noise."""
        base = self.spec.work_per_iteration
        if self.noise.cpu_fraction > 0:
            base = base / (1.0 - self.noise.cpu_fraction)
        if self.noise.interrupt_rate_hz > 0 and self.noise.interrupt_cost > 0:
            hits = self._rng.poisson(self.noise.interrupt_rate_hz * base)
            if hits:
                base += float(hits) * self.noise.interrupt_cost
        return base

    def _rank_body(self, rank: int, node: str):
        for _ in range(self.spec.iterations):
            yield self._compute_time()
            yield self._barrier(rank, node)
        return rank

    def _barrier(self, rank: int, node: str) -> Signal:
        """Allreduce stand-in: a central barrier plus the simulated cost of
        a binomial reduce+broadcast tree over the fabric.

        Rank arrivals synchronize in this object (the sim's shared memory
        — cheap and exact); the *network* cost of the collective is then
        charged explicitly as 2·ceil(log2(n)) message hops of the
        configured payload on the data fabric.
        """
        if self._barrier_release is None:
            self._barrier_release = self.sim.signal(f"mpi.{self.spec.job_id}.barrier")
        release = self._barrier_release
        self._barrier_arrivals += 1
        if self._barrier_arrivals == len(self.nodes):
            self._barrier_arrivals = 0
            self._barrier_release = None
            depth = max(1, (len(self.nodes) - 1).bit_length())
            net = self.cluster.networks.get("data") or next(iter(self.cluster.networks.values()))
            hop = net.latency_sample() + self.spec.allreduce_bytes / 1e9  # ~1 GB/s links
            collective_cost = 2.0 * depth * hop
            now = self.sim.now
            self._result.iteration_times.append(now + collective_cost - self._iteration_started)
            self._iteration_started = now + collective_cost
            self.sim.schedule(collective_cost, release.fire)
        return release


def run_mpi_job(
    cluster: Cluster, nodes: list[str], spec: MpiJobSpec, noise: NoiseProfile | None = None
) -> MpiJobResult:
    """Convenience: start the job and run the simulator until it finishes."""
    job = MpiJob(cluster, nodes, spec, noise=noise)
    job.start()
    drive(cluster.sim, job.done)
    if not job.done.fired:
        raise WorkloadError(f"{spec.job_id}: simulation drained before completion")
    return job.done.value
