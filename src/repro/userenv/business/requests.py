"""Request workload driver for hosted business applications.

The paper motivates Phoenix with web-hosting environments that "require
support for peak loads" (§2, Oceano comparison) and promise 7x24
service.  This driver generates that traffic against a deployed
application: Poisson arrivals, each request traversing the app's tiers
in order, queueing at a replica chosen by the load-balancing strategy,
holding a concurrency slot for a (possibly heavy-tailed) service time.

Measured per run: throughput, failure count (a tier with no healthy
replica, or a replica dying mid-service), and the latency distribution —
the p95 numbers behind the balancer-strategy ablation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import UserEnvError
from repro.sim import Signal, Simulator
from repro.userenv.business.runtime import BusinessRuntime, Replica
from repro.util import Summary, summarize

STRATEGIES = ("round_robin", "least_loaded")


class ReplicaServer:
    """Concurrency-limited request server modeling one replica."""

    def __init__(self, sim: Simulator, replica: Replica, capacity: int) -> None:
        if capacity <= 0:
            raise UserEnvError("replica capacity must be positive")
        self.sim = sim
        self.replica = replica
        self.capacity = capacity
        self.busy = 0
        self._waiters: deque[Signal] = deque()

    @property
    def load(self) -> int:
        """Slots in use plus queue depth (the least-loaded criterion)."""
        return self.busy + len(self._waiters)

    def acquire(self) -> Signal:
        """A signal that fires when a slot is granted."""
        signal = Signal(self.sim, name=f"{self.replica.job_id}.slot")
        if self.busy < self.capacity:
            self.busy += 1
            signal.fire(True)
        else:
            self._waiters.append(signal)
        return signal

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().fire(True)
        else:
            self.busy -= 1


@dataclass
class DriverStats:
    completed: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)

    def latency_summary(self) -> Summary:
        if not self.latencies:
            raise UserEnvError("no completed requests to summarize")
        return summarize(self.latencies)


class RequestDriver:
    """Generates and measures request traffic against one application."""

    def __init__(
        self,
        runtime: BusinessRuntime,
        app: str,
        service_times: dict[str, float],
        strategy: str = "round_robin",
        capacity_per_replica: int = 4,
        heavy_tail_sigma: float = 0.0,
        rng_name: str = "bizreq",
    ) -> None:
        if strategy not in STRATEGIES:
            raise UserEnvError(f"unknown strategy {strategy!r}")
        if app not in runtime.apps:
            raise UserEnvError(f"unknown application {app!r}")
        self.runtime = runtime
        self.sim = runtime.sim
        self.app = app
        self.strategy = strategy
        self.service_times = dict(service_times)
        self.heavy_tail_sigma = heavy_tail_sigma
        self.stats = DriverStats()
        self._rng = self.sim.rngs.stream(rng_name)
        self._rr: dict[str, int] = {}
        state = runtime.apps[app]
        self._servers: dict[str, ReplicaServer] = {
            r.job_id: ReplicaServer(self.sim, r, capacity_per_replica) for r in state.replicas
        }
        for tier in state.spec.tiers:
            if tier.name not in self.service_times:
                raise UserEnvError(f"no service time configured for tier {tier.name!r}")

    # -- replica selection -----------------------------------------------
    def _pick(self, tier: str) -> ReplicaServer | None:
        healthy = [
            self._servers[r.job_id]
            for r in self.runtime.apps[self.app].routes.get(tier, ())
            if r.job_id in self._servers
        ]
        if not healthy:
            return None
        if self.strategy == "least_loaded":
            return min(healthy, key=lambda s: (s.load, s.replica.job_id))
        index = self._rr.get(tier, -1) + 1
        self._rr[tier] = index
        return healthy[index % len(healthy)]

    def _service_time(self, tier: str) -> float:
        base = self.service_times[tier]
        if self.heavy_tail_sigma <= 0.0:
            return base
        return float(base * self._rng.lognormal(0.0, self.heavy_tail_sigma))

    # -- request lifecycle -----------------------------------------------
    def _request(self):
        started = self.sim.now
        for tier in self.runtime.apps[self.app].spec.tiers:
            server = self._pick(tier.name)
            if server is None:
                self.stats.failed += 1
                self.sim.trace.count("bizreq.failed")
                return
            yield server.acquire()
            try:
                yield self._service_time(tier.name)
            finally:
                server.release()
            if not server.replica.healthy:
                self.stats.failed += 1  # replica died under us
                self.sim.trace.count("bizreq.failed")
                return
        self.stats.completed += 1
        self.stats.latencies.append(self.sim.now - started)
        self.sim.trace.count("bizreq.completed")

    def run(self, rate_per_s: float, duration: float):
        """Coroutine: Poisson arrivals at ``rate_per_s`` for ``duration``."""
        if rate_per_s <= 0 or duration <= 0:
            raise UserEnvError("rate and duration must be positive")
        end = self.sim.now + duration
        while self.sim.now < end:
            yield float(self._rng.exponential(1.0 / rate_per_s))
            if self.sim.now >= end:
                break
            self.sim.spawn(self._request(), name=f"bizreq.{self.app}")

    def start(self, rate_per_s: float, duration: float):
        """Spawn the arrival loop; returns its process (joinable)."""
        return self.sim.spawn(self.run(rate_per_s, duration), name=f"bizdriver.{self.app}")
