"""Open-loop traffic generation for the business serving tier.

The paper's §business-hosting evaluation promises 7x24 availability and
load balancing, but never drives the hosting environment with realistic
load.  This module supplies that missing half: an *open-loop* generator
(arrivals do not wait for completions, so overload actually queues) with

- request classes with distinct per-tier service-time distributions and
  per-class p99 SLOs (``bizreq.latency.<class>`` histograms),
- arrival profiles — Poisson (constant rate), bursty (square wave) and
  diurnal (sinusoidal) — all thinned from the same exponential
  inter-arrival core so runs stay deterministic per seed,
- admission control: a bounded queue per tier whose concurrency limit
  tracks the *current* healthy replica set (kill/heal/scale churn
  included) and whose watermark crossings publish backpressure events
  through ES.

Each admitted request walks the app's tiers in order: admission queue →
:meth:`BusinessRuntime.route_replica` → service time on the chosen
replica, as one event-driven call (:class:`_Request`), not a process.
A sampled fraction of requests opens a ``bizreq.request`` span that
decomposes into ``bizreq.queue`` / ``bizreq.service`` children, so
individual slow requests stay explainable without paying per-request
record cost at millions of requests.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple

from repro.errors import UserEnvError
from repro.sim.process import Signal
from repro.userenv.business.runtime import BusinessRuntime, Replica

#: ES event types published on admission-queue watermark crossings.
BACKPRESSURE_ON = "bizrt.backpressure_on"
BACKPRESSURE_OFF = "bizrt.backpressure_off"
#: Queue depths, as fractions of the cap, at which backpressure engages
#: and releases.
HIGH_WATERMARK = 0.75
LOW_WATERMARK = 0.25
#: The RNG stream arrivals and service times are drawn from.
RNG_STREAM = "biztraffic"


@dataclass(frozen=True)
class RequestClass:
    """A class of business requests (e.g. browse / checkout / report).

    ``service_times`` maps tier name → mean service time (seconds).
    ``heavy_tail_sigma`` > 0 draws lognormal service times around those
    means; ``slo_p99`` is the class's latency objective (None = best
    effort).
    """

    name: str
    service_times: dict[str, float]
    weight: float = 1.0
    heavy_tail_sigma: float = 0.0
    slo_p99: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise UserEnvError("request class needs a name")
        if self.weight <= 0:
            raise UserEnvError(f"class {self.name}: weight must be positive")
        if not self.service_times or any(not 0 < v < math.inf for v in self.service_times.values()):
            raise UserEnvError(f"class {self.name}: service times must be positive and finite")


@dataclass(frozen=True)
class ArrivalProfile:
    """Time-varying arrival rate ``rate_at(t)`` (requests / second).

    ``poisson`` holds ``rate`` constant; ``bursty`` alternates between
    ``rate`` and ``rate * burst_factor`` (square wave, ``duty`` fraction
    of each ``period`` spent bursting); ``diurnal`` modulates ``rate``
    sinusoidally by ``amplitude`` over ``period``.
    """

    kind: str = "poisson"
    rate: float = 100.0
    period: float = 60.0
    burst_factor: float = 3.0
    duty: float = 0.2
    amplitude: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "bursty", "diurnal"):
            raise UserEnvError(f"unknown arrival profile {self.kind!r}")
        if not 0 < self.rate < math.inf or not 0 < self.period < math.inf:
            raise UserEnvError("rate and period must be positive and finite")
        if not 0 < self.duty < 1 or not 1 <= self.burst_factor < math.inf or not 0 <= self.amplitude < 1:
            raise UserEnvError("bursty/diurnal shape parameters out of range")

    def rate_at(self, t: float) -> float:
        if self.kind == "poisson":
            return self.rate
        if self.kind == "bursty":
            phase = (t % self.period) / self.period
            return self.rate * (self.burst_factor if phase < self.duty else 1.0)
        return self.rate * (1.0 + self.amplitude * math.sin(2 * math.pi * t / self.period))

    def mean_rate(self) -> float:
        """Long-run average rate (used to size campaign durations)."""
        if self.kind == "bursty":
            return self.rate * (1.0 + self.duty * (self.burst_factor - 1.0))
        return self.rate


class AdmissionQueue:
    """Bounded FIFO admission gate in front of one tier.

    At most ``limit()`` admitted requests hold a slot at once; the caller
    keeps ``limit`` cheap (the serving tier reads the length of the
    runtime's routing list).  Waiters are granted, in order, when a slot
    is released, when an arrival finds the limit risen, and when the
    owner calls :meth:`grant` because it knows the limit grew.  The wait
    queue is hard-capped at ``queue_cap``: arrivals beyond it are
    rejected immediately (counted, never parked), which is what bounds
    both memory and queueing latency under overload.  Watermark
    crossings invoke ``on_backpressure(engaged, depth)``.
    """

    def __init__(
        self,
        sim,
        tier: str,
        limit: Callable[[], int],
        queue_cap: int,
        on_backpressure: Callable[[bool, int], None] | None = None,
    ) -> None:
        if queue_cap <= 0:
            raise UserEnvError(f"tier {tier}: queue_cap must be positive")
        self.sim = sim
        self.tier = tier
        self.limit = limit
        self.queue_cap = queue_cap
        self.on_backpressure = on_backpressure
        self.high = max(1, int(queue_cap * HIGH_WATERMARK))
        self.low = int(queue_cap * LOW_WATERMARK)
        self.busy = 0
        self.admitted = 0
        self.rejected = 0
        self.backpressure = False
        self._waiters: deque[Signal] = deque()
        self._signal_name = f"admit.{tier}"
        self._rejected_key = f"bizreq.rejected.tier.{tier}"
        #: What every immediate admission returns: one signal, fired once.
        self._admitted_now = Signal(sim, name=self._signal_name)
        self._admitted_now.fire(True)

    @property
    def depth(self) -> int:
        return len(self._waiters)

    def try_enter(self) -> Signal | None:
        """Request admission.  Returns an already-fired Signal when a slot
        is free now (the same one on every such call: nothing is
        allocated), a fresh Signal that fires when a slot is granted, or
        None when the queue is full (rejected)."""
        waiters = self._waiters
        if waiters:
            self.grant()  # the limit may have risen since the last release
        if not waiters and self.busy < self.limit():
            self.busy += 1
            self.admitted += 1
            return self._admitted_now
        if len(waiters) >= self.queue_cap:
            self.rejected += 1
            self.sim.trace.count(self._rejected_key)
            return None
        signal = Signal(self.sim, name=self._signal_name)
        waiters.append(signal)
        self._note_watermark()
        return signal

    def leave(self) -> None:
        """Release a granted slot (always call once per granted Signal)."""
        self.busy -= 1
        self.grant()

    def grant(self) -> None:
        """Grant waiters, in order, while ``limit()`` leaves a slot free."""
        granted = False
        while self._waiters and self.busy < self.limit():
            self.busy += 1
            self.admitted += 1
            self._waiters.popleft().fire(True)
            granted = True
        if granted:
            self._note_watermark()

    def _note_watermark(self) -> None:
        depth = len(self._waiters)
        if not self.backpressure and depth >= self.high:
            self.backpressure = True
            self.sim.trace.count("bizrt.backpressure_transitions")
            self.sim.trace.mark("bizrt.backpressure", tier=self.tier,
                                engaged=True, depth=depth)
            if self.on_backpressure is not None:
                self.on_backpressure(True, depth)
        elif self.backpressure and depth <= self.low:
            self.backpressure = False
            self.sim.trace.mark("bizrt.backpressure", tier=self.tier,
                                engaged=False, depth=depth)
            if self.on_backpressure is not None:
                self.on_backpressure(False, depth)

    def snapshot(self) -> dict[str, int]:
        return {
            "depth": self.depth, "busy": self.busy, "limit": self.limit(),
            "admitted": self.admitted, "rejected": self.rejected,
            "backpressure": int(self.backpressure),
        }


@dataclass
class ClassStats:
    generated: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0


class _ClassPlan(NamedTuple):
    """A class's stats, counter and histogram names, and per tier its draw."""

    name: str
    stats: ClassStats
    rejected_key: str
    failed_key: str
    latency_key: str
    draws: tuple[Callable[[], float], ...]


class TrafficGenerator:
    """Open-loop request load against one hosted application."""

    def __init__(
        self,
        runtime: BusinessRuntime,
        app: str,
        classes: list[RequestClass],
        profile: ArrivalProfile | None = None,
        queue_cap: int = 64,
        slots_per_replica: int = 8,
        span_sample: int = 0,
    ) -> None:
        state = runtime.apps.get(app)
        if state is None:
            raise UserEnvError(f"unknown application {app!r}")
        if not classes:
            raise UserEnvError("need at least one request class")
        tier_names = {t.name for t in state.spec.tiers}
        for cls in classes:
            missing = tier_names - set(cls.service_times)
            if missing:
                raise UserEnvError(
                    f"class {cls.name}: no service time for tiers {sorted(missing)}")
        self.runtime = runtime
        self.sim = runtime.sim
        self.app = app
        self.classes = list(classes)
        self.profile = profile or ArrivalProfile()
        self.span_sample = span_sample
        self.slots_per_replica = slots_per_replica
        self.stats: dict[str, ClassStats] = {c.name: ClassStats() for c in classes}
        self.generated = 0
        self.inflight = 0
        self.done = False
        self._rng = self.sim.rngs.stream(RNG_STREAM)
        #: Arrival clock origin; start() sets it with the end time and budget.
        self._t0: float | None = None
        total = sum(c.weight for c in classes)
        self._cdf: list[tuple[float, _ClassPlan]] = []
        acc = 0.0
        for cls in classes:
            acc += cls.weight / total
            sigma, n = cls.heavy_tail_sigma, cls.name
            draws = tuple(  # per tier in walk order; a lognormal keeps the tier's mean
                partial(self._rng.exponential, mean) if sigma <= 0
                else partial(self._rng.lognormal, math.log(mean) - 0.5 * sigma * sigma, sigma)
                for mean in (cls.service_times[t.name] for t in state.spec.tiers))
            self._cdf.append((acc, _ClassPlan(n, self.stats[n], f"bizreq.rejected.{n}",
                                              f"bizreq.failed.{n}", f"bizreq.latency.{n}", draws)))
        self.queues: dict[str, AdmissionQueue] = {
            t.name: AdmissionQueue(
                self.sim, t.name,
                limit=self._tier_limit(state.routes[t.name]),
                queue_cap=queue_cap,
                on_backpressure=self._publish_backpressure(t.name),
            )
            for t in state.spec.tiers
        }
        #: The tiers a request walks, in order, each with its queue.
        self._walk = [(t.name, self.queues[t.name]) for t in state.spec.tiers]
        runtime.attach_traffic(self)

    # -- wiring ----------------------------------------------------------
    def _tier_limit(self, route: list[Replica]) -> Callable[[], int]:
        slots = self.slots_per_replica
        return lambda: len(route) * slots

    def _publish_backpressure(self, tier: str) -> Callable[[bool, int], None]:
        def publish(engaged: bool, depth: int) -> None:
            self.runtime.publish(
                BACKPRESSURE_ON if engaged else BACKPRESSURE_OFF,
                {"app": self.app, "tier": tier, "depth": depth},
            )
        return publish

    def tier_grew(self, app: str, tier: str) -> None:
        """The runtime's routing list for ``tier`` of ``app`` gained a
        replica: grant the requests that queued while it was shorter."""
        if app == self.app:
            self.queues[tier].grant()

    def admission_snapshot(self) -> dict[str, dict[str, int]]:
        """Per-tier admission state, embedded in kernel.health rows."""
        return {tier: q.snapshot() for tier, q in sorted(self.queues.items())}

    # -- load generation -------------------------------------------------
    def start(self, duration: float | None = None, max_requests: int | None = None) -> None:
        """Start the open-loop arrivals: the first gap is drawn at ``+0``,
        and each arrival starts one :class:`_Request` and draws the next."""
        if duration is None and max_requests is None:
            raise UserEnvError("need a duration or a request budget")
        if self._t0 is not None:
            raise UserEnvError(f"traffic for {self.app} already started")
        sim = self.sim
        self._t0 = sim._now
        self._end = math.inf if duration is None else sim._now + duration
        self._budget = math.inf if max_requests is None else max_requests
        sim.schedule(0.0, self._next_gap)

    def _next_gap(self) -> None:
        if self.generated >= self._budget:
            self.done = True
            return
        sim = self.sim
        rate = self.profile.rate_at(sim._now - self._t0)
        sim.schedule(float(self._rng.exponential(1.0 / rate)), self._arrive)

    def _arrive(self) -> None:
        if self.sim._now >= self._end:
            self.done = True
            return
        pick = float(self._rng.random())
        plan = next(p for edge, p in self._cdf if pick <= edge)
        self.generated += 1
        plan.stats.generated += 1
        _Request(self, plan, self.generated)
        self._next_gap()

    # -- results ---------------------------------------------------------
    def class_summary(self) -> dict[str, dict[str, Any]]:
        """Per-class outcome counts plus latency percentiles and SLO verdict."""
        out: dict[str, dict[str, Any]] = {}
        for cls in self.classes:
            stats = self.stats[cls.name]
            hist = self.sim.trace.histogram(f"bizreq.latency.{cls.name}")
            entry: dict[str, Any] = {
                "generated": stats.generated,
                "completed": stats.completed,
                "rejected": stats.rejected,
                "failed": stats.failed,
                "slo_p99": cls.slo_p99,
            }
            if hist is not None and hist.count:
                entry["p50"] = hist.percentile(50)
                entry["p99"] = hist.percentile(99)
                if cls.slo_p99 is not None:
                    entry["slo_ok"] = entry["p99"] <= cls.slo_p99
            out[cls.name] = entry
        return out


class _Request:
    """One served request, a signal waiter stepped by events: per tier,
    admission (parked unless admitted at once) → route → one service sleep
    → leave, with the events a process would schedule (first step and a
    granted wake at ``+0``).  It holds no bound method of itself."""

    __slots__ = ("gen", "plan", "span", "child", "started", "at", "replica")

    def __init__(self, gen: TrafficGenerator, plan: _ClassPlan, seq: int) -> None:
        self.gen, self.plan = gen, plan
        gen.sim.schedule(0.0, self._start, seq)

    def _start(self, seq: int) -> None:
        gen = self.gen
        self.started, self.at, self.span, self.child = gen.sim._now, 0, None, None
        if gen.span_sample and seq % gen.span_sample == 0:
            self.span = gen.sim.trace.span("bizreq.request", cls=self.plan.name)
        gen.inflight += 1
        self._enter()

    def _enter(self) -> None:
        tier, queue = self.gen._walk[self.at]
        signal = queue.try_enter()
        if signal is None:
            self.plan.stats.rejected += 1
            self._close(self.plan.rejected_key, None, outcome="rejected", tier=tier)
            return
        if self.span is not None:
            self.child = self.span.child("bizreq.queue", tier=tier)
        if signal.fired:
            self._admitted(True)
        else:
            signal._register(self)

    def _wake_soon(self, value: Any) -> None:
        self.gen.sim.schedule(0.0, self._admitted, value)

    def _admitted(self, _value: Any) -> None:
        gen, span = self.gen, self.span
        tier, queue = gen._walk[self.at]
        if span is not None:
            self.child.end()
        try:
            self.replica = gen.runtime.route_replica(gen.app, tier, span=span)
        except UserEnvError:
            self.plan.stats.failed += 1
            self._close(self.plan.failed_key, queue, outcome="failed", tier=tier)
            return
        if span is not None:
            self.child = span.child("bizreq.service", tier=tier, node=self.replica.node)
        gen.sim.schedule(float(self.plan.draws[self.at]()), self._served)

    def _served(self) -> None:
        if self.span is not None:
            self.child.end()
        gen, plan = self.gen, self.plan
        tier, queue = gen._walk[self.at]
        if not self.replica.healthy:  # the replica died under it: the request is lost
            plan.stats.failed += 1
            self._close(plan.failed_key, queue, outcome="failed", tier=tier)
            return
        queue.leave()
        self.at += 1
        if self.at < len(gen._walk):
            self._enter()
            return
        plan.stats.completed += 1
        gen.sim.trace.observe(plan.latency_key, gen.sim._now - self.started)
        self._close("bizreq.completed", None, outcome="ok")

    def _close(self, key: str, queue: AdmissionQueue | None, **fields: Any) -> None:
        """Count the outcome, close the span, free ``queue``'s slot, and end."""
        self.gen.sim.trace.count(key)
        if self.span is not None:
            self.span.end(**fields)
        if queue is not None:
            queue.leave()
        self.gen.inflight -= 1
