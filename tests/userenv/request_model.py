"""``TrafficGenerator`` as processes: the reference its event-driven requests are held to.

:func:`start_model` runs the arrival loop and every request as generators
spawned by ``sim.spawn``, the way ``TrafficGenerator.start`` once ran
them.  The production generator (``userenv/business/traffic._Request``
and the arrival callback) steps the same walk from event callbacks; the
property in ``test_serving_tier.py`` runs one scenario through each and
requires the same events, RNG draws, counters, histograms and records.
Like ``tests/cluster/retry_model.py``, this is a specification, not a
second implementation to keep in sync: it changes only when the serving
model does.
"""

from __future__ import annotations

import math
from typing import Any

from repro.errors import UserEnvError


def start_model(gen: Any, duration: float | None = None,
                max_requests: int | None = None, rng_name: str = "biztraffic") -> Any:
    """Spawn the arrival loop over ``gen``'s own state (stats, queues,
    ``inflight``, ``done``, its RNG stream); returns its Proc."""
    if duration is None and max_requests is None:
        raise UserEnvError("need a duration or a request budget")
    model = _Model(gen, gen.sim.rngs.stream(rng_name))
    return gen.sim.spawn(model.arrivals(duration, max_requests), name=f"biztraffic.{gen.app}")


class _Model:
    def __init__(self, gen: Any, rng: Any) -> None:
        self.gen = gen
        self.rng = rng
        total = sum(c.weight for c in gen.classes)
        self.cdf = []
        acc = 0.0
        for cls in gen.classes:
            acc += cls.weight / total
            self.cdf.append((acc, cls))
        tiers = gen.runtime.apps[gen.app].spec.tiers
        self.walk = [(t.name, gen.queues[t.name]) for t in tiers]

    def arrivals(self, duration: float | None, max_requests: int | None):
        gen, sim = self.gen, self.gen.sim
        t0 = sim.now
        end = None if duration is None else t0 + duration
        while True:
            if max_requests is not None and gen.generated >= max_requests:
                break
            rate = gen.profile.rate_at(sim.now - t0)
            yield float(self.rng.exponential(1.0 / rate))
            if end is not None and sim.now >= end:
                break
            pick = float(self.rng.random())
            cls = next(c for edge, c in self.cdf if pick <= edge)
            gen.generated += 1
            gen.stats[cls.name].generated += 1
            sim.spawn(self.request(cls, gen.generated), name="bizreq")
        gen.done = True

    def service_time(self, cls: Any, tier: str) -> float:
        mean = cls.service_times[tier]
        if cls.heavy_tail_sigma <= 0:
            return float(self.rng.exponential(mean))
        sigma = cls.heavy_tail_sigma
        mu = math.log(mean) - 0.5 * sigma * sigma  # lognormal with given mean
        return float(self.rng.lognormal(mu, sigma))

    def request(self, cls: Any, seq: int):
        gen, sim = self.gen, self.gen.sim
        started = sim.now
        stats = gen.stats[cls.name]
        rejected_key, failed_key, latency_key = (
            f"bizreq.rejected.{cls.name}", f"bizreq.failed.{cls.name}",
            f"bizreq.latency.{cls.name}")
        span = None
        if gen.span_sample and seq % gen.span_sample == 0:
            span = sim.trace.span("bizreq.request", cls=cls.name)
        gen.inflight += 1
        try:
            for tier, queue in self.walk:
                signal = queue.try_enter()
                if signal is None:
                    stats.rejected += 1
                    sim.trace.count(rejected_key)
                    if span is not None:
                        span.end(outcome="rejected", tier=tier)
                    return
                queue_span = (span.child("bizreq.queue", tier=tier)
                              if span is not None else None)
                if not signal.fired:
                    yield signal
                if queue_span is not None:
                    queue_span.end()
                try:
                    try:
                        replica = gen.runtime.route_replica(gen.app, tier, span=span)
                    except UserEnvError:
                        stats.failed += 1
                        sim.trace.count(failed_key)
                        if span is not None:
                            span.end(outcome="failed", tier=tier)
                        return
                    service_span = (span.child("bizreq.service", tier=tier,
                                               node=replica.node)
                                    if span is not None else None)
                    yield self.service_time(cls, tier)
                    if service_span is not None:
                        service_span.end()
                    if not replica.healthy:
                        # The replica died under us: the request is lost.
                        stats.failed += 1
                        sim.trace.count(failed_key)
                        if span is not None:
                            span.end(outcome="failed", tier=tier)
                        return
                finally:
                    queue.leave()
            stats.completed += 1
            sim.trace.count("bizreq.completed")
            sim.trace.observe(latency_key, sim.now - started)
            if span is not None:
                span.end(outcome="ok")
        finally:
            gen.inflight -= 1
