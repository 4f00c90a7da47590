"""SLO autoscaler for hosted business applications.

Closes the ROADMAP's serving-tier loop: the :class:`BusinessRuntime`
publishes ``kernel.health`` rows (latency histograms, per-tier admission
state) through the partition bulletin, and this autoscaler reads those
rows back, evaluates per-class p99 SLOs plus per-tier queue pressure,
and grows/shrinks tiers via :meth:`BusinessRuntime.scale`.

The control loop is deliberately conservative — scale up on sustained
pressure (deep admission queue, saturated concurrency, or an SLO breach
attributable to a tier), scale down only after several consecutive calm
intervals, and respect a per-tier cooldown — so that churn from the
fault-tolerance paths (kill / heal) does not turn into scaling flap.
Every decision leaves a ``bizrt.autoscale`` trace mark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import UserEnvError
from repro.kernel import ports
from repro.kernel.daemon import HEALTH_TABLE
from repro.userenv.business.runtime import BusinessRuntime


#: busy/limit utilisation that counts as pressure.
UTILIZATION_HIGH = 0.85
#: busy/limit utilisation below which a tier is a shrink candidate.
UTILIZATION_LOW = 0.25
#: Consecutive calm intervals required before scaling down.
CALM_INTERVALS = 3


@dataclass(frozen=True)
class TierPolicy:
    """Scaling bounds for one tier."""

    min_replicas: int
    max_replicas: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.min_replicas <= 0 or self.max_replicas < self.min_replicas:
            raise UserEnvError("need 0 < min_replicas <= max_replicas")
        if self.step <= 0:
            raise UserEnvError("step must be positive")


@dataclass(frozen=True)
class AutoscalePolicy:
    """Loop cadence, cooldown and queue pressure."""

    interval: float = 5.0
    cooldown: float = 15.0
    #: Queue depth per tier that counts as pressure.
    queue_high: int = 8

    def __post_init__(self) -> None:
        if self.interval <= 0 or self.cooldown < 0:
            raise UserEnvError("interval must be positive, cooldown non-negative")


class Autoscaler:
    """Grow/shrink an app's tiers from the runtime's kernel.health rows."""

    def __init__(
        self,
        runtime: BusinessRuntime,
        app: str,
        tiers: dict[str, TierPolicy],
        policy: AutoscalePolicy | None = None,
        class_slos: dict[str, float] | None = None,
    ) -> None:
        state = runtime.apps.get(app)
        if state is None:
            raise UserEnvError(f"unknown application {app!r}")
        tier_names = {t.name for t in state.spec.tiers}
        unknown = set(tiers) - tier_names
        if unknown:
            raise UserEnvError(f"unknown tiers {sorted(unknown)} for {app}")
        self.runtime = runtime
        self.sim = runtime.sim
        self.app = app
        self.tiers = dict(tiers)
        self.policy = policy or AutoscalePolicy()
        self.class_slos = dict(class_slos or {})
        self.actions: list[dict[str, Any]] = []
        self._last_action: dict[str, float] = {}
        self._calm: dict[str, int] = {name: 0 for name in tiers}

    def start(self):
        """Spawn the control loop on the runtime's daemon."""
        return self.runtime.spawn(
            self._loop(), name=f"{self.runtime.node_id}/bizrt.autoscale")

    # -- control loop ----------------------------------------------------
    def _loop(self):
        while True:
            yield self.policy.interval
            if not self.runtime.alive:
                return
            row = yield from self._fetch_health_row()
            if row is not None:
                self._decide(row)

    def _fetch_health_row(self):
        """Read the runtime's own kernel.health row back from the
        partition bulletin — the loop reacts to what was *published*, so
        any operator watching the same table sees the same inputs."""
        db_node = self.runtime.kernel.db_locations().get(self.runtime.partition_id)
        if db_node is None:
            return None
        reply = yield self.runtime.rpc_retry(
            db_node, ports.DB, ports.DB_QUERY,
            {"table": HEALTH_TABLE, "where": {"service": "bizrt"}, "scope": "local"},
            call_class="health.query",
        )
        rows = (reply or {}).get("rows", [])
        return rows[0] if rows else None

    def _decide(self, row: dict[str, Any]) -> None:
        queues = row.get("serving_queues") or {}
        hist = row.get("hist") or {}
        slo_breached = any(
            hist.get(f"bizreq.latency.{cls}", {}).get("p99", 0.0) > slo
            for cls, slo in self.class_slos.items()
        )
        for tier, bounds in sorted(self.tiers.items()):
            snap = queues.get(tier, {})
            depth = int(snap.get("depth", 0))
            busy = int(snap.get("busy", 0))
            limit = int(snap.get("limit", 0))
            utilization = busy / limit if limit > 0 else (1.0 if busy else 0.0)
            pressure = (
                depth >= self.policy.queue_high
                or utilization >= UTILIZATION_HIGH
                or (slo_breached and utilization > UTILIZATION_LOW)
            )
            current = len(self.runtime.apps[self.app].tier_replicas(tier))
            if pressure:
                self._calm[tier] = 0
                target = min(bounds.max_replicas, current + bounds.step)
                reason = "queue" if depth >= self.policy.queue_high else (
                    "utilization" if utilization >= UTILIZATION_HIGH else "slo")
                self._apply(tier, current, target, reason)
            elif utilization <= UTILIZATION_LOW and depth == 0:
                self._calm[tier] += 1
                if self._calm[tier] >= CALM_INTERVALS:
                    target = max(bounds.min_replicas, current - bounds.step)
                    if self._apply(tier, current, target, "idle"):
                        self._calm[tier] = 0
            else:
                self._calm[tier] = 0

    def _apply(self, tier: str, current: int, target: int, reason: str) -> bool:
        if target == current:
            return False
        last = self._last_action.get(tier)
        if last is not None and self.sim.now - last < self.policy.cooldown:
            return False
        try:
            self.runtime.scale(self.app, tier, target)
        except UserEnvError:
            return False
        self._last_action[tier] = self.sim.now
        direction = "up" if target > current else "down"
        self.sim.trace.count(f"bizrt.autoscale.{direction}")
        self.sim.trace.mark("bizrt.autoscale", app=self.app, tier=tier,
                            direction=direction, reason=reason,
                            replicas=target)
        self.actions.append({
            "time": self.sim.now, "tier": tier, "direction": direction,
            "reason": reason, "replicas": target,
        })
        return True
