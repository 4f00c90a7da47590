"""Tables 1–3 harness: fault detect / diagnose / recover latencies.

Reproduces §5.1's methodology: "The testbed is ... 136 nodes in Dawning
4000A with 16 computing nodes and 1 server node per partition, so it is
divided into 8 partitions.  The interval for sending heartbeat ... 30
seconds is set for testing. ... By the means of fault injection, we get
the information in Table 1-3."

Each (component, situation) cell is a fail-stop row of
:mod:`repro.experiments.fault_campaign` run once, with a fixed target on
the paper testbed: a fresh deterministic world boots, warms up past two
heartbeat rounds, the row's fault is injected *just after a heartbeat*
(which is how the paper's flat "30 s" detection figures arise), and
:func:`~repro.experiments.fault_campaign.measure_recovery` reads the
three latencies off the kernel's trace marks.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.cluster import Cluster, ClusterSpec
from repro.experiments.fault_campaign import World, failstop_class, measure_recovery
from repro.experiments.report import format_table
from repro.units import fmt_time

COMPONENTS = ("wd", "gsd", "es")
SITUATIONS = ("process", "node", "network")


@dataclass(frozen=True)
class FaultResult:
    """One table row's raw measurements (seconds)."""

    component: str
    situation: str
    detect: float
    diagnose: float
    recover: float

    @property
    def total(self) -> float:
        return self.detect + self.diagnose + self.recover

    def formatted(self) -> list[str]:
        return [
            self.situation,
            fmt_time(self.detect),
            fmt_time(self.diagnose),
            fmt_time(self.recover),
            fmt_time(self.total),
        ]


def _target_node(component: str, cluster: Cluster) -> str:
    """Fault target: a p1 compute node for WD, p1's server for GSD/ES."""
    part = cluster.partition("p1")
    return part.computes[0] if component == "wd" else part.server


def run_fault_case(
    component: str,
    situation: str,
    seed: int = 0,
    heartbeat_interval: float = 30.0,
    spec: ClusterSpec | None = None,
    align_to_heartbeat: bool = True,
) -> FaultResult:
    """Run one (component, situation) injection and measure the latencies."""
    if component not in COMPONENTS:
        raise ValueError(f"component must be one of {COMPONENTS}")
    if situation not in SITUATIONS:
        raise ValueError(f"situation must be one of {SITUATIONS}")
    row = failstop_class(component, situation)
    world = World(row, seed, heartbeat_interval, spec or ClusterSpec.paper_fault_testbed())
    sim = world.sim
    # Inject relative to the beat the warm-up ended on.
    offset = 0.001 if align_to_heartbeat else 0.37 * heartbeat_interval
    sim.run(until=2.0 * heartbeat_interval + offset)
    world.aim(f"{component}/{situation}", _target_node(component, world.cluster))
    row.inject(world)
    t0 = world.t0
    marks = world.advance(
        row.hold, lambda: measure_recovery(sim.trace, component, situation, t0))
    if marks is None:
        raise RuntimeError(
            f"{component}/{situation}: recovery marks missing after {sim.now - t0:.0f}s")
    detected, diagnosed, recovered = marks
    return FaultResult(
        component=component,
        situation=situation,
        detect=detected - t0,
        diagnose=diagnosed - detected,
        recover=recovered - diagnosed,
    )


def run_table(component: str, seed: int = 0, heartbeat_interval: float = 30.0) -> list[FaultResult]:
    """All three unhealthy situations for one component (one paper table)."""
    return [
        run_fault_case(component, situation, seed=seed, heartbeat_interval=heartbeat_interval)
        for situation in SITUATIONS
    ]


TABLE_TITLES = {
    "wd": "Table 1 — Three Unhealthy Situations for WD",
    "gsd": "Table 2 — Three Unhealthy Situations for GSD",
    "es": "Table 3 — Three Unhealthy Situations for ES",
}


def render_table(component: str, results: list[FaultResult]) -> str:
    """Paper-style text table for one component's three situations."""
    headers = ["Fault reason", "Detecting", "Diagnosing", "Recovery", "Sum"]
    return format_table(headers, [r.formatted() for r in results], title=TABLE_TITLES[component])


def main(argv: list[str] | None = None) -> None:
    """CLI: regenerate Tables 1-3."""
    parser = argparse.ArgumentParser(description="Regenerate paper Tables 1-3")
    parser.add_argument("--component", choices=(*COMPONENTS, "all"), default="all")
    parser.add_argument("--interval", type=float, default=30.0, help="heartbeat interval (s)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    components = COMPONENTS if args.component == "all" else (args.component,)
    for component in components:
        results = run_table(component, seed=args.seed, heartbeat_interval=args.interval)
        print(render_table(component, results))
        print()


if __name__ == "__main__":
    main()
