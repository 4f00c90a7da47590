"""Twin-engine equivalence driver for the engine test suites.

Two engine configurations are *observably equivalent* when driving them
through the same workload produces identical firing logs, clocks, and
pending/executed counts.  :func:`drive_ops` replays a random
schedule/cancel/timer/run op list on one engine configuration and
returns that observable history — the machinery that proved the PR 5
timer wheel equivalent to the heap-only reference engine.
"""

from __future__ import annotations

from repro.sim import Simulator


def drive_ops(ops, **sim_kwargs) -> tuple:
    """Replay ``ops`` on one engine configuration; return its observable
    history.

    Ops (mirroring the wheel/heap property test's language):
    ``("sched", delay, priority)``, ``("cancel", i)``,
    ``("timer", delay)``, ``("restart", i, delay_or_None)``,
    ``("tcancel", i)``, ``("run", dt)``.
    """
    sim = Simulator(seed=0, **sim_kwargs)
    log: list[tuple[int, float]] = []
    handles: list = []
    timers: list = []
    tag = 0
    for op in ops:
        kind = op[0]
        if kind == "sched":
            _, delay, prio = op
            t = tag
            tag += 1
            handles.append(
                sim.schedule(delay, lambda t=t: log.append((t, sim.now)), priority=prio)
            )
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "timer":
            t = tag
            tag += 1
            timers.append(sim.timer(op[1], lambda t=t: log.append((t, sim.now))))
        elif kind == "restart":
            if timers:
                timers[op[1] % len(timers)].restart(op[2])
        elif kind == "tcancel":
            if timers:
                timers[op[1] % len(timers)].cancel()
        elif kind == "run":
            sim.run(until=sim.now + op[1])
    mid = (tuple(log), sim.pending_events, sim.events_executed, sim.now)
    sim.run()  # drain whatever is left, unbounded
    return mid, tuple(log), sim.events_executed, sim.now
