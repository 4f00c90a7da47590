"""Cancellable-timer helper and heap-compaction behaviour."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_timer_fires_callback_with_args():
    sim = Simulator()
    seen = []
    sim.timer(2.0, seen.append, "tick")
    sim.run()
    assert seen == ["tick"]
    assert sim.now == 2.0


def test_timer_cancel_prevents_fire():
    sim = Simulator()
    seen = []
    timer = sim.timer(2.0, seen.append, "tick")
    timer.cancel()
    sim.run()
    assert seen == []
    assert not timer.active


def test_timer_restart_pushes_deadline():
    sim = Simulator()
    seen = []
    timer = sim.timer(2.0, lambda: seen.append(sim.now))
    sim.schedule(1.0, timer.restart)  # re-arm at t=1 with the original delay
    sim.run()
    assert seen == [3.0]


def test_timer_restart_with_new_delay():
    sim = Simulator()
    seen = []
    timer = sim.timer(2.0, lambda: seen.append(sim.now))
    sim.schedule(1.0, timer.restart, 0.5)
    sim.run()
    assert seen == [1.5]


def test_timer_restart_after_fire_rearms():
    sim = Simulator()
    seen = []
    timer = sim.timer(1.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.0] and not timer.active
    timer.restart()
    assert timer.active and timer.deadline == 2.0
    sim.run()
    assert seen == [1.0, 2.0]


def test_timer_active_and_deadline():
    sim = Simulator()
    timer = sim.timer(4.0, lambda: None)
    assert timer.active
    assert timer.deadline == 4.0
    timer.cancel()
    assert not timer.active
    assert timer.deadline is None


def test_timer_cancel_is_idempotent():
    sim = Simulator()
    timer = sim.timer(1.0, lambda: None)
    timer.cancel()
    timer.cancel()  # no error, still inert
    sim.run()
    assert not timer.active


def test_timer_rejects_bad_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timer(-1.0, lambda: None)


def test_timer_restart_rejects_bad_delay():
    """A refused restart changes nothing: the armed deadline still fires."""
    sim = Simulator()
    seen = []
    timer = sim.timer(5.0, lambda: seen.append(sim.now))
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(SimulationError):
            timer.restart(bad)
        assert timer.active and timer.deadline == 5.0
    sim.run()
    assert seen == [5.0]
    timer.restart()  # and the delay it re-arms with is still the original
    assert timer.deadline == 10.0


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending_events == 10
    for h in handles[5:]:
        h.cancel()
    assert sim.pending_events == 5


def test_heap_compaction_bounds_dead_entries():
    """Cancelling many one-shot timers must not grow the heap without
    bound: the engine compacts once dead entries dominate."""
    sim = Simulator()
    sim.schedule(1000.0, lambda: None)  # keep one live event
    for i in range(10_000):
        sim.timer(500.0, lambda: None).cancel()
        assert len(sim._heap) <= 200  # dead entries are swept, not hoarded
    assert sim.pending_events == 1
    sim.run()
    assert sim.now == 1000.0


def test_restart_heavy_timer_keeps_heap_small():
    """The heartbeat-monitor pattern: one timer restarted thousands of
    times leaves O(1) heap residue, not one dead entry per restart."""
    sim = Simulator()
    timer = sim.timer(100.0, lambda: None)
    for i in range(5_000):
        sim.schedule(0.001 * (i + 1), timer.restart, 100.0)
    sim.run(until=6.0)
    assert len(sim._heap) <= 200
    assert sim.pending_events == 1  # just the armed timer
