"""Unit tests for the discrete-event core."""

import gc

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_and_run_executes_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(3.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    seen = []
    for tag in range(10):
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == list(range(10))


def test_priority_breaks_same_time_ties_before_insertion_order():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "late", priority=5)
    sim.schedule(1.0, seen.append, "early", priority=-5)
    sim.run()
    assert seen == ["early", "late"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_nan_and_inf_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(float("inf"), lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []
    assert not handle.pending


def test_cancel_is_reflected_in_pending_events():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    assert sim.pending_events == 1
    handle.cancel()
    assert sim.pending_events == 0
    sim.run()
    assert sim.events_executed == 0


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_until_is_inclusive():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, seen.append, "at-until")
    sim.schedule(10.5, seen.append, "after")
    sim.run(until=10.0)
    assert seen == ["at-until"]
    assert sim.now == 10.0
    sim.run()
    assert seen == ["at-until", "after"]


def test_run_until_leaves_later_events_pending():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "in")
    sim.schedule(2.5, seen.append, "out")
    sim.run(until=2.0)  # events *at* until fire; later ones stay queued
    assert seen == ["in"] and sim.now == 2.0 and sim.pending_events == 1
    sim.run()
    assert seen == ["in", "out"] and sim.now == 2.5


def test_run_until_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_stop_halts_run():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, seen.append, 3)
    sim.run()
    assert seen == [1]
    assert sim.now == 2.0
    sim.run()  # resumable
    assert seen == [1, 3]


def test_max_events_bound():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.schedule(float(i + 1), seen.append, i)
    sim.run(max_events=2)
    assert seen == [0, 1]


def test_max_events_cut_does_not_jump_the_clock_past_due_events():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(sim.now))
    sim.schedule(2.0, lambda: seen.append(sim.now))
    sim.run(until=10.0, max_events=1)
    assert seen == [1.0]
    assert sim.now == 1.0  # the t=2 event is still due: never ahead of it
    assert sim.peek() == 2.0
    sim.run(until=10.0)
    assert seen == [1.0, 2.0]  # fired at its own time, not at a rewound clock
    assert sim.now == 10.0


def test_step_returns_false_when_drained():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_step_fires_the_event_peek_announced():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    assert sim.peek() == 1.0
    assert sim.step() is True
    assert seen == ["a"] and sim.step() is False


def test_peek_skips_cancelled():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    assert sim.peek() == 2.0


def test_pending_events_counts_live_only():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.pending_events == 1


def test_run_not_reentrant():
    sim = Simulator()

    def bad():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, bad)
    sim.run()


def test_events_executed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 4


# -- the cyclic collector: paused inside run() and around each step() -------


@pytest.fixture()
def collector_state():
    """Hand each test the collector as found and put it back afterwards."""
    was_enabled = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_collector_and_restores_the_callers_state(collector_state, enabled):
    (gc.enable if enabled else gc.disable)()
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
    sim.run()
    assert seen == [False]
    assert gc.isenabled() is enabled


def test_run_restores_the_collector_when_a_callback_raises(collector_state):
    gc.enable()
    sim = Simulator()

    def boom():
        raise RuntimeError("callback failed")

    sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert gc.isenabled()


def test_nested_runs_of_two_simulators_restore_the_collector(collector_state):
    gc.enable()
    outer, inner = Simulator(), Simulator()
    seen = []
    inner.schedule(1.0, lambda: seen.append(("inner", gc.isenabled())))

    def run_inner():
        inner.run()
        seen.append(("after inner", gc.isenabled()))

    outer.schedule(1.0, run_inner)
    outer.run()
    assert seen == [("inner", False), ("after inner", False)]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_step_pauses_the_collector_and_restores_the_callers_state(collector_state, enabled):
    (gc.enable if enabled else gc.disable)()
    sim = Simulator()
    seen = []
    for delay in (1.0, 2.0):
        sim.schedule(delay, lambda: seen.append(gc.isenabled()))
    while sim.step():
        assert gc.isenabled() is enabled
    assert seen == [False, False]
    assert gc.isenabled() is enabled


def test_step_restores_the_collector_when_a_callback_raises(collector_state):
    gc.enable()
    sim = Simulator()

    def boom():
        raise RuntimeError("callback failed")

    sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError):
        sim.step()
    assert gc.isenabled()
