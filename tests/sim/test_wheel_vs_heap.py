"""The timer wheel's determinism contract: ``Simulator(wheel=True)`` must
execute the *identical* event sequence as the heap-only reference engine.

The property test drives both engines through random mixes of schedules
(spanning sub-tick, level-0, level-1, and beyond-horizon delays, with and
without priorities), handle cancels, timer restarts/cancels, and
interleaved bounded runs — then asserts the firing logs, clocks, and
pending counts never diverge.  The driver itself lives in
:mod:`tests.sim.engine_equivalence`.  The unit tests pin the individual
routing and recycling behaviors the property test exercises in aggregate.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.core import FREELIST_MAX, WHEEL_TICK

from tests.sim.engine_equivalence import drive_ops

# Delays crossing every routing boundary: sub-tick (heap), level 0
# (< 4 s), level 1 (< 1024 s), and past the coarsest horizon (heap).
_DELAYS = st.one_of(
    st.floats(min_value=0.0, max_value=1200.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, WHEEL_TICK / 2, WHEEL_TICK, 3.99, 4.0, 1023.0, 1024.0, 1100.0]),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), _DELAYS, st.integers(-1, 1)),
        st.tuples(st.just("cancel"), st.integers(0, 255)),
        st.tuples(st.just("timer"), _DELAYS),
        st.tuples(st.just("restart"), st.integers(0, 255), st.none() | _DELAYS),
        st.tuples(st.just("tcancel"), st.integers(0, 255)),
        st.tuples(st.just("run"), _DELAYS),
    ),
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(ops=_OPS)
def test_wheel_vs_heap_equivalence(ops):
    assert drive_ops(ops, wheel=True) == drive_ops(ops, wheel=False)


# -- routing ---------------------------------------------------------------

def test_near_future_default_priority_routes_to_wheel():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(100.0, lambda: None)  # level 1
    assert sim.wheel_scheduled == 2 and sim.heap_scheduled == 0


def test_far_future_and_priority_route_to_heap():
    sim = Simulator()
    sim.schedule(2000.0, lambda: None)  # beyond the 1024 s horizon
    sim.schedule(1.0, lambda: None, priority=1)  # exact-priority event
    assert sim.heap_scheduled == 2 and sim.wheel_scheduled == 0


def test_wheel_disabled_routes_everything_to_heap():
    sim = Simulator(wheel=False)
    sim.schedule(1.0, lambda: None)
    assert sim.heap_scheduled == 1 and sim.wheel_scheduled == 0
    sim.run()
    assert sim.events_executed == 1


# -- cancellation ----------------------------------------------------------

def test_wheel_cancel_is_reflected_in_pending_events():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    assert sim.pending_events == 1
    handle.cancel()
    assert sim.pending_events == 0
    sim.run()
    assert sim.events_executed == 0


def test_cancelled_wheel_entry_never_touches_the_heap():
    sim = Simulator()
    fired = []
    deadline = sim.timer(35.0, fired.append, "dead")
    for round_no in range(1, 11):
        sim.run(until=30.0 * round_no)
        deadline.restart()
    assert fired == [] and sim.heap_scheduled == 0
    assert sim.events_executed == 0  # nothing due inside any window


# -- run(until) boundaries -------------------------------------------------

def test_run_until_excludes_wheel_events_past_the_window():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "in")
    sim.schedule(2.5, seen.append, "out")
    sim.run(until=2.0)  # events *at* until fire; later ones stay resident
    assert seen == ["in"] and sim.now == 2.0 and sim.pending_events == 1
    sim.run()
    assert seen == ["in", "out"] and sim.now == 2.5


def test_peek_and_step_promote_wheel_entries():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    assert sim.peek() == 1.0
    assert sim.step() is True
    assert seen == ["a"] and sim.step() is False


# -- handle recycling ------------------------------------------------------

def test_transient_handles_are_recycled_through_the_freelist():
    sim = Simulator()
    deadline = sim.timer(35.0, lambda: None)
    for round_no in range(1, 4):
        sim.run(until=30.0 * round_no)
        deadline.restart()
    # 1 construction arm + 3 restarts; after the first promotion sweep
    # discards the cancelled handles, restarts reuse them.
    assert sim.handles_recycled >= 1
    assert sim.handles_allocated + sim.handles_recycled == 4


def test_recycled_handle_is_a_fresh_event():
    sim = Simulator()
    seen = []
    timer = sim.timer(1.0, seen.append, "x")
    sim.run(until=5.0)  # fires; the handle goes back to the free list
    assert seen == ["x"]
    timer.restart()
    sim.run(until=10.0)
    assert seen == ["x", "x"]
    assert sim.handles_recycled >= 1


def test_freelist_is_bounded():
    sim = Simulator()
    assert FREELIST_MAX > 0
    for _ in range(3):
        handles = [sim.schedule(1.0, lambda: None, transient=True) for _ in range(100)]
        for h in handles:
            h.cancel()
        sim.run(until=sim.now + 2.0)
    assert len(sim._freelist) <= FREELIST_MAX


# -- invalid input ---------------------------------------------------------

def test_timer_restart_rejects_bad_delay():
    from repro.errors import SimulationError

    sim = Simulator()
    timer = sim.timer(1.0, lambda: None)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(SimulationError):
            timer.restart(bad)
