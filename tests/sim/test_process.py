"""Unit tests for generator-coroutine processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import Proc, ProcState, Simulator, Timeout


@pytest.fixture()
def sim():
    return Simulator()


def test_process_sleeps_with_plain_numbers(sim):
    marks = []

    def body():
        marks.append(sim.now)
        yield 5
        marks.append(sim.now)
        yield 2.5
        marks.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert marks == [0.0, 5.0, 7.5]


def test_process_sleeps_with_timeout_objects(sim):
    marks = []

    def body():
        yield Timeout(1.0)
        marks.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert marks == [1.0]


def test_process_returns_result(sim):
    def body():
        yield 1
        return "answer"

    proc = sim.spawn(body())
    sim.run()
    assert proc.state is ProcState.DONE
    assert proc.result == "answer"
    assert proc.done.fired
    assert proc.done.value == "answer"


def test_signal_wakes_waiter_with_value(sim):
    sig = sim.signal("go")
    got = []

    def waiter():
        value = yield sig
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.schedule(3.0, sig.fire, 42)
    sim.run()
    assert got == [(3.0, 42)]


def test_waiting_on_already_fired_signal_resumes_immediately(sim):
    sig = sim.signal()
    sig.fire("early")
    got = []

    def waiter():
        value = yield sig
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert got == [(0.0, "early")]


def test_signal_fire_twice_rejected(sim):
    sig = sim.signal()
    sig.fire()
    with pytest.raises(SimulationError):
        sig.fire()


def test_signal_wakes_multiple_waiters(sim):
    sig = sim.signal()
    got = []

    def waiter(tag):
        yield sig
        got.append(tag)

    for tag in "abc":
        sim.spawn(waiter(tag))
    sim.schedule(1.0, sig.fire)
    sim.run()
    assert got == ["a", "b", "c"]


def test_join_another_process(sim):
    def child():
        yield 4
        return "child-result"

    results = []

    def parent():
        proc = sim.spawn(child())
        value = yield proc
        results.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert results == [(4.0, "child-result")]


def test_kill_runs_finally_blocks(sim):
    cleaned = []

    def body():
        try:
            while True:
                yield 1
        finally:
            cleaned.append(sim.now)

    proc = sim.spawn(body())
    sim.run(until=2.5)
    proc.kill()
    assert proc.state is ProcState.KILLED
    assert cleaned == [2.5]
    assert proc.done.fired
    sim.run()  # no stray wakeups
    assert proc.state is ProcState.KILLED


def test_kill_is_idempotent(sim):
    def body():
        yield 10

    proc = sim.spawn(body())
    sim.run(until=1.0)
    proc.kill()
    proc.kill()
    assert proc.state is ProcState.KILLED


def test_kill_before_first_step(sim):
    started = []

    def body():
        started.append(True)
        yield 1

    proc = sim.spawn(body())
    proc.kill()
    sim.run()
    assert started == []
    assert proc.state is ProcState.KILLED


def test_killed_process_detaches_from_signal(sim):
    sig = sim.signal()
    woke = []

    def body():
        yield sig
        woke.append(True)

    proc = sim.spawn(body())
    sim.run(until=1.0)
    proc.kill()
    sig.fire()
    sim.run()
    assert woke == []


def test_exception_in_body_propagates(sim):
    def body():
        yield 1
        raise RuntimeError("protocol bug")

    proc = sim.spawn(body())
    with pytest.raises(RuntimeError, match="protocol bug"):
        sim.run()
    assert proc.state is ProcState.FAILED
    assert isinstance(proc.exception, RuntimeError)


def test_yielding_garbage_fails_the_process(sim):
    def body():
        yield object()

    proc = sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run()
    assert proc.state is ProcState.FAILED


@pytest.mark.parametrize("bad", [-1, float("nan"), float("inf")])
def test_invalid_sleep_fails_the_process(sim, bad):
    """Like an unsupported yield: FAILED, exception set, done fired and
    the owner released through on_exit — and the error still raised."""
    exits = []

    def body():
        yield bad

    proc = Proc(sim, body(), on_exit=exits.append)
    with pytest.raises(SimulationError, match="invalid sleep"):
        sim.run()
    assert proc.state is ProcState.FAILED
    assert isinstance(proc.exception, SimulationError)
    assert proc.done.fired
    assert exits == [proc]


def test_non_generator_body_rejected(sim):
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_daemon_loop_interleaving_is_deterministic(sim):
    """Two periodic daemons with the same period interleave in spawn order."""
    seen = []

    def daemon(tag, period):
        while True:
            yield period
            seen.append((sim.now, tag))

    sim.spawn(daemon("a", 10))
    sim.spawn(daemon("b", 10))
    sim.run(until=30)
    assert seen == [
        (10.0, "a"), (10.0, "b"),
        (20.0, "a"), (20.0, "b"),
        (30.0, "a"), (30.0, "b"),
    ]
