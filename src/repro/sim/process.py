"""Generator-coroutine processes on top of the event core.

Daemons (watch daemons, GSDs, schedulers...) are written as generators
that ``yield`` what they wait for:

* a ``float``/``int`` or :class:`Timeout` — sleep for that many seconds;
* a :class:`Signal` — park until someone fires it (receiving its value);
* another :class:`Proc` — join it (receiving its result).

A :class:`Signal` wakes any :class:`Waiter`: a process, or an event-driven call object.
Both schedule every step through :meth:`Simulator.schedule` — a first step or
a wake at ``0.0``, a sleep at its delay, which must lie in ``[0, inf)`` — so
they order their events alike.

Killing a process (``proc.kill()``) closes the generator, so ``finally``
blocks run; this models a Unix process being killed and is what the fault
injector uses for "failure of the X process".

Exceptions escaping a process body are *not* swallowed: they propagate out
of :meth:`Simulator.run`, because a crashed protocol implementation is a
bug the test suite must see, not background noise.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Generator
from typing import Any, Protocol

from repro.errors import SimulationError
from repro.sim.core import EventHandle, Simulator


class Timeout:
    """Explicit sleep request (``yield Timeout(2.5)``)."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay!r}")
        self.delay = float(delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay!r})"


class Waiter(Protocol):
    """What a :class:`Signal` wakes: ``_wake_soon(value)`` schedules its next step at ``+0``."""

    def _wake_soon(self, value: Any) -> None: ...


class Signal:
    """One-shot wake-up primitive.

    Waiters that arrive after :meth:`fire` resume immediately (next event
    slot) with the stored value, so signal/wait ordering races cannot lose
    wake-ups.
    """

    __slots__ = ("sim", "name", "fired", "value", "_waiters")

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: list[Waiter] = []

    def fire(self, value: Any = None) -> None:
        """Fire the signal, waking all current and future waiters."""
        if self.fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter._wake_soon(value)

    def _register(self, waiter: Waiter) -> None:
        if self.fired:
            waiter._wake_soon(self.value)
        else:
            self._waiters.append(waiter)

    def _unregister(self, waiter: Waiter) -> None:
        if waiter in self._waiters:
            self._waiters.remove(waiter)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else f"{len(self._waiters)} waiting"
        return f"Signal({self.name!r}, {state})"


class ProcState(enum.Enum):
    RUNNING = "running"
    DONE = "done"
    KILLED = "killed"
    FAILED = "failed"


class Proc:
    """A running simulated process wrapping a generator body.

    ``on_exit`` is called once with the process when it ends for any
    reason, right after :attr:`done` fires — how an owner (a host process)
    lets go of the processes that finished.
    """

    def __init__(self, sim: Simulator, body: Generator[Any, Any, Any], name: str = "",
                 on_exit: Callable[["Proc"], None] | None = None) -> None:
        if not isinstance(body, Generator):
            raise SimulationError(f"process body must be a generator, got {type(body).__name__}")
        self.sim = sim
        self.body = body
        self.name = name or getattr(body, "__name__", "proc")
        self.state = ProcState.RUNNING
        self.result: Any = None
        self.exception: BaseException | None = None
        #: Fires (with the return value) when the process ends for any reason.
        self.done = Signal(sim, name=f"{self.name}.done")
        self._on_exit = on_exit
        self._pending: EventHandle | None = None
        self._waiting_on: Signal | None = None
        # First step happens as its own event so spawning inside an event
        # callback cannot reenter arbitrarily deep.
        self._pending = sim.schedule(0.0, self._step, _FIRST)

    # -- public API ----------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.state is ProcState.RUNNING

    def kill(self) -> None:
        """Terminate the process now; ``finally`` blocks in the body run."""
        if self.state is not ProcState.RUNNING:
            return
        self._detach()
        self.state = ProcState.KILLED
        try:
            self.body.close()
        except Exception as exc:  # body swallowed GeneratorExit or raised
            self.state = ProcState.FAILED
            self.exception = exc
            raise
        finally:
            if not self.done.fired:
                self._finish(None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Proc({self.name!r}, {self.state.value})"

    # -- engine ----------------------------------------------------------
    def _step(self, sent: Any) -> None:
        self._pending = None
        self._waiting_on = None
        if self.state is not ProcState.RUNNING:
            return
        try:
            if sent is _FIRST:
                yielded = self.body.send(None)
            else:
                yielded = self.body.send(sent)
        except StopIteration as stop:
            self.state = ProcState.DONE
            self.result = stop.value
            self._finish(stop.value)
            return
        except BaseException as exc:
            self.state = ProcState.FAILED
            self.exception = exc
            self._finish(None)
            raise
        self._park(yielded)

    def _finish(self, value: Any) -> None:
        self.done.fire(value)
        on_exit, self._on_exit = self._on_exit, None
        if on_exit is not None:
            on_exit(self)

    def _park(self, yielded: Any) -> None:
        # A plain number (the hot case) is recognised by its exact type and
        # scheduled without building a Timeout.
        kind = type(yielded)
        if kind is float or kind is int:
            delay = yielded
        elif isinstance(yielded, Signal):
            self._waiting_on = yielded
            yielded._register(self)
            return
        elif isinstance(yielded, Proc):
            self._waiting_on = yielded.done
            yielded.done._register(self)
            return
        elif isinstance(yielded, Timeout):
            delay = yielded.delay
        elif isinstance(yielded, (int, float)):  # bool, NumPy scalars
            delay = float(yielded)
        else:
            self._fail(SimulationError(
                f"process {self.name!r} yielded unsupported {yielded!r}"))
        try:
            self._pending = self.sim.schedule(delay, self._step, None)
        except SimulationError:
            self._fail(SimulationError(f"process {self.name!r} yielded invalid sleep {yielded!r}"))

    def _fail(self, err: SimulationError) -> None:
        """End the process as FAILED with ``err`` and raise it."""
        self.state = ProcState.FAILED
        self.exception = err
        self._finish(None)
        raise err

    def _wake_soon(self, value: Any) -> None:
        """Called by a fired signal: resume on the next event slot."""
        self._waiting_on = None
        self._pending = self.sim.schedule(0.0, self._step, value)

    def _detach(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        if self._waiting_on is not None:
            self._waiting_on._unregister(self)
            self._waiting_on = None


class _FirstStep:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<first-step>"


_FIRST = _FirstStep()


def drive(sim: Simulator, signal: Signal, max_time: float | None = None) -> Any:
    """Step ``sim`` until ``signal`` fires and return its value — or
    ``None`` if the simulation drains, or ``max_time`` seconds pass, first.

    The harness-side way to wait for one reply: single-stepping stops at
    the firing instant instead of overshooting to a ``run(until=...)``.
    """
    deadline = math.inf if max_time is None else sim.now + max_time
    while not signal.fired:
        nxt = sim.peek()
        if nxt is None or nxt > deadline:
            break
        sim.step()
    return signal.value if signal.fired else None


def all_of(sim: Simulator, signals: list[Signal], name: str = "all_of") -> Signal:
    """A signal that fires with ``[value, ...]`` once every input fired.

    The values arrive in the order the signals were passed, not the order
    they fired.  An empty list fires immediately with ``[]``.
    """
    combined = Signal(sim, name=name)

    def body():
        values = []
        for signal in signals:
            values.append((yield signal))
        combined.fire(values)

    Proc(sim, body(), name=name)
    return combined


def any_of(sim: Simulator, signals: list[Signal], name: str = "any_of") -> Signal:
    """A signal that fires with ``(index, value)`` of the first input to fire.

    Later firings of the other inputs are ignored.  Passing no signals is
    an error (nothing could ever fire).
    """
    if not signals:
        raise SimulationError("any_of needs at least one signal")
    combined = Signal(sim, name=name)

    def waiter(index: int, signal: Signal):
        value = yield signal
        if not combined.fired:
            combined.fire((index, value))

    for i, signal in enumerate(signals):
        Proc(sim, waiter(i, signal), name=f"{name}[{i}]")
    return combined
