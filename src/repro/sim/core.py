"""Deterministic discrete-event simulation core.

The entire reproduction — hardware model, Phoenix kernel daemons, user
environments, fault injection — runs on a single :class:`Simulator`.
Design goals:

* **Determinism.** Events execute in ``(time, priority, seq)`` order
  where ``seq`` is a global insertion counter, so simultaneous events fire
  in a stable order and runs are exactly reproducible for a given seed.
* **Cancellation.** :meth:`Simulator.schedule` returns an
  :class:`EventHandle`; cancelling marks the entry dead in O(1).
* **Measurement built in.** Every simulator carries a
  :class:`~repro.sim.trace.Trace` and an
  :class:`~repro.sim.rng.RngRegistry`; experiment harnesses read latencies
  out of the trace instead of instrumenting protocol code ad hoc.

One structure holds every pending event: a binary heap of
``(time, priority, seq, handle)`` tuples, which ``heapq`` compares
natively in C.  A cancelled entry stays where it is until it reaches the
top (lazy deletion); once cancelled entries outnumber live ones the heap
is rebuilt in place, so cancel-heavy traffic — heartbeat deadlines
re-armed on every beat, RPC timeouts cancelled on every reply — holds
the heap to about twice its live size.

The generator-coroutine process layer lives in :mod:`repro.sim.process`.
"""

from __future__ import annotations

import gc
import heapq
import math
from collections.abc import Callable
from typing import Any

from repro.errors import SimulationError
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace


class EventHandle:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "fired", "_sim")

    def __init__(self, time: float, priority: int, seq: int, callback: Callable[..., Any],
                 args: tuple[Any, ...], sim: "Simulator") -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self._sim
        sim._dead += 1
        if sim._dead > 64 and sim._dead * 2 > len(sim._heap):
            sim._compact()

    @property
    def pending(self) -> bool:
        """True until the event fires or is cancelled."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"EventHandle(t={self.time:.6f}, {state}, cb={getattr(self.callback, '__name__', self.callback)!r})"


class Timer:
    """A restartable one-shot timer (heartbeat deadlines, RPC timeouts,
    debounce windows).

    Wraps one :class:`EventHandle` at a time: :meth:`restart` cancels the
    current handle and schedules a fresh one, so holders never touch raw
    handles and cannot leak a forgotten one-shot.
    """

    __slots__ = ("_sim", "_delay", "_handle")

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        callback: Callable[..., Any],
        args: tuple[Any, ...] = (),
        priority: int = 0,
    ) -> None:
        self._sim = sim
        self._delay = delay
        self._handle = sim.schedule(delay, callback, *args, priority=priority)

    @property
    def active(self) -> bool:
        """True while the timer is armed and has not yet fired."""
        return self._handle.pending

    @property
    def deadline(self) -> float | None:
        """Absolute fire time while armed, else ``None``."""
        return self._handle.time if self._handle.pending else None

    def cancel(self) -> None:
        """Disarm; the callback will not run until :meth:`restart`."""
        self._handle.cancel()

    def restart(self, delay: float | None = None) -> None:
        """Re-arm for ``delay`` (default: the original delay) from now.

        A rejected ``delay`` raises before anything changes: the timer
        stays armed for its current deadline.
        """
        if delay is not None:
            if not (delay >= 0.0 and math.isfinite(delay)):  # NaN fails the >=
                raise SimulationError(f"invalid delay {delay!r}")
            self._delay = delay
        old = self._handle
        old.cancel()
        sim = self._sim
        self._handle = sim._schedule(sim._now + self._delay, old.priority, old.callback, old.args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"active@{self._handle.time:.6f}" if self.active else "idle"
        callback = self._handle.callback
        return f"Timer({state}, cb={getattr(callback, '__name__', callback)!r})"


class Simulator:
    """Event simulator with virtual time in seconds.

    Parameters
    ----------
    seed:
        Master seed for all named RNG streams (see :class:`RngRegistry`).
    trace_capacity:
        Maximum retained trace records (oldest evicted beyond that);
        ``None`` keeps everything, ``0`` keeps none (counter-only marks).
    """

    __slots__ = (
        "_now", "_heap", "_seq", "_dead", "_running", "_stopped",
        "rngs", "trace", "events_executed", "ff_skipped",
    )

    def __init__(self, seed: int = 0, trace_capacity: int | None = None) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        self._seq = 0
        #: Cancelled entries still sitting in the heap (see _compact).
        self._dead = 0
        self._running = False
        self._stopped = False
        self.rngs = RngRegistry(seed)
        self.trace = Trace(capacity=trace_capacity, clock=lambda: self._now)
        #: Number of events executed so far (monotone; useful in benches).
        self.events_executed = 0
        #: Always 0: quiescence fast-forward is gone (README, Figure 6), but
        #: ``benchmarks/perf/run.py`` still reads this on every run.
        self.ff_skipped = 0

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- scheduling ------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time.

        ``delay`` must be finite and non-negative; ``priority`` breaks ties
        among same-time events (lower fires first), with insertion order as
        the final tie-break.
        """
        if not (delay >= 0.0 and math.isfinite(delay)):  # NaN fails the >=
            raise SimulationError(f"invalid delay {delay!r}")
        return self._schedule(self._now + delay, priority, callback, args)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        if not math.isfinite(time) or time < self._now:
            raise SimulationError(f"cannot schedule at {time!r} (now={self._now!r})")
        return self._schedule(time, priority, callback, args)

    def _schedule(self, time: float, priority: int, callback: Callable[..., Any],
                  args: tuple[Any, ...]) -> EventHandle:
        self._seq = seq = self._seq + 1
        handle = EventHandle(time, priority, seq, callback, args, self)
        heapq.heappush(self._heap, (time, priority, seq, handle))
        return handle

    def timer(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Timer:
        """Arm a restartable one-shot :class:`Timer` for ``callback``.

        The preferred primitive for protocol deadlines: holders call
        ``cancel()`` when the awaited thing happens and ``restart()`` to
        re-arm.
        """
        return Timer(self, delay, callback, args, priority=priority)

    # -- execution ---------------------------------------------------------
    def peek(self) -> float | None:
        """Time of the next pending event, or ``None`` if drained."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Execute exactly one pending event; return False if none remain.

        The collector is paused around the callback as in :meth:`run`."""
        if self.peek() is None:
            return False
        self._now, _, _, handle = heapq.heappop(self._heap)
        handle.fired = True
        self.events_executed += 1
        collecting = gc.isenabled()
        gc.disable()
        try:
            handle.callback(*handle.args)
        finally:
            if collecting:
                gc.enable()
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have executed in this call.

        When ``until`` is given and nothing due at or before it remains,
        the clock is advanced to exactly ``until`` even if the last event
        fired earlier, so back-to-back ``run`` calls compose predictably.
        Events scheduled *at* ``until`` do fire.  A run cut short by
        ``max_events`` or :meth:`stop` leaves the clock at the last event
        executed: due events are still queued behind it.

        The cyclic garbage collector is paused for the duration of the
        loop (and of each :meth:`step`) and put back as the caller had it,
        even when a callback raises.  The event path creates no reference
        cycles, so reference counting frees everything the loop drops and
        a collector pass over the booted heap would find nothing
        (DESIGN.md §11).
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        if until is not None and until < self._now:
            raise SimulationError(f"until={until!r} is in the past (now={self._now!r})")
        self._running = True
        self._stopped = False
        executed = 0
        heap = self._heap  # compaction rebuilds it in place: the alias stays valid
        heappop = heapq.heappop
        collecting = gc.isenabled()
        gc.disable()
        try:
            while heap and not self._stopped:
                time, _, _, handle = heap[0]
                if handle.cancelled:
                    heappop(heap)
                    self._dead -= 1
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and executed >= max_events:
                    return  # cut short with this event still due: no clock jump
                heappop(heap)
                self._now = time
                handle.fired = True
                self.events_executed += 1
                handle.callback(*handle.args)
                executed += 1
        finally:
            self._running = False
            if collecting:
                gc.enable()
        if until is not None and not self._stopped and self._now < until:
            self._now = until

    def stop(self) -> None:
        """Make the innermost :meth:`run` return after the current event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) scheduled events, in O(1)."""
        return len(self._heap) - self._dead

    # -- processes ---------------------------------------------------------
    def spawn(self, body: Any, name: str = "") -> Any:
        """Start a generator-coroutine process (see :mod:`repro.sim.process`)."""
        from repro.sim.process import Proc  # local import: avoids cycle

        return Proc(self, body, name=name)

    def signal(self, name: str = "") -> Any:
        """Create a one-shot :class:`~repro.sim.process.Signal` on this simulator."""
        from repro.sim.process import Signal  # local import: avoids cycle

        return Signal(self, name=name)

    # -- internals -----------------------------------------------------------
    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries.  Called by
        :meth:`EventHandle.cancel` once they outnumber the live ones —
        amortized O(1) per cancel — and done in place, because the run
        loop holds a reference to the list while callbacks (which may
        cancel) execute."""
        self._heap[:] = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0
