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

Fast path (the engine behind the 64→4096-node sweeps)
-----------------------------------------------------

The dominant event class in a cluster simulation is the *almost always
cancelled* timer: heartbeat deadlines re-armed on every beat, RPC
timeouts cancelled on every reply, debounce/flush windows restarted on
every burst.  A binary heap charges those entries a push on arm plus a
lazy-delete sweep on death.  The engine therefore keeps **two scheduling
structures**:

* a **hierarchical timer wheel** (:class:`TimerWheel`) — two levels of
  power-of-two-width slot arrays (by default 256 slots of 1/64 s and 256
  slots of 4 s, a 1024 s horizon).  Near-future, default-priority events
  are an O(1) list append to their slot; cancellation is an O(1) flag.
  Entries are *lazily promoted* into the heap only when the run loop is
  about to execute an event at or past their slot's start — so an entry
  cancelled before its slot comes due is discarded in bulk during the
  promotion sweep and **never touches the heap at all**;
* the **binary heap** — the fallback for events beyond the wheel horizon,
  events with a non-default priority, and sub-tick deliveries.  It is
  also the single totally-ordered frontier the run loop pops from, which
  is what makes the wheel *exactly* order-preserving (see below).

**Determinism argument.**  Slot indices are computed as
``int(time * 2**k)`` — exact for power-of-two widths — and the promotion
rule is "before returning a heap top at time ``T``, promote every slot
whose index is ``<= int(T * 2**k)``".  ``int(t * 2**k)`` is monotone in
``t``, so any wheel entry ordering before ``(T, prio, seq)`` lives in a
promoted slot; once promoted, the heap compares the same
``(time, priority, seq)`` triple the pure-heap engine uses.  Firing
order is therefore *identical* to a heap-only engine
(``Simulator(wheel=False)``) — a property test drives both engines with
random schedule/cancel/restart workloads and asserts exactly that.

Two further allocations are shaved off the hot path: the run loop pops
**once** per event (the old ``peek()`` + ``step()`` pair each swept
cancelled heap tops), and :class:`EventHandle` objects from *transient*
call sites (timer re-arms, process sleeps, network deliveries, RPC
timeouts) are recycled through a bounded free list instead of being
reallocated per event.

The generator-coroutine process layer lives in :mod:`repro.sim.process`.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from typing import Any

from repro.errors import SimulationError
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace

#: Finest wheel slot width, seconds.  Must be a power of two so that slot
#: indices (``int(t * inv_width)``) are computed exactly: multiplying a
#: float by a power of two only shifts the exponent and never rounds.
WHEEL_TICK = 1.0 / 64.0
#: Slots per wheel level (power of two; the level above is this factor
#: coarser).  Two levels of 256 cover [tick, 256*256*tick) = 4 ms..1024 s.
WHEEL_SLOTS = 256
#: Wheel levels.  Level 0: 256 x 1/64 s (4 s horizon); level 1: 256 x 4 s
#: (1024 s horizon).  Heartbeat deadlines (~30 s) land in level 1, RPC
#: timeouts (0.25-30 s) in level 0/1, sub-tick deliveries in the heap.
WHEEL_DEPTH = 2
#: Upper bound on recycled EventHandles kept on the free list — sized for
#: a 4096-node sweep's in-flight deadline population (~64 MB would take
#: ~400k handles; this caps the list at ~10 MB worst case).
FREELIST_MAX = 65536


class EventHandle:
    """A scheduled callback; cancellable until it fires.

    ``transient=True`` marks a handle whose creator promises to drop every
    reference to it no later than the start of its callback (or the moment
    it is cancelled).  The engine recycles such handles through a free
    list; *never* retain a transient handle past those points.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "args",
        "cancelled", "fired", "transient", "_in_heap", "_sim",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
        sim: "Simulator | None" = None,
        transient: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self.transient = transient
        #: True while heap-resident; False while wheel-resident.  Decides
        #: which structure's dead-entry accounting a cancel updates.
        self._in_heap = True
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self._sim
        if sim is None:
            return
        if self._in_heap:
            sim._note_cancelled(self)
        else:
            # Wheel-resident: dies in its slot, discarded at promotion.
            sim._wheel.live -= 1  # type: ignore[union-attr]

    @property
    def pending(self) -> bool:
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"EventHandle(t={self.time:.6f}, {state}, cb={getattr(self.callback, '__name__', self.callback)!r})"


class _WheelLevel:
    """One resolution level: a ring of slots indexed by absolute slot id."""

    __slots__ = ("width", "inv_width", "nslots", "mask", "slots", "cursor", "count")

    def __init__(self, width: float, nslots: int) -> None:
        self.width = width
        self.inv_width = 1.0 / width
        self.nslots = nslots
        self.mask = nslots - 1
        self.slots: list[list[EventHandle]] = [[] for _ in range(nslots)]
        #: Absolute index of the next slot to promote; every entry resident
        #: at this level has absolute index in [cursor, cursor + nslots).
        self.cursor = 0
        #: Entries resident at this level (live *and* cancelled).
        self.count = 0


class TimerWheel:
    """Hierarchical timer wheel feeding the simulator's event heap.

    Insertion appends the handle to the slot covering its fire time —
    O(1), no tuple, no comparison.  Entries stay in their slot until the
    run loop needs an event at or past the slot's start, at which point
    the slot's *survivors* are pushed into the heap (cancelled entries are
    discarded on the spot).  See the module docstring for the exact-order
    argument.
    """

    __slots__ = ("levels", "live")

    def __init__(
        self, tick: float = WHEEL_TICK, nslots: int = WHEEL_SLOTS, depth: int = WHEEL_DEPTH
    ) -> None:
        if nslots & (nslots - 1):
            raise SimulationError(f"wheel slot count must be a power of two, got {nslots}")
        mantissa, _ = math.frexp(tick)
        if mantissa != 0.5:
            raise SimulationError(f"wheel tick must be a power of two, got {tick}")
        self.levels: list[_WheelLevel] = []
        width = tick
        for _ in range(depth):
            self.levels.append(_WheelLevel(width, nslots))
            width *= nslots
        #: Live (non-cancelled) entries across all levels, for O(1)
        #: ``pending_events``; maintained by the owning Simulator.
        self.live = 0

    def promote_due(self, limit_time: float, heap: list, freelist: list[EventHandle]) -> bool:
        """Push every live entry in slots starting at or before
        ``limit_time`` into ``heap``; discard cancelled ones (recycling
        transient handles onto ``freelist``).  Returns True if anything
        was pushed."""
        moved = False
        heappush = heapq.heappush
        for level in self.levels:
            limit_idx = int(limit_time * level.inv_width)
            cursor = level.cursor
            if limit_idx < cursor:
                continue
            while cursor <= limit_idx:
                if not level.count:
                    # Nothing resident: jump the cursor instead of walking
                    # (a 30 s silence would otherwise scan 1920 empty slots).
                    cursor = limit_idx + 1
                    break
                slot = level.slots[cursor & level.mask]
                cursor += 1
                if slot:
                    level.count -= len(slot)
                    for handle in slot:
                        if handle.cancelled:
                            # The bulk-discard path: a cancelled deadline
                            # costs one flag before now and this recycle.
                            if handle.transient and len(freelist) < FREELIST_MAX:
                                handle.callback = None  # type: ignore[assignment]
                                handle.args = ()
                                freelist.append(handle)
                        else:
                            handle._in_heap = True
                            self.live -= 1
                            heappush(heap, (handle.time, handle.priority, handle.seq, handle))
                            moved = True
                    slot.clear()
            level.cursor = cursor
        return moved

    def earliest_start(self) -> float:
        """Start time of the earliest non-empty slot across levels (the
        promotion target when the heap is drained).  Requires at least one
        resident entry."""
        best = math.inf
        for level in self.levels:
            if not level.count:
                continue
            idx = level.cursor
            while not level.slots[idx & level.mask]:
                idx += 1
            start = idx * level.width
            if start < best:
                best = start
        return best


class Timer:
    """A restartable one-shot timer (heartbeat deadlines, RPC timeouts,
    debounce windows).

    Wraps one live :class:`EventHandle` at a time: :meth:`restart` cancels
    the current handle and schedules a fresh one, so holders never touch
    raw handles and cannot leak a forgotten one-shot.  The handles are
    scheduled *transient* (the timer drops its reference at cancel time
    and at the top of the fire path), so an interval's worth of re-arms
    recycles one handle object instead of allocating per beat.
    """

    __slots__ = ("_sim", "_delay", "_callback", "_args", "_priority", "_handle")

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
        self._callback = callback
        self._args = args
        self._priority = priority
        self._handle: EventHandle | None = sim.schedule(
            delay, self._fire, priority=priority, transient=True
        )

    def _fire(self) -> None:
        # Drop the handle reference *before* running the callback: the
        # engine recycles the (transient) handle right after we return.
        self._handle = None
        self._callback(*self._args)

    @property
    def active(self) -> bool:
        """True while the timer is armed and has not yet fired."""
        return self._handle is not None and self._handle.pending

    @property
    def deadline(self) -> float | None:
        """Absolute fire time while armed, else ``None``."""
        return self._handle.time if self.active else None

    def cancel(self) -> None:
        """Disarm; the callback will not run until :meth:`restart`."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def restart(self, delay: float | None = None) -> None:
        """Re-arm for ``delay`` (default: the original delay) from now."""
        # Inlined EventHandle.cancel: deadline re-arms are the single
        # hottest cancel site in the system (every heartbeat restarts a
        # deadline), so the flag is set without a method call.
        handle = self._handle
        if handle is not None and not handle.cancelled and not handle.fired:
            handle.cancelled = True
            sim = handle._sim
            if sim is not None:
                if handle._in_heap:
                    sim._note_cancelled(handle)
                else:
                    sim._wheel.live -= 1  # type: ignore[union-attr]
        if delay is not None:
            if not (delay >= 0.0 and math.isfinite(delay)):
                raise SimulationError(f"invalid delay {delay!r}")
            self._delay = delay
        # Fully inlined transient schedule — a copy of the wheel branch of
        # :meth:`Simulator._schedule` (same routing rules, verified by the
        # wheel/heap equivalence property test).  Re-armed deadlines are
        # the hottest operation in the whole simulation; skipping the
        # _schedule call (and its argument packing) is worth the ugliness.
        sim = self._sim
        time = sim._now + self._delay
        priority = self._priority
        if priority == 0 and sim._wheel is not None:
            level = sim._l0
            idx = int(time * level.inv_width)
            offset = idx - level.cursor
            if not (0 <= offset < level.nslots):
                if offset < 0:  # L0's promoted past: the heap owns it
                    self._handle = sim._schedule(time, 0, self._fire, (), True)
                    return
                level = sim._l1
                idx = int(time * level.inv_width)
                offset = idx - level.cursor
                if not (0 <= offset < level.nslots):
                    self._handle = sim._schedule(time, 0, self._fire, (), True)
                    return
            sim._seq += 1
            freelist = sim._freelist
            if freelist:
                handle = freelist.pop()
                handle.time = time
                handle.priority = 0
                handle.seq = sim._seq
                handle.callback = self._fire
                handle.args = ()
                handle.cancelled = False
                handle.fired = False
                handle.transient = True
            else:
                sim.handles_allocated += 1
                handle = EventHandle(time, 0, sim._seq, self._fire, (),
                                     sim=sim, transient=True)
            level.slots[idx & level.mask].append(handle)
            level.count += 1
            sim._wheel.live += 1
            handle._in_heap = False
            self._handle = handle
            return
        self._handle = sim._schedule(time, priority, self._fire, (), True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"active@{self._handle.time:.6f}" if self.active else "idle"
        return f"Timer({state}, cb={getattr(self._callback, '__name__', self._callback)!r})"


class Simulator:
    """Wheel-accelerated event simulator with virtual time in seconds.

    Parameters
    ----------
    seed:
        Master seed for all named RNG streams (see :class:`RngRegistry`).
    trace_capacity:
        Maximum retained trace records (oldest evicted beyond that);
        ``None`` keeps everything, ``0`` keeps none (counter-only marks).
    wheel:
        ``False`` disables the timer wheel, routing every event through
        the heap — the reference engine for equivalence tests and the
        "before" leg of the throughput benchmark.
    """

    # Slotted for hot-path attribute access (every schedule touches
    # _seq/_freelist/_l0/_l1; dict lookups are measurable at storm rates).
    __slots__ = (
        "_now", "_heap", "_seq", "_dead", "_wheel", "_l0", "_l1",
        "_freelist", "_running", "_stopped", "rngs", "trace",
        "events_executed", "heap_scheduled", "handles_allocated", "ff_skipped",
    )

    def __init__(
        self,
        seed: int = 0,
        trace_capacity: int | None = None,
        wheel: bool = True,
    ) -> None:
        self._now = 0.0
        # Heap entries are (time, priority, seq, handle) tuples so heapq
        # compares them natively in C — the handle itself never needs
        # ordering support (a measurable win at 640-node scale).
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        self._seq = 0
        #: Cancelled entries still sitting in the heap; once they dominate,
        #: the heap is rebuilt in one O(n) pass instead of letting cancel-
        #: heavy workloads grow it without bound.  (Wheel-resident cancels
        #: never reach the heap; this covers heap-routed ones.)
        self._dead = 0
        self._wheel: TimerWheel | None = TimerWheel() if wheel else None
        # Level refs cached for the inlined insert fast path in _schedule.
        self._l0 = self._wheel.levels[0] if wheel else None
        self._l1 = self._wheel.levels[1] if wheel else None
        self._freelist: list[EventHandle] = []
        self._running = False
        self._stopped = False
        self.rngs = RngRegistry(seed)
        self.trace = Trace(capacity=trace_capacity, clock=lambda: self._now)
        #: Number of events executed so far (monotone; useful in benches).
        self.events_executed = 0
        #: Always 0: quiescence fast-forward is gone (DESIGN.md §13), but
        #: ``benchmarks/perf/run.py`` still reads this on every run.
        self.ff_skipped = 0
        #: Scheduling-path counters — deterministic allocation proxies for
        #: the throughput gate (see benchmarks/bench_engine_throughput.py).
        #: Only the *cold* branches count (heap fallback, fresh handle
        #: allocation); the hot wheel/recycle figures are derived from
        #: ``_seq`` so the O(1) path carries no counter stores.
        self.heap_scheduled = 0
        self.handles_allocated = 0

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
        transient: bool = False,
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time.

        ``delay`` must be finite and non-negative; ``priority`` breaks ties
        among same-time events (lower fires first), with insertion order as
        the final tie-break.  ``transient=True`` promises the handle is not
        retained past its fire/cancel (see :class:`EventHandle`), enabling
        free-list recycling.
        """
        if not (delay >= 0.0 and math.isfinite(delay)):  # NaN fails the >=
            raise SimulationError(f"invalid delay {delay!r}")
        return self._schedule(self._now + delay, priority, callback, args, transient)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        transient: bool = False,
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        if not math.isfinite(time) or time < self._now:
            raise SimulationError(f"cannot schedule at {time!r} (now={self._now!r})")
        return self._schedule(time, priority, callback, args, transient)

    def _schedule(
        self,
        time: float,
        priority: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
        transient: bool,
    ) -> EventHandle:
        self._seq += 1
        freelist = self._freelist
        if freelist:
            handle = freelist.pop()
            handle.time = time
            handle.priority = priority
            handle.seq = self._seq
            handle.callback = callback
            handle.args = args
            handle.cancelled = False
            handle.fired = False
            handle.transient = transient
            # _in_heap is NOT reset here: every insert branch below sets it.
        else:
            self.handles_allocated += 1
            handle = EventHandle(time, priority, self._seq, callback, args,
                                 sim=self, transient=transient)
        # Default-priority events within the wheel horizon take the O(1)
        # slot-append path; exact-priority and far-future events fall back
        # to the heap (priority is rare and the heap orders it natively).
        # The two wheel levels are unrolled inline: this is the hottest
        # statement sequence in the whole simulation.
        wheel = self._wheel
        if priority == 0 and wheel is not None:
            level = self._l0
            idx = int(time * level.inv_width)
            offset = idx - level.cursor
            if 0 <= offset < level.nslots:
                level.slots[idx & level.mask].append(handle)
                level.count += 1
                wheel.live += 1
                handle._in_heap = False
                return handle
            if offset >= 0:  # beyond L0's window (not in its past): try L1
                level = self._l1
                idx = int(time * level.inv_width)
                offset = idx - level.cursor
                if 0 <= offset < level.nslots:
                    level.slots[idx & level.mask].append(handle)
                    level.count += 1
                    wheel.live += 1
                    handle._in_heap = False
                    return handle
        handle._in_heap = True
        heapq.heappush(self._heap, (time, priority, self._seq, handle))
        self.heap_scheduled += 1
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
        re-arm.  Wheel routing makes the arm/cancel cycle O(1) with no
        heap residue for near-horizon deadlines.
        """
        return Timer(self, delay, callback, args, priority=priority)

    # -- execution ---------------------------------------------------------
    def _next_entry(self, until: float | None = None) -> tuple[float, int, int, EventHandle] | None:
        """The globally-next live heap entry, after promoting every wheel
        slot that could order before it.  Returns None when drained — or,
        with a finite ``until``, when nothing is due at or before it.

        This is the single sweep shared by ``peek``/``step``/``run`` — the
        caller pops the returned entry (already verified live) directly
        instead of re-scanning.  Bounding promotion by ``until`` is what
        keeps always-cancelled deadlines off the heap entirely: a
        ``run(until=...)`` window never materializes timers due past its
        end, so they die in their slots when restarted.  (The returned
        entry may still lie past ``until`` when the *heap* top does — the
        caller checks — but wheel slots past ``until`` stay untouched.)
        """
        heap = self._heap
        wheel = self._wheel
        freelist = self._freelist
        while True:
            while heap and heap[0][3].cancelled:
                handle = heapq.heappop(heap)[3]
                self._dead -= 1
                if handle.transient:
                    self._free(handle)
            if wheel is not None and wheel.live:
                if heap:
                    limit = heap[0][0]
                    if until is not None and limit > until:
                        limit = until
                elif until is not None:
                    limit = until
                else:
                    limit = wheel.earliest_start()
                if wheel.promote_due(limit, heap, freelist):
                    continue  # heap top may have changed; re-check
                if not heap:
                    if until is not None:
                        return None  # nothing due at or before `until`
                    continue  # promoted slots held only cancelled entries
            if not heap:
                return None
            return heap[0]

    def peek(self) -> float | None:
        """Time of the next pending event, or ``None`` if drained."""
        entry = self._next_entry()
        return entry[0] if entry is not None else None

    def step(self) -> bool:
        """Execute exactly one pending event; return False if none remain."""
        entry = self._next_entry()
        if entry is None:
            return False
        heapq.heappop(self._heap)
        handle = entry[3]
        self._now = entry[0]
        handle.fired = True
        self.events_executed += 1
        handle.callback(*handle.args)
        if handle.transient:
            self._free(handle)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queues drain, ``until`` is reached, or
        ``max_events`` have executed in this call.

        When ``until`` is given and nothing due at or before it remains,
        the clock is advanced to exactly ``until`` even if the last event
        fired earlier, so back-to-back ``run`` calls compose predictably.
        Events scheduled *at* ``until`` do fire.  A run cut short by
        ``max_events`` or :meth:`stop` leaves the clock at the last event
        executed: due events are still queued behind it.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        if until is not None and until < self._now:
            raise SimulationError(f"until={until!r} is in the past (now={self._now!r})")
        self._running = True
        self._stopped = False
        executed = 0
        heap = self._heap
        wheel = self._wheel
        freelist = self._freelist
        heappop = heapq.heappop
        try:
            # The _next_entry sweep is inlined here (same logic, same
            # progress argument): one pass serves the cancelled-top drop,
            # the `until` check, and the pop — the old loop's peek() +
            # step() each paid their own sweep plus a call per event.
            while not self._stopped:
                while heap and heap[0][3].cancelled:
                    handle = heappop(heap)[3]
                    self._dead -= 1
                    if handle.transient and len(freelist) < FREELIST_MAX:
                        handle.callback = None  # type: ignore[assignment]
                        handle.args = ()
                        freelist.append(handle)
                if wheel is not None and wheel.live:
                    if heap:
                        limit = heap[0][0]
                        if until is not None and limit > until:
                            limit = until
                    elif until is not None:
                        limit = until
                    else:
                        limit = wheel.earliest_start()
                    if wheel.promote_due(limit, heap, freelist):
                        continue  # heap top may have changed; re-sweep
                    if not heap:
                        if until is not None:
                            break  # nothing due at or before `until`
                        continue  # promoted slots held only cancelled entries
                if not heap:
                    break
                entry = heap[0]
                if until is not None and entry[0] > until:
                    break
                if max_events is not None and executed >= max_events:
                    return  # cut short with this event still due: no clock jump
                heappop(heap)
                handle = entry[3]
                self._now = entry[0]
                handle.fired = True
                self.events_executed += 1
                handle.callback(*handle.args)
                if handle.transient and len(freelist) < FREELIST_MAX:
                    handle.callback = None  # type: ignore[assignment]
                    handle.args = ()
                    freelist.append(handle)
                executed += 1
        finally:
            self._running = False
        if until is not None and not self._stopped and self._now < until:
            self._now = until

    def stop(self) -> None:
        """Make the innermost :meth:`run` return after the current event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) scheduled events, in O(1)."""
        live = len(self._heap) - self._dead
        if self._wheel is not None:
            live += self._wheel.live
        return live

    @property
    def wheel_scheduled(self) -> int:
        """Events routed to the wheel so far (derived: every schedule is
        wheel- or heap-routed, and ``_seq`` counts them all)."""
        return self._seq - self.heap_scheduled

    @property
    def handles_recycled(self) -> int:
        """Schedules served from the handle free list (derived)."""
        return self._seq - self.handles_allocated

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
    def _free(self, handle: EventHandle) -> None:
        """Return a transient handle to the free list (bounded)."""
        if len(self._freelist) < FREELIST_MAX:
            handle.callback = None  # type: ignore[assignment]  # drop refs
            handle.args = ()
            self._freelist.append(handle)

    def _note_cancelled(self, handle: EventHandle) -> None:
        """Called by :meth:`EventHandle.cancel` on a heap-resident entry
        (wheel-resident cancels only decrement ``wheel.live`` inline)."""
        self._dead += 1
        # Compact when dead entries dominate — amortized O(1) per cancel.
        # In place: the run loop holds a reference to the heap list while
        # callbacks (which may cancel) execute.
        if self._dead > 64 and self._dead * 2 > len(self._heap):
            live_entries = []
            for entry in self._heap:
                h = entry[3]
                if h.cancelled:
                    if h.transient:
                        self._free(h)
                else:
                    live_entries.append(entry)
            self._heap[:] = live_entries
            heapq.heapify(self._heap)
            self._dead = 0
