"""The engine against a model: an op-language driver and a sorted-list oracle.

:func:`drive_ops` replays a random schedule/cancel/timer/run op list on
any engine and returns its observable history — firing log, clock and
pending/executed counts after every bounded run and after the final
drain.  :class:`ModelEngine` is the specification the real engine is held
to: every live event in one sorted list, fired in ``(time, priority,
seq)`` order, cancelled by removal.
"""

from __future__ import annotations

import bisect


class ModelEngine:
    """Sorted-list oracle exposing the slice of ``Simulator`` that
    :func:`drive_ops` uses."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_executed = 0
        self._seq = 0
        self._queue: list[tuple] = []  # live (time, priority, seq, callback), sorted

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def schedule(self, delay, callback, priority=0) -> "_ModelHandle":
        self._seq += 1
        entry = (self.now + delay, priority, self._seq, callback)
        bisect.insort(self._queue, entry)  # seq is unique: callbacks never compare
        return _ModelHandle(self._queue, entry)

    def timer(self, delay, callback) -> "_ModelTimer":
        return _ModelTimer(self, delay, callback)

    def run(self, until=None) -> None:
        while self._queue and (until is None or self._queue[0][0] <= until):
            self.now, _, _, callback = self._queue.pop(0)
            self.events_executed += 1
            callback()
        if until is not None:
            self.now = max(self.now, until)


class _ModelHandle:
    def __init__(self, queue, entry) -> None:
        self._queue, self._entry = queue, entry

    def cancel(self) -> None:
        if self._entry in self._queue:  # absent once fired or cancelled
            self._queue.remove(self._entry)


class _ModelTimer:
    """Restart is cancel + a fresh schedule (a new seq) from now."""

    def __init__(self, engine, delay, callback) -> None:
        self._engine, self._delay, self._callback = engine, delay, callback
        self._handle = engine.schedule(delay, callback)

    def cancel(self) -> None:
        self._handle.cancel()

    def restart(self, delay=None) -> None:
        if delay is not None:
            self._delay = delay
        self._handle.cancel()
        self._handle = self._engine.schedule(self._delay, self._callback)


def drive_ops(ops, sim) -> list[tuple]:
    """Replay ``ops`` on ``sim``; return its observable history.

    Ops: ``("sched", delay, priority)``, ``("cancel", i)``,
    ``("timer", delay)``, ``("restart", i, delay_or_None)``,
    ``("tcancel", i)``, ``("run", dt)``.  One snapshot ``(firing log,
    now, pending_events, events_executed)`` is taken after each ``run``,
    one after the last op and one after draining whatever is left.
    """
    log: list[tuple[int, float]] = []
    history: list[tuple] = []
    handles: list = []
    timers: list = []
    tag = 0

    def snapshot() -> None:
        history.append((tuple(log), sim.now, sim.pending_events, sim.events_executed))

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
            snapshot()
    snapshot()  # cancels and arms since the last run show in pending_events
    sim.run()  # drain whatever is left, unbounded
    snapshot()
    return history
