"""Deterministic discrete-event simulation engine.

Public surface:

* :class:`Simulator` — event heap, virtual clock, ``spawn``/``signal``.
* :class:`Timer` — restartable one-shot timer (``Simulator.timer``).
* :class:`Proc`, :class:`Signal`, :class:`Timeout` — process primitives;
  :func:`drive` steps a simulator until one signal fires.
* :class:`Trace` / :class:`TraceRecord` — measurement backbone.
* :class:`RngRegistry` — named deterministic random streams.
"""

from repro.sim.core import EventHandle, Simulator, Timer
from repro.sim.process import Proc, ProcState, Signal, Timeout, all_of, any_of, drive
from repro.sim.rng import RngRegistry
from repro.sim.trace import Histogram, Span, Trace, TraceRecord

__all__ = [
    "EventHandle",
    "Simulator",
    "Timer",
    "Proc",
    "ProcState",
    "Signal",
    "Timeout",
    "all_of",
    "any_of",
    "drive",
    "RngRegistry",
    "Histogram",
    "Span",
    "Trace",
    "TraceRecord",
]
