"""Heartbeat bookkeeping with per-(subject, network) deadlines.

Used twice: GSDs track the watch daemons of their partition, and each
meta-group member tracks its ring predecessor.  Beats arrive on every
healthy fabric; a deadline miss on *some* fabrics is a NIC failure, a
miss on *all* fabrics starts full diagnosis (process vs node).

Detection is **suspicion-based** rather than single-miss (the approach
membership services adopted after gray failures in the field — MSCS,
Vogels et al. 1998): every missed deadline adds one point of suspicion
for the subject and marks a ``failure.suspected`` trace record; every
beat that arrives decays it.  A full miss is declared only when *all*
fabrics are stale **and** the accumulated suspicion reaches
``suspicion_threshold``.  The default threshold equals the fabric count,
so a clean fail-stop crash is still declared at the very first deadline
sweep (all fabrics miss together — identical timing to single-miss
detection), while a lossy link that drops isolated beats keeps decaying
its score back down and never escalates.

Silent fabrics keep their deadline timers re-armed each interval, so
suspicion accumulates across windows and a raised threshold delays —
never starves — detection: under total silence the score grows by the
fabric count per interval, bounding detection latency at roughly
``ceil(threshold / fabrics)`` intervals plus grace.

The monitor is purely mechanical — no protocol decisions.  It reports
through four callbacks:

* ``on_nic_miss(subject, network)`` — one fabric went quiet;
* ``on_nic_restore(subject, network)`` — a quiet fabric beats again;
* ``on_full_miss(subject)`` — every fabric quiet (monitor self-suspends);
* ``on_return(subject)`` — beats resumed after a suspension.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import KernelError
from repro.sim import Simulator, Timer


@dataclass
class _SubjectState:
    last_seen: dict[str, float] = field(default_factory=dict)
    timers: dict[str, Timer] = field(default_factory=dict)
    nic_stale: set[str] = field(default_factory=set)
    #: Consecutive missed deadlines per fabric (resets on a beat).
    nic_streak: dict[str, int] = field(default_factory=dict)
    #: Accumulated suspicion score (missed deadlines minus decayed beats).
    suspicion: float = 0.0
    suspended: bool = False


class HeartbeatMonitor:
    """Deadline tracker for heartbeats from many subjects on many fabrics."""

    def __init__(
        self,
        sim: Simulator,
        networks: list[str],
        interval: float,
        grace: float,
        on_nic_miss: Callable[[str, str], None],
        on_nic_restore: Callable[[str, str], None],
        on_full_miss: Callable[[str], None],
        on_return: Callable[[str], None],
        suspicion_threshold: float | None = None,
        suspicion_decay: float = 1.0,
    ) -> None:
        if interval <= 0 or grace <= 0:
            raise KernelError("interval and grace must be positive")
        if suspicion_threshold is not None and suspicion_threshold <= 0:
            raise KernelError("suspicion_threshold must be positive (or None)")
        if suspicion_decay < 0:
            raise KernelError("suspicion_decay must be >= 0")
        self.sim = sim
        self.networks = list(networks)
        self.interval = interval
        self.grace = grace
        self.on_nic_miss = on_nic_miss
        self.on_nic_restore = on_nic_restore
        self.on_full_miss = on_full_miss
        self.on_return = on_return
        #: None -> one full deadline sweep (all fabrics miss together), i.e.
        #: fail-stop detection timing is byte-identical to single-miss mode.
        self.suspicion_threshold = (
            float(len(self.networks)) if suspicion_threshold is None else float(suspicion_threshold)
        )
        self.suspicion_decay = float(suspicion_decay)
        self._subjects: dict[str, _SubjectState] = {}

    # -- subject management --------------------------------------------------
    def expect(self, subject: str) -> None:
        """Start (or restart) monitoring ``subject`` as if a beat on every
        fabric had just arrived — used when a view change introduces a new
        predecessor that must prove itself within one interval."""
        self.forget(subject)  # cancel timers armed by any earlier state
        state = _SubjectState()
        self._subjects[subject] = state
        for network in self.networks:
            self._arm(subject, state, network)

    def forget(self, subject: str) -> None:
        state = self._subjects.pop(subject, None)
        if state is not None:
            for timer in state.timers.values():
                timer.cancel()

    def subjects(self) -> list[str]:
        return sorted(self._subjects)

    def is_suspended(self, subject: str) -> bool:
        state = self._subjects.get(subject)
        return state.suspended if state is not None else False

    def suspicion(self, subject: str) -> float:
        """Current suspicion score (0.0 for unknown subjects)."""
        state = self._subjects.get(subject)
        return state.suspicion if state is not None else 0.0

    def last_seen(self, subject: str) -> float | None:
        state = self._subjects.get(subject)
        if state is None or not state.last_seen:
            return None
        return max(state.last_seen.values())

    # -- beats ---------------------------------------------------------------
    def beat(self, subject: str, network: str) -> None:
        """Record a heartbeat from ``subject`` on ``network``."""
        if network not in self.networks:
            raise KernelError(f"unknown network {network!r}")
        state = self._subjects.get(subject)
        if state is None:
            state = _SubjectState()
            self._subjects[subject] = state
        state.nic_streak[network] = 0
        if state.suspended:
            state.suspended = False
            state.nic_stale.clear()
            state.suspicion = 0.0
            self.on_return(subject)
        else:
            # A beat is positive evidence: decay the suspicion score so a
            # lossy-but-alive subject's isolated misses never accumulate
            # to the threshold.
            state.suspicion = max(0.0, state.suspicion - self.suspicion_decay)
            if network in state.nic_stale:
                state.nic_stale.discard(network)
                self.on_nic_restore(subject, network)
        self._arm(subject, state, network)

    # -- suspension (diagnosis/recovery in progress) -------------------------
    def suspend(self, subject: str) -> None:
        """Stop deadline callbacks for ``subject`` until beats resume."""
        state = self._subjects.get(subject)
        if state is None:
            return
        state.suspended = True
        for timer in state.timers.values():
            timer.cancel()
        state.timers.clear()

    # -- internals -----------------------------------------------------------
    def _arm(self, subject: str, state: _SubjectState, network: str) -> None:
        state.last_seen[network] = self.sim.now
        timer = state.timers.get(network)
        if timer is None:
            state.timers[network] = self.sim.timer(
                self.interval + self.grace, self._deadline, subject, network
            )
        else:
            # Restartable deadline: each beat re-arms the same timer, and
            # the simulator compacts the cancelled heap entries.
            timer.restart(self.interval + self.grace)

    def _deadline(self, subject: str, network: str) -> None:
        state = self._subjects.get(subject)
        if state is None or state.suspended:
            return
        state.nic_stale.add(network)
        streak = state.nic_streak.get(network, 0) + 1
        state.nic_streak[network] = streak
        state.suspicion += 1.0
        stale_everywhere = all(
            self.sim.now - state.last_seen.get(net, -float("inf")) >= self.interval
            for net in self.networks
        )
        self.sim.trace.mark(
            "failure.suspected",
            subject=subject,
            network=network,
            score=state.suspicion,
            stale_everywhere=stale_everywhere,
        )
        if stale_everywhere and state.suspicion >= self.suspicion_threshold:
            self.suspend(subject)
            state.suspended = True
            self.on_full_miss(subject)
            return
        # Keep the deadline armed: sustained silence must keep feeding the
        # suspicion score (else a raised threshold would never be reached),
        # at one firing per missed-beat interval.
        timer = state.timers.get(network)
        if timer is not None:
            timer.restart(self.interval)
        if not stale_everywhere and streak == 1:
            # Report the fabric quiet exactly once per silence streak —
            # repeat firings only accumulate suspicion.
            self.on_nic_miss(subject, network)
