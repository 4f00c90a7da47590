"""Kernel timings: the knobs somebody turns, and the calibration constants.

Every latency in the fault-tolerance evaluation decomposes into protocol
round-trips (real simulated messages) plus modeled local work (process
spawn, state reload, bookkeeping).  The former emerge from the network
model; the latter are the module constants below, calibrated so that
Tables 1–3 reproduce the paper's numbers:

* detection ≈ ``heartbeat_interval`` (30 s in §5.1, configurable exactly
  as the paper says — the one tunable the paper names);
* diagnosis: ~348 µs for NIC failures seen through heartbeats, ~12 µs for
  same-host checks, ~0.29 s for one probe window, ~2 s for the retried
  probes that confirm a compute-node death;
* recovery: ~0.1 s WD restart, ~2 s GSD restart, ~0.12 s ES restart
  (including checkpoint reload), ~2.9 s migration to a backup node, and 0
  for NIC failures (three redundant networks) or dead compute nodes
  (nothing to migrate).

:class:`KernelTimings` holds only what a deployment, experiment or test
sets to something other than its default (docs/TUNING.md lists both
tables).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelError
from repro.units import usec

# -- calibration constants (seconds unless noted) ---------------------------

#: Bookkeeping delay to attribute a per-NIC heartbeat miss (Table 1/2
#: "network" rows: 348 us).
NIC_ANALYSIS_DELAY = usec(348)
#: Same-host checks by the local GSD or WD (Table 3: 12 us).
LOCAL_CHECK_DELAY = usec(12)

#: One diagnosis probe window: OS pings (and a WD process query) are
#: issued on every fabric and answers collected until the window ends
#: (Table 1/2 "process" rows: 0.29 s).
PROBE_WINDOW = 0.29
#: OS ping timeout inside a probe window (must stay < PROBE_WINDOW).
PING_TIMEOUT = 0.25
#: Additional probe rounds before declaring a *compute* node dead
#: (Table 1 "node" row: ~2 s total diagnosis).
NODE_CONFIRM_ROUNDS = 6
#: Server-node death is confirmed within a single window plus a short
#: cross-check with another ring member (Table 2/3 "node" rows: 0.3 s).
SERVER_NODE_CONFIRM_DELAY = 0.01

#: Local daemon restart costs (fork+exec+init of the real daemons).
SPAWN_TIMES = {
    "wd": 0.1,
    "gsd": 2.0,
    "es": 0.115,
    "db": 0.115,
    "ckpt": 0.115,
    "ckpt.replica": 0.115,
    "detector": 0.05,
    "ppm": 0.05,
}
#: Restart cost of user-environment services not in the table.
DEFAULT_USER_SPAWN_TIME = 0.15

#: Choosing a migration target and preparing it (§4.3: "GSD member next
#: to it in the ring structure will select a new node for migrating GSD").
MIGRATE_SELECT_TIME = 0.9
#: Ring join handshake processing at the leader.
JOIN_PROCESS_TIME = 0.01

#: Checkpoint store I/O model: fixed commit latency plus size over
#: bandwidth (the service persists to the server node's local disk).
CKPT_WRITE_LATENCY = 0.001
CKPT_WRITE_BANDWIDTH = 50e6  # bytes/s

#: RPC timeout used by kernel control-plane calls; parallel-command
#: subtree timeouts and the regroup census window scale from it (the
#: retry policy is ``Transport.rpc_retry``'s own defaults).
RPC_TIMEOUT = 1.0
#: Per-call-class in-flight caps for ``ServiceDaemon.rpc_retry``: wide
#: fan-outs (bulletin federation queries) and bulky transfers (checkpoint
#: pulls/saves) each get their own ceiling below the transport-global cap
#: so neither can monopolize a destination's queue.
RPC_INFLIGHT_BUDGETS = {"bulletin.fanout": 8, "ckpt.pull": 4, "ckpt.save": 8}

#: Debounce window of ``ServiceDaemon.save_state_soon``: an event-service
#: subscribe burst or a bulletin export burst coalesces into one save per
#: checkpoint key and window.
CKPT_DEBOUNCE = 0.05
#: Flush window for batched ES federation forwards: events published
#: within one window coalesce into a single ``es.forward_batch`` datagram
#: per remote partition — a small added remote-delivery latency for
#: O(partitions) instead of O(events x partitions) fan-out traffic.
ES_FORWARD_FLUSH = 0.02
#: Cap on events carried by one ES federation forward batch (bounds
#: datagram size); overflow stays queued for the next flush window.
ES_FORWARD_BATCH_MAX = 64
#: High-water mark per peer on the ES federation outbox: a long peer
#: outage drops the *oldest* queued forwards past this depth (traced as
#: ``es.outbox_overflow`` + the ``es.outbox_dropped`` counter) instead of
#: growing the checkpoint payload without bound.
ES_OUTBOX_MAX = 1024

#: CPU fraction of one node consumed by kernel daemons between
#: heartbeats (drives Table 4's Linpack overhead model).
DAEMON_CPU_FRACTION = 0.006


def ckpt_write_cost(size_bytes: int) -> float:
    """Time to commit a checkpoint of ``size_bytes`` to local storage."""
    return CKPT_WRITE_LATENCY + size_bytes / CKPT_WRITE_BANDWIDTH


@dataclass(frozen=True)
class KernelTimings:
    """The kernel's settable knobs (seconds)."""

    #: WD→GSD and GSD→GSD heartbeat period ("can be configured as a system
    #: parameter, and 30 seconds is set for testing" — §5.1).
    heartbeat_interval: float = 30.0
    #: Slack added to the per-heartbeat deadline before declaring a miss;
    #: must exceed worst-case network jitter by a wide margin.
    deadline_grace: float = 0.1

    #: Detector sampling/export period (drives monitoring freshness).
    detector_interval: float = 5.0

    #: Emit ``placement.committed`` / ``ckpt.committed`` /
    #: ``leader.claimed`` trace marks on every *accepted* leadership
    #: placement write, ``gsd.state`` checkpoint commit, and boot-time
    #: leader claim.  These make exported JSONL traces self-contained for
    #: the external trace-only leadership checker
    #: (:mod:`repro.experiments.trace_check`).  Off by default so default
    #: traces (fig4 export among them) stay byte-identical.
    trace_commit_marks: bool = False

    #: Period of each kernel daemon's ``kernel.health`` self-report to
    #: the data bulletin (span/histogram/counter snapshot, outbox depth,
    #: in-flight RPCs).  ``None`` disables the reports — monitoring
    #: deployments opt in, keeping background traffic identical for the
    #: paper-calibrated benchmarks.
    health_report_interval: float | None = None

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise KernelError("heartbeat_interval must be positive")
        if self.deadline_grace <= 0:
            raise KernelError("deadline_grace must be positive")
        if self.health_report_interval is not None and self.health_report_interval <= 0:
            raise KernelError("health_report_interval must be positive (or None)")

    @property
    def regroup_period(self) -> float:
        """How long a quorum-regroup census (DESIGN.md §15) waits for
        probe acks: two control round-trips, stretched on slow-beat
        deployments so one lossy exchange cannot fake a lost quorum."""
        return max(2.0 * RPC_TIMEOUT, 0.25 * self.heartbeat_interval)

    @property
    def regroup_heal_period(self) -> float:
        """Re-probe period of a parked (minority-side) member looking
        for the partition to heal."""
        return self.heartbeat_interval

    @property
    def service_check_period(self) -> float:
        """GSD's local service-group check period (Table 3 detection)."""
        return self.heartbeat_interval

    def spawn_time(self, service: str) -> float:
        """Restart cost of a named service (kernel or user environment)."""
        return SPAWN_TIMES.get(service, DEFAULT_USER_SPAWN_TIME)
