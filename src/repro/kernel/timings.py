"""Kernel timing parameters — the calibration surface of Tables 1–3.

Every latency in the fault-tolerance evaluation decomposes into protocol
round-trips (real simulated messages) plus modeled local work (process
spawn, state reload, bookkeeping).  The former emerge from the network
model; the latter are the constants below, calibrated so the defaults
reproduce the paper's numbers:

* detection ≈ ``heartbeat_interval`` (30 s in §5.1, configurable exactly
  as the paper says);
* diagnosis: ~348 µs for NIC failures seen through heartbeats, ~12 µs for
  same-host checks, ~0.29 s for one probe window, ~2 s for the retried
  probes that confirm a compute-node death;
* recovery: ~0.1 s WD restart, ~2 s GSD restart, ~0.12 s ES restart
  (including checkpoint reload), ~2.9 s migration to a backup node, and 0
  for NIC failures (three redundant networks) or dead compute nodes
  (nothing to migrate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import KernelError
from repro.units import usec


@dataclass(frozen=True)
class KernelTimings:
    """All kernel latency knobs (seconds)."""

    #: WD→GSD and GSD→GSD heartbeat period ("can be configured as a system
    #: parameter, and 30 seconds is set for testing" — §5.1).
    heartbeat_interval: float = 30.0
    #: Slack added to the per-heartbeat deadline before declaring a miss;
    #: must exceed worst-case network jitter by a wide margin.
    deadline_grace: float = 0.1

    #: Missed-deadline suspicion score at which a subject that is stale on
    #: *every* fabric is declared fully missed (see
    #: :class:`repro.kernel.group.monitor.HeartbeatMonitor`).  ``None``
    #: means "one full deadline sweep" (= the fabric count), which keeps
    #: clean fail-stop detection at exactly one heartbeat interval + grace
    #: — the paper's Tables 1–3 timing — while still absorbing isolated
    #: gray-loss misses.  Raise it to trade detection latency for
    #: robustness on very lossy links.
    suspicion_threshold: float | None = None
    #: Suspicion points removed per received beat (positive evidence decay).
    suspicion_decay: float = 1.0

    #: Bookkeeping delay to attribute a per-NIC heartbeat miss (Table 1/2
    #: "network" rows: 348 us).
    nic_analysis_delay: float = usec(348)
    #: Same-host checks by the local GSD (Table 3: 12 us).
    local_check_delay: float = usec(12)

    #: One diagnosis probe window: OS pings (and a WD process query) are
    #: issued on every fabric and answers collected until the window ends
    #: (Table 1/2 "process" rows: 0.29 s).
    probe_window: float = 0.29
    #: Additional probe rounds before declaring a *compute* node dead
    #: (Table 1 "node" row: ~2 s total diagnosis).
    node_confirm_rounds: int = 6
    #: Server-node death is confirmed within a single window plus a short
    #: cross-check with another ring member (Table 2/3 "node" rows: 0.3 s).
    server_node_confirm_delay: float = 0.01

    #: Local daemon restart costs (fork+exec+init of the real daemons).
    wd_spawn_time: float = 0.1
    gsd_spawn_time: float = 2.0
    es_spawn_time: float = 0.115
    db_spawn_time: float = 0.115
    ckpt_spawn_time: float = 0.115
    detector_spawn_time: float = 0.05
    ppm_spawn_time: float = 0.05

    #: Choosing a migration target and preparing it (§4.3: "GSD member
    #: next to it in the ring structure will select a new node for
    #: migrating GSD").
    migrate_select_time: float = 0.9

    #: Ring join handshake processing at the leader.
    join_process_time: float = 0.01

    #: Detector sampling/export period (drives monitoring freshness).
    detector_interval: float = 5.0
    #: GSD's local service-group check period defaults to the heartbeat
    #: interval (Table 3 detection = 30 s); None means "use heartbeat_interval".
    service_check_interval: float | None = None

    #: Checkpoint store I/O model: fixed commit latency plus size over
    #: bandwidth (the service persists to the server node's local disk).
    ckpt_write_latency: float = 0.001
    ckpt_write_bandwidth: float = 50e6  # bytes/s
    ckpt_read_latency: float = 0.0005

    #: RPC timeout used by kernel control-plane calls.
    rpc_timeout: float = 1.0
    #: OS ping timeout inside a probe window (must be < probe_window).
    ping_timeout: float = 0.25

    #: Retry policy for idempotent control-plane RPCs
    #: (:meth:`Transport.rpc_retry`): attempts within the *same* total
    #: timeout budget, per-attempt windows growing by ``backoff``, with
    #: jittered pauses to decorrelate retry storms.
    rpc_retry_attempts: int = 3
    rpc_retry_backoff: float = 2.0
    rpc_retry_jitter: float = 0.1
    #: Per-destination cap on concurrent retrying RPCs (excess calls
    #: queue FIFO at the sender instead of piling onto a struggling node).
    rpc_inflight_cap: int = 32
    #: Per-call-class overrides of ``rpc_inflight_cap``: call sites tag
    #: their ``rpc_retry`` with a class name and get a cheaper budget than
    #: the transport-global cap — wide fan-outs (bulletin federation
    #: queries) and bulky transfers (checkpoint pulls/saves) each get
    #: their own ceiling so neither can monopolize a destination's queue.
    rpc_inflight_budgets: dict = field(
        default_factory=lambda: {"bulletin.fanout": 8, "ckpt.pull": 4, "ckpt.save": 8},
        hash=False,
    )

    #: Debounce window for event-service subscription checkpoints: a
    #: subscribe burst coalesces into one full-registry save per window
    #: instead of one save per change.
    es_ckpt_debounce: float = 0.05

    #: Debounce window for bulletin base-table checkpoints while any
    #: materialized view is registered: a detector export burst coalesces
    #: into one ``db.tables.<partition>`` save per window.
    db_ckpt_debounce: float = 0.05

    #: Flush window for batched ES federation forwards: events published
    #: within one window coalesce into a single ``es.forward_batch``
    #: datagram per remote partition instead of one forward per event —
    #: the knob trades a small added remote-delivery latency for
    #: O(partitions) instead of O(events x partitions) fan-out traffic.
    es_forward_flush: float = 0.02
    #: Cap on events carried by one forward batch (bounds datagram size);
    #: overflow stays queued for the next flush window.
    es_forward_batch_max: int = 64
    #: High-water mark per peer on the ES federation outbox: a long peer
    #: outage drops the *oldest* queued forwards past this depth (traced
    #: as ``es.outbox_overflow`` + the ``es.outbox_dropped`` counter)
    #: instead of growing the checkpoint payload without bound.
    es_outbox_max: int = 1024
    #: Per-consumer delivery SLO, seconds of publish→consumer p99 latency:
    #: when set, each ES daemon feeds a per-subscription latency histogram
    #: (``es.deliver.to.<consumer_id>``) and the monitoring layer's
    #: ``alerts()`` fires a warning for any consumer whose p99 exceeds the
    #: ceiling — so one slow consumer is visible even when the aggregate
    #: ``es.deliver`` histogram looks healthy.  ``None`` (default)
    #: disables the per-consumer histograms, keeping trace output
    #: identical for the paper-calibrated benchmarks.
    es_deliver_slo: float | None = None
    #: Hot equality ``where`` keys bucketed by the ES subscription index
    #: — per-deployment tunable (e.g. add ``service`` or ``user`` when a
    #: deployment's monitors filter on them); empty disables the buckets.
    es_indexed_where_keys: tuple[str, ...] = ("node",)

    #: Quorum-gated regroup (MCS-style, DESIGN.md §15; always on in a
    #: multi-partition cluster).  How long a regroup round waits for probe
    #: acks before concluding the unreachable members are really gone.
    #: ``None`` means
    #: ``max(2 * rpc_timeout, 0.25 * heartbeat_interval)`` — two control
    #: round-trips, stretched on slow-beat deployments so one lossy
    #: exchange cannot fake a lost quorum.
    regroup_timeout: float | None = None
    #: Re-probe period of a parked (minority-side) member looking for the
    #: partition to heal.  ``None`` means ``heartbeat_interval``.
    regroup_heal_interval: float | None = None

    #: Time-based retention window (seconds) for checkpoint history — the
    #: store that backs bulletin ``AS OF`` time travel.  ``None`` (default)
    #: keeps the legacy fixed cap of 4 versions per key; a window keeps
    #: every version younger than the window (plus always the latest), so
    #: ``AS OF`` reaches the full configured span back.
    ckpt_retention_window: float | None = None
    #: Spill versions aged past ``ckpt_retention_window`` to the
    #: checkpoint service's stable store instead of dropping them, so
    #: ``AS OF`` reads reach back beyond the in-memory window (the spilled
    #: tier is consulted only when the in-memory history cannot satisfy a
    #: read).  Off by default: the in-memory-only history keeps the
    #: paper-calibrated benchmarks byte-identical.
    ckpt_spill_aged: bool = False

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

    #: CPU fraction of one node consumed by kernel daemons between
    #: heartbeats (drives Table 4's Linpack overhead model).
    daemon_cpu_fraction: float = 0.006

    #: Randomize each WD's heartbeat phase across [0, interval) instead of
    #: all nodes beating in lockstep — smooths the GSD's inbound bursts at
    #: the cost of the paper's beat-aligned measurement methodology.
    stagger_heartbeats: bool = False

    #: Periodic firing classes the engine may skip analytically when the
    #: simulator runs with ``fast_forward=True`` (see
    #: :mod:`repro.kernel.quiesce`).  Each named class registers its loop
    #: as a contracted :class:`~repro.sim.PeriodicTask` whose healthy
    #: steady-state firing is batch-accounted instead of executed.  Has no
    #: effect on an exact (default) simulator.  Empty disables opt-in
    #: entirely.  Known classes: ``"wd.beat"``, ``"detector.export"``.
    quiesce_skippable: tuple[str, ...] = ("wd.beat", "detector.export")

    extra: dict = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise KernelError("heartbeat_interval must be positive")
        if self.deadline_grace <= 0:
            raise KernelError("deadline_grace must be positive")
        if self.ping_timeout >= self.probe_window:
            raise KernelError("ping_timeout must be smaller than probe_window")
        if self.node_confirm_rounds < 0:
            raise KernelError("node_confirm_rounds must be >= 0")
        if not 0.0 <= self.daemon_cpu_fraction < 1.0:
            raise KernelError("daemon_cpu_fraction must be in [0, 1)")
        if self.rpc_retry_attempts < 1:
            raise KernelError("rpc_retry_attempts must be >= 1")
        if self.rpc_retry_backoff < 1.0:
            raise KernelError("rpc_retry_backoff must be >= 1.0")
        if self.rpc_inflight_cap < 1:
            raise KernelError("rpc_inflight_cap must be >= 1")
        for call_class, cap in self.rpc_inflight_budgets.items():
            if not call_class or not isinstance(call_class, str):
                raise KernelError("rpc_inflight_budgets keys must be non-empty strings")
            if not isinstance(cap, int) or cap < 1:
                raise KernelError(f"rpc_inflight_budgets[{call_class!r}] must be an int >= 1")
        if self.suspicion_threshold is not None and self.suspicion_threshold <= 0:
            raise KernelError("suspicion_threshold must be positive (or None)")
        if self.suspicion_decay < 0:
            raise KernelError("suspicion_decay must be >= 0")
        if self.es_ckpt_debounce < 0:
            raise KernelError("es_ckpt_debounce must be >= 0")
        if self.db_ckpt_debounce < 0:
            raise KernelError("db_ckpt_debounce must be >= 0")
        if self.es_forward_flush < 0:
            raise KernelError("es_forward_flush must be >= 0")
        if self.es_forward_batch_max < 1:
            raise KernelError("es_forward_batch_max must be >= 1")
        if self.es_outbox_max < 1:
            raise KernelError("es_outbox_max must be >= 1")
        if self.es_deliver_slo is not None and self.es_deliver_slo <= 0:
            raise KernelError("es_deliver_slo must be positive (or None)")
        if any(not key or not isinstance(key, str) for key in self.es_indexed_where_keys):
            raise KernelError("es_indexed_where_keys must be non-empty strings")
        if self.regroup_timeout is not None and self.regroup_timeout <= 0:
            raise KernelError("regroup_timeout must be positive (or None)")
        if self.regroup_heal_interval is not None and self.regroup_heal_interval <= 0:
            raise KernelError("regroup_heal_interval must be positive (or None)")
        if self.ckpt_retention_window is not None and self.ckpt_retention_window <= 0:
            raise KernelError("ckpt_retention_window must be positive (or None)")
        if self.health_report_interval is not None and self.health_report_interval <= 0:
            raise KernelError("health_report_interval must be positive (or None)")
        if any(not cls or not isinstance(cls, str) for cls in self.quiesce_skippable):
            raise KernelError("quiesce_skippable entries must be non-empty strings")

    @property
    def regroup_period(self) -> float:
        """Effective regroup probe timeout (resolves the ``None`` default)."""
        if self.regroup_timeout is not None:
            return self.regroup_timeout
        return max(2.0 * self.rpc_timeout, 0.25 * self.heartbeat_interval)

    @property
    def regroup_heal_period(self) -> float:
        """Effective parked-member heal probe period."""
        if self.regroup_heal_interval is not None:
            return self.regroup_heal_interval
        return self.heartbeat_interval

    @property
    def service_check_period(self) -> float:
        return (
            self.heartbeat_interval
            if self.service_check_interval is None
            else self.service_check_interval
        )

    def with_interval(self, heartbeat_interval: float) -> "KernelTimings":
        """Copy with a different heartbeat interval (the paper's tunable)."""
        from dataclasses import replace

        return replace(self, heartbeat_interval=heartbeat_interval)

    #: Default restart cost for user-environment services not in the table
    #: (override per service via ``extra["spawn.<service>"]``).
    DEFAULT_USER_SPAWN_TIME = 0.15

    def inflight_budget(self, call_class: str | None) -> int:
        """In-flight cap for a tagged ``rpc_retry`` call site.

        Unknown (or untagged) classes fall back to the transport-global
        ``rpc_inflight_cap``.
        """
        if call_class is None:
            return self.rpc_inflight_cap
        return int(self.rpc_inflight_budgets.get(call_class, self.rpc_inflight_cap))

    def ckpt_write_cost(self, size_bytes: int) -> float:
        """Time to commit a checkpoint of ``size_bytes`` to local storage."""
        return self.ckpt_write_latency + size_bytes / self.ckpt_write_bandwidth

    def spawn_time(self, service: str) -> float:
        """Restart cost of a named service (kernel or user environment)."""
        table = {
            "wd": self.wd_spawn_time,
            "gsd": self.gsd_spawn_time,
            "es": self.es_spawn_time,
            "db": self.db_spawn_time,
            "ckpt": self.ckpt_spawn_time,
            "ckpt.replica": self.ckpt_spawn_time,
            "detector": self.detector_spawn_time,
            "ppm": self.ppm_spawn_time,
        }
        if service in table:
            return table[service]
        return float(self.extra.get(f"spawn.{service}", self.DEFAULT_USER_SPAWN_TIME))
