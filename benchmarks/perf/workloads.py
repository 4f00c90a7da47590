"""The five fixed workloads of the perf ledger.

Each workload drives the system from outside, through its public API
only, and passes nothing but workload-shape parameters (node counts,
intervals, request counts).  No feature switch (``fast_forward``,
``wheel``, ``region_size``, ``quorum_demotion``...) is ever set here, so
flipping a default in ``src/`` later shows up as a gain or a loss.

A workload is three steps, timed separately by ``run.py``:

``setup(seed, size)``  spec build + ``kernel.boot()`` + warm-up to steady
                       state (first exports landed, views built)
``run()``              the timed phase; fixed work, so every sim-clock
                       number repeats exactly for a seed
``check()``            output checks, outside the timed phase; one
                       failure per violated check

Why these five, and which layer each one loads, is recorded in
``BENCHMARK.json`` and in ``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import tempfile
from typing import Any, Callable

from benchmarks.perf.metrics import hist_percentile, percentile, tail_pct
from repro import Cluster, ClusterSpec, FaultInjector, KernelTimings, PhoenixKernel, Simulator
from repro.__main__ import main as repro_cli
from repro.cluster import NodeRole
from repro.kernel import ports
from repro.kernel.bulletin.query import Agg, Query
from repro.userenv.business import (
    ArrivalProfile,
    Autoscaler,
    AutoscalePolicy,
    BizAppSpec,
    RequestClass,
    TierPolicy,
    TierSpec,
    TrafficGenerator,
    install_business_runtime,
)
from repro.userenv.monitoring import install_gridview

#: Input sizes.  ``full`` is what ``BENCHMARK.json`` measures.  A run
#: makes ``passes`` identical passes of set-up + timed phase and reports
#: the median pass; phases are sized so that a run's passes take ≈15 s
#: together on the reference host when ``--seconds 10`` (up to twice that
#: while the host is disturbed).  Work scales linearly with ``--seconds``;
#: cluster sizes never do — they set the shape.  ``quick`` is the <60 s
#: schema/determinism scale used by ``test_harness.py``.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "monitor_1024": {"passes": 6, "partitions": 64, "virtual_s": 50.0},
        "serve_200k": {"passes": 6, "requests": 40_000},
        "partition_heal": {"passes": 5, "faults": 4},
        "bulletin_read_1024": {"passes": 4, "partitions": 16, "computes": 62, "rounds": 30},
        "bulletin_write_1024": {"passes": 5, "partitions": 16, "computes": 62, "puts": 1200},
    },
    "quick": {
        "monitor_1024": {"passes": 2, "partitions": 8, "virtual_s": 60.0},
        "serve_200k": {"passes": 2, "requests": 5_000},
        "partition_heal": {"passes": 2, "faults": 2},
        "bulletin_read_1024": {"passes": 2, "partitions": 8, "computes": 14, "rounds": 10},
        "bulletin_write_1024": {"passes": 2, "partitions": 8, "computes": 14, "puts": 300},
    },
}

#: Keys of a size entry that are amounts of work (scaled by --seconds);
#: everything else is cluster shape and is never scaled.
WORK_KEYS = ("virtual_s", "requests", "faults", "rounds", "puts")


def drive(sim: Simulator, signal, max_time: float):
    """Step the simulation until ``signal`` fires; its value, or ``None``
    when it has not fired within ``max_time`` virtual seconds."""
    deadline = sim.now + max_time
    while not signal.fired:
        nxt = sim.peek()
        if nxt is None or nxt > deadline:
            return None
        sim.step()
    return signal.value


def group_rows(rows: list[dict[str, Any]]) -> list[tuple]:
    """Order-free, metadata-free form of aggregate rows for view ≡ scan."""
    return sorted(
        tuple(sorted((k, v) for k, v in row.items() if not k.startswith("_")))
        for row in rows
    )


class Workload:
    """Common state and counters; subclasses fill the three steps."""

    name = ""
    #: One line for ``BENCHMARK.json``: why the workload exists.
    why = ""
    #: What one unit of ``ops`` is.
    op_unit = ""
    #: The client operation whose simulated latency is reported.
    client_op = ""
    #: ``open`` or ``closed`` loop, with its rate or client count.
    loop = ""

    def __init__(self) -> None:
        self.sim: Simulator
        self.cluster: Cluster
        self.kernel: PhoenixKernel
        #: Work units done in the timed phase.
        self.ops = 0
        #: Client operations attempted / failed (feeds ``failed_ratio``).
        self.attempted = 0
        self.failed = 0
        #: Simulated latency of each client operation, seconds.
        self.latencies: list[float] = []
        #: Workload-specific exact counts that join the sim digest.
        self.outputs: dict[str, Any] = {}
        #: Called at each slice boundary of the timed phase — where the
        #: workload's own driver returns to its caller anyway.  ``run.py``
        #: hangs its speed probe here; the time spent inside is not charged
        #: to the workload.
        self.lap: Callable[[], None] = lambda: None

    def setup(self, seed: int, size: dict[str, Any]) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def latency(self) -> tuple[float, float, float, int]:
        """(p50, tail, tail percentile, samples) of the client operation,
        simulated seconds; the tail is the highest percentile with at
        least ten samples beyond it (100 = the maximum)."""
        values = sorted(self.latencies)
        pct = tail_pct(len(values))
        return percentile(values, 50.0), percentile(values, pct), pct, len(values)

    def _boot(self, seed: int, spec: ClusterSpec, timings: KernelTimings,
              trace_capacity: int | None) -> None:
        self.sim = Simulator(seed=seed, trace_capacity=trace_capacity)
        self.cluster = Cluster(self.sim, spec)
        self.kernel = PhoenixKernel(self.cluster, timings=timings)
        self.kernel.boot()


# -- monitor_1024 ------------------------------------------------------------
class Monitor1024(Workload):
    """The paper's §5.3 / Figure 6 point: GridView over a 1024-node kernel."""

    name = "monitor_1024"
    why = ("Paper 5.3/fig6: GridView over 64x16 nodes. The per-message path does the work (sim.core, "
           "cluster.network, cluster.transport, cluster.metrics); userenv.business is idle.")
    op_unit = "simulated node-seconds"
    client_op = "GridView refresh"
    loop = "open loop: one refresh every 5 s of simulated time"

    REFRESH = 5.0
    SLICE = 5.0  # simulated seconds per timed slice: one refresh

    def setup(self, seed, size):
        self.virtual_s = float(size["virtual_s"])
        spec = ClusterSpec.build(partitions=size["partitions"], computes=14, backups=1)
        self._boot(seed, spec, KernelTimings(heartbeat_interval=30.0), trace_capacity=50_000)
        # The harness reads only counters, histograms and gridview.* records.
        self.sim.trace.set_record_filter(("gridview.",))
        install_gridview(self.kernel, refresh_interval=self.REFRESH)
        self.sim.run(until=10.0)  # first detector exports landed, first refresh done

    def run(self):
        t0 = self.sim.now
        for k in range(1, round(self.virtual_s / self.SLICE) + 1):
            self.sim.run(until=t0 + k * self.SLICE)
            self.lap()
        self.ops = int(self.cluster.size * self.virtual_s)
        done = [r for r in self.sim.trace.iter_records("gridview.refresh") if r.time > t0]
        lost = sum(1 for r in self.sim.trace.iter_records("gridview.refresh_failed")
                   if r.time > t0)
        self.latencies = [r["latency"] for r in done]
        self.attempted = len(done) + lost
        self.failed = lost
        self.outputs = {"last_rows": done[-1]["rows"] if done else 0,
                        "missing": sum(r["missing"] for r in done)}

    def check(self):
        problems = []
        if self.outputs["last_rows"] != self.cluster.size:
            problems.append(
                f"last refresh returned {self.outputs['last_rows']} rows, "
                f"expected {self.cluster.size}")
        return problems


# -- serve_200k ----------------------------------------------------------------
class Serve200k(Workload):
    """§5.4 business hosting: a three-tier application under open-loop load
    on the rising flank of a diurnal cycle, with the autoscaler on."""

    name = "serve_200k"
    why = ("Paper 5.4 hosting: 3-tier app, open loop on the rising flank of a diurnal cycle, autoscaler "
           "on. userenv.business and the engine carry it; network+transport about 1%: the bypass workload.")
    op_unit = "requests generated"
    client_op = "browse-class request"
    loop = "open loop: arrivals rising from 2000 req/s of simulated time along a 120 s diurnal cycle"

    APP = "shop"
    RATE = 2000.0
    PERIOD = 120.0
    CLASSES = (
        RequestClass(name="browse", weight=0.70, slo_p99=0.50,
                     service_times={"web": 0.020, "app": 0.012, "db": 0.008}),
        RequestClass(name="checkout", weight=0.25, slo_p99=1.00, heavy_tail_sigma=0.6,
                     service_times={"web": 0.025, "app": 0.030, "db": 0.020}),
        RequestClass(name="report", weight=0.05, slo_p99=5.0, heavy_tail_sigma=1.2,
                     service_times={"web": 0.030, "app": 0.080, "db": 0.120}),
    )
    TIERS = (TierSpec("web", 6, cpus=1), TierSpec("app", 4, cpus=1), TierSpec("db", 3, cpus=2))
    BOUNDS = {
        "web": TierPolicy(min_replicas=4, max_replicas=10, step=2),
        "app": TierPolicy(min_replicas=3, max_replicas=8, step=1),
        "db": TierPolicy(min_replicas=2, max_replicas=6, step=1),
    }

    def setup(self, seed, size):
        self.requests = int(size["requests"])
        spec = ClusterSpec.build(partitions=2, computes=6)
        timings = KernelTimings(heartbeat_interval=5.0, health_report_interval=2.5)
        self._boot(seed, spec, timings, trace_capacity=0)
        sim, cluster = self.sim, self.cluster
        sim.run(until=6.0)
        # Pure compute nodes only: backups stay free for kernel failover.
        workers = [n for n in cluster.compute_nodes()
                   if cluster.node(n).role is NodeRole.COMPUTE]
        self.runtime = install_business_runtime(self.kernel, worker_nodes=workers,
                                                partition_id="p0")
        sim.run(until=sim.now + 2.0)
        self.runtime.deploy(BizAppSpec(name=self.APP, tiers=self.TIERS))
        sim.run(until=sim.now + 3.0)
        self.arrival = ArrivalProfile("diurnal", rate=self.RATE, period=self.PERIOD,
                                      amplitude=0.5)
        self.generator = TrafficGenerator(
            self.runtime, self.APP, list(self.CLASSES), profile=self.arrival,
            queue_cap=256, slots_per_replica=16,
        )
        self.scaler = Autoscaler(
            self.runtime, self.APP, self.BOUNDS,
            policy=AutoscalePolicy(interval=5.0, cooldown=20.0, queue_high=16),
            class_slos={c.name: c.slo_p99 for c in self.CLASSES},
        )
        self.scaler.start()

    def run(self):
        sim, gen = self.sim, self.generator
        start = sim.now
        gen.start(max_requests=self.requests)
        k = 0
        while not gen.done:
            k += 1
            sim.run(until=start + k * 1.0)
            self.lap()
        drain_deadline = sim.now + 120.0
        while gen.inflight and sim.now < drain_deadline:
            sim.run(until=sim.now + 1.0)
        self.lap()

        summary = gen.class_summary()
        rejected = sum(c["rejected"] for c in summary.values())
        lost = sum(c["failed"] for c in summary.values())
        self.ops = gen.generated
        self.attempted = gen.generated
        # Refused by admission control, lost in service on a replica that
        # went away under it, or never finished.
        self.failed = rejected + lost + gen.inflight
        self.outputs = {
            "generated": gen.generated,
            "completed": sum(c["completed"] for c in summary.values()),
            "rejected": rejected,
            "lost_in_service": lost,
            "unfinished": gen.inflight,
            "arrival_s": sim.now - start,
        }

    def latency(self):
        hist = self.sim.trace.histogram("bizreq.latency.browse")
        if hist is None:
            return 0.0, 0.0, 100.0, 0
        payload = hist.to_payload()
        pct = tail_pct(payload["count"])
        tail = payload["max"] if pct == 100.0 else hist_percentile(payload, pct)
        return hist_percentile(payload, 50.0), tail, pct, payload["count"]

    def check(self):
        problems = []
        if self.generator.generated != self.requests:
            problems.append(f"generated {self.generator.generated} != requested {self.requests}")
        drift = self.runtime.capacity_audit()["drift"]
        if drift != 0:
            problems.append(f"capacity drift {drift} != 0")
        down = self.sim.trace.counter("bizrt.sla.down")
        up = self.sim.trace.counter("bizrt.sla.up")
        if down != up:
            problems.append(f"dangling SLA transitions: {down:.0f} down vs {up:.0f} up")
        return problems


# -- partition_heal ------------------------------------------------------------
class PartitionHeal(Workload):
    """Tables 1–3 / quorum regroup: a seeded schedule of splits, a leader
    crash and a fabric slowdown on a small cluster, with full tracing."""

    name = "partition_heal"
    why = ("Tables 1-3 and quorum regroup on 4x4 nodes with full trace records: splits, leader crash, "
           "slow fabric. Only here do trace records, rpc retries, kernel.group and checkpoints carry the run.")
    op_unit = "simulated seconds"
    client_op = "time without service: fault to first probe answered on the surviving side"
    loop = "open loop: one query_bulletin probe per simulated second from every partition"

    HB = 10.0
    #: A fault is held for 3 heartbeats, then healed, then given 3 more to
    #: settle: parks land ≈1.5–2 beats after a split and unparks within
    #: one beat of the heal, so both fall inside their windows.
    HOLD = 3.0 * HB
    SETTLE = 3.0 * HB
    KINDS = ("leader-split", "leader-crash", "even-split", "fabric-latency")
    PROBE_TIMEOUT = 5.0
    BULK_RECORDS = ("rpc.", "net.", "es.forward_batch", "db.query")

    def setup(self, seed, size):
        self.faults = int(size["faults"])
        rng = random.Random(seed)
        # Every kind appears equally often and in a fixed order, so the
        # amount of work does not depend on the seed; the seed draws where
        # in the heartbeat period each fault lands.  The gaps before the
        # injections share out a fixed total (0.7 heartbeats each on
        # average), which keeps the simulated length of a pass the same.
        # They differ by at most a third: the later in a heartbeat a split
        # lands, the longer the retries run, and with gaps drawn from
        # 0.2–1.2 the events of a pass moved by 12 % with the seed.
        self.schedule = [self.KINDS[i % len(self.KINDS)] for i in range(self.faults)]
        draws = [rng.uniform(0.6, 0.8) for _ in range(self.faults)]
        self.gaps = [d * 0.7 * self.faults / sum(draws) * self.HB for d in draws]
        spec = ClusterSpec.build(partitions=4, computes=2)
        timings = KernelTimings(heartbeat_interval=self.HB, trace_commit_marks=True)
        self._boot(seed, spec, timings, trace_capacity=None)
        self.injector = FaultInjector(self.cluster)
        self.sim.run(until=2.0 * self.HB)
        #: (sent_at, partition, answered_at or None) per probe.
        self.probes: list[list] = []
        self._probing = False

    def _prober(self, part_id: str, node: str):
        client = self.kernel.client(node)
        while self._probing:
            self.sim.spawn(self._probe(client, part_id), name="perf.probe")
            yield 1.0

    def _probe(self, client, part_id: str):
        entry = [self.sim.now, part_id, None]
        self.probes.append(entry)
        if self.kernel.placement.get(("db", part_id)) is None:
            return
        reply = yield client.query_bulletin("node_state", timeout=self.PROBE_TIMEOUT)
        if reply is not None and "error" not in reply:
            entry[2] = self.sim.now

    def _advance(self, seconds: float) -> None:
        """Run ``seconds`` of simulated time, one timed slice per heartbeat."""
        until = self.sim.now + seconds
        while self.sim.now < until:
            self.sim.run(until=min(until, self.sim.now + self.HB))
            self.lap()

    def _side_nodes(self, partition_ids) -> set[str]:
        return {n for p in self.cluster.partitions if p.partition_id in partition_ids
                for n in p.all_nodes}

    def run(self):
        sim, cluster, inj = self.sim, self.cluster, self.injector
        parts = [p.partition_id for p in cluster.partitions]
        nets = sorted(cluster.networks)
        t_start = sim.now
        self._probing = True
        for part in cluster.partitions:
            sim.spawn(self._prober(part.partition_id, part.computes[0]), name="perf.prober")
        #: (kind, t_fault, t_quiet, observers) per injection; t_quiet is
        #: when the settle window after the heal ends.
        self.windows: list[tuple[str, float, float, tuple[str, ...]]] = []
        for i, kind in enumerate(self.schedule):
            sim.run(until=sim.now + self.gaps[i])
            self.lap()
            leader = self.kernel.placement[("metagroup", "leader")]
            leader_part = cluster.node(leader).partition_id
            case = f"f{i}"
            span = sim.trace.span("perf.fault", kind=kind, case=case)
            inj.current_span = span
            t_fault = sim.now
            if kind in ("leader-split", "even-split"):
                minority_parts = [leader_part] if kind == "leader-split" else parts[2:]
                minority = self._side_nodes(minority_parts)
                for net in nets:
                    inj.split_network(net, [minority, set(cluster.nodes) - minority], case=case)
                observers = tuple(p for p in parts if p not in minority_parts)
                self._advance(self.HOLD)
                for net in nets:
                    inj.heal_network(net, case=case)
            elif kind == "leader-crash":
                inj.crash_node(leader, case=case)
                observers = (leader_part,)
                self._advance(self.HOLD)
                inj.boot_node(leader, case=case)
                for svc in ("ppm", "detector", "wd"):
                    if not cluster.hostos(leader).process_alive(svc):
                        self.kernel.start_service(svc, leader)
            else:  # fabric-latency
                for net in nets:
                    inj.degrade_fabric(net, latency_mult=3.0, case=case)
                observers = tuple(parts)
                self._advance(self.HOLD)
                for net in nets:
                    inj.restore_fabric_quality(net, case=case)
            span.end()
            inj.current_span = None
            self._advance(self.SETTLE)
            self.windows.append((kind, t_fault, sim.now, observers))
        self._probing = False
        sim.run(until=sim.now + self.PROBE_TIMEOUT + 1.0)  # last probes settle
        self.lap()
        self.ops = int(round(sim.now - t_start))
        self._account()

    def _account(self) -> None:
        """Time without service per fault, and which probes had to succeed."""
        outages = []
        unserved = 0
        for kind, t_fault, t_quiet, observers in self.windows:
            answered = [p[2] for p in self.probes
                        if p[0] >= t_fault and p[0] < t_quiet and p[1] in observers
                        and p[2] is not None]
            if answered:
                outages.append(min(answered) - t_fault)
            else:
                unserved += 1
        # Probes sent while a fault is held or settling may go unanswered;
        # probes sent outside every such window must be answered.
        def quiet(t: float) -> bool:
            return not any(t_fault <= t < t_quiet for _, t_fault, t_quiet, _ in self.windows)
        steady = [p for p in self.probes if quiet(p[0])]
        self.latencies = outages
        self.attempted = len(steady) + len(self.windows)
        self.failed = sum(1 for p in steady if p[2] is None) + unserved
        marks = self.sim.trace
        self.outputs = {
            "schedule": list(self.schedule),
            "probes": len(self.probes),
            "probes_answered": sum(1 for p in self.probes if p[2] is not None),
            "parks": sum(1 for _ in marks.iter_records("quorum.lost")),
            "unparks": sum(1 for _ in marks.iter_records("quorum.regained")),
            "takeovers": sum(1 for _ in marks.iter_records("leader.takeover")),
            "records_kept": len(marks),
        }

    def check(self):
        problems = []
        if self.outputs["parks"] != self.outputs["unparks"]:
            problems.append(
                f"{self.outputs['parks']} parks vs {self.outputs['unparks']} unparks")
        # The exported trace must satisfy the leadership invariants as
        # judged by the program's own offline checker.  Per-message spans
        # (nine tenths of the records; the checker reads none of them) are
        # left out of the export, in export_jsonl's line format.
        with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(__file__))) as tmp:
            path = os.path.join(tmp, "partition_heal.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                for rec in self.sim.trace.iter_records():
                    if not rec.category.startswith(self.BULK_RECORDS):
                        line = {"time": rec.time, "category": rec.category, **rec.fields}
                        fh.write(json.dumps(line, default=str) + "\n")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = repro_cli(["tracecheck", path, "--ckpt-grace", str(5.0 * self.HB)])
        if code != 0:
            problems.append("tracecheck failed: " + out.getvalue().strip().replace("\n", " | "))
        return problems


# -- bulletin_read_1024 / bulletin_write_1024 -------------------------------
class _Bulletin1024(Workload):
    """Shared 16 × 64-node cluster with bandwidth-modelled fabrics."""

    BANDWIDTH = 1e6  # bytes/s: replies cost simulated time in proportion to size
    CLIENT = "p0c0"  # a compute node: bulk bulletin flows queue on servers
    OWNER = "p1"  # the view lives on a remote partition
    VIEW_NAME = ""
    VIEW_QUERY: Query

    def setup(self, seed, size):
        spec = ClusterSpec.build(partitions=size["partitions"], computes=size["computes"])
        spec = dataclasses.replace(spec, networks=tuple(
            dataclasses.replace(n, bandwidth=self.BANDWIDTH) for n in spec.networks))
        self._boot(seed, spec, KernelTimings(heartbeat_interval=10.0), trace_capacity=10_000)
        self.sim.run(until=12.0)  # detectors exporting everywhere, one heartbeat round
        self.client = self.kernel.client(self.CLIENT)
        reply = drive(self.sim, self.client.register_view(
            self.VIEW_NAME, self.VIEW_QUERY, partition=self.OWNER), max_time=120.0)
        if not reply or not reply.get("ok"):
            raise RuntimeError(f"view registration failed: {reply!r}")
        self.sim.run(until=self.sim.now + 3.0)

    def _view_vs_scan(self) -> tuple[dict | None, list[str]]:
        """Read the view and run its query as a full scan; the view's reply
        (``None`` when either went unanswered) and any disagreement."""
        view = drive(self.sim, self.client.read_view(self.VIEW_NAME), max_time=60.0)
        scan = drive(self.sim, self.client.exec_query(self.VIEW_QUERY), max_time=120.0)
        if view is None or scan is None:
            return None, ["view or scan unanswered at the end of the run"]
        if group_rows(view["rows"]) != group_rows(scan["rows"]):
            return view, [f"view rows {view['rows']!r} != scan rows {scan['rows']!r}"]
        return view, []


class BulletinRead1024(_Bulletin1024):
    """Figure 9 query storm, lengthened until queries — not boot — dominate."""

    name = "bulletin_read_1024"
    why = ("fig9 query storm on 16x64 nodes, closed loop: view reads, full scans, federation queries. "
           "Row copies (deepcopy) on scan and repr sizing of large replies dominate.")
    op_unit = "queries answered"
    client_op = "one query (view read, full scan or federation query)"
    loop = "closed loop: 1 client, next query sent when the previous one is answered"

    VIEW_NAME = "perf.nodes_by_state"
    VIEW_QUERY = Query(table="nodes", group_by=("state",), aggs=(Agg("count", "*", "n"),))
    #: One round: 8 view reads, 1 full scan, 1 key-value federation query.
    ROUND = ("view",) * 8 + ("scan", "kv")

    def setup(self, seed, size):
        self.rounds = int(size["rounds"])
        self._order = random.Random(seed)
        super().setup(seed, size)

    def run(self):
        sim, client = self.sim, self.client
        self.kinds = {"view": 0, "scan": 0, "kv": 0}
        self.last = {}
        for _ in range(self.rounds):
            ops = list(self.ROUND)
            self._order.shuffle(ops)
            for kind in ops:
                sent = sim.now
                if kind == "view":
                    reply = drive(sim, client.read_view(self.VIEW_NAME), max_time=60.0)
                elif kind == "scan":
                    reply = drive(sim, client.exec_query(self.VIEW_QUERY), max_time=120.0)
                else:
                    reply = drive(sim, client.query_bulletin("node_state"), max_time=60.0)
                self.attempted += 1
                if reply is None or "error" in reply:
                    self.failed += 1
                    continue
                self.kinds[kind] += 1
                self.last[kind] = reply
                self.latencies.append(sim.now - sent)
            sim.run(until=sim.now + 0.1)  # think time between rounds
            self.lap()
        self.ops = len(self.latencies)
        self.outputs = {
            "answered": dict(self.kinds),
            "kv_rows": len(self.last.get("kv", {}).get("rows", ())),
            "view_staleness": self.last.get("view", {}).get("staleness"),
        }

    def check(self):
        _view, problems = self._view_vs_scan()
        if self.outputs["kv_rows"] != self.cluster.size:
            problems.append(
                f"federation query returned {self.outputs['kv_rows']} rows, "
                f"expected {self.cluster.size}")
        return problems


class BulletinWrite1024(_Bulletin1024):
    """The same layer used the other way: puts → IVM delta publish → ES
    federation → remote view apply."""

    name = "bulletin_write_1024"
    why = ("The same bulletin layer the other way: open-loop DB_PUTs, IVM delta publish, ES federation, "
           "remote view apply. A read-side cache or copy elision that costs writes shows here.")
    op_unit = "puts acked"
    client_op = "DB_PUT to ack"
    loop = "open loop: 1000 puts/s of simulated time in bursts of 50, then 5 s quiesce"

    VIEW_NAME = "perf.jobs_by_phase"
    VIEW_QUERY = Query(
        table="jobs", group_by=("phase",),
        aggs=(Agg("count", "*", "n"), Agg("min", "seq", "lo"), Agg("max", "seq", "hi")),
    )
    PHASES = ("queued", "running", "done", "failed")
    BURST = 50
    BURST_EVERY = 0.05
    LIVE_KEYS = 500
    PUT_TIMEOUT = 5.0
    QUIESCE = 5.0

    def setup(self, seed, size):
        self.puts = int(size["puts"])
        rng = random.Random(seed)
        parts = [f"p{i}" for i in range(size["partitions"])]
        per_part = max(1, self.LIVE_KEYS // len(parts))
        # Keys are unique per partition: the same key put to two
        # partitions would be one view row but two scan rows.
        self.inputs = [
            (parts[i % len(parts)],
             f"{parts[i % len(parts)]}.job{(i // len(parts)) % per_part}",
             {"app": "perf", "seq": rng.randrange(1_000_000), "phase": rng.choice(self.PHASES)})
            for i in range(self.puts)
        ]
        super().setup(seed, size)

    def _put(self, part: str, key: str, row: dict[str, Any]):
        sent = self.sim.now
        db_node = self.kernel.placement[("db", part)]
        reply = yield self.cluster.transport.rpc(
            self.CLIENT, db_node, ports.DB, ports.DB_PUT,
            {"table": "apps", "key": key, "row": row}, timeout=self.PUT_TIMEOUT)
        if reply == {"ok": True}:
            self.latencies.append(self.sim.now - sent)

    def run(self):
        sim = self.sim
        for start in range(0, self.puts, self.BURST):
            for part, key, row in self.inputs[start:start + self.BURST]:
                sim.spawn(self._put(part, key, row), name="perf.put")
            sim.run(until=sim.now + self.BURST_EVERY)
            if (start // self.BURST) % 2 == 1:
                self.lap()
        sim.run(until=sim.now + self.QUIESCE)
        self.lap()
        self.ops = len(self.latencies)
        self.attempted = self.puts
        self.failed = self.puts - self.ops
        self.outputs = {"acked": self.ops}

    def check(self):
        view, problems = self._view_vs_scan()
        if self.ops != self.puts:
            problems.append(f"{self.ops}/{self.puts} puts acked")
        if view is not None:
            total = sum(row["n"] for row in view["rows"])
            live = len({key for _, key, _ in self.inputs})
            if total != live:
                problems.append(f"view counts {total} rows, {live} live keys were written")
            self.outputs["view_staleness"] = view.get("staleness")
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Monitor1024, Serve200k, PartitionHeal, BulletinRead1024, BulletinWrite1024)
}
