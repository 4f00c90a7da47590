"""One measured run of one workload — the benchmark's contract entry.

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.

An untraced run makes several identical passes (fresh cluster, same
seed) of *set-up + timed phase* and reports the median pass.  Host time
is CPU time of this process (``time.process_time``), and it is read
against a **speed probe**: a fixed miniature event loop, owned by the
benchmark, run before and after set-up and at every slice boundary of the
timed phase (where the workload's own driver returns to its caller).
This host runs the same code up to 3x slower for seconds at a time, CPU
time included (README.md, "Noise"); a pass's seconds are therefore scaled
by how fast the probe ran alongside it, to seconds of a host that runs
the probe in ``PROBE_REF_S``.  The passes must also agree on every
simulated number (``sim_digest``) or the run is incorrect.

A traced run makes one untraced pass and one pass under ``cProfile``
(timed phase only; no monkeypatching, no edits to ``src/``) and folds the
profile into layers (``layers.py``); the ratio of the two is the tracing
overhead.  Counts and sim-clock numbers are exact, so they are taken
from the traced pass at no cost.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import resource
import statistics
import sys
from pathlib import Path
from time import process_time
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf import layers, metrics  # noqa: E402
from benchmarks.perf.workloads import SIZES, WORK_KEYS, WORKLOADS, Workload  # noqa: E402

#: ``--seconds`` at which the sizes in ``workloads.SIZES`` apply as written.
NOMINAL_SECONDS = 10.0
PROBE_EVENTS = 4_000
_KINDS = ("hb", "put", "ack", "query", "reply")
#: CPU seconds one probe takes on the reference host when nothing disturbs
#: it.  It only fixes the unit: every host time is reported in seconds of
#: a host this fast, and only ratios between commits mean anything.
PROBE_REF_S = 0.0054


def sized(name: str, scale: str, seconds: float) -> dict[str, Any]:
    """The workload's input size: work scales with ``--seconds``, cluster
    shape never does."""
    size = dict(SIZES[scale][name])
    factor = seconds / NOMINAL_SECONDS
    for key in WORK_KEYS:
        if key in size:
            kind = type(size[key])
            size[key] = kind(max(1, round(size[key] * factor)))
    return size


class _Event:
    __slots__ = ("when", "node", "payload")

    def __init__(self, when: float, node: int, payload: dict[str, Any]) -> None:
        self.when, self.node, self.payload = when, node, payload


class _Node:
    __slots__ = ("name", "seen")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seen: dict[str, int] = {}

    def handle(self, event: _Event) -> float:
        kind = event.payload["kind"]
        self.seen[kind] = self.seen.get(kind, 0) + 1
        return event.when + 0.5


def probe() -> float:
    """CPU seconds of a fixed miniature event loop — a heap, small objects,
    dicts, method calls: the interpreter work a simulator does — that
    touches no code of the repository, so no change to ``src/`` can move
    it: how fast the host is right now.  The collector is off inside, or
    the probe's allocations would make it scan the workload's heap."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        nodes = [_Node(f"n{i}") for i in range(16)]
        heap: list[tuple[float, int, _Event]] = []
        now = 0.0
        for i in range(PROBE_EVENTS):
            payload = {"kind": _KINDS[i % 5], "seq": i, "src": nodes[i & 15].name}
            heapq.heappush(heap, ((i * 7919) % 1009 * 0.001, i, _Event(now, i & 15, payload)))
            if i & 1:
                event = heapq.heappop(heap)[2]
                now = nodes[event.node].handle(event)
        while heap:
            event = heapq.heappop(heap)[2]
            nodes[event.node].handle(event)
        return process_time() - start
    finally:
        if collecting:
            gc.enable()


def at_reference_speed(cpu_s: float, probes: list[float]) -> float:
    """``cpu_s`` scaled to a host that runs the probe in ``PROBE_REF_S``."""
    return cpu_s * PROBE_REF_S / statistics.fmean(probes)


def net_totals(wl: Workload) -> tuple[float, float, float]:
    trace = wl.sim.trace
    nets = wl.cluster.networks
    return (sum(trace.counter(f"net.{n}.msgs") for n in nets),
            sum(trace.counter(f"net.{n}.bytes") for n in nets),
            sum(trace.counter(f"net.{n}.drops") for n in nets))


def one_pass(name: str, seed: int, size: dict[str, Any],
             profile: cProfile.Profile | None = None, check: bool = False) -> dict[str, Any]:
    """Set up, run the timed phase (optionally under the profiler), and
    collect every number of the pass."""
    gc.collect()
    wl = WORKLOADS[name]()
    before = probe()
    start = process_time()
    wl.setup(seed, size)
    setup_cpu_s = process_time() - start
    probes = [probe()]
    setup_s = at_reference_speed(setup_cpu_s, [before, probes[0]])

    sim = wl.sim
    counters0 = sim.trace.counters()
    net0 = net_totals(wl)
    events0, skipped0 = sim.events_executed, sim.ff_skipped
    run_cpu_s = 0.0

    def lap() -> None:  # a slice ends: stop the clock, probe, restart it
        nonlocal run_cpu_s, start
        run_cpu_s += process_time() - start
        if profile is not None:
            profile.disable()
        probes.append(probe())
        if profile is not None:
            profile.enable()
        start = process_time()

    wl.lap = lap
    if profile is not None:
        profile.enable()
    start = process_time()
    wl.run()
    run_cpu_s += process_time() - start
    if profile is not None:
        profile.disable()

    counters = sim.trace.counters()
    delta = {k: v - counters0.get(k, 0.0) for k, v in counters.items()}
    net = [b - a for a, b in zip(net0, net_totals(wl))]
    hists = {k: h.to_payload() for k, h in sorted(sim.trace.histograms().items())}
    p50, tail, tail_pct, samples = wl.latency()
    ops = max(wl.ops, 1)
    sim_out = {
        "ops": wl.ops,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "events_executed": sim.events_executed - events0,
        "sim_lat_p50_ms": 1e3 * p50,
        "sim_lat_tail_ms": 1e3 * tail,
        "sim_lat_tail_pct": tail_pct,
        "sim_lat_samples": samples,
        "sim_msgs_per_op": net[0] / ops,
        "sim_bytes_per_op": net[1] / ops,
        "outputs": wl.outputs,
    }
    result = {
        "setup_s": setup_s,
        "run_s": at_reference_speed(run_cpu_s, probes),
        "setup_cpu_s": setup_cpu_s,
        "run_cpu_s": run_cpu_s,
        "probe_s": statistics.fmean([before] + probes),
        "sim": sim_out,
        "sim_digest": metrics.digest({"sim": sim_out, "counters": counters, "hists": hists}),
        "problems": [],
    }
    if check:
        result["problems"] = wl.check()
        result["boundary"] = boundary_counts(wl, delta, net, hists,
                                             sim.events_executed - events0,
                                             sim.ff_skipped - skipped0)
    return result


def boundary_counts(wl: Workload, delta: dict[str, float], net: list[float],
                    hists: dict[str, Any], events: int, skipped: int) -> dict[str, float]:
    """The named boundary metrics that come from the program's own counters
    and histograms (deltas over the timed phase)."""
    def c(counter: str) -> float:
        return delta.get(counter, 0.0)

    ops = max(wl.ops, 1)
    batches = c("es.forward_batches")
    refreshes = len(wl.latencies) if wl.name == "monitor_1024" else 0
    access_point = wl.kernel.placement.get(("db", wl.cluster.partitions[0].partition_id))
    staleness = wl.outputs.get("view_staleness") or 0.0

    def p50(hist: str) -> float:
        return 1e3 * metrics.hist_percentile(hists[hist], 50.0) if hist in hists else 0.0

    out = {
        "sim.core.events_executed": events,
        "sim.core.events_per_op": events / ops,
        "sim.core.ff_skipped": skipped,
        "sim.trace.records_kept": len(wl.sim.trace),
        "cluster.network.msgs": net[0],
        "cluster.network.bytes": net[1],
        "cluster.network.drops": net[2],
        "cluster.transport.rpc_retries": c("rpc.retries"),
        "cluster.transport.rpc_sim_p50_ms": p50("rpc.call"),
        "kernel.detectors.exports": c("detector.exports"),
        "kernel.group.wd_beats": c("wd.beats"),
        "kernel.group.ring_beats": c("gsd.ring_beats"),
        "kernel.group.false_suspicions": c("gsd.false_suspicions"),
        # From trace records, so only where the workload keeps them.
        "kernel.group.parks": wl.outputs.get("parks", 0),
        "kernel.group.takeovers": wl.outputs.get("takeovers", 0),
        "kernel.checkpoint.saves": c("ckpt.saves"),
        "kernel.events.published": c("es.published"),
        "kernel.events.delivered": c("es.delivered"),
        "kernel.events.forward_batches": batches,
        "kernel.events.events_per_batch":
            c("es.forward_batched_events") / batches if batches else 0.0,
        "kernel.events.deliver_sim_p50_ms": p50("es.deliver"),
        "kernel.bulletin.puts": c("db.puts"),
        "kernel.bulletin.queries": c("db.queries"),
        "kernel.bulletin.execs": c("db.execs"),
        "kernel.bulletin.view_reads": c("db.view_reads"),
        "kernel.bulletin.deltas_published": c("db.deltas_published"),
        "kernel.bulletin.view_delta_applied": c("db.view_delta_applied"),
        "kernel.bulletin.view_resyncs": c("db.view_resyncs"),
        "kernel.bulletin.view_staleness_ms": 1e3 * staleness,
        "userenv.business.completed": c("bizreq.completed"),
        "userenv.business.rejected": sum(v for k, v in delta.items()
                                         if k.startswith("bizreq.rejected.tier.")),
        "userenv.business.failed": sum(v for k, v in delta.items()
                                       if k.startswith("bizreq.failed.")),
        "userenv.business.autoscale_actions":
            c("bizrt.autoscale.up") + c("bizrt.autoscale.down"),
        "userenv.monitoring.refreshes": refreshes,
        "userenv.monitoring.ap_msgs_per_refresh":
            c(f"rx.{access_point}") / refreshes if refreshes else 0.0,
    }
    for cls in ("browse", "checkout", "report"):
        hist = hists.get(f"bizreq.latency.{cls}")
        out[f"userenv.business.p99_ms.{cls}"] = (
            1e3 * metrics.hist_percentile(hist, 99.0) if hist else 0.0)
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict[str, Any]:
    """The whole run; returns the detail record (see ``--detail``)."""
    size = sized(name, scale, seconds)
    n_passes = size.pop("passes")
    profile = cProfile.Profile() if trace else None
    passes = [one_pass(name, seed, size) for _ in range(1 if trace else n_passes - 1)]
    last = one_pass(name, seed, size, profile=profile, check=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = list(last["problems"])
    if any(p["sim_digest"] != last["sim_digest"] for p in passes):
        problems.append("passes of one seed disagree on sim_digest: the run is not deterministic")
    sim = last["sim"]
    attempted = max(sim["attempted"], 1)
    failed = sim["failed"] + len(problems)
    untraced = passes if trace else passes + [last]
    run_s = statistics.median(p["run_s"] for p in untraced)
    detail: dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "scale": scale, "size": size,
        "n_passes": n_passes,
        "trace": trace, "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "sim_digest": last["sim_digest"],
        "passes": [{k: p[k] for k in ("setup_s", "run_s", "setup_cpu_s", "run_cpu_s", "probe_s")}
                   for p in passes + [last]],
        # How fast the probe ran beside each pass; 1 = the reference host.
        "host_speed": [PROBE_REF_S / p["probe_s"] for p in passes + [last]],
        "end_to_end": {
            "ops_per_s": sim["ops"] / run_s,
            "setup_s": statistics.median(p["setup_s"] for p in passes + [last]),
            "peak_rss_mb": peak_rss_mb,
            "failed_ratio": failed / attempted,
            "sim_lat_p50_ms": sim["sim_lat_p50_ms"],
            "sim_lat_tail_ms": sim["sim_lat_tail_ms"],
            "sim_msgs_per_op": sim["sim_msgs_per_op"],
            "sim_bytes_per_op": sim["sim_bytes_per_op"],
        },
        "sim_lat_tail_pct": sim["sim_lat_tail_pct"],
        "sim_lat_samples": sim["sim_lat_samples"],
        "outputs": sim["outputs"],
    }
    if trace:
        folded = layers.fold(profile)
        per_layer: dict[str, float] = {}
        for layer, row in folded["layers"].items():
            for key in ("calls", "busy_s", "share"):
                per_layer[f"{layer}.{key}"] = row[key]
        per_layer.update(last["boundary"])
        per_layer.update({
            name_: value for name_, value in folded["boundaries"].items()
            if name_ in metrics.BOUNDARY
        })
        per_layer["sim.core.us_per_event"] = 1e6 * run_s / max(sim["events_executed"], 1)
        per_layer["harness.trace_overhead_x"] = last["run_s"] / run_s
        per_layer["harness.calib_ops_per_s"] = PROBE_EVENTS / statistics.fmean(
            p["probe_s"] for p in passes + [last])
        for key in ("failed_ratio", "sim_lat_p50_ms", "sim_lat_tail_ms",
                    "sim_msgs_per_op", "sim_bytes_per_op"):
            per_layer[f"e2e.{key}"] = detail["end_to_end"][key]
        per_layer["e2e.sim_lat_tail_pct"] = sim["sim_lat_tail_pct"]
        per_layer["e2e.sim_lat_samples"] = sim["sim_lat_samples"]
        detail["per_layer"] = per_layer
        detail["edges"] = folded["edges"]
    return detail


def contract_line(detail: dict[str, Any]) -> str:
    """The driver's result object."""
    if detail["trace"]:
        units = metrics.per_layer_metrics()
        values = {n: (detail["per_layer"][n], unit) for n, (unit, _b) in units.items()}
    else:
        values = {n: (detail["end_to_end"][n], metrics.END_TO_END[n][0])
                  for n in metrics.HOST_METRICS}
    return json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in values.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--detail", help="also write the full record of the run to this file")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")

    detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for problem in detail["problems"]:
        print(f"FAILED CHECK [{args.workload}]: {problem}", file=sys.stderr)
    print(contract_line(detail))
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
