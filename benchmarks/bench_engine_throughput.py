"""Engine throughput records (not a paper artifact).

Runs the workload that dominates every large sweep — heartbeat-style
deadlines that are almost always cancelled and re-armed — on the engine,
the trace's marks/sec on its unobserved fast path, and the fig6
1024-node point end to end.  Per-PR wall clock is the perf ledger's job
(``benchmarks/perf``).

CI gates on the deterministic operation counts in ``extra_info``; raw
rates are recorded under ``wallclock_*`` keys, which ``check_baseline.py``
reports but never compares.
"""

import gc
import time

import pytest

from benchmarks.conftest import once
from repro.experiments.scalability import run_point
from repro.sim import Simulator
from repro.sim.trace import Trace

#: Heartbeat-storm shape: N deadline timers re-armed every interval for R
#: rounds — every arm is cancelled before firing except the final round.
STORM_TIMERS = 2000
STORM_ROUNDS = 60
STORM_INTERVAL = 30.0
STORM_GRACE = 5.0

#: Marks on the unobserved-trace fast path.
MARK_COUNT = 200_000


def _run_storm(sim) -> dict:
    """Drive the heartbeat storm; return the operation count (arms +
    cancels + fires), wall time and the longest the event heap got.

    Timer ops are the unit of throughput here: each one is a schedule or
    cancel transaction against the engine's pending-event heap.
    """
    fired = [0]

    def beat() -> None:
        fired[0] += 1

    heap = sim._heap
    peak = 0
    # GC off during the measured window: a collection landing mid-storm
    # is the main noise source.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        timers = [sim.timer(STORM_INTERVAL + STORM_GRACE, beat) for _ in range(STORM_TIMERS)]
        ops = STORM_TIMERS
        now = 0.0
        for _ in range(STORM_ROUNDS):
            now += STORM_INTERVAL
            sim.run(until=now)
            for timer in timers:
                timer.restart()
                if len(heap) > peak:
                    peak = len(heap)
            ops += 2 * STORM_TIMERS  # one cancel + one re-arm per timer
        sim.run(until=now + STORM_INTERVAL + STORM_GRACE + 1.0)
        wall = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()
    assert fired[0] == STORM_TIMERS  # only the last arming fires
    return {"ops": ops + fired[0], "wall": wall, "peak_heap": peak}


@pytest.mark.benchmark(group="engine")
def test_heartbeat_storm_throughput_gate(benchmark):
    """The heartbeat storm as a record: every re-arm leaves a cancelled
    entry behind, and compaction must keep those from piling up — the
    heap never holds more than about twice the armed deadlines."""
    sim = Simulator(seed=0, trace_capacity=0)
    storm = once(benchmark, lambda: _run_storm(sim))
    assert storm["peak_heap"] <= 2 * STORM_TIMERS + 64
    benchmark.extra_info["storm_ops"] = storm["ops"]
    benchmark.extra_info["events_executed"] = sim.events_executed
    benchmark.extra_info["peak_heap_len"] = storm["peak_heap"]
    benchmark.extra_info["wallclock_ops_per_s"] = round(storm["ops"] / storm["wall"])


@pytest.mark.benchmark(group="engine")
def test_trace_mark_fast_path(benchmark):
    """Unobserved marks must skip record construction (the sentinel path).

    Compares marks/sec of ``capacity=0`` against a retaining trace; the
    deterministic check is that both count every mark while the fast path
    stores nothing.
    """

    def run() -> dict:
        fast = Trace(capacity=0)
        start = time.perf_counter()
        for i in range(MARK_COUNT):
            fast.mark("hb.sent", node="n1", seq=i)
        fast_wall = time.perf_counter() - start

        retaining = Trace(capacity=None)
        start = time.perf_counter()
        for i in range(MARK_COUNT):
            retaining.mark("hb.sent", node="n1", seq=i)
        retaining_wall = time.perf_counter() - start
        return {
            "fast": fast, "fast_wall": fast_wall,
            "retaining": retaining, "retaining_wall": retaining_wall,
        }

    result = once(benchmark, run)
    fast, retaining = result["fast"], result["retaining"]
    assert fast.total_marked == MARK_COUNT and len(fast) == 0
    assert retaining.total_marked == MARK_COUNT and len(retaining) == MARK_COUNT
    fast_rate = MARK_COUNT / result["fast_wall"]
    retaining_rate = MARK_COUNT / result["retaining_wall"]
    # The sentinel path must clearly beat eager record construction.
    assert fast_rate >= 1.5 * retaining_rate
    benchmark.extra_info["marks"] = MARK_COUNT
    benchmark.extra_info["wallclock_fast_marks_per_s"] = round(fast_rate)
    benchmark.extra_info["wallclock_retaining_marks_per_s"] = round(retaining_rate)


@pytest.mark.benchmark(group="engine")
def test_sweep_1024_point_throughput(benchmark):
    """The fig6 1024-node point as an end-to-end engine workload: all the
    kernel's heartbeats, detector exports, and monitoring RPCs at 8x the
    original testbed, in one number CI can watch."""

    def run() -> dict:
        start = time.perf_counter()
        row = run_point(1024)
        row["wall"] = time.perf_counter() - start
        return row

    row = once(benchmark, run)
    assert row["rows_per_refresh"] == 1024
    benchmark.extra_info["msgs_per_node_per_s"] = row["msgs_per_node_per_s"]
    benchmark.extra_info["refresh_latency_ms"] = row["refresh_latency_ms"]
    benchmark.extra_info["forward_batches"] = row["forward_batches"]
    benchmark.extra_info["wallclock_point_seconds"] = round(row["wall"], 2)
