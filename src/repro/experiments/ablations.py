"""Ablations backing the paper's design rationale.

These are not paper tables; they quantify the arguments the paper makes
in prose:

* **A1 — heartbeat interval sweep** (§5.1): "the interval for sending
  heartbeat can be configured as a system parameter" and the
  detect+diagnose+recover sum "is almost equal to the interval" — so
  the sum should track the interval linearly.
* **A2 — partitioned meta-group vs flat group** (§4.3): "when the scale
  of cluster system reaches thousand nodes, it is unacceptable for all
  nodes joining a group managed by group membership protocol" — measured
  as the inbound message load of the hottest management node.
* **A3 — tree fan-out vs serial job loading** (§4.2's "efficient remote
  jobs loading"): parallel-command latency should grow ~log(n) against
  the serial baseline's ~n.
"""

from __future__ import annotations

import argparse

from repro.cluster import Cluster, ClusterSpec
from repro.experiments.fault_tables import run_fault_case
from repro.experiments.report import format_dict_rows
from repro.kernel import KernelTimings, PhoenixKernel, ports
from repro.sim import Simulator, drive

DEFAULT_INTERVALS = (5.0, 10.0, 30.0, 60.0)


# -- A1: heartbeat interval sweep ---------------------------------------------


def heartbeat_sweep(
    intervals: tuple[float, ...] = DEFAULT_INTERVALS,
    component: str = "wd",
    situation: str = "process",
    seed: int = 0,
) -> list[dict]:
    """One fault-table cell per interval setting: the sum should track
    the interval with a constant protocol tax (A1)."""
    rows = []
    for interval in intervals:
        result = run_fault_case(
            component, situation, seed=seed, heartbeat_interval=interval,
            spec=ClusterSpec.build(partitions=4, computes=6),
        )
        rows.append(
            {
                "interval_s": interval,
                "detect_s": round(result.detect, 3),
                "diagnose_s": round(result.diagnose, 3),
                "recover_s": round(result.recover, 3),
                "sum_s": round(result.total, 3),
                "sum_minus_interval_s": round(result.total - interval, 3),
            }
        )
    return rows


def random_phase_detection(
    interval: float = 30.0, seeds: tuple[int, ...] = (1, 2, 3, 4, 5), component: str = "wd"
) -> list[float]:
    """Detection latency when faults are NOT aligned to a heartbeat —
    expected ~U(grace, interval+grace) instead of the paper's flat 30 s."""
    latencies = []
    for seed in seeds:
        result = run_fault_case(
            component, "process", seed=seed, heartbeat_interval=interval,
            spec=ClusterSpec.build(partitions=2, computes=4),
            align_to_heartbeat=False,
        )
        latencies.append(result.detect)
    return latencies


# -- A2: partitioned vs flat management structure ------------------------------


def structure_point(nodes: int, partitions: int, seed: int = 0, measure_time: float = 120.0) -> dict:
    """Hot-spot load of the management structure at a given partitioning.

    ``partitions=1`` is the flat/master-slave shape the paper rejects:
    every watch daemon heartbeats a single GSD.
    """
    computes = nodes // partitions - 2
    sim = Simulator(seed=seed, trace_capacity=10_000)
    cluster = Cluster(sim, ClusterSpec.build(partitions=partitions, computes=computes))
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=30.0))
    kernel.boot()
    sim.run(until=5.0)
    rx0 = {p.server: sim.trace.counter(f"rx.{p.server}") for p in cluster.partitions}
    t0 = sim.now
    sim.run(until=t0 + measure_time)
    loads = [
        (sim.trace.counter(f"rx.{p.server}") - rx0[p.server]) / measure_time
        for p in cluster.partitions
    ]
    return {
        "nodes": cluster.size,
        "partitions": partitions,
        "hottest_node_rx_per_s": round(max(loads), 2),
        "mean_server_rx_per_s": round(sum(loads) / len(loads), 2),
    }


def structure_comparison(nodes: int = 256, seed: int = 0) -> list[dict]:
    """Flat single-group vs the paper's partitioning at equal node count (A2)."""
    return [
        structure_point(nodes, partitions=1, seed=seed),  # flat master-slave
        structure_point(nodes, partitions=nodes // 16, seed=seed),  # paper's partitioning
    ]


# -- A3: tree fan-out vs serial remote job loading ----------------------------


def launch_latency(targets: int, mode: str, seed: int = 0) -> float:
    """Simulated latency to load one job on ``targets`` nodes."""
    partitions = max(1, targets // 14)
    sim = Simulator(seed=seed, trace_capacity=10_000)
    cluster = Cluster(sim, ClusterSpec.build(partitions=partitions, computes=16))
    kernel = PhoenixKernel(cluster)
    kernel.boot()
    sim.run(until=2.0)
    nodes = cluster.compute_nodes()[:targets]
    if len(nodes) < targets:
        raise ValueError(f"cluster too small for {targets} targets")
    client = kernel.client(cluster.partitions[0].server)
    start = sim.now
    done = {"at": None}

    if mode == "tree":
        signal = client.parallel_command(
            "spawn_job", nodes, args={"job_id": "bench", "cpus": 1, "duration": 1e6},
            timeout=60.0,
        )
        reply = drive(sim, signal)
        assert reply is not None and not reply["errors"], reply
        done["at"] = sim.now
    elif mode == "serial":
        remaining = list(nodes)

        def submit_next() -> None:
            if not remaining:
                done["at"] = sim.now
                return
            node = remaining.pop(0)
            sig = client.spawn_job(node, "bench", cpus=1, duration=1e6)

            def check() -> None:
                assert sig.fired and sig.value and sig.value.get("ok"), (node, sig.value)
                submit_next()

            _wait_signal(sim, sig, check)

        submit_next()
        while done["at"] is None and sim.peek() is not None:
            sim.step()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return done["at"] - start


def _wait_signal(sim, signal, callback) -> None:
    def poll() -> None:
        if signal.fired:
            callback()
        else:
            sim.schedule(1e-4, poll)

    sim.schedule(0.0, poll)


def launch_comparison(target_counts: tuple[int, ...] = (8, 16, 32, 64), seed: int = 0) -> list[dict]:
    """Tree-fan-out vs serial job loading latency per target count (A3)."""
    rows = []
    for targets in target_counts:
        tree = launch_latency(targets, "tree", seed=seed)
        serial = launch_latency(targets, "serial", seed=seed)
        rows.append(
            {
                "targets": targets,
                "tree_ms": round(1000 * tree, 2),
                "serial_ms": round(1000 * serial, 2),
                "speedup": round(serial / tree, 2),
            }
        )
    return rows


# -- A6: failure-detector quality under message loss ---------------------------


def detector_quality_point(
    loss_rate: float, grace: float, seed: int = 0, observe_time: float = 600.0,
    interval: float = 10.0,
) -> dict:
    """False-suspicion rates of a healthy cluster on lossy fabrics.

    Per-NIC suspicions are benign (a dropped beat looks like a quiet NIC
    and clears on the next beat); *full* misses trigger probe rounds and,
    if the probes also drop, could falsely kill a healthy node.  This
    point counts both over a quiet window.
    """
    sim = Simulator(seed=seed, trace_capacity=20_000)
    cluster = Cluster(
        sim, ClusterSpec.build(partitions=4, computes=6, loss_rate=loss_rate)
    )
    kernel = PhoenixKernel(
        cluster,
        timings=KernelTimings(heartbeat_interval=interval, deadline_grace=grace),
    )
    kernel.boot()
    sim.run(until=observe_time)
    detections = sim.trace.records("failure.detected")
    nic_suspicions = sum(1 for r in detections if r.get("network") is not None)
    full_misses = sum(1 for r in detections if r.get("network") is None)
    false_verdicts = len(sim.trace.records("failure.diagnosed", kind="node")) + len(
        sim.trace.records("failure.diagnosed", kind="process")
    )
    beat_rounds = observe_time / interval
    return {
        "loss_rate": loss_rate,
        "grace_s": grace,
        "nic_suspicions": nic_suspicions,
        "full_misses": full_misses,
        "false_verdicts": false_verdicts,
        "suspicions_per_node_hour": round(
            3600.0 * nic_suspicions / cluster.size / observe_time, 2
        ),
        "beat_rounds": int(beat_rounds),
    }


def detector_quality_sweep(
    loss_rates: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10), seed: int = 0
) -> list[dict]:
    """Detector-quality points across message-loss rates (A6)."""
    return [detector_quality_point(loss, grace=0.1, seed=seed) for loss in loss_rates]


def main(argv: list[str] | None = None) -> None:
    """CLI: print the selected ablation tables."""
    parser = argparse.ArgumentParser(description="Design-rationale ablations")
    parser.add_argument("--which", choices=("a1", "a2", "a3", "a6", "all"), default="all")
    args = parser.parse_args(argv)
    if args.which in ("a1", "all"):
        print(format_dict_rows(
            heartbeat_sweep(),
            ["interval_s", "detect_s", "diagnose_s", "recover_s", "sum_s", "sum_minus_interval_s"],
            title="A1 — heartbeat interval sweep (sum tracks the interval)",
        ))
        print()
    if args.which in ("a2", "all"):
        print(format_dict_rows(
            structure_comparison(),
            ["nodes", "partitions", "hottest_node_rx_per_s", "mean_server_rx_per_s"],
            title="A2 — flat group vs partitioned meta-group (hot-spot load)",
        ))
        print()
    if args.which in ("a3", "all"):
        print(format_dict_rows(
            launch_comparison(),
            ["targets", "tree_ms", "serial_ms", "speedup"],
            title="A3 — tree fan-out vs serial remote job loading",
        ))
        print()
    if args.which in ("a6", "all"):
        print(format_dict_rows(
            detector_quality_sweep(),
            ["loss_rate", "grace_s", "nic_suspicions", "full_misses",
             "false_verdicts", "suspicions_per_node_hour"],
            title="A6 — failure-detector quality on lossy fabrics (quiet cluster)",
        ))


if __name__ == "__main__":
    main()
