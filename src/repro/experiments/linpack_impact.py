"""Table 4 harness: Phoenix's impact on Linpack performance (§5.2).

The paper measures HPL on 4/16/64/128 CPUs of the Dawning 4000A with and
without Phoenix running and concludes the kernel "has little impact on
scientific computing" — overheads stay in the low single-digit percents
and do not blow up with scale.

We regenerate the table from :class:`repro.workloads.linpack.HplModel`
charged with the kernel's per-node daemon cost
(``timings.DAEMON_CPU_FRACTION``, the model's default), and optionally
run the real NumPy mini-Linpack with live monitor threads as a
hardware-grounded cross-check of the same claim.
"""

from __future__ import annotations

import argparse

from repro.experiments.report import format_table
from repro.kernel.timings import KernelTimings
from repro.workloads.linpack import HplModel, run_real_linpack

#: The paper's CPU counts.
CPU_COUNTS = (4, 16, 64, 128)


def run_table4(cpu_counts: tuple[int, ...] = CPU_COUNTS) -> list[dict[str, float]]:
    """Table 4 rows from the closed-form HPL model."""
    model = HplModel()
    return [model.table4_row(cpus) for cpus in cpu_counts]


def render_table4(rows: list[dict[str, float]]) -> str:
    """Paper-style text rendering of the model's Table 4."""
    headers = ["CPU", "Without Phoenix (Gflops)", "With Phoenix (Gflops)", "Overhead"]
    body = [
        [
            int(r["cpus"]),
            f"{r['without_gflops']:.1f}",
            f"{r['with_gflops']:.1f}",
            f"{r['overhead_pct']:.2f}%",
        ]
        for r in rows
    ]
    return format_table(headers, body, title="Table 4 — Phoenix's Impact on Linpack Performance")


def run_simulated_table4(
    cpu_counts: tuple[int, ...] = CPU_COUNTS,
    iterations: int = 30,
    work_per_iteration: float = 0.5,
    seed: int = 0,
    timings: KernelTimings | None = None,
) -> list[dict[str, float]]:
    """Table 4 from *executed* simulation, not a closed-form model.

    For each CPU count, an HPL-shaped bulk-synchronous job runs inside
    the simulator twice — on a bare cluster, and on one with the Phoenix
    kernel booted (its daemons taxing the CPUs and interrupting ranks).
    The overhead, including its growth with scale, emerges from noise
    amplification through the barriers.
    """
    from repro.cluster import Cluster, ClusterSpec
    from repro.kernel import PhoenixKernel
    from repro.sim import Simulator
    from repro.workloads.mpi import MpiJobSpec, NoiseProfile, run_mpi_job

    t = timings or KernelTimings()
    rows = []
    for cpus in cpu_counts:
        nodes_needed = max(1, cpus // 4)
        durations = {}
        for with_phoenix in (False, True):
            sim = Simulator(seed=seed, trace_capacity=10_000)
            cluster = Cluster(sim, ClusterSpec.build(partitions=nodes_needed // 14 + 1, computes=14))
            noise = NoiseProfile.none()
            if with_phoenix:
                PhoenixKernel(cluster, timings=t).boot()
                noise = NoiseProfile.from_kernel(t)
            sim.run(until=2.0)
            result = run_mpi_job(
                cluster,
                cluster.compute_nodes()[:nodes_needed],
                MpiJobSpec(job_id="hpl", iterations=iterations,
                           work_per_iteration=work_per_iteration),
                noise=noise,
            )
            durations[with_phoenix] = result.duration
        rows.append(
            {
                "cpus": cpus,
                "duration_without_s": durations[False],
                "duration_with_s": durations[True],
                "overhead_pct": 100.0 * (durations[True] / durations[False] - 1.0),
            }
        )
    return rows


def run_real_check(n: int = 800, monitor_threads: int = 3) -> dict[str, float]:
    """Real NumPy Linpack with/without daemon-like threads; returns the
    measured overhead (host-dependent; the claim is only 'small')."""
    without = run_real_linpack(n=n, monitor_threads=0)
    with_mon = run_real_linpack(n=n, monitor_threads=monitor_threads)
    return {
        "gflops_without": without["gflops"],
        "gflops_with": with_mon["gflops"],
        "overhead_pct": 100.0 * (1.0 - with_mon["gflops"] / without["gflops"]),
    }


def render_simulated(rows: list[dict[str, float]]) -> str:
    """Text rendering of the executable (in-simulator) Table 4 variant."""
    headers = ["CPU", "Without Phoenix (s)", "With Phoenix (s)", "Overhead"]
    body = [
        [
            int(r["cpus"]),
            f"{r['duration_without_s']:.3f}",
            f"{r['duration_with_s']:.3f}",
            f"{r['overhead_pct']:.2f}%",
        ]
        for r in rows
    ]
    return format_table(
        headers, body,
        title="Table 4 (simulated HPL run) — overhead emerging from daemon noise",
    )


def main(argv: list[str] | None = None) -> None:
    """CLI: print Table 4 (optionally + simulated/real variants)."""
    parser = argparse.ArgumentParser(description="Regenerate paper Table 4")
    parser.add_argument("--real", action="store_true", help="also run the real NumPy kernel")
    parser.add_argument("--simulate", action="store_true",
                        help="also run the executable in-simulator HPL job")
    parser.add_argument("--n", type=int, default=800, help="matrix size for --real")
    args = parser.parse_args(argv)
    print(render_table4(run_table4()))
    if args.simulate:
        print()
        print(render_simulated(run_simulated_table4()))
    if args.real:
        check = run_real_check(n=args.n)
        print()
        print(
            f"real mini-Linpack (n={args.n}): "
            f"{check['gflops_without']:.2f} -> {check['gflops_with']:.2f} Gflops, "
            f"overhead {check['overhead_pct']:.2f}%"
        )


if __name__ == "__main__":
    main()
