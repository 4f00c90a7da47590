"""Linpack (HPL) workload: performance model + a real NumPy kernel.

Table 4 of the paper measures Linpack Rmax on 4/16/64/128 CPUs of the
Dawning 4000A with and without the Phoenix kernel running, concluding
"Phoenix kernel has little impact on scientific computing" (overheads in
the low single-digit percents at every scale).

Two reproductions:

* :class:`HplModel` — an analytic model of cluster Linpack throughput
  whose *with-Phoenix* variant charges exactly the CPU the kernel's
  per-node daemons consume (``timings.DAEMON_CPU_FRACTION``) plus a
  mild OS-noise amplification term that grows with node count (jitter
  hurts collectives more at scale).  This regenerates Table 4's shape.
* :func:`run_real_linpack` — an actual LU-factorization solve via NumPy,
  optionally with live sampler threads playing the role of Phoenix's
  detectors, for a hardware-grounded sanity check of the same claim.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.kernel.timings import DAEMON_CPU_FRACTION


@dataclass(frozen=True)
class HplModel:
    """Analytic Linpack throughput model for a cluster of SMP nodes.

    Defaults approximate the Dawning 4000A's AMD Opteron nodes
    (~4.8 Gflops/CPU theoretical, ~80% single-node HPL efficiency).
    """

    peak_gflops_per_cpu: float = 4.8
    single_cpu_efficiency: float = 0.80
    #: Parallel efficiency decays ~ 1/(1 + alpha * log2(cpus)).
    scaling_alpha: float = 0.035
    cpus_per_node: int = 4
    #: CPU fraction consumed by Phoenix daemons on each node.
    daemon_cpu_fraction: float = DAEMON_CPU_FRACTION
    #: Extra loss per log2(node count): OS noise hitting collectives.
    noise_amplification: float = 0.0015

    def _validate(self, cpus: int) -> None:
        if cpus <= 0 or cpus % self.cpus_per_node:
            raise WorkloadError(
                f"cpus must be a positive multiple of {self.cpus_per_node}, got {cpus}"
            )

    def rmax_gflops(self, cpus: int) -> float:
        """Achieved Gflops on ``cpus`` CPUs without Phoenix running."""
        self._validate(cpus)
        efficiency = self.single_cpu_efficiency / (1.0 + self.scaling_alpha * math.log2(cpus))
        return cpus * self.peak_gflops_per_cpu * efficiency

    def overhead_fraction(self, cpus: int) -> float:
        """Throughput fraction lost to Phoenix's daemons at this scale."""
        self._validate(cpus)
        nodes = max(1, cpus // self.cpus_per_node)
        return self.daemon_cpu_fraction + self.noise_amplification * math.log2(2 * nodes)

    def rmax_with_phoenix(self, cpus: int) -> float:
        """Achieved Gflops with the Phoenix kernel's daemons running."""
        return self.rmax_gflops(cpus) * (1.0 - self.overhead_fraction(cpus))

    def table4_row(self, cpus: int) -> dict[str, float]:
        """One Table 4 row: without / with / overhead percent."""
        without = self.rmax_gflops(cpus)
        with_phoenix = self.rmax_with_phoenix(cpus)
        return {
            "cpus": cpus,
            "without_gflops": without,
            "with_gflops": with_phoenix,
            "overhead_pct": 100.0 * (1.0 - with_phoenix / without),
        }


def linpack_flops(n: int) -> float:
    """Operation count of the HPL solve for an n x n system."""
    return (2.0 / 3.0) * n**3 + 2.0 * n**2


def run_real_linpack(
    n: int = 1200,
    repeats: int = 3,
    monitor_threads: int = 0,
    monitor_interval: float = 0.01,
    seed: int = 0,
) -> dict[str, float]:
    """Solve a dense n x n system ``repeats`` times; returns achieved Gflops.

    With ``monitor_threads`` > 0, that many daemon-like threads run
    alongside, each periodically "sampling metrics" (allocating and
    reducing a small array) — a live stand-in for Phoenix's detectors.
    Wall-clock based; numbers vary with the host, shapes do not.
    """
    if n <= 0 or repeats <= 0:
        raise WorkloadError("n and repeats must be positive")
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) + n * np.eye(n)  # diagonally dominant: well-conditioned
    b = rng.random(n)

    stop = threading.Event()

    def monitor_body() -> None:
        while not stop.is_set():
            sample = np.random.default_rng(1).random(4096)
            sample.sum()
            time.sleep(monitor_interval)

    threads = [threading.Thread(target=monitor_body, daemon=True) for _ in range(monitor_threads)]
    for t in threads:
        t.start()
    try:
        np.linalg.solve(a, b)  # warm-up: BLAS thread pools, caches
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            x = np.linalg.solve(a, b)
            times.append(time.perf_counter() - start)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=1.0)
    residual = float(np.linalg.norm(a @ x - b) / np.linalg.norm(b))
    if residual > 1e-6:
        raise WorkloadError(f"linpack residual too large: {residual}")
    # Median per-solve time: wall-clock benchmarking on a shared host is
    # noisy and HPL-style reporting uses the best sustained rate anyway.
    median = sorted(times)[len(times) // 2]
    return {
        "n": n,
        "elapsed_s": sum(times),
        "gflops": linpack_flops(n) / median / 1e9,
        "residual": residual,
    }
