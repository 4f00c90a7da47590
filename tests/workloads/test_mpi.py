"""Executable MPI-style workload: barriers, noise, overhead shape."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.errors import WorkloadError
from repro.kernel import KernelTimings
from repro.kernel.timings import DAEMON_CPU_FRACTION
from repro.sim import Simulator
from repro.workloads.mpi import MpiJobSpec, NoiseProfile, run_mpi_job


def make_cluster(seed=0, partitions=2):
    sim = Simulator(seed=seed)
    return Cluster(sim, ClusterSpec.build(partitions=partitions, computes=6))


def test_spec_validation():
    with pytest.raises(WorkloadError):
        MpiJobSpec(job_id="", iterations=1)
    with pytest.raises(WorkloadError):
        MpiJobSpec(job_id="j", iterations=0)
    with pytest.raises(WorkloadError):
        MpiJobSpec(job_id="j", work_per_iteration=0)
    with pytest.raises(WorkloadError):
        MpiJobSpec(job_id="j", allreduce_bytes=0)


def test_job_validation():
    cluster = make_cluster()
    spec = MpiJobSpec(job_id="j")
    with pytest.raises(WorkloadError):
        run_mpi_job(cluster, [], spec)
    with pytest.raises(WorkloadError):
        run_mpi_job(cluster, ["p0c0", "p0c0"], spec)


def test_noiseless_duration_is_iterations_times_work_plus_collectives():
    cluster = make_cluster()
    spec = MpiJobSpec(job_id="j", iterations=10, work_per_iteration=0.2)
    result = run_mpi_job(cluster, cluster.compute_nodes()[:4], spec)
    assert result.iterations == 10
    assert result.ranks == 4
    assert len(result.iteration_times) == 10
    # Duration = 10 x (0.2 + small collective cost).
    assert result.duration == pytest.approx(2.0, rel=0.05)
    assert result.duration > 2.0  # the collectives are not free


def test_single_rank_job():
    cluster = make_cluster()
    spec = MpiJobSpec(job_id="solo", iterations=5, work_per_iteration=0.1)
    result = run_mpi_job(cluster, ["p0c0"], spec)
    assert result.duration == pytest.approx(0.5, rel=0.05)


def test_cpu_fraction_stretches_compute():
    cluster = make_cluster()
    spec = MpiJobSpec(job_id="taxed", iterations=10, work_per_iteration=0.2)
    noisy = run_mpi_job(cluster, cluster.compute_nodes()[:2], spec,
                        noise=NoiseProfile(cpu_fraction=0.10))
    clean_cluster = make_cluster()
    clean = run_mpi_job(clean_cluster, clean_cluster.compute_nodes()[:2], spec)
    assert noisy.duration / clean.duration == pytest.approx(1.0 / 0.9, rel=0.02)


def test_noise_amplification_grows_with_ranks():
    """The same per-node noise costs more at scale: the barrier waits for
    the slowest rank (averaged over seeds to tame sampling noise)."""
    noise = NoiseProfile(cpu_fraction=0.0, interrupt_rate_hz=0.5, interrupt_cost=0.01)
    spec = MpiJobSpec(job_id="amp", iterations=40, work_per_iteration=0.2)

    def overhead(ranks: int) -> float:
        total = 0.0
        for seed in (0, 1, 2):
            cluster = make_cluster(seed=seed)
            noisy = run_mpi_job(cluster, cluster.compute_nodes()[:ranks], spec, noise=noise)
            clean_cluster = make_cluster(seed=seed)
            clean = run_mpi_job(clean_cluster, clean_cluster.compute_nodes()[:ranks], spec)
            total += noisy.duration / clean.duration - 1.0
        return total / 3

    assert overhead(8) > 1.5 * overhead(1)


def test_noise_profile_from_kernel_timings():
    t = KernelTimings()
    noise = NoiseProfile.from_kernel(t)
    assert noise.cpu_fraction == DAEMON_CPU_FRACTION
    assert noise.interrupt_rate_hz == pytest.approx(1 / 5.0 + 1 / 30.0)
    assert NoiseProfile.none().interrupt_rate_hz == 0.0


def test_simulated_table4_shape():
    from repro.experiments.linpack_impact import run_simulated_table4

    rows = run_simulated_table4(cpu_counts=(4, 64), iterations=15)
    assert all(0.0 < r["overhead_pct"] < 2.5 for r in rows)
    assert rows[1]["overhead_pct"] > rows[0]["overhead_pct"]


def test_deterministic_for_seed():
    spec = MpiJobSpec(job_id="det", iterations=5, work_per_iteration=0.1)
    noise = NoiseProfile(cpu_fraction=0.01, interrupt_rate_hz=1.0, interrupt_cost=0.002)

    def run(seed):
        cluster = make_cluster(seed=seed)
        return run_mpi_job(cluster, cluster.compute_nodes()[:4], spec, noise=noise).duration

    assert run(7) == run(7)
    assert run(7) != run(8)
