import pytest

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.kernel import KernelTimings, PhoenixKernel
from repro.sim import Simulator


@pytest.fixture()
def sim():
    return Simulator(seed=11)


@pytest.fixture()
def kernel(sim):
    """Booted kernel on 3 partitions x (server + backup + 2 computes)."""
    cluster = Cluster(sim, ClusterSpec.build(partitions=3, computes=2))
    k = PhoenixKernel(cluster)
    k.boot()
    sim.run(until=1.0)  # let startup coroutines settle
    return k


@pytest.fixture()
def cluster(kernel):
    return kernel.cluster


@pytest.fixture()
def injector(cluster):
    return FaultInjector(cluster)


@pytest.fixture()
def fast_kernel(sim):
    """Kernel with a short heartbeat interval for fast failure tests."""
    cluster = Cluster(sim, ClusterSpec.build(partitions=3, computes=2))
    timings = KernelTimings(heartbeat_interval=5.0, deadline_grace=0.1)
    k = PhoenixKernel(cluster, timings=timings)
    k.boot()
    sim.run(until=1.0)
    return k
