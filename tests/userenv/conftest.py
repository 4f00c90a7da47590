import pytest

from repro.cluster import ClusterSpec, FaultInjector
from repro.kernel import KernelTimings
from repro.sim import Simulator, drive
from repro.userenv.construction import ConstructionTool
from repro.userenv.pws import PoolSpec, install_pws


@pytest.fixture()
def sim():
    return Simulator(seed=21)


@pytest.fixture()
def kernel(sim):
    """3 partitions x (server + backup + 3 computes); short heartbeats so
    fault-tolerance paths run quickly in tests."""
    tool = ConstructionTool(sim)
    k = tool.build(
        ClusterSpec.build(partitions=3, computes=3),
        timings=KernelTimings(heartbeat_interval=5.0),
    )
    k.construction_tool = tool  # convenience for tests
    sim.run(until=6.0)  # detectors have exported at least once
    return k


@pytest.fixture()
def injector(kernel):
    return FaultInjector(kernel.cluster)


@pytest.fixture()
def pws(kernel, sim):
    """PWS with two pools: batch (p0+p1 computes/backups), interactive (p2)."""
    computes = kernel.cluster.compute_nodes()
    batch = [n for n in computes if n.startswith(("p0", "p1"))]
    interactive = [n for n in computes if n.startswith("p2")]
    server = install_pws(
        kernel,
        [PoolSpec("batch", batch), PoolSpec("interactive", interactive, policy="sjf")],
    )
    sim.run(until=sim.now + 2.0)  # server ready (inventory + subscriptions)
    return server


def pws_rpc(kernel, sim, mtype, payload, timeout=5.0):
    node = kernel.placement[("pws", "p0")]
    sig = kernel.cluster.transport.rpc("p0c0", node, "pws", mtype, payload, timeout=timeout)
    return drive(sim, sig, max_time=timeout + 1)
