"""Rolling kernel restart: maintenance without losing state or coverage."""

import pytest

from repro.errors import UserEnvError
from repro.sim import Simulator, drive
from repro.userenv.construction import ConstructionTool
from tests.kernel.test_events import publish, subscribe_collector


def test_rolling_restart_all_partitions(kernel, sim):
    tool = kernel.construction_tool
    report = tool.rolling_kernel_restart()
    assert report["partitions"] == 3
    assert report["services_restarted"] == 9  # 3 services x 3 partitions
    health = tool.health_report()
    assert health["kernel_healthy"]
    # The restarted instances are genuinely fresh processes.
    assert sim.trace.records("construct.rolling_restart")


def test_subscriptions_survive_rolling_restart(kernel, sim):
    """ES instances reload their checkpointed registries: a consumer
    subscribed before the restart keeps receiving afterwards."""
    inbox = subscribe_collector(kernel, sim, "p0c0", "durable", types=("custom.x",))
    sim.run(until=sim.now + 1.0)  # checkpoint lands
    kernel.construction_tool.rolling_kernel_restart()
    publish(kernel, sim, "p0c1", "custom.x", {"phase": "after"})
    sim.run(until=sim.now + 1.0)
    assert [e.data["phase"] for e in inbox] == ["after"]


def test_rolling_restart_does_not_trip_node_level_alarms(kernel, sim):
    kernel.construction_tool.rolling_kernel_restart()
    sim.run(until=sim.now + 40.0)
    # The restart may race the GSD's own supervision (which heals the gap
    # harmlessly) but must never escalate to node/network diagnoses.
    assert sim.trace.records("failure.diagnosed", kind="node") == []
    assert sim.trace.records("failure.diagnosed", kind="network") == []
    assert sim.trace.records("recovery.failed") == []


def test_rolling_restart_requires_boot():
    tool = ConstructionTool(Simulator())
    with pytest.raises(UserEnvError):
        tool.rolling_kernel_restart()


def test_concurrent_gsd_supervision_does_not_double_start(kernel, sim):
    """If the GSD's check (5 s period in this fixture) fires inside the
    restart window, both paths must coexist — the liveness guard makes
    whichever starter comes second a no-op."""
    tool = kernel.construction_tool
    for _ in range(3):
        tool.rolling_kernel_restart()
        sim.run(until=sim.now + 6.0)
    assert tool.health_report()["kernel_healthy"]
