"""Parallel process management: jobs, services, tree-fanout commands."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.kernel.ppm.jobs import TaskSpec
from repro.kernel.ppm.parallel import BRANCHING, split_targets, subtree_timeout
from repro.sim import drive

# -- task spec unit tests ----------------------------------------------------


def test_task_spec_validation():
    with pytest.raises(SchedulingError):
        TaskSpec(job_id="", cpus=1, duration=1.0)
    with pytest.raises(SchedulingError):
        TaskSpec(job_id="j", cpus=0, duration=1.0)
    with pytest.raises(SchedulingError):
        TaskSpec(job_id="j", cpus=1, duration=-1.0)


def test_task_spec_payload_roundtrip():
    spec = TaskSpec(job_id="j1", cpus=2, duration=10.0, user="alice")
    assert TaskSpec.from_payload(spec.to_payload()) == spec


# -- fan-out splitting unit tests ---------------------------------------------


def test_split_targets_includes_self():
    run_local, branches = split_targets(["a", "b", "c", "me", "d"], "me")
    assert run_local
    flat = [n for b in branches for n in b]
    assert sorted(flat) == ["a", "b", "c", "d"]


def test_split_targets_without_self():
    run_local, branches = split_targets(["a", "b"], "me")
    assert not run_local
    assert [n for b in branches for n in b] == ["a", "b"]


def test_split_single_target():
    run_local, branches = split_targets(["me"], "me")
    assert run_local and branches == []


def test_split_rejects_duplicates():
    from repro.errors import KernelError

    with pytest.raises(KernelError):
        split_targets(["a", "a"], "me")


@given(st.lists(st.integers(0, 1000), unique=True, min_size=1, max_size=64).map(lambda xs: [f"n{x}" for x in xs]))
def test_property_split_partitions_exactly(targets):
    run_local, branches = split_targets(targets, "coordinator")
    flat = [n for b in branches for n in b]
    assert sorted(flat) == sorted(targets)  # coordinator not in targets here
    assert not run_local
    assert len(branches) <= BRANCHING


def test_subtree_timeout_grows_logarithmically():
    base = 1.0
    assert subtree_timeout(base, 1) == pytest.approx(1.0)
    t64 = subtree_timeout(base, 64)
    t128 = subtree_timeout(base, 128)
    assert t128 - t64 == pytest.approx(base)  # one more level of depth


# -- job lifecycle integration -------------------------------------------------


def test_spawn_job_allocates_cpus_and_completes(kernel, sim):
    client = kernel.client("p0s0")
    reply = drive(sim, client.spawn_job("p0c0", "job-1", cpus=3, duration=50.0))
    assert reply["ok"]
    node = kernel.cluster.node("p0c0")
    assert node.busy_cpus == 3
    assert kernel.cluster.hostos("p0c0").process_alive("job.job-1")
    sim.run(until=sim.now + 60.0)
    assert node.busy_cpus == 0
    assert not kernel.cluster.hostos("p0c0").process_alive("job.job-1")
    ppm = kernel.live_daemon("ppm", "p0c0")
    assert ppm.tasks["job-1"].state.value == "done"


def test_spawn_job_insufficient_cpus(kernel, sim):
    client = kernel.client("p0s0")
    reply = drive(sim, client.spawn_job("p0c0", "big", cpus=5, duration=1.0))
    assert reply["ok"] is False
    assert "insufficient" in reply["error"]
    assert kernel.cluster.node("p0c0").busy_cpus == 0


def test_duplicate_running_job_rejected(kernel, sim):
    client = kernel.client("p0s0")
    assert drive(sim, client.spawn_job("p0c0", "j", cpus=1, duration=100.0))["ok"]
    reply = drive(sim, client.spawn_job("p0c0", "j", cpus=1, duration=100.0))
    assert reply["ok"] is False


def test_kill_job_releases_cpus(kernel, sim):
    client = kernel.client("p0s0")
    drive(sim, client.spawn_job("p0c0", "j", cpus=2, duration=1000.0))
    reply = drive(sim, client.kill_job("p0c0", "j"))
    assert reply["ok"]
    assert kernel.cluster.node("p0c0").busy_cpus == 0
    ppm = kernel.live_daemon("ppm", "p0c0")
    assert ppm.tasks["j"].state.value == "killed"
    reply = drive(sim, client.kill_job("p0c0", "j"))
    assert reply["ok"] is False


def test_node_crash_fails_running_task(kernel, sim, injector):
    client = kernel.client("p0s0")
    drive(sim, client.spawn_job("p0c0", "j", cpus=2, duration=1000.0))
    injector.crash_node("p0c0")
    ppm = kernel.live_daemon("ppm", "p0c0")
    assert ppm.tasks["j"].state.value == "killed"
    assert kernel.cluster.node("p0c0").busy_cpus == 0


def test_task_updates_reach_app_detector_and_events(kernel, sim):
    from repro.kernel.events import types as ev
    from tests.kernel.test_events import subscribe_collector

    inbox = subscribe_collector(kernel, sim, "p0s0", "appwatch",
                                types=(ev.APP_STARTED, ev.APP_EXITED))
    client = kernel.client("p0s0")
    drive(sim, client.spawn_job("p0c0", "j1", cpus=1, duration=5.0))
    sim.run(until=sim.now + 10.0)
    assert [e.type for e in inbox] == [ev.APP_STARTED, ev.APP_EXITED]
    db = kernel.bulletin("p0")
    rows = db.store.query("apps", {"job_id": "j1"})
    assert rows and rows[0]["state"] == "done"


# -- parallel commands -----------------------------------------------------


def test_parallel_noop_reaches_all_targets(kernel, sim):
    targets = [n for n in kernel.cluster.nodes]
    reply = drive(sim, kernel.client("p0s0").parallel_command("noop", targets), max_time=30.0)
    assert reply is not None
    assert reply["errors"] == {}
    assert sorted(reply["results"]) == sorted(targets)


def test_parallel_report_load(kernel, sim):
    drive(sim, kernel.client("p0s0").spawn_job("p0c1", "j", cpus=2, duration=500.0))
    reply = drive(sim, kernel.client("p0s0").parallel_command(
        "report_load", ["p0c0", "p0c1"]), max_time=30.0)
    assert reply["results"]["p0c0"]["cpus_free"] == 4
    assert reply["results"]["p0c1"]["cpus_free"] == 2
    assert reply["results"]["p0c1"]["tasks_running"] == 1


def test_parallel_spawn_and_cleanup(kernel, sim):
    targets = ["p0c0", "p0c1", "p1c0"]
    reply = drive(sim, kernel.client("p0s0").parallel_command(
        "spawn_job", targets, args={"job_id": "par", "cpus": 1, "duration": 900.0}),
        max_time=30.0)
    assert all(r["ok"] for r in reply["results"].values())
    assert all(kernel.cluster.node(n).busy_cpus == 1 for n in targets)
    reply = drive(sim, kernel.client("p0s0").parallel_command("cleanup", targets), max_time=30.0)
    assert sum(r["killed"] for r in reply["results"].values()) == 3
    assert all(kernel.cluster.node(n).busy_cpus == 0 for n in targets)


def test_parallel_command_reports_unreachable_nodes(kernel, sim, injector):
    injector.crash_node("p1c1")
    reply = drive(sim, kernel.client("p0s0").parallel_command(
        "noop", ["p0c0", "p1c1"]), max_time=60.0)
    assert "p0c0" in reply["results"]
    assert reply["errors"].get("p1c1") == "unreachable"


def test_parallel_start_stop_service(kernel, sim, injector):
    injector.kill_process("p0c0", "detector")
    reply = drive(sim, kernel.client("p0s0").parallel_command(
        "start_service", ["p0c0"], args={"service": "detector"}), max_time=30.0)
    assert reply["results"]["p0c0"]["ok"]
    assert kernel.cluster.hostos("p0c0").process_alive("detector")
    reply = drive(sim, kernel.client("p0s0").parallel_command(
        "stop_service", ["p0c0"], args={"service": "detector"}), max_time=30.0)
    assert reply["results"]["p0c0"]["ok"]
    assert not kernel.cluster.hostos("p0c0").process_alive("detector")


def test_unknown_parallel_command(kernel, sim):
    reply = drive(sim, kernel.client("p0s0").parallel_command("frobnicate", ["p0c0"]), max_time=30.0)
    assert reply["results"]["p0c0"]["ok"] is False
