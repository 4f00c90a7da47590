"""KernelTimings, DaemonRegistry, View, and miscellaneous kernel units."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.errors import KernelError, ServiceUnavailable
from repro.kernel import KernelTimings, timings
from repro.kernel.daemon import DaemonRegistry
from repro.kernel.group.metagroup import View

# -- timings -----------------------------------------------------------------


def test_default_timings_match_paper_calibration():
    t = KernelTimings()
    assert t.heartbeat_interval == 30.0
    assert t.service_check_period == 30.0
    assert timings.PROBE_WINDOW == pytest.approx(0.29)
    assert timings.PING_TIMEOUT < timings.PROBE_WINDOW
    assert timings.NIC_ANALYSIS_DELAY == pytest.approx(348e-6)
    assert timings.LOCAL_CHECK_DELAY == pytest.approx(12e-6)


def test_spawn_time_lookup_and_fallback():
    t = KernelTimings()
    assert t.spawn_time("gsd") == 2.0
    assert t.spawn_time("wd") == 0.1
    assert t.spawn_time("ckpt.replica") == t.spawn_time("ckpt")
    assert t.spawn_time("pws") == timings.DEFAULT_USER_SPAWN_TIME


def test_timings_validation():
    with pytest.raises(KernelError):
        KernelTimings(heartbeat_interval=0)
    with pytest.raises(KernelError):
        KernelTimings(deadline_grace=0)


def test_every_knob_has_a_caller():
    """A ``KernelTimings`` field is a knob somebody turns: each one is
    passed by keyword to a ``KernelTimings(...)`` call outside this file.
    A value nobody sets belongs with the module constants instead."""
    root = Path(__file__).resolve().parents[2]
    turned: set[str] = set()
    for top in ("src", "benchmarks", "examples", "tests"):
        for path in (root / top).rglob("*.py"):
            text = path.read_text()
            if path == Path(__file__).resolve() or "KernelTimings(" not in text:
                continue
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "KernelTimings":
                    turned.update(kw.arg for kw in node.keywords if kw.arg)
    fields = {f.name for f in dataclasses.fields(KernelTimings)}
    assert len(fields) == 5
    assert fields - turned == set()


# -- registry ----------------------------------------------------------------


def test_registry_create_unknown_service():
    registry = DaemonRegistry()
    with pytest.raises(ServiceUnavailable):
        registry.create("nope", None, "n1")


def test_registry_known_lists_registrations():
    registry = DaemonRegistry()
    registry.register("b", lambda k, n: None)
    registry.register("a", lambda k, n: None)
    assert registry.known() == ["a", "b"]


def test_register_user_service_rejects_kernel_names(kernel):
    for name in ("gsd", "es", "db", "ckpt", "wd", "ppm", "detector", "config", "security"):
        with pytest.raises(KernelError):
            kernel.register_user_service(name, lambda k, n: None, "p0")


# -- views ------------------------------------------------------------------


def test_view_roles_and_payload_roundtrip():
    view = View(view_id=3, members=(("p0", "n0"), ("p1", "n1"), ("p2", "n2")))
    assert view.leader() == ("p0", "n0")
    assert view.princess() == ("p1", "n1")
    assert view.contains_node("n2")
    assert not view.contains_node("nx")
    assert View.from_payload(view.to_payload()) == view


def test_single_member_view_princess_is_leader():
    view = View(view_id=1, members=(("p0", "n0"),))
    assert view.princess() == view.leader()


# -- WD local supervision -----------------------------------------------------


def test_wd_restarts_dead_detector(fast_kernel, sim):
    from repro.cluster import FaultInjector

    injector = FaultInjector(fast_kernel.cluster)
    sim.run(until=6.0)
    injector.kill_process("p1c1", "detector")
    sim.run(until=sim.now + 8.0)  # next WD beat cycle restarts it
    assert fast_kernel.cluster.hostos("p1c1").process_alive("detector")
    marks = sim.trace.records("failure.recovered", component="detector", node="p1c1")
    assert marks and marks[0]["kind"] == "process"


def test_wd_restarts_dead_ppm(fast_kernel, sim):
    from repro.cluster import FaultInjector

    injector = FaultInjector(fast_kernel.cluster)
    sim.run(until=6.0)
    injector.kill_process("p1c1", "ppm")
    sim.run(until=sim.now + 8.0)
    assert fast_kernel.cluster.hostos("p1c1").process_alive("ppm")
