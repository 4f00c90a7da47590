"""Serving campaign harness tests (reduced request budget)."""

import dataclasses

import pytest

from repro.experiments.serve_campaign import (
    REQUEST_CLASSES,
    ServeResult,
    build_profile,
    check_serve,
    render_serve,
    run_serve_campaign,
)


@pytest.fixture(scope="module")
def small_campaign():
    return run_serve_campaign(requests=20_000, seed=3, rate=2000.0)


def test_gates_pass_through_kill_and_recover(small_campaign):
    assert check_serve(small_campaign) == []


def test_request_budget_and_outcomes(small_campaign):
    r = small_campaign
    assert r.generated >= 20_000
    assert r.completed + r.rejected + r.failed == r.generated
    assert set(r.classes) == {c.name for c in REQUEST_CLASSES}
    assert r.killed_node is not None
    assert r.drift == 0


def test_render_mentions_every_class(small_campaign):
    text = render_serve(small_campaign)
    for cls in REQUEST_CLASSES:
        assert cls.name in text
    assert "capacity drift: 0" in text


def test_campaign_is_deterministic():
    a = run_serve_campaign(requests=3_000, seed=9, rate=1000.0, kill=False)
    b = run_serve_campaign(requests=3_000, seed=9, rate=1000.0, kill=False)
    assert a.classes == b.classes
    assert a.events_executed == b.events_executed


def test_check_flags_violations(small_campaign):
    import dataclasses

    broken = dataclasses.replace(small_campaign, drift=2, generated=10)
    problems = check_serve(broken)
    assert any("drift" in p for p in problems)
    assert any("generated" in p for p in problems)


def test_check_flags_requests_left_after_the_drain():
    """Requests stranded in a queue fail the gate even when 97 % completed."""
    result = ServeResult(
        requests=100, generated=100, completed=97, drift=0, unfinished=3,
        classes={"browse": {"completed": 97, "slo_p99": 0.5, "p99": 0.1}},
    )
    assert check_serve(result) == [
        "3 requests still queued or in service after the drain"]
    assert check_serve(dataclasses.replace(result, unfinished=0)) == []


def test_profiles_preserve_mean_rate():
    for kind in ("poisson", "bursty", "diurnal"):
        assert build_profile(kind, 500.0).mean_rate() == pytest.approx(500.0)
