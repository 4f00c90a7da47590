"""Predicate language unit and integration tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernel.query import matches, validate_where
from repro.sim import drive

# -- matcher unit tests --------------------------------------------------------


def test_plain_values_mean_equality():
    assert matches({"a": 1}, {"a": 1})
    assert not matches({"a": 1}, {"a": 2})
    assert not matches({"a": 1}, {})


def test_empty_or_none_where_matches_everything():
    assert matches(None, {"x": 1})
    assert matches({}, {})


def test_comparison_operators():
    row = {"cpu": 75.0}
    assert matches({"cpu": {"op": ">", "value": 50}}, row)
    assert not matches({"cpu": {"op": ">", "value": 80}}, row)
    assert matches({"cpu": {"op": ">=", "value": 75}}, row)
    assert matches({"cpu": {"op": "<", "value": 80}}, row)
    assert matches({"cpu": {"op": "<=", "value": 75}}, row)
    assert matches({"cpu": {"op": "!=", "value": 75.1}}, row)
    assert not matches({"cpu": {"op": "==", "value": 75.1}}, row)


def test_in_and_contains():
    assert matches({"state": {"op": "in", "value": ["down", "failed"]}}, {"state": "down"})
    assert not matches({"state": {"op": "in", "value": ["down"]}}, {"state": "up"})
    assert matches({"name": {"op": "contains", "value": "web"}}, {"name": "shop-web-1"})
    assert not matches({"name": {"op": "contains", "value": "db"}}, {"name": "shop-web-1"})


def test_missing_field_semantics():
    assert not matches({"x": {"op": ">", "value": 0}}, {})
    assert matches({"x": {"op": "!=", "value": 5}}, {})  # missing is "not equal"


def test_type_errors_are_non_matches():
    assert not matches({"cpu": {"op": ">", "value": 50}}, {"cpu": "not-a-number"})
    assert not matches({"name": {"op": "contains", "value": "x"}}, {"name": 42})


def test_multiple_conditions_conjunctive():
    where = {"cpu": {"op": ">", "value": 50}, "state": "up"}
    assert matches(where, {"cpu": 60, "state": "up"})
    assert not matches(where, {"cpu": 60, "state": "down"})
    assert not matches(where, {"cpu": 40, "state": "up"})


def test_validate_where():
    validate_where(None)
    validate_where({"a": 1, "b": {"op": "<", "value": 3}})
    with pytest.raises(KernelError):
        validate_where("not-a-dict")  # type: ignore[arg-type]
    with pytest.raises(KernelError):
        validate_where({"": 1})
    with pytest.raises(KernelError):
        validate_where({"a": {"op": "~", "value": 1}})
    with pytest.raises(KernelError):
        validate_where({"a": {"op": "=="}})


@given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
def test_property_comparison_ops_consistent(actual, threshold):
    row = {"v": actual}
    assert matches({"v": {"op": ">", "value": threshold}}, row) == (actual > threshold)
    assert matches({"v": {"op": "<=", "value": threshold}}, row) == (actual <= threshold)


# -- integration: operators over the federation -------------------------------


def test_bulletin_query_with_operator_where(kernel, sim):
    from repro.kernel import ports

    db = kernel.placement[("db", "p0")]
    for key, cpu in (("a", 10.0), ("b", 80.0), ("c", 95.0)):
        drive(sim, kernel.cluster.transport.rpc(
            "p0c0", db, ports.DB, ports.DB_PUT,
            {"table": "load", "key": key, "row": {"cpu": cpu}}))
    reply = drive(sim, kernel.client("p0c0").query_bulletin(
        "load", where={"cpu": {"op": ">", "value": 50}}))
    assert sorted(r["_key"] for r in reply["rows"]) == ["b", "c"]


def test_bulletin_invalid_where_rejected_cleanly(kernel, sim):
    reply = drive(sim, kernel.client("p0c0").query_bulletin(
        "load", where={"x": {"op": "~", "value": 1}}))
    assert "error" in reply and reply["rows"] == [] and reply["partitions_missing"] == []
    assert sim.trace.counter("db.execs") == 0


def test_event_subscription_with_operator_filter(kernel, sim):
    from tests.kernel.test_events import publish, subscribe_collector

    inbox = subscribe_collector(
        kernel, sim, "p0c0", "hot",
        where={"cpu": {"op": ">", "value": 90}})
    publish(kernel, sim, "p0c1", "node.failure", {"cpu": 50})
    publish(kernel, sim, "p0c1", "node.failure", {"cpu": 95})
    sim.run(until=sim.now + 0.5)
    assert [e.data["cpu"] for e in inbox] == [95]
