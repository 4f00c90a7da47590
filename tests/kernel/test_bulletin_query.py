"""Relational query layer: AST, parser, executor, logical tables (pure)."""

import pytest

from repro.errors import KernelError
from repro.kernel.bulletin.query import (
    Agg,
    Query,
    base_tables,
    execute,
    execute_on,
    parse,
)

NODES = [
    {"_key": "a", "_partition": "p0", "state": "up", "cpu_pct": 10.0, "reporting": 1},
    {"_key": "b", "_partition": "p0", "state": "up", "cpu_pct": 30.0, "reporting": 1},
    {"_key": "c", "_partition": "p1", "state": "down", "cpu_pct": None, "reporting": 0},
    {"_key": "d", "_partition": "p1", "state": "up", "reporting": 1},
]


# -- parser ------------------------------------------------------------------
def test_parse_full_clause_set():
    q = parse(
        "select state, count(*) as n from nodes where state == 'up' "
        "group by state order by n desc, state limit 3 as of 12.5"
    )
    assert q.table == "nodes"
    assert q.group_by == ("state",)
    assert q.aggs == (Agg("count", "*", "n"),)
    assert q.where == {"state": "up"}
    assert q.order_by == (("n", True), ("state", False))
    assert q.limit == 3
    assert q.as_of == 12.5


def test_parse_plain_select_and_star():
    q = parse("select _key, cpu_pct from nodes")
    assert q.select == ("_key", "cpu_pct") and not q.grouped
    assert parse("select * from jobs").select == ()


def test_parse_where_operators_and_lists():
    q = parse("select * from nodes where cpu_pct >= 10 and state in ['up', 'draining']")
    assert q.where["cpu_pct"] == {"op": ">=", "value": 10}
    assert q.where["state"] == {"op": "in", "value": ["up", "draining"]}


def test_parse_rejects_garbage():
    with pytest.raises(KernelError):
        parse("select median(cpu_pct) from nodes")
    with pytest.raises(KernelError):
        parse("select * from nodes order")


def test_any_other_table_name_is_a_physical_table():
    """A name outside the derived catalog is read as itself: an empty
    physical table answers no rows; a table that is not a name raises."""
    q = parse("select * from nowhere")
    assert base_tables("nowhere") == ("nowhere",)
    assert execute_on(q, lambda t: []) == []
    rows = [{"_key": "a", "state": "up"}, {"_key": "b", "state": "down"}]
    assert execute_on(Query("node_state", {"state": "up"}), {"node_state": rows}.get) == rows[:1]
    for table in (7, "", None, ["nodes"]):
        with pytest.raises(KernelError, match="'table'"):
            Query(table=table).validate()


def test_validate_rules():
    with pytest.raises(KernelError):
        Query(table="nodes", aggs=(Agg("sum", "*"),)).validate()
    with pytest.raises(KernelError):
        Query(table="nodes", select=("cpu_pct",), aggs=(Agg("count", "*"),)).validate()
    with pytest.raises(KernelError):
        Query(table="nodes", aggs=(Agg("sum", "x", "v"), Agg("avg", "y", "v"))).validate()
    with pytest.raises(KernelError):
        Query(table="nodes", limit=-1).validate()
    for as_of in ("x", True):
        with pytest.raises(KernelError, match="as_of"):
            Query(table="nodes", as_of=as_of).validate()
    Query(table="nodes", as_of=3).validate()


def test_query_payload_round_trip():
    q = parse("select state, avg(cpu_pct) as cpu from nodes group by state limit 2")
    assert Query.from_payload(q.to_payload()) == q
    assert q.live() is q  # no as_of -> same object
    past = parse("select * from nodes as of 3.0")
    assert past.live().as_of is None


# -- executor ----------------------------------------------------------------
def test_execute_filter_and_project():
    q = Query(table="nodes", where={"state": "up"}, select=("_key",))
    assert execute(q, NODES) == [{"_key": "a"}, {"_key": "b"}, {"_key": "d"}]


def test_execute_aggregates_skip_missing_and_null():
    q = Query(
        table="nodes",
        aggs=(
            Agg("count", "*", "n"),
            Agg("count", "cpu_pct", "n_cpu"),
            Agg("sum", "cpu_pct", "s"),
            Agg("avg", "cpu_pct", "a"),
            Agg("min", "cpu_pct", "lo"),
            Agg("max", "cpu_pct", "hi"),
        ),
    )
    [row] = execute(q, NODES)
    assert row == {"n": 4, "n_cpu": 2, "s": 40.0, "a": 20.0, "lo": 10.0, "hi": 30.0}


def test_execute_aggregate_over_no_numeric_values():
    q = Query(table="nodes", aggs=(Agg("sum", "cpu_pct", "s"), Agg("avg", "cpu_pct", "a")))
    [row] = execute(q, [{"_key": "x"}])
    assert row["s"] == 0.0 and row["a"] is None


def test_execute_group_order_limit():
    q = Query(
        table="nodes",
        group_by=("state",),
        aggs=(Agg("count", "*", "n"),),
        order_by=(("n", True),),
        limit=1,
    )
    assert execute(q, NODES) == [{"state": "up", "n": 3}]


def test_execute_grouped_over_empty_input_is_empty():
    q = Query(table="nodes", group_by=("state",), aggs=(Agg("count", "*", "n"),))
    assert execute(q, []) == []


def test_execute_order_by_mixed_types_is_total():
    q = Query(table="nodes", select=("_key", "cpu_pct"), order_by=(("cpu_pct", False),))
    keys = [r["_key"] for r in execute(q, NODES)]
    assert keys == ["a", "b", "c", "d"]  # numbers first, missing/None last (stable)


# -- logical tables ----------------------------------------------------------
def _physical(metrics, states):
    tables = {"node_metrics": metrics, "node_state": states, "apps": []}

    def get_rows(table):
        return tables.get(table, [])

    return get_rows


def test_nodes_full_outer_join_and_reporting_flag():
    metrics = [{"_key": "a", "_partition": "p0", "_updated_at": 5.0, "cpu_pct": 1.0}]
    states = [
        {"_key": "a", "_partition": "p0", "_updated_at": 7.0, "state": "up"},
        {"_key": "b", "_partition": "p0", "_updated_at": 3.0, "state": "down"},
    ]
    rows = execute_on(Query(table="nodes"), _physical(metrics, states))
    by_key = {r["_key"]: r for r in rows}
    assert set(by_key) == {"a", "b"}
    assert by_key["a"]["reporting"] == 1 and by_key["a"]["_updated_at"] == 7.0
    assert by_key["a"]["cpu_pct"] == 1.0 and by_key["a"]["state"] == "up"
    assert by_key["b"]["reporting"] == 0 and "cpu_pct" not in by_key["b"]


def test_services_projection_drops_blobs():
    health = [{
        "_key": "gsd@p0", "_partition": "p0", "_updated_at": 1.0,
        "service": "gsd", "node": "p0s0", "partition": "p0", "time": 1.0,
        "counters": {"big": 1}, "latency": {"p95": 2},
    }]
    tables = {"kernel_health": health}
    rows = execute_on(Query(table="services"), lambda t: tables.get(t, []))
    assert rows[0]["service"] == "gsd" and "counters" not in rows[0]
    full = execute_on(Query(table="health"), lambda t: tables.get(t, []))
    assert "counters" in full[0]


def test_base_table_catalog():
    assert base_tables("nodes") == ("node_metrics", "node_state")
    assert base_tables("jobs") == ("apps",)
    assert base_tables("services") == base_tables("health") == ("kernel_health",)
