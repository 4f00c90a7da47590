"""Data bulletin: store queries + federation single access point (Figure 5)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernel import ports
from repro.kernel.bulletin.store import BulletinStore
from repro.sim import drive

# -- store unit tests --------------------------------------------------------


def test_store_put_get_query():
    store = BulletinStore()
    store.put("t", "k1", {"cpu": 10}, now=1.0, partition="p0")
    store.put("t", "k2", {"cpu": 20}, now=2.0, partition="p0")
    row = store.get("t", "k1")
    assert row["cpu"] == 10
    assert row["_key"] == "k1" and row["_partition"] == "p0" and row["_updated_at"] == 1.0
    assert [r["_key"] for r in store.query("t")] == ["k1", "k2"]


def test_store_query_where_clause():
    store = BulletinStore()
    store.put("t", "a", {"state": "up"}, now=0, partition="p0")
    store.put("t", "b", {"state": "down"}, now=0, partition="p0")
    assert [r["_key"] for r in store.query("t", {"state": "down"})] == ["b"]
    assert store.query("t", {"state": "nope"}) == []
    assert store.query("missing-table") == []


def test_store_where_distinguishes_missing_field():
    store = BulletinStore()
    store.put("t", "a", {"x": None}, now=0, partition="p0")
    store.put("t", "b", {}, now=0, partition="p0")
    assert [r["_key"] for r in store.query("t", {"x": None})] == ["a"]


def test_store_put_overwrites_by_key():
    store = BulletinStore()
    store.put("t", "a", {"v": 1}, now=0, partition="p0")
    store.put("t", "a", {"v": 2}, now=5, partition="p0")
    assert store.row_count("t") == 1
    assert store.get("t", "a")["v"] == 2
    assert store.get("t", "a")["_updated_at"] == 5


def test_store_rows_are_copies():
    store = BulletinStore()
    store.put("t", "a", {"v": {"deep": 1}}, now=0, partition="p0")
    store.query("t")[0]["v"]["deep"] = 99
    assert store.get("t", "a")["v"]["deep"] == 1


def test_store_delete_and_expire():
    store = BulletinStore()
    store.put("t", "a", {}, now=0, partition="p0")
    store.put("t", "b", {}, now=10, partition="p0")
    assert store.delete("t", "a") is True
    assert store.delete("t", "a") is False
    assert store.expire("t", max_age=5.0, now=20.0) == 1
    assert store.row_count("t") == 0


def test_store_validation():
    with pytest.raises(KernelError):
        BulletinStore().put("", "k", {}, now=0, partition="p0")
    with pytest.raises(KernelError):
        BulletinStore().put("t", "", {}, now=0, partition="p0")


@given(
    st.lists(
        st.tuples(st.sampled_from("abc"), st.sampled_from(["up", "down"])),
        min_size=1, max_size=40,
    )
)
def test_property_query_equals_filtered_latest_state(writes):
    store = BulletinStore()
    latest = {}
    for i, (key, state) in enumerate(writes):
        store.put("t", key, {"state": state}, now=float(i), partition="p0")
        latest[key] = state
    for state in ("up", "down"):
        expected = sorted(k for k, s in latest.items() if s == state)
        got = [r["_key"] for r in store.query("t", {"state": state})]
        assert got == expected


# -- federation integration -----------------------------------------------


def put_row(kernel, sim, partition, key, row):
    node = kernel.placement[("db", partition)]
    src = kernel.cluster.partition(partition).computes[0]
    drive(sim, kernel.cluster.transport.rpc(
        src, node, ports.DB, ports.DB_PUT, {"table": "custom", "key": key, "row": row}))


def test_global_query_merges_all_partitions(kernel, sim):
    for pid in ("p0", "p1", "p2"):
        put_row(kernel, sim, pid, f"row-{pid}", {"origin": pid})
    client = kernel.client("p2c1")
    reply = drive(sim, client.query_bulletin("custom", partition="p0"))
    assert reply is not None
    assert reply["partitions_missing"] == []
    assert sorted(r["_partition"] for r in reply["rows"]) == ["p0", "p1", "p2"]


def test_any_instance_is_an_access_point(kernel, sim):
    put_row(kernel, sim, "p1", "only-row", {"origin": "p1"})
    for entry in ("p0", "p1", "p2"):
        reply = drive(sim, kernel.client("p0c0").query_bulletin("custom", partition=entry))
        assert [r["_key"] for r in reply["rows"]] == ["only-row"], entry


def test_dead_instance_hides_only_its_partition(kernel, sim, injector):
    for pid in ("p0", "p1", "p2"):
        put_row(kernel, sim, pid, f"row-{pid}", {"origin": pid})
    injector.kill_process(kernel.placement[("db", "p1")], "db")
    reply = drive(sim, kernel.client("p0c0").query_bulletin("custom", partition="p0"), max_time=20.0)
    assert reply["partitions_missing"] == ["p1"]
    assert sorted(r["_partition"] for r in reply["rows"]) == ["p0", "p2"]


def test_local_scope_query_returns_own_rows_only(kernel, sim):
    for pid in ("p0", "p1"):
        put_row(kernel, sim, pid, f"row-{pid}", {"origin": pid})
    node = kernel.placement[("db", "p0")]
    reply = drive(sim, kernel.cluster.transport.rpc(
        "p0c0", node, ports.DB, ports.DB_QUERY,
        {"table": "custom", "where": None, "scope": "local"}))
    assert [r["_partition"] for r in reply["rows"]] == ["p0"]


def test_global_query_with_where_clause(kernel, sim):
    put_row(kernel, sim, "p0", "a", {"state": "up"})
    put_row(kernel, sim, "p1", "b", {"state": "down"})
    reply = drive(sim, kernel.client("p0c0").query_bulletin("custom", where={"state": "down"}))
    assert [r["_key"] for r in reply["rows"]] == ["b"]
