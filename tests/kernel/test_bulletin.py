"""Data bulletin: store queries + federation single access point (Figure 5)."""

import copy
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import message
from repro.cluster.message import estimate_size, wire_size
from repro.errors import KernelError
from repro.kernel import ports
from repro.kernel.bulletin.store import BulletinStore, FrozenRow
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


def test_store_rows_are_values():
    """A reader cannot corrupt the store — not because it gets a copy, but
    because the row it gets is immutable (and so safe to share)."""
    store = BulletinStore()
    store.put("t", "a", {"v": {"deep": 1}, "tags": ["x"]}, now=0, partition="p0")
    row = store.query("t")[0]
    assert isinstance(row, FrozenRow) and isinstance(row["v"], FrozenRow)
    for mutate in (
        lambda: row.__setitem__("v", 2),
        lambda: row.__delitem__("v"),
        lambda: row.update(v=2),
        lambda: row.pop("v"),
        lambda: row.popitem(),
        lambda: row.clear(),
        lambda: row.setdefault("w", 1),
        lambda: row.__ior__({"w": 1}),
        lambda: row["v"].__setitem__("deep", 99),
    ):
        with pytest.raises(TypeError):
            mutate()
    assert store.get("t", "a")["v"]["deep"] == 1 and "w" not in store.get("t", "a")
    # it still is a dict to everything that reads one
    plain = dict(row)
    assert type(plain) is dict and row == plain
    assert json.loads(json.dumps(row)) == plain and repr(row) == repr(plain)
    # the way to edit one: that plain mutable copy
    plain["v"] = 2
    assert store.get("t", "a")["v"] == {"deep": 1}
    # nobody copies: a row is its own copy, and reads share the stored objects
    assert copy.deepcopy(row) is row and copy.copy(row) is row
    assert all(a is b for a, b in zip(store.query("t"), store.query("t")))
    assert store.get("t", "a") is row


def test_put_freezes_its_own_copy_of_the_senders_row():
    """Fails at the parent: ``put`` copied the top level only, so a sender
    mutating a nested value afterwards changed the stored row."""
    store = BulletinStore()
    sent = {"nics": {"eth0": True}, "cores": [{"id": 0, "busy": False}]}
    store.put("t", "n0", sent, now=0, partition="p0")
    sent["nics"]["eth0"] = False
    sent["cores"][0]["busy"] = True
    sent["cores"].append({"id": 1})
    assert store.get("t", "n0")["nics"] == {"eth0": True}
    assert store.get("t", "n0")["cores"] == [{"id": 0, "busy": False}]


def test_a_row_is_sized_once_and_keeps_its_size(monkeypatch):
    """A stored row (and every row nested in it) is sized when it is
    frozen and keeps that size for its lifetime: replace / delete / expire
    leave a held row as it was, and sizing a reply of stored rows walks
    none of them."""
    store = BulletinStore()
    for key in "abc":
        store.put("t", key, {"v": [1.5, {"k": key}], "n": 3}, now=0, partition="p0")
    held = {row["_key"]: row for row in store.query("t")}
    sizes = {key: wire_size(_thaw(row)) for key, row in held.items()}
    assert all(row._size == sizes[key] for key, row in held.items())
    nested = held["a"]["v"][1]
    assert type(nested) is FrozenRow and nested._size == wire_size({"k": "a"})
    store.put("t", "a", {"v": 2}, now=20, partition="p0")
    store.delete("t", "b")
    assert store.expire("t", max_age=5.0, now=10.0) == 1  # "c"
    assert all(row._size == sizes[key] for key, row in held.items())
    walked = []
    real = message._dict_size
    monkeypatch.setattr(message, "_dict_size", lambda entries: walked.append(entries) or
                        real(entries))
    rows = list(held.values())
    assert estimate_size({"rows": rows}) == estimate_size({"rows": [_thaw(r) for r in rows]})
    assert walked[0] == {"rows": rows} and all(type(w) is dict for w in walked)


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


_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8)
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_ROWS = st.dictionaries(st.text(min_size=1, max_size=6), _VALUES, max_size=5)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from("abcdef"), _ROWS),
        st.tuples(st.just("delete"), st.sampled_from("abcdef"), st.none()),
        st.tuples(st.just("expire"), st.floats(0.0, 4.0), st.none()),
    ),
    min_size=1, max_size=12,
)


def _thaw(value):
    """The plain-``dict`` deep copy of a payload holding frozen rows."""
    if isinstance(value, dict):
        return {k: _thaw(v) for k, v in value.items()}
    return [_thaw(v) for v in value] if isinstance(value, list) else value


def _shapes(rows):
    """The messages stored rows travel in: a DB_QUERY reply, an
    es.forward_batch of db.delta events, a db.tables.* checkpoint save."""
    return [
        {"rows": rows, "partitions_missing": [], "watermark": {"epoch": 1, "seq": len(rows)}},
        {"events": [
            {"type": "db.delta", "seq": i, "data": {"table": "t", "op": "put", "row": row}}
            for i, row in enumerate(rows)
        ]},
        {"key": "db.tables.p0", "data": {"tables": {"t": {r["_key"]: r for r in rows}}, "t": 2.0}},
    ]


@given(_OPS)
def test_property_frozen_rows_size_like_plain_dicts(ops):
    """``estimate_size`` counts the same bytes for a payload of stored rows
    as for its plain-dict copy, after every put, replace, delete and
    expire, for the rows still stored and for rows held after they left —
    the unit-level guard for ``sim_bytes_per_op`` and every
    ``sim_digest``."""
    store = BulletinStore()
    held = []
    for step, (op, arg, row) in enumerate(ops):
        now = float(step)
        if op == "put":
            store.put("t", arg, row, now=now, partition="p0")
        elif op == "delete":
            store.delete("t", arg)
        else:
            store.expire("t", max_age=arg, now=now)
        rows = store.query("t")
        held = list({id(r): r for r in held + rows}.values())
        for shape in (rows, held):
            for payload in _shapes(shape):
                plain = _thaw(payload)
                assert not any(type(r) is FrozenRow for r in plain.get("rows", ()))
                assert estimate_size(payload) == estimate_size(plain)


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


# -- malformed requests: refused, never fatal -----------------------------

_BAD_NAMES = [{"nodes": 1}, ["nodes"], 7, "", None]


def _db_rpc(kernel, sim, mtype, payload):
    return drive(sim, kernel.cluster.transport.rpc(
        "p0c0", kernel.placement[("db", "p0")], ports.DB, mtype, payload))


@pytest.mark.parametrize("table", _BAD_NAMES, ids=repr)
def test_query_with_a_malformed_table_gets_an_error_reply(kernel, sim, table):
    for reply in (
        drive(sim, kernel.client("p0c0").query_bulletin(table)),
        _db_rpc(kernel, sim, ports.DB_QUERY, {"scope": "local"}),  # no table at all
    ):
        assert reply["rows"] == [] and reply["partitions_missing"] == []
        assert "'table'" in reply["error"]
    put_row(kernel, sim, "p0", "k", {"v": 1})  # still serving
    assert [r["_key"] for r in drive(sim, kernel.client("p0c0").query_bulletin("custom"))["rows"]] == ["k"]


@pytest.mark.parametrize("field", ["table", "key"])
@pytest.mark.parametrize("bad", _BAD_NAMES, ids=repr)
def test_put_and_delete_with_a_malformed_name_are_refused(kernel, sim, field, bad):
    good = {"table": "custom", "key": "k", "row": {"v": 1}}
    for mtype in (ports.DB_PUT, ports.DB_DELETE):
        for payload in ({**good, field: bad}, {k: v for k, v in good.items() if k != field}):
            reply = _db_rpc(kernel, sim, mtype, payload)
            assert reply["ok"] is False and repr(field) in reply["error"]
            # the same message as a plain send: dropped, no reply to route
            kernel.cluster.transport.send(
                "p0c0", kernel.placement[("db", "p0")], ports.DB, mtype, payload)
    sim.run(until=sim.now + 1.0)
    assert _db_rpc(kernel, sim, ports.DB_PUT, {"table": "custom", "key": "k"})["ok"] is False  # no row
    # the daemon is still up and serving
    assert _db_rpc(kernel, sim, ports.DB_PUT, good) == {"ok": True}
    reply = drive(sim, kernel.client("p0c0").query_bulletin("custom"))
    assert [r["_key"] for r in reply["rows"]] == ["k"]
