"""The ``nodes`` join (metrics ⟗ state) against a reference copy of its
per-entry loop: the same row, with the same key order, since printed rows
and exported text follow that order.  A gathered scan, which sorts each
base table once or (for ``nodes``) not at all, against the old path that
sorted every base table before the derive sorted its keys again.

The join's input rows are built the way ``BulletinStore.put`` stores them: producer
fields, then ``_key``, ``_partition`` and ``_updated_at`` — unless the
producer sent one of those itself, which keeps the producer's position.
"""

from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.bulletin.query import (
    Query, _derive_nodes, _join_node_row, execute, execute_on, table_def,
)
from repro.kernel.bulletin.service import _ordered
from repro.kernel.bulletin.store import BulletinStore

METRICS, STATE = "node_metrics", "node_state"

#: Shared by both sides, so the two rows overlap; the metadata columns
#: and ``reporting`` are in it too.
_FIELDS = ("cpus", "load", "state", "reporting", "mem", "_key", "_partition",
           "_updated_at", "boot_count")
_VALUES = st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=3) | \
    st.floats(allow_nan=False, allow_infinity=False)
#: Few distinct times, so metrics newer, older and equal to state all occur.
_TIMES = st.sampled_from((1.0, 2.0, 3.0))


def _reference_join(metrics: dict[str, Any] | None,
                    state: dict[str, Any] | None) -> dict[str, Any] | None:
    """The join as a loop over every state entry."""
    if metrics is None and state is None:
        return None
    row: dict[str, Any] = {}
    if metrics is not None:
        row.update(metrics)
    if state is not None:
        for key, value in state.items():
            if key == "_updated_at":
                continue
            row[key] = value
        if metrics is not None:
            row["_updated_at"] = max(metrics["_updated_at"], state["_updated_at"])
        else:
            row["_updated_at"] = state["_updated_at"]
    row["reporting"] = 1 if metrics is not None else 0
    return row


def _stored(store: BulletinStore, table: str, key: str,
            producer: dict[str, Any] | None, now: float):
    if producer is None:
        return None
    store.put(table, key, producer, now, "p0")
    return store.get(table, key)


_PRODUCER = st.none() | st.dictionaries(st.sampled_from(_FIELDS), _VALUES, max_size=6)


@settings(max_examples=300, deadline=None)
@given(metrics=_PRODUCER, state=_PRODUCER, t_metrics=_TIMES, t_state=_TIMES)
def test_the_join_equals_the_loop_in_value_and_key_order(metrics, state, t_metrics, t_state):
    store = BulletinStore()
    m = _stored(store, METRICS, "p0c0", metrics, t_metrics)
    s = _stored(store, STATE, "p0c0", state, t_state)
    joined, reference = _join_node_row(m, s), _reference_join(m, s)
    assert joined == reference
    if reference is not None:
        assert list(joined.items()) == list(reference.items())
        assert type(joined) is dict


@settings(max_examples=100, deadline=None)
@given(sides=st.dictionaries(st.sampled_from(("p0c0", "p0c1", "p1c0", "p1c1")),
                             st.tuples(_PRODUCER, _PRODUCER, _TIMES, _TIMES)))
def test_a_nodes_scan_joins_every_key_once_in_key_order(sides):
    store = BulletinStore()
    for key, (metrics, state, t_metrics, t_state) in sides.items():
        _stored(store, METRICS, key, metrics, t_metrics)
        _stored(store, STATE, key, state, t_state)
    rows = _derive_nodes(store.query)
    expected = [_reference_join(store.get(METRICS, key), store.get(STATE, key))
                for key in sorted(sides)
                if store.get(METRICS, key) is not None or store.get(STATE, key) is not None]
    assert [list(r.items()) for r in rows] == [list(r.items()) for r in expected]


# -- a gathered scan: one sort ---------------------------------------------------
def _row_order(row: dict[str, Any]) -> tuple[str, str]:
    return (row.get("_partition", ""), row.get("_key", ""))


def _reference_scan(query: Query, rows_by_table: dict[str, list]) -> list[dict[str, Any]]:
    """The scan as it was: every base table sorted by partition, then key,
    and the ``nodes`` derive keying those sorted rows (the last one wins)."""
    def get_rows(table):
        return sorted(rows_by_table.get(table, []), key=_row_order)

    if query.table != "nodes":
        return execute(query, table_def(query.table).derive(get_rows))
    metrics = {r["_key"]: r for r in get_rows(METRICS)}
    states = {r["_key"]: r for r in get_rows(STATE)}
    return execute(query, [_reference_join(metrics.get(key), states.get(key))
                           for key in sorted(metrics.keys() | states.keys())])


_KEYS = ("p0c0", "p0c1", "p1c0", "p10c0")
_PARTS = ("p0", "p1", "p10", "p2")  # "p10" sorts before "p2"
#: A gathered row: a ``_key`` on the ``nodes`` bases (the derive keys on
#: it), else maybe none; maybe no ``_partition``.  Few keys and partitions,
#: so one key comes from two partitions, or twice from one.
_GATHERED = st.fixed_dictionaries(
    {"_updated_at": _TIMES, "load": _VALUES},
    optional={"_partition": st.sampled_from(_PARTS), "state": st.sampled_from(("up", "down"))})


def _with_key(pair: tuple[dict[str, Any], str | None]) -> dict[str, Any]:
    row, key = pair
    return row if key is None else {**row, "_key": key}


def _gathered(keyed: bool):
    key = st.sampled_from(_KEYS)
    return st.lists(st.tuples(_GATHERED, key if keyed else st.none() | key).map(_with_key),
                    max_size=12)


@settings(max_examples=300, deadline=None)
@given(table=st.sampled_from(("nodes", "jobs", STATE)), data=st.data())
def test_a_gathered_scan_returns_the_rows_of_the_two_sort_path(table, data):
    """Rows in any gathered order, a key from two partitions (the greatest
    ``_partition`` wins, the later gathered among equals), rows without
    ``_partition`` or ``_key`` (read as ``""``): the same rows, in the same
    order and key order, as sorting every base table first."""
    bases = table_def(table).bases
    rows_by_table = {base: data.draw(_gathered(keyed=table == "nodes"), label=base)
                     for base in bases}
    got = execute_on(Query(table), _ordered(rows_by_table, table))
    want = _reference_scan(Query(table), rows_by_table)
    assert [list(r.items()) for r in got] == [list(r.items()) for r in want]
