"""The ``nodes`` join (metrics ⟗ state) against a reference copy of its
per-entry loop: the same row, with the same key order, since printed rows
and exported text follow that order.

Input rows are built the way ``BulletinStore.put`` stores them: producer
fields, then ``_key``, ``_partition`` and ``_updated_at`` — unless the
producer sent one of those itself, which keeps the producer's position.
"""

from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.bulletin.query import _derive_nodes, _join_node_row
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
