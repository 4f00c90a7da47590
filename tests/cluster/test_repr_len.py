"""``repr_len``: the exact length of a value's text, without rendering it."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.message import SizedDict, repr_len
from repro.kernel.bulletin.store import FrozenRow
from repro.kernel.events.types import Event

_TEXT = st.text(alphabet=st.sampled_from("ab'\"\\\n\té→€😀\x00 "), max_size=6) | st.text(max_size=6)
_LEAVES = (
    st.none() | st.booleans() | st.integers() | _TEXT
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.floats().map(np.float64)
)
_KEYS = _TEXT | st.integers() | st.floats(allow_nan=False) | st.none() | st.tuples(st.integers(), _TEXT)


def _containers(inner):
    plain = st.dictionaries(_KEYS, inner, max_size=4)
    return (
        st.lists(inner, max_size=4) | st.tuples(inner) | st.tuples() | st.tuples(inner, inner)
        | plain | plain.map(SizedDict) | plain.map(FrozenRow)
        | st.builds(lambda data, t: Event("e1", "t.x", "n1", "p0", t, data), plain, st.floats())
    )


_VALUES = st.recursive(_LEAVES, _containers, max_leaves=16)


@given(_VALUES)
def test_property_repr_len_is_exact(value):
    assert repr_len(value) == len(repr(value))
    # Again, now that any frozen value inside holds its length.
    assert repr_len(value) == len(repr(value))


def test_edge_values():
    for value in ({}, [], (), SizedDict(), [[]], {"": ""}, {1: None, (2,): -0.0},
                  ["'", '"', "\\", "é\n", math.nan, -math.inf, np.float64(0.1)],
                  {"e": Event("e", "t", "n", "p", 1.5, {"d": [SizedDict(a=1)]})}):
        assert repr_len(value) == len(repr(value)), value


class _Counted:
    renders = 0

    def __repr__(self):
        type(self).renders += 1
        return "counted"


def test_a_frozen_value_is_rendered_once():
    row = SizedDict({"x": _Counted(), "nested": {"y": _Counted()}})
    outer = [row, {"in": row}]
    expected = len(repr(row)), len(repr(outer))
    _Counted.renders = 0
    assert repr_len(row) == expected[0]
    assert _Counted.renders == 2  # the first call renders each leaf once
    assert (repr_len(row), repr_len(outer)) == expected
    assert _Counted.renders == 2  # the second and the enclosing ones none
