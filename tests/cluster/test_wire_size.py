"""The structural wire size model of message payloads."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.message import (
    ELEMENT_BYTES, ENTRY_BYTES, FLAG_BYTES, FLOAT_BYTES, HEADER_BYTES, INT_BYTES, SizedDict,
    estimate_size, wire_size,
)

_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_DICTS = st.dictionaries(st.text(max_size=4), _VALUES, max_size=4)


def test_scalar_widths_do_not_depend_on_the_value():
    assert {wire_size(x) for x in (0, 7, -12345678901234567890)} == {INT_BYTES}
    assert {wire_size(x) for x in (0.0, 1 / 3, -1e300, math.inf, math.nan)} == {FLOAT_BYTES}
    assert {wire_size(x) for x in (None, True, False)} == {FLAG_BYTES}
    assert wire_size("") == 2 and wire_size("node-17") == 9
    assert wire_size((1, "a")) == wire_size([1, "a"])
    assert wire_size({1: 2.0}) == 2 + ENTRY_BYTES + INT_BYTES + FLOAT_BYTES
    assert wire_size({3, 4}) == len(repr({3, 4}))  # outside the model: its text
    assert estimate_size({}) == HEADER_BYTES + 2


@given(st.floats())
def test_property_numpy_floats_size_as_floats(x):
    """A NumPy scalar that reaches a payload cannot change a byte count."""
    assert wire_size(np.float64(x)) == wire_size(x) == FLOAT_BYTES
    assert estimate_size({"v": np.float64(x), "l": [np.float64(x)]}) == \
        estimate_size({"v": x, "l": [x]})


@given(_DICTS, _DICTS, st.lists(_VALUES, max_size=4), st.lists(_VALUES, max_size=4), _VALUES)
def test_property_framing_is_additive(a, b, xs, ys, value):
    """Joining two dicts or two lists costs the sum less one pair of
    braces; wrapping a value costs its framing plus the key."""
    b = {key: v for key, v in b.items() if key not in a}
    assert wire_size({**a, **b}) == wire_size(a) + wire_size(b) - 2
    assert wire_size(xs + ys) == wire_size(xs) + wire_size(ys) - 2
    assert wire_size({"key": value}) == 2 + ENTRY_BYTES + wire_size("key") + wire_size(value)
    assert wire_size([value]) == 2 + ELEMENT_BYTES + wire_size(value)


@given(_DICTS)
def test_property_a_sealed_dict_sizes_like_its_plain_copy(entries):
    sealed = SizedDict(entries)
    assert wire_size(sealed) == wire_size(entries)
    assert wire_size([sealed, {"in": sealed}]) == wire_size([entries, {"in": entries}])
