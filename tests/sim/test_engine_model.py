"""The engine's ordering contract, checked against a model.

The property test drives the real :class:`Simulator` and the sorted-list
oracle of :mod:`tests.sim.engine_equivalence` through random mixes of
schedules (with and without priorities), handle cancels, timer
restarts/cancels and interleaved bounded runs — then asserts the firing
logs, clocks and pending/executed counts never diverge.
"""

import heapq
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

from tests.sim.engine_equivalence import ModelEngine, drive_ops

# Anything from zero to twenty minutes, plus a few fixed values so that
# exact same-time ties (where priority and seq decide) actually occur.
_DELAYS = st.one_of(
    st.floats(min_value=0.0, max_value=1200.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1 / 128, 1 / 64, 3.99, 4.0, 1023.0, 1024.0, 1100.0]),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), _DELAYS, st.integers(-1, 1)),
        st.tuples(st.just("cancel"), st.integers(0, 255)),
        st.tuples(st.just("timer"), _DELAYS),
        st.tuples(st.just("restart"), st.integers(0, 255), st.none() | _DELAYS),
        st.tuples(st.just("tcancel"), st.integers(0, 255)),
        st.tuples(st.just("run"), _DELAYS),
    ),
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(ops=_OPS)
def test_engine_matches_the_sorted_list_model(ops):
    assert drive_ops(ops, Simulator(seed=0)) == drive_ops(ops, ModelEngine())


def test_engine_matches_the_model_across_heap_compaction(monkeypatch):
    """60 ops never kill the 65 entries compaction waits for; a long
    cancel-heavy script with short runs does, many times over."""
    rebuilds = []
    heapify = heapq.heapify
    monkeypatch.setattr(heapq, "heapify", lambda heap: (rebuilds.append(len(heap)), heapify(heap)))
    rng = random.Random(20)
    ops = []
    for _ in range(4000):
        kind = rng.choice(["sched", "timer", "cancel", "restart", "restart", "tcancel", "run"])
        if kind == "sched":
            ops.append((kind, rng.choice([0.0, 0.5, rng.uniform(0, 50)]), rng.randint(-1, 1)))
        elif kind == "timer":
            ops.append((kind, rng.uniform(0, 50)))
        elif kind == "restart":
            ops.append((kind, rng.randrange(4096), rng.choice([None, rng.uniform(0, 50)])))
        elif kind == "run":
            ops.append((kind, rng.uniform(0, 0.2)))
        else:
            ops.append((kind, rng.randrange(4096)))
    assert drive_ops(ops, Simulator(seed=0)) == drive_ops(ops, ModelEngine())
    assert len(rebuilds) >= 5
