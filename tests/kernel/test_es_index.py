"""SubscriptionIndex equivalence with the linear scan, and the debounced
subscription checkpoint."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import ports
from repro.kernel.events import types as ev
from repro.kernel.events.filters import Subscription, SubscriptionIndex
from repro.kernel.events.types import Event
from repro.sim import drive

# -- index unit behaviour ----------------------------------------------------


def sub(cid, *types, where=None):
    return Subscription(cid, "n", "p", types=tuple(types), where=where or {})


def test_exact_type_lookup():
    index = SubscriptionIndex()
    index.add(sub("a", "node.failure"))
    index.add(sub("b", "node.recovery"))
    assert [s.consumer_id for s in index.candidates("node.failure")] == ["a"]


def test_family_wildcard_lookup():
    index = SubscriptionIndex()
    index.add(sub("fam", "node.*"))
    index.add(sub("other", "app.*"))
    assert [s.consumer_id for s in index.candidates("node.failure")] == ["fam"]
    # "node.*" must NOT match the bare type "node" (startswith "node.").
    assert index.candidates("node") == []


def test_catch_all_sees_everything():
    index = SubscriptionIndex()
    index.add(sub("all"))
    assert [s.consumer_id for s in index.candidates("anything.at.all")] == ["all"]
    assert [s.consumer_id for s in index.candidates("dotless")] == ["all"]


def test_candidates_preserve_registration_order():
    index = SubscriptionIndex()
    index.add(sub("late", "x.y"))
    index.add(sub("all"))
    index.add(sub("fam", "x.*"))
    got = [s.consumer_id for s in index.candidates("x.y")]
    assert got == ["late", "all", "fam"]


def test_readd_keeps_original_slot():
    index = SubscriptionIndex()
    index.add(sub("first", "t.a"))
    index.add(sub("second", "t.a"))
    index.add(sub("first", "t.a", where={"k": 1}))  # refresh, same slot
    got = [s.consumer_id for s in index.candidates("t.a")]
    assert got == ["first", "second"]
    assert index.get("first").where == {"k": 1}


def test_remove_cleans_every_table():
    index = SubscriptionIndex()
    index.add(sub("c", "a.b", "x.*"))
    index.add(sub("all"))
    assert index.remove("c").consumer_id == "c"
    assert index.remove("c") is None
    assert "c" not in index
    assert [s.consumer_id for s in index.candidates("a.b")] == ["all"]
    assert [s.consumer_id for s in index.candidates("x.q")] == ["all"]
    assert len(index) == 1


def test_index_equivalent_to_linear_scan_on_random_stream():
    """Property check: for a random registry and random events, the index
    delivers to exactly the same consumers in exactly the same order as
    the old full scan with Subscription.matches."""
    rng = random.Random(7)
    atoms = ["node", "app", "job", "net", "failure", "recovery", "started", "exited"]

    def rand_type():
        return ".".join(rng.choice(atoms) for _ in range(rng.randint(1, 3)))

    def rand_pattern():
        t = rand_type()
        return t + ".*" if rng.random() < 0.4 else t

    linear: dict[str, Subscription] = {}
    index = SubscriptionIndex()
    for step in range(600):
        roll = rng.random()
        if roll < 0.25:
            cid = f"c{rng.randint(0, 40)}"
            patterns = tuple(rand_pattern() for _ in range(rng.randint(0, 3)))
            where = {"k": rng.randint(0, 2)} if rng.random() < 0.3 else {}
            s = Subscription(cid, "n", "p", types=patterns, where=where)
            linear[cid] = s  # dict re-add keeps the original scan position
            index.add(s)
        elif roll < 0.35:
            cid = f"c{rng.randint(0, 40)}"
            linear.pop(cid, None)
            index.remove(cid)
        else:
            event = Event(
                event_id=f"e{step}", type=rand_type(), source="s", partition="p0",
                time=float(step), data={"k": rng.randint(0, 2)},
            )
            via_scan = [s.consumer_id for s in linear.values() if s.matches(event)]
            via_index = [
                s.consumer_id
                for s in index.candidates(event.type, event.data)  # prunes on "k"
                if s.matches(event)
            ]
            assert via_index == via_scan, f"divergence at step {step} on {event.type!r}"


# -- where-key equality buckets ----------------------------------------------


def test_where_key_pruning_skips_other_nodes():
    index = SubscriptionIndex()
    index.add(sub("mine", "node.*", where={"node": "n1"}))
    index.add(sub("theirs", "node.*", where={"node": "n2"}))
    index.add(sub("any", "node.*"))
    got = [s.consumer_id for s in index.candidates("node.failure", {"node": "n1"})]
    assert got == ["mine", "any"]
    # Without data the index cannot prune — every type match is a candidate.
    assert len(index.candidates("node.failure")) == 3


def test_where_key_operator_equality_is_indexed_like_plain_value():
    index = SubscriptionIndex()
    index.add(sub("op", "t.a", where={"node": {"op": "==", "value": "n1"}}))
    index.add(sub("plain", "t.a", where={"node": "n1"}))
    assert [s.consumer_id for s in index.candidates("t.a", {"node": "n1"})] == ["op", "plain"]
    assert index.candidates("t.a", {"node": "n2"}) == []


def test_where_key_unindexable_conditions_are_never_pruned():
    """Only equality buckets and numeric range constraints may prune;
    ``!=``/``in``/``contains``, unhashable equality values, and range
    operators with *non-numeric* bounds (where cross-type comparison can
    legitimately succeed) must fall through to the per-candidate check."""
    index = SubscriptionIndex()
    index.add(sub("ne", "t.a", where={"node": {"op": "!=", "value": "n1"}}))
    index.add(sub("inop", "t.a", where={"node": {"op": "in", "value": ["n1", "n2"]}}))
    index.add(sub("unhashable", "t.a", where={"node": ["n1"]}))  # eq to a list
    index.add(sub("strbound", "t.a", where={"node": {"op": "<", "value": "zz"}}))
    got = [s.consumer_id for s in index.candidates("t.a", {"node": "n9"})]
    assert got == ["ne", "inop", "unhashable", "strbound"]


# -- where-key numeric range pruning -----------------------------------------


def test_where_key_numeric_range_pruning():
    index = SubscriptionIndex()
    index.add(sub("high", "m.*", where={"cpu_pct": {"op": ">", "value": 90}}))
    index.add(sub("low", "m.*", where={"cpu_pct": {"op": "<=", "value": 50.0}}))
    index.add(sub("any", "m.*"))

    def got(data):
        return [s.consumer_id for s in index.candidates("m.tick", data)]

    assert got({"cpu_pct": 95}) == ["high", "any"]
    assert got({"cpu_pct": 50}) == ["low", "any"]
    assert got({"cpu_pct": 90}) == ["any"]  # >90 strict, <=50 fails too
    assert got({"cpu_pct": 70.5}) == ["any"]
    # Missing field: range operators never match it, both subs prune.
    assert got({"other": 1}) == ["any"]
    # Without data the index cannot prune at all.
    assert len(index.candidates("m.tick")) == 3


def test_where_key_range_boundary_semantics_match_operators():
    index = SubscriptionIndex()
    index.add(sub("lt", "t.a", where={"v": {"op": "<", "value": 10}}))
    index.add(sub("le", "t.a", where={"v": {"op": "<=", "value": 10}}))
    index.add(sub("gt", "t.a", where={"v": {"op": ">", "value": 10}}))
    index.add(sub("ge", "t.a", where={"v": {"op": ">=", "value": 10}}))
    assert [s.consumer_id for s in index.candidates("t.a", {"v": 10})] == ["le", "ge"]
    assert [s.consumer_id for s in index.candidates("t.a", {"v": 9})] == ["lt", "le"]
    assert [s.consumer_id for s in index.candidates("t.a", {"v": 11})] == ["gt", "ge"]


def test_where_key_non_numeric_event_value_is_not_range_pruned():
    """A non-numeric event value is left to the full clause: the index
    must not guess the outcome of exotic cross-type comparisons."""
    index = SubscriptionIndex()
    index.add(sub("gt", "t.a", where={"v": {"op": ">", "value": 5}}))
    got = [s.consumer_id for s in index.candidates("t.a", {"v": "hot"})]
    assert got == ["gt"]
    # ...and the clause itself rejects it (TypeError -> no match).
    event = Event(
        event_id="e", type="t.a", source="s", partition="p0", time=0.0,
        data={"v": "hot"},
    )
    assert not got or not index.get("gt").matches(event)


def test_where_key_range_tables_cleaned_on_remove_and_readd():
    index = SubscriptionIndex()
    index.add(sub("c", "t.a", where={"v": {"op": ">", "value": 5}}))
    index.add(sub("c", "t.a", where={"v": {"op": "<", "value": 5}}))  # re-add flips
    assert [s.consumer_id for s in index.candidates("t.a", {"v": 3})] == ["c"]
    assert index.candidates("t.a", {"v": 7}) == []
    index.remove("c")
    assert "v" not in index._range
    assert index.candidates("t.a", {"v": 3}) == []


_BOUNDS = st.one_of(
    st.integers(min_value=-5, max_value=105),
    st.floats(min_value=-5.0, max_value=105.0, allow_nan=False),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
)

_CLAUSES = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]), _BOUNDS),
    st.tuples(st.just("<"), st.just("zz")),  # non-numeric bound: unprunable
)

_EVENT_VALUES = st.one_of(
    st.none(),  # field absent
    st.integers(min_value=-10, max_value=110),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=2),
)


@settings(max_examples=120, deadline=None)
@given(
    clauses=st.lists(_CLAUSES, min_size=1, max_size=8),
    values=st.lists(_EVENT_VALUES, min_size=1, max_size=12),
)
def test_range_pruning_exactly_equivalent_to_scan(clauses, values):
    """Hypothesis: for any mix of range/equality clauses on an indexed
    numeric key and any stream of event values (numeric, missing, NaN,
    infinite, non-numeric), pruning never changes the delivered set or
    order relative to the naive full scan."""
    linear: dict[str, Subscription] = {}
    index = SubscriptionIndex()
    for i, clause in enumerate(clauses):
        where = {} if clause is None else {"v": {"op": clause[0], "value": clause[1]}}
        s = Subscription(f"c{i}", "n", "p", types=("ev.*",), where=where)
        linear[f"c{i}"] = s
        index.add(s)
    for step, value in enumerate(values):
        data = {} if value is None else {"v": value}
        event = Event(
            event_id=f"e{step}", type="ev.tick", source="s", partition="p0",
            time=float(step), data=data,
        )
        via_scan = [s.consumer_id for s in linear.values() if s.matches(event)]
        via_index = [
            s.consumer_id
            for s in index.candidates(event.type, event.data)
            if s.matches(event)
        ]
        assert via_index == via_scan, f"divergence on {data!r}"


def test_where_key_missing_field_prunes_every_pinned_sub():
    index = SubscriptionIndex()
    index.add(sub("pinned", "t.a", where={"node": "n1"}))
    index.add(sub("free", "t.a"))
    assert [s.consumer_id for s in index.candidates("t.a", {"k": 1})] == ["free"]
    # An unhashable event value cannot equal any hashable pinned value.
    assert [s.consumer_id for s in index.candidates("t.a", {"node": ["n1"]})] == ["free"]


def test_where_key_buckets_cleaned_on_remove_and_readd():
    index = SubscriptionIndex()
    index.add(sub("c", "t.a", where={"node": "n1"}))
    index.add(sub("c", "t.a", where={"node": "n2"}))  # re-add moves buckets
    assert index.candidates("t.a", {"node": "n1"}) == []
    assert [s.consumer_id for s in index.candidates("t.a", {"node": "n2"})] == ["c"]
    index.remove("c")
    # A key leaves with its last constrained consumer.
    assert "node" not in index._eq and "node" not in index._eq_constrained


def test_where_key_index_equivalent_to_scan_on_random_stream():
    """Property check with ``data`` in play: random node-keyed clauses
    (plain, operator, unhashable) never change the delivered set or order
    relative to the naive full scan."""
    rng = random.Random(17)
    nodes = ["n0", "n1", "n2", "n3"]

    def rand_where():
        roll = rng.random()
        if roll < 0.25:
            return {}
        if roll < 0.5:
            return {"node": rng.choice(nodes)}
        if roll < 0.65:
            return {"node": {"op": "==", "value": rng.choice(nodes)}}
        if roll < 0.75:
            return {"node": {"op": "!=", "value": rng.choice(nodes)}}
        if roll < 0.85:
            return {"node": {"op": "in", "value": rng.sample(nodes, 2)}}
        if roll < 0.95:
            return {"k": rng.randint(0, 2)}
        return {"node": rng.sample(nodes, 1)}  # unhashable equality value

    linear: dict[str, Subscription] = {}
    index = SubscriptionIndex()
    for step in range(800):
        roll = rng.random()
        if roll < 0.25:
            cid = f"c{rng.randint(0, 30)}"
            s = Subscription(cid, "n", "p", types=("ev.*",), where=rand_where())
            linear[cid] = s
            index.add(s)
        elif roll < 0.35:
            cid = f"c{rng.randint(0, 30)}"
            linear.pop(cid, None)
            index.remove(cid)
        else:
            data = {}
            if rng.random() < 0.85:
                data["node"] = rng.choice(nodes + [["list"]])  # sometimes unhashable
            if rng.random() < 0.5:
                data["k"] = rng.randint(0, 2)
            event = Event(
                event_id=f"e{step}", type="ev.tick", source="s", partition="p0",
                time=float(step), data=data,
            )
            via_scan = [s.consumer_id for s in linear.values() if s.matches(event)]
            via_index = [
                s.consumer_id
                for s in index.candidates(event.type, event.data)
                if s.matches(event)
            ]
            assert via_index == via_scan, f"divergence at step {step} on {data!r}"


# -- checkpoint debounce -----------------------------------------------------


def es_daemon(kernel, partition="p0"):
    return kernel.live_daemon("es", kernel.placement[("es", partition)])


def test_subscribe_burst_coalesces_into_one_checkpoint(kernel, sim):
    es = es_daemon(kernel)
    before = es.ckpt_writes
    sigs = [
        kernel.client("p0c0").subscribe(f"burst{i}", "sink", types=(ev.NODE_FAILURE,))
        for i in range(8)
    ]
    for sig in sigs:
        assert drive(sim, sig)["ok"]
    sim.run(until=sim.now + 1.0)  # debounce window + save round trip
    assert es.ckpt_writes == before + 1
    assert sim.trace.counter("es.ckpt_writes") >= 1


def test_spaced_changes_each_get_their_own_checkpoint(kernel, sim):
    es = es_daemon(kernel)
    before = es.ckpt_writes
    for i in range(3):
        assert drive(sim, kernel.client("p0c0").subscribe(f"slow{i}", "sink"))["ok"]
        sim.run(until=sim.now + 1.0)  # well past the debounce window
    assert es.ckpt_writes == before + 3


def test_no_checkpoint_is_counted_without_a_primary_to_take_it(kernel, sim):
    es = es_daemon(kernel)
    before = es.ckpt_writes
    del kernel.placement[("ckpt", "p0")]  # mid-failover: no primary placed
    assert drive(sim, kernel.client("p0c0").subscribe("orphan", "sink"))["ok"]
    sim.run(until=sim.now + 1.0)
    assert es.ckpt_writes == before


def test_debounced_checkpoint_still_recovers_registry(kernel, sim, injector):
    """The debounce must not lose the registry: after a burst and an ES
    restart, the recovered daemon still knows every subscriber."""
    es = es_daemon(kernel)
    for i in range(5):
        assert drive(sim, kernel.client("p0c0").subscribe(f"r{i}", "sink"))["ok"]
    sim.run(until=sim.now + 1.0)  # flush lands in the checkpoint store
    injector.kill_process(es.node_id, "es")
    sim.run(until=sim.now + 40.0)  # GSD diagnoses and restarts the daemon
    fresh = es_daemon(kernel)
    assert fresh is not es and fresh.alive
    recovered = {s.consumer_id for s in fresh.subscriptions()}
    assert {f"r{i}" for i in range(5)} <= recovered
