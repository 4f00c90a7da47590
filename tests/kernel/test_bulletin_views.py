"""Materialized views: subtractable accumulators, rows(), view_report,
and the view engine's one change-feed intake (pure — no simulator)."""

import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.bulletin.query import Agg, Query, execute
from repro.kernel.bulletin.store import BulletinStore
from repro.kernel.bulletin.views import MaterializedView, ViewEngine, view_report
from repro.sim.trace import Trace

GROUPED = Query(
    table="nodes",
    group_by=("state",),
    aggs=(
        Agg("count", "*", "n"),
        Agg("count", "cpu", "n_cpu"),
        Agg("sum", "cpu", "s"),
        Agg("avg", "cpu", "a"),
        Agg("min", "cpu", "lo"),
        Agg("max", "cpu", "hi"),
    ),
    order_by=(("n", True),),
)


def _close(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def rows_close(got, want):
    """Row-list equality with float tolerance for accumulator drift."""
    if len(got) != len(want):
        return False
    return all(
        set(ra) == set(rb) and all(_close(ra[k], rb[k]) for k in ra)
        for ra, rb in zip(got, want)
    )


def test_incremental_matches_rebuild_on_simple_sequence():
    view = MaterializedView("v", GROUPED)
    current = {}
    ops = [
        ("k1", {"state": "up", "cpu": 10.0}),
        ("k2", {"state": "up", "cpu": 30.0}),
        ("k3", {"state": "down", "cpu": None}),
        ("k1", {"state": "up", "cpu": 20.0}),   # update in place
        ("k2", {"state": "down", "cpu": 30.0}),  # group migration
        ("k3", None),                            # delete
    ]
    for key, row in ops:
        view.apply(key, current.get(key), row)
        current[key] = row
        if row is None:
            del current[key]
        assert rows_close(view.rows(), execute(GROUPED, list(current.values())))


def test_extremum_removal_recomputes_from_members():
    q = Query(table="nodes", aggs=(Agg("min", "cpu", "lo"), Agg("max", "cpu", "hi")))
    view = MaterializedView("v", q)
    view.apply("a", None, {"cpu": 1.0})
    view.apply("b", None, {"cpu": 9.0})
    view.apply("c", None, {"cpu": 5.0})
    assert view.rows() == [{"lo": 1.0, "hi": 9.0}]
    view.apply("b", {"cpu": 9.0}, None)  # remove current max
    view.apply("a", {"cpu": 1.0}, None)  # remove current min
    assert view.rows() == [{"lo": 5.0, "hi": 5.0}]
    view.apply("c", {"cpu": 5.0}, None)
    assert view.rows() == []


def test_plain_select_view_mirrors_rows():
    q = Query(table="nodes", where={"state": "up"}, select=("_key", "cpu"),
              order_by=(("cpu", True),), limit=2)
    view = MaterializedView("v", q)
    rows = {
        "a": {"_key": "a", "state": "up", "cpu": 3.0},
        "b": {"_key": "b", "state": "down", "cpu": 9.0},
        "c": {"_key": "c", "state": "up", "cpu": 7.0},
    }
    for key, row in rows.items():
        view.apply(key, None, row)
    assert view.rows() == execute(q, list(rows.values()))
    assert view.rows() == [{"_key": "c", "cpu": 7.0}, {"_key": "a", "cpu": 3.0}]


def test_apply_reports_visibility_and_rebuild_counts():
    view = MaterializedView("v", GROUPED)
    assert view.apply("a", None, {"state": "up", "cpu": 1.0})
    # A transition no clause matches is invisible to the view.
    filtered = MaterializedView("f", Query(table="nodes", where={"state": "up"},
                                           select=("_key",)))
    assert not filtered.apply("x", None, {"_key": "x", "state": "down"})
    view.rebuild([{"_key": "a", "state": "up", "cpu": 1.0}])
    assert view.rebuilds == 1
    stats = view.stats(now=10.0)
    assert set(stats) >= {"maintenance_events", "delta_applied", "rebuilds",
                          "resyncs", "cached_rows", "staleness"}
    assert stats["cached_rows"] == 1


def test_view_report_shapes_and_totals():
    listing = {
        "p0": {
            "partition": "p0",
            "views": [{
                "name": "v",
                "query": {"table": "nodes"},
                "stats": {"maintenance_events": 3, "delta_applied": 2,
                          "rebuilds": 1, "resyncs": 0, "staleness": 0.5},
            }],
        },
        "p1": None,  # unreachable instance is skipped, not fatal
    }
    report = view_report(listing)
    assert report["views"]["v"]["owner"] == "p0"
    assert report["views"]["v"]["staleness"] == 0.5
    assert report["totals"]["maintenance_events"] == 3
    assert report["totals"]["rebuilds"] == 1


# -- property: incremental maintenance == from-scratch execution -------------
_KEYS = ("k0", "k1", "k2", "k3", "k4")
_STATES = ("up", "down", "draining")

_op = st.tuples(
    st.sampled_from(_KEYS),
    st.one_of(
        st.none(),  # delete
        st.fixed_dictionaries({
            "state": st.sampled_from(_STATES),
            "cpu": st.one_of(st.none(), st.integers(-50, 50).map(float)),
        }),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_op, min_size=1, max_size=40))
def test_property_view_equals_fresh_execution(ops):
    view = MaterializedView("v", GROUPED)
    current = {}
    for key, row in ops:
        old = current.get(key)
        if row is None and old is None:
            continue
        view.apply(key, old, row)
        if row is None:
            del current[key]
        else:
            current[key] = row
    assert rows_close(view.rows(), execute(GROUPED, list(current.values())))


# -- ViewEngine intake (one path for deltas and epoch announces) ---------------


class _Owner:
    """Stand-in for the owning BulletinDaemon on p0.  A resync's scan RPC
    is answered on the spot with whatever ``self.peer`` holds."""

    partition_id, node_id, epoch = "p0", "p0s0", 1

    def __init__(self):
        self.sim = SimpleNamespace(trace=Trace(), now=0.0)
        self.kernel = SimpleNamespace(db_locations=lambda: {"p0": "p0s0", "p1": "p1s0"})
        self.store = BulletinStore()
        self.peer = {"rows": [], "watermark": {"epoch": 1, "delta_seq": 0}}

    def delta_seq(self, table):
        return 0

    def rpc_retry(self, *args, **kwargs):
        return dict(self.peer)

    def spawn(self, body, name=""):
        try:
            reply = next(body)
            while True:
                reply = body.send(reply)
        except StopIteration:
            pass


def _engine():
    owner = _Owner()
    engine = ViewEngine(owner)
    engine.views["jobs"] = MaterializedView(
        "jobs", Query(table="jobs", group_by=("phase",), aggs=(Agg("count", "*", "n"),))
    )
    engine.sources[("p1", "apps")] = (1, 0)
    engine.ready = True
    return owner, engine


def _delta(seq, key, phase=None, epoch=1, op=None):
    delta = {
        "table": "apps", "key": key, "op": op or ("put" if phase else "delete"),
        "partition": "p1", "epoch": epoch, "seq": seq, "t": float(seq),
    }
    if phase:
        delta["row"] = {"_key": key, "_partition": "p1", "app": "a", "phase": phase}
    return delta


def _snapshot(owner, engine):
    return (
        dict(engine.sources), engine.mirror, engine.read("jobs"),
        engine.views["jobs"].stats(), owner.sim.trace.counters("db.view_"),
    )


def test_plain_delta_stream_applies_drops_duplicates_and_resyncs_gaps():
    """One source's stream — applies, a stale duplicate, a delete, a gap
    healed by a resync — leaves the watermark, mirror, view rows, view
    stats and counters the one-delta-per-seq intake promises."""
    stream = [
        _delta(1, "j1", "running"), _delta(2, "j2", "running"), _delta(3, "j1", "done"),
        _delta(3, "j1", "done"),  # duplicate: stale
        _delta(4, "j2"),  # delete
        _delta(6, "j3", "running"),  # seq 5 lost: resync
        _delta(7, "j4", "done"),
    ]
    owner, engine = _engine()
    for delta in stream:
        if delta["seq"] == 6:
            owner.peer = {
                "rows": [stream[2]["row"], stream[5]["row"]],
                "watermark": {"epoch": 1, "delta_seq": 6},
            }
        engine.on_feed(delta, now=10.0)
    sources, mirror, rows, stats, counters = _snapshot(owner, engine)
    assert sources[("p1", "apps")] == (1, 7)
    assert sorted(mirror["apps"]) == ["j1", "j3", "j4"]
    assert rows == [{"phase": "done", "n": 2}, {"phase": "running", "n": 1}]
    # Seqs 1-4 and 7 each applied once; the scan rebuilt the view once.
    assert (stats["maintenance_events"], stats["delta_applied"]) == (5, 5)
    assert (stats["rebuilds"], stats["resyncs"]) == (1, 1)
    assert counters["db.view_delta_applied"] == 5
    assert counters["db.view_delta_stale"] == 2  # the duplicate + seq 6 after its resync
    assert counters["db.view_resyncs"] == 1
    assert "db.refused" not in owner.sim.trace.counters("db.")


def test_a_malformed_delta_is_refused_and_counted():
    """Any client may publish a ``db.delta``: a payload that is not one
    changes nothing and is counted, before and after the build."""
    good = _delta(1, "j1", "running")
    bad = [
        None, "x", ["apps"], {"table": "apps"},
        dict(good, seq="1"), dict(good, epoch=1.0), dict(good, seq=True),
        dict(good, partition=None), dict(good, key=7), dict(good, table=["apps"]),
        dict(good, op="upsert"), dict(good, op=["put"]),
        {k: v for k, v in good.items() if k != "row"}, dict(good, row="r"), dict(good, t="now"),
    ]
    owner, engine = _engine()
    engine.ready = False
    for payload in bad:
        engine.on_feed(payload, now=1.0)
    assert engine._startup_buffer == []
    engine.ready = True
    for payload in bad:
        engine.on_feed(payload, now=1.0)
    assert engine.sources[("p1", "apps")] == (1, 0) and engine.mirror == {}
    assert owner.sim.trace.counters("db.") == {"db.refused": 2 * len(bad)}
    engine.on_feed(good, now=2.0)
    assert engine.read("jobs") == [{"phase": "running", "n": 1}]


def test_epoch_announce_on_a_quiet_table_drops_the_lost_rows():
    """A successor bulletin whose table stays quiet announces its epoch
    with ``seq`` 0: the newer epoch forces a resync whose (empty) scan
    replaces the dead incarnation's slice; repeats change nothing and are
    counted apart from lost or duplicate deltas."""
    owner, engine = _engine()
    engine.on_feed(_delta(1, "j2", "running"), now=1.0)
    assert engine.read("jobs") == [{"phase": "running", "n": 1}]
    announce = _delta(0, "", epoch=2, op="epoch")
    owner.peer = {"rows": [], "watermark": {"epoch": 2, "delta_seq": 0}}
    engine.on_feed(announce, now=30.0)
    assert engine.sources[("p1", "apps")] == (2, 0)
    assert engine.read("jobs") == [] and engine.mirror["apps"] == {}
    engine.on_feed(announce, now=35.0)
    engine.on_feed(announce, now=40.0)
    counters = owner.sim.trace.counters("db.view_")
    assert counters["db.view_resyncs"] == 1
    assert counters["db.view_epoch_announces"] == 3  # post-resync drain + two repeats
    assert "db.view_delta_stale" not in counters
    # The successor's first real write then applies as seq 1 of epoch 2.
    engine.on_feed(_delta(1, "j9", "done", epoch=2), now=41.0)
    assert engine.read("jobs") == [{"phase": "done", "n": 1}]


def test_residual_gap_after_a_resync_starts_a_fresh_one():
    """A payload buffered during a resync that is still ahead of the
    scan plus one re-triggers the resync instead of spinning."""
    owner, engine = _engine()
    scans = iter([
        {"rows": [], "watermark": {"epoch": 1, "delta_seq": 2}},  # misses 3
        {"rows": [_delta(4, "j4", "done")["row"]], "watermark": {"epoch": 1, "delta_seq": 4}},
    ])
    owner.rpc_retry = lambda *a, **k: next(scans)
    engine.on_feed(_delta(4, "j4", "done"), now=1.0)
    assert engine.sources[("p1", "apps")] == (1, 4)
    assert engine.read("jobs") == [{"phase": "done", "n": 1}]
    assert owner.sim.trace.counter("db.view_resyncs") == 2
    assert not engine._resyncing
