"""Spans and latency histograms on the trace."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Histogram, Simulator
from repro.sim.trace import DEFAULT_BUCKETS, Trace


def test_span_ids_are_deterministic_and_monotone():
    trace = Trace()
    a = trace.span("rpc.call")
    b = trace.span("rpc.call")
    assert (a.span_id, b.span_id) == ("sp1", "sp2")
    assert a.parent_id == ""


def test_span_end_records_parent_start_duration():
    sim = Simulator()

    def scenario():
        root = sim.trace.span("gsd.failover", node="n1")
        child = root.child("gsd.diagnose")
        yield 2.0
        child.end(kind="process")
        yield 1.0
        root.end(ok=True)

    sim.spawn(scenario())
    sim.run()
    child_rec = sim.trace.first("gsd.diagnose")
    root_rec = sim.trace.first("gsd.failover")
    assert child_rec["parent_id"] == root_rec["span_id"]
    assert child_rec["duration"] == pytest.approx(2.0)
    assert child_rec["kind"] == "process"
    assert root_rec["duration"] == pytest.approx(3.0)
    assert root_rec["start"] == 0.0 and root_rec["node"] == "n1" and root_rec["ok"] is True


def test_span_end_is_idempotent():
    sim = Simulator()
    span = sim.trace.span("x")
    assert span.end() is not None
    assert span.end() is None
    assert len(sim.trace.records("x")) == 1
    assert sim.trace.histogram("x").count == 1


def test_span_parent_accepts_bare_id_string():
    trace = Trace()
    child = trace.span("es.deliver", parent="sp99")
    rec = child.end()
    assert rec["parent_id"] == "sp99"


def test_span_explicit_start_measures_from_there():
    sim = Simulator()

    def scenario():
        yield 5.0
        span = sim.trace.span("es.deliver", start=1.0)
        span.end()

    sim.spawn(scenario())
    sim.run()
    assert sim.trace.first("es.deliver")["duration"] == pytest.approx(4.0)


def test_span_mark_carries_span_id_without_closing():
    trace = Trace()
    span = trace.span("gsd.failover")
    rec = span.mark("failure.detected", node="n2")
    assert rec["span_id"] == span.span_id
    assert rec.get("duration") is None
    assert not span.closed


def test_span_close_feeds_category_histogram():
    sim = Simulator()

    def scenario():
        span = sim.trace.span("rpc.call")
        yield 0.25
        span.end()

    sim.spawn(scenario())
    sim.run()
    hist = sim.trace.histogram("rpc.call")
    assert hist.count == 1
    assert hist.max == pytest.approx(0.25)


def test_histogram_percentiles_bucket_resolution():
    hist = Histogram(bounds=(1.0, 10.0, 100.0))
    for value in (0.5, 0.5, 5.0, 50.0):
        hist.observe(value)
    assert hist.percentile(50) == 1.0  # bucket upper bound
    assert hist.percentile(99) == 50.0  # clamped to the true max
    assert hist.summary()["count"] == 4


def _linear_scan_observe(hist: Histogram, value: float) -> None:
    """The reference: ``Histogram.observe`` as a scan for the first bound
    ``>= value`` (no bound matches NaN: overflow)."""
    idx = len(hist.bounds)
    for i, bound in enumerate(hist.bounds):
        if value <= bound:
            idx = i
            break
    hist.counts[idx] += 1
    hist.count += 1
    hist.sum += value
    hist.min = min(hist.min, value)
    hist.max = max(hist.max, value)


_BOUND = st.floats(allow_nan=False, allow_infinity=True)


@settings(max_examples=300)
@given(
    bounds=st.one_of(st.just(DEFAULT_BUCKETS), st.lists(_BOUND, max_size=8).map(sorted)),
    data=st.data(),
)
def test_property_observe_buckets_like_a_linear_scan(bounds, data):
    """Exact bound values, values between and beyond them, ±inf and NaN all
    land in the bucket the linear scan picks."""
    value = st.one_of(
        st.sampled_from([*bounds, math.inf, -math.inf, math.nan]) if bounds
        else st.sampled_from([math.inf, -math.inf, math.nan]),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    values = data.draw(st.lists(value, max_size=30))
    fast, reference = Histogram(tuple(bounds)), Histogram(tuple(bounds))
    for v in values:
        fast.observe(v)
        _linear_scan_observe(reference, v)
    assert fast.counts == reference.counts
    assert repr((fast.count, fast.sum, fast.min, fast.max)) == repr(
        (reference.count, reference.sum, reference.min, reference.max))


def test_histogram_rejects_unordered_bounds():
    with pytest.raises(ValueError):
        Histogram(bounds=(1.0, 0.5))


def test_histogram_overflow_bucket_reports_true_max():
    hist = Histogram(bounds=(1.0,))
    hist.observe(400.0)
    assert hist.percentile(50) == 400.0
    assert hist.counts[-1] == 1


def test_empty_histogram_summary_is_zeros():
    assert Histogram().summary() == {
        "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0
    }


def test_histogram_payload_roundtrip():
    hist = Histogram(bounds=(1.0, 10.0))
    hist.observe(0.5)
    hist.observe(20.0)
    back = Histogram.from_payload(hist.to_payload())
    assert back.counts == hist.counts
    assert back.summary() == hist.summary()


def test_trace_observe_autocreates_and_prefix_filter():
    trace = Trace()
    trace.observe("db.put", 0.001)
    trace.observe("db.put", 0.002)
    trace.observe("rpc.call", 0.1)
    assert trace.histogram("db.put").count == 2
    assert set(trace.histograms("db.")) == {"db.put"}
