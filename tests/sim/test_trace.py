"""Unit tests for the trace/measurement backbone."""

import pytest

from repro.sim import Simulator
from repro.sim.trace import Trace


def test_mark_stamps_virtual_time():
    sim = Simulator()
    sim.schedule(5.0, sim.trace.mark, "tick")
    sim.run()
    (rec,) = sim.trace.records("tick")
    assert rec.time == 5.0


def test_records_filter_by_category_and_fields():
    trace = Trace()
    trace.mark("failure.detected", node="n1")
    trace.mark("failure.detected", node="n2")
    trace.mark("failure.recovered", node="n1")
    assert len(trace.records("failure.detected")) == 2
    assert len(trace.records("failure.detected", node="n1")) == 1
    assert len(trace.records("failure.")) == 3
    assert trace.records("failure.detected", node="n3") == []


def test_field_filter_distinguishes_missing_from_none():
    trace = Trace()
    trace.mark("x", value=None)
    trace.mark("x")
    assert len(trace.records("x", value=None)) == 1


def test_first_and_last():
    trace = Trace(clock=iter(range(100)).__next__)
    trace.mark("a", i=0)
    trace.mark("a", i=1)
    assert trace.first("a")["i"] == 0
    assert trace.last("a")["i"] == 1
    assert trace.first("zzz") is None
    assert trace.last("zzz") is None


def test_delta_between_marks():
    times = iter([10.0, 42.5])
    trace = Trace(clock=lambda: next(times))
    trace.mark("fault.injected", case=1)
    trace.mark("failure.detected", case=1)
    assert trace.delta("fault.injected", "failure.detected", case=1) == 32.5


def test_delta_missing_mark_raises():
    trace = Trace()
    trace.mark("fault.injected")
    with pytest.raises(LookupError):
        trace.delta("fault.injected", "failure.detected")
    with pytest.raises(LookupError):
        trace.delta("never", "fault.injected")


def test_capacity_evicts_oldest_but_total_keeps_counting():
    trace = Trace(capacity=3)
    for i in range(10):
        trace.mark("x", i=i)
    assert [r["i"] for r in trace.records("x")] == [7, 8, 9]
    assert trace.total_marked == 10


def test_counters():
    trace = Trace()
    trace.count("net.mgmt.bytes", 100)
    trace.count("net.mgmt.bytes", 50)
    trace.count("net.data.bytes", 7)
    assert trace.counter("net.mgmt.bytes") == 150
    assert trace.counter("unknown") == 0
    assert trace.counters("net.") == {"net.mgmt.bytes": 150.0, "net.data.bytes": 7.0}
    trace.reset_counter("net.mgmt.bytes")
    assert trace.counter("net.mgmt.bytes") == 0


def test_clear_keeps_counters():
    trace = Trace()
    trace.mark("x")
    trace.count("c", 3)
    trace.clear()
    assert len(trace) == 0
    assert trace.counter("c") == 3


def test_record_get_and_getitem():
    trace = Trace()
    rec = trace.mark("x", a=1)
    assert rec["a"] == 1
    assert rec.get("b", "fallback") == "fallback"
    with pytest.raises(KeyError):
        rec["b"]


# -- zero-cost fast paths (engine fast-path PR) ----------------------------

def test_capacity_zero_counts_but_retains_nothing():
    from repro.sim.trace import _NULL_RECORD

    trace = Trace(capacity=0)
    rec = trace.mark("hb.sent", node="n1")
    assert rec is _NULL_RECORD  # shared sentinel: no per-mark allocation
    assert trace.total_marked == 1 and len(trace) == 0
    # Counters and histograms keep working on the fast path.
    trace.count("msgs", 2)
    trace.observe("rpc.call", 0.01)
    assert trace.counter("msgs") == 2
    assert trace.histogram("rpc.call").count == 1


def test_record_filter_keeps_only_matching_prefixes():
    trace = Trace()
    trace.set_record_filter(("gridview.", "failure."))
    trace.mark("gridview.refresh")
    trace.mark("failure.detected")
    trace.mark("hb.sent")  # filtered out, still counted
    assert trace.total_marked == 3
    assert [r.category for r in trace.records()] == [
        "gridview.refresh", "failure.detected",
    ]


def test_record_filter_reset_and_memo_invalidation():
    trace = Trace()
    trace.set_record_filter(("a.",))
    trace.mark("b.x")  # memoized as dropped
    assert len(trace) == 0
    trace.set_record_filter(None)  # must invalidate the memo
    trace.mark("b.x")
    assert len(trace) == 1


def test_span_feeds_histogram_even_when_records_dropped():
    sim = Simulator(trace_capacity=0)
    span = sim.trace.span("rpc.call")
    sim.schedule(0.25, span.end)
    sim.run()
    hist = sim.trace.histogram("rpc.call")
    assert hist.count == 1 and hist.max == pytest.approx(0.25)
    assert len(sim.trace) == 0
