"""Trace export for offline analysis."""

import json

from repro.sim import Simulator


def test_export_jsonl_roundtrip(tmp_path):
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.trace.mark("a.b", node="n1", value=3))
    sim.schedule(2.0, lambda: sim.trace.mark("c.d"))
    sim.run()
    sim.trace.count("msgs", 7)
    path = tmp_path / "trace.jsonl"
    written = sim.trace.export_jsonl(str(path))
    assert written == 2
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0] == {"time": 1.0, "category": "a.b", "node": "n1", "value": 3}
    assert lines[1] == {"time": 2.0, "category": "c.d"}
    assert lines[2] == {"_counters": {"msgs": 7.0}}


def test_export_without_counters(tmp_path):
    sim = Simulator()
    sim.trace.mark("x")
    path = tmp_path / "t.jsonl"
    sim.trace.export_jsonl(str(path), include_counters=False)
    assert len(path.read_text().splitlines()) == 1


def test_export_serializes_odd_values(tmp_path):
    sim = Simulator()
    sim.trace.mark("odd", value={1, 2})  # a set: not JSON-native
    path = tmp_path / "t.jsonl"
    assert sim.trace.export_jsonl(str(path)) == 1
    assert "odd" in path.read_text()


def test_export_load_roundtrip_with_spans_and_histograms(tmp_path):
    """An export with spans/histograms is fully re-loadable — the trace
    CLI's input contract."""
    from repro.sim.trace import Trace

    sim = Simulator()

    def scenario():
        root = sim.trace.span("gsd.failover", node="n1")
        yield 1.5
        root.end(ok=True)

    sim.spawn(scenario())
    sim.run()
    sim.trace.count("es.published", 4)
    path = tmp_path / "trace.jsonl"
    sim.trace.export_jsonl(str(path))

    back = Trace.load_jsonl(str(path))
    assert back.counter("es.published") == 4.0
    rec = back.first("gsd.failover")
    assert rec["span_id"] == "sp1" and rec["duration"] == 1.5
    hist = back.histogram("gsd.failover")
    assert hist.count == 1 and hist.max == 1.5
    assert back.total_marked == len(back)


def test_bounded_capacity_evicts_but_total_marked_is_exact():
    from repro.sim.trace import Trace

    trace = Trace(capacity=10)
    for i in range(25):
        trace.mark("tick", seq=i)
    assert len(trace) == 10
    assert trace.total_marked == 25
    # Only the newest records are retained, oldest evicted first.
    assert [r["seq"] for r in trace.records("tick")] == list(range(15, 25))


def _mark_built_span_line(tmp_path, category, start, end, open_fields, close_fields):
    """The line a closed span exported as when closing it called
    ``mark(category, span_id=..., parent_id=..., start=..., duration=...,
    **{**open_fields, **close_fields})``."""
    from repro.sim.trace import Trace

    trace = Trace(clock=lambda: end)
    trace.mark(category, span_id="sp1", parent_id="sp0", start=start, duration=end - start,
               **{**open_fields, **close_fields})
    path = tmp_path / "marked.jsonl"
    trace.export_jsonl(str(path), include_counters=False)
    return path.read_bytes()


def test_span_exports_byte_identical_to_its_mark_built_record(tmp_path):
    open_fields = {"src": "p0c0", "ok": None, "payload": {"k": [1, 2]}, "odd": {3}}
    close_fields = {"ok": True, "attempts_used": 2, "when": 0.1 + 0.2}
    sim = Simulator()
    sim.run(until=0.75)
    span = sim.trace.span("rpc.retry", parent="sp0", **open_fields)
    sim.run(until=1.0 / 3.0 + 1.0)
    span.end(**close_fields)
    path = tmp_path / "span.jsonl"
    sim.trace.export_jsonl(str(path), include_counters=False)
    assert path.read_bytes() == _mark_built_span_line(
        tmp_path, "rpc.retry", 0.75, 1.0 / 3.0 + 1.0, open_fields, close_fields)


def test_load_jsonl_round_trips_a_span_into_an_equal_record(tmp_path):
    from repro.sim.trace import Trace, TraceRecord

    sim = Simulator()
    span = sim.trace.span("es.deliver", parent="sp7", topic="t")
    sim.run(until=0.5)
    span.end(ok=True)
    path = tmp_path / "trace.jsonl"
    sim.trace.export_jsonl(str(path))
    (back,) = Trace.load_jsonl(str(path)).records()
    assert isinstance(back, TraceRecord)
    assert back == TraceRecord(span.time, span.category, span.fields)
