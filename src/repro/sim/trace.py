"""Timestamped trace — the measurement backbone of every experiment.

Phoenix services mark protocol milestones (``fault.injected``,
``failure.detected``, ``failure.diagnosed``, ``failure.recovered``,
``hb.sent`` ...) on the simulator's trace.  Experiment harnesses then
compute the paper's latencies as deltas between marks, so measurement
never leaks into protocol logic.

The trace also carries named monotone counters (messages per network,
bytes polled, events delivered) used by the bandwidth comparisons in
section 5.4, plus two causal layers:

* **Spans** (:meth:`Trace.span`) — durations with stable ids and parent
  links.  A closed span is its own record, carrying ``span_id`` /
  ``parent_id`` / ``start`` / ``duration``, so a failover decomposes
  into a causal tree instead of flat, uncorrelated marks.
* **Latency histograms** (:meth:`Trace.observe`) — fixed-bucket
  distributions keyed by category (``rpc.call``, ``es.deliver``, ...),
  fed automatically by span close, summarized as p50/p95/p99/max.

Tracing is **zero-cost when unobserved**: marks and closed spans share
one memoized retention rule, under which ``capacity=0`` keeps nothing
(no :class:`TraceRecord` is constructed — a shared sentinel is returned)
and :meth:`Trace.set_record_filter` drops whole category families, so a
4096-node sweep retains only the records its harness reads.  Counters,
histograms, and span timing keep working in every mode.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class TraceRecord:
    """One mark: a virtual timestamp, a dotted category, and free-form fields."""

    time: float
    category: str
    fields: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


#: Shared sentinel returned by :meth:`Trace.mark` when record retention is
#: off (``capacity=0``) or the category is
#: filtered out — callers get a well-formed record without a per-mark
#: allocation.  Never stored in any trace.
_NULL_RECORD = TraceRecord(time=0.0, category="", fields={})


#: Default histogram bucket upper bounds, seconds: log-spaced from the
#: paper's microsecond diagnosis costs up to multi-minute failovers.
DEFAULT_BUCKETS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


class Histogram:
    """Fixed-bucket latency histogram with exact count/sum/min/max.

    Buckets carry observations ``<= bound``; values past the last bound
    land in an overflow bucket whose quantiles report the exact maximum.
    Quantiles are bucket-resolution (upper bound, clamped to the true
    max), which is plenty for the spine's order-of-magnitude categories.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be ascending, got {self.bounds!r}")
        self.counts = [0] * (len(self.bounds) + 1)  # +1: overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        # The first bucket whose bound is >= value; NaN, which compares
        # false with every bound, goes to the overflow bucket.
        idx = bisect_left(self.bounds, value) if value == value else len(self.bounds)
        self.counts[idx] += 1
        self.count += 1
        self.sum += value
        if value < self.min:  # what min()/max() keep, NaN included
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0-100), bucket resolution."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(self.count * p / 100.0))
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if i < len(self.bounds):
                    return min(self.bounds[i], self.max)
                return self.max
        return self.max  # pragma: no cover - rank <= count always hits

    def summary(self) -> dict[str, float]:
        """JSON-safe snapshot: count/mean/min/max and the spine quantiles."""
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "mean": self.sum / self.count,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def to_payload(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Histogram":
        hist = cls(bounds=tuple(payload["bounds"]))
        hist.counts = list(payload["counts"])
        hist.count = int(payload["count"])
        hist.sum = float(payload["sum"])
        hist.min = math.inf if payload.get("min") is None else float(payload["min"])
        hist.max = -math.inf if payload.get("max") is None else float(payload["max"])
        return hist


class Span:
    """One causally-linked duration on the trace.

    Created via :meth:`Trace.span`; :meth:`end` feeds the category's
    latency histogram and makes the span its own record (the surface of a
    :class:`TraceRecord`): ``span_id`` / ``parent_id`` / ``start`` /
    ``duration``, then the open fields updated by the close fields.  Ids
    are small monotone strings, so runs stay deterministic and exports
    stay diffable.
    """

    __slots__ = ("_trace", "span_id", "parent_id", "category", "start", "_fields", "time",
                 "duration")

    def __init__(
        self,
        trace: "Trace",
        span_id: str,
        parent_id: str,
        category: str,
        start: float,
        fields: dict[str, Any],
    ) -> None:
        self._trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.category = category
        self.start = start
        self._fields = fields  # owned by this span: end() merges the close fields in
        self.time: float | None = None
        self.duration: float | None = None

    @property
    def closed(self) -> bool:
        return self.duration is not None

    @property
    def fields(self) -> dict[str, Any]:
        """The record's fields, built on each read."""
        return {"span_id": self.span_id, "parent_id": self.parent_id, "start": self.start,
                "duration": self.duration, **self._fields}

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def child(self, category: str, **fields: Any) -> "Span":
        """Open a child span (parent link set to this span)."""
        return self._trace.span(category, parent=self, **fields)

    def mark(self, category: str, **fields: Any) -> TraceRecord:
        """A point event correlated to this span (carries its span_id)."""
        return self._trace.mark(category, span_id=self.span_id, **fields)

    def end(self, **fields: Any) -> "Span | TraceRecord | None":
        """Close the span: one histogram observation, and the span appended
        as its own record (``_NULL_RECORD`` when the trace keeps none).

        Idempotent — a second close is a no-op returning ``None``, so
        error paths may close defensively in ``finally`` blocks.
        """
        if self.duration is not None:
            return None
        trace = self._trace
        self.time = now = trace._clock()
        self.duration = duration = now - self.start
        self._fields.update(fields)
        trace.total_marked += 1
        trace.observe(self.category, duration)
        if not trace._keeps(self.category):
            return _NULL_RECORD
        trace._records.append(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self.closed else "open"
        return f"Span({self.category!r}, id={self.span_id}, parent={self.parent_id or None}, {state})"


class Trace:
    """Bounded record log plus counter, histogram, and span registries.

    ``capacity=None`` retains everything (fine for experiments that run
    minutes of virtual time); long-running scalability sweeps pass a bound
    so memory stays flat.  ``capacity=0`` puts :meth:`mark` on a
    counter-only fast path: no record is constructed and the shared
    ``_NULL_RECORD`` sentinel is returned.
    """

    def __init__(
        self,
        capacity: int | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self._records: deque[TraceRecord | Span] = deque(maxlen=capacity)
        self._clock = clock or (lambda: 0.0)
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._span_seq = 0
        #: Category-prefix allowlist (None = keep everything, ``()`` at
        #: ``capacity=0`` = keep nothing) plus a per-category memo so the
        #: prefix scan runs once per category.
        self._record_filter: tuple[str, ...] | None = () if capacity == 0 else None
        self._filter_memo: dict[str, bool] = {}
        #: Total records ever marked (not capped by capacity or filters).
        self.total_marked = 0
        #: Ambient scenario correlation id: while a fault-injection span is
        #: open the injector mirrors its span id here, so protocol layers
        #: (e.g. the meta-group regroup machine) can parent their spans on
        #: the fault that triggered them without any plumbing.
        self.scenario_id: str = ""

    # -- records ---------------------------------------------------------
    def mark(self, category: str, **fields: Any) -> TraceRecord:
        """Append a record stamped at the current virtual time.

        In counter-only mode (``capacity=0``) or
        when a record filter excludes ``category``, only ``total_marked``
        is bumped and the shared sentinel record is returned.
        """
        self.total_marked += 1
        if not self._keeps(category):
            return _NULL_RECORD
        record = TraceRecord(self._clock(), category, fields)
        self._records.append(record)
        return record

    def _keeps(self, category: str) -> bool:
        """The one retention rule for marks and closed spans."""
        keep = self._filter_memo.get(category)
        if keep is None:
            prefixes = self._record_filter
            keep = self._filter_memo[category] = prefixes is None or category.startswith(prefixes)
        return keep

    def set_record_filter(self, prefixes: "tuple[str, ...] | list[str] | None") -> None:
        """Retain only future records whose category starts with one of
        ``prefixes`` (``None`` restores keep-everything).

        Filtering happens at mark time — excluded categories never
        construct a record — and does not touch counters, histograms, or
        ``total_marked``.  Already-retained records are kept.  A trace of
        ``capacity=0`` keeps nothing, whatever the filter.
        """
        if self._records.maxlen != 0:
            self._record_filter = tuple(prefixes) if prefixes is not None else None
            self._filter_memo = {}

    def records(self, category: str | None = None, **match: Any) -> list[TraceRecord]:
        """All retained records, optionally filtered.

        ``category`` matches exactly, or as a dotted prefix when it ends
        with ``.`` (``"failure."`` matches ``failure.detected`` etc.).
        Keyword arguments must equal the record's fields.
        """
        return list(self.iter_records(category, **match))

    def iter_records(self, category: str | None = None, **match: Any) -> Iterator[TraceRecord]:
        for rec in self._records:
            if category is not None:
                if category.endswith("."):
                    if not rec.category.startswith(category):
                        continue
                elif rec.category != category:
                    continue
            if any(rec.get(k, _MISSING) != v for k, v in match.items()):
                continue
            yield rec

    def first(self, category: str, **match: Any) -> TraceRecord | None:
        """Earliest retained record matching, or ``None``."""
        return next(self.iter_records(category, **match), None)

    def last(self, category: str, **match: Any) -> TraceRecord | None:
        """Latest retained record matching, or ``None``."""
        found = None
        for rec in self.iter_records(category, **match):
            found = rec
        return found

    # -- spans -----------------------------------------------------------
    def span(
        self,
        category: str,
        parent: "Span | str | None" = None,
        start: float | None = None,
        **fields: Any,
    ) -> Span:
        """Open a span at the current virtual time (or explicit ``start``).

        ``parent`` may be another :class:`Span` or a bare span id string
        (the form that travels inside message payloads across nodes), so
        causal links survive the wire.
        """
        self._span_seq += 1
        parent_id = parent.span_id if isinstance(parent, Span) else (parent or "")
        return Span(
            self,
            span_id=f"sp{self._span_seq}",
            parent_id=parent_id,
            category=category,
            start=self._clock() if start is None else start,
            fields=fields,
        )

    def export_jsonl(self, path: str, include_counters: bool = True) -> int:
        """Write retained records to ``path`` as JSON lines for offline
        analysis; returns the number of record lines written.

        With ``include_counters``, a final ``{"_counters": {...}}`` line
        carries the counter snapshot, followed by a ``{"_histograms":
        {...}}`` line when any histogram has been fed.  The file is fully
        re-loadable via :meth:`load_jsonl` (the trace CLI's input).
        """
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self._records:
                line = {"time": rec.time, "category": rec.category, **rec.fields}
                fh.write(json.dumps(line, default=str) + "\n")
                written += 1
            if include_counters:
                fh.write(json.dumps({"_counters": dict(self._counters)}) + "\n")
                if self._histograms:
                    payload = {name: h.to_payload() for name, h in self._histograms.items()}
                    fh.write(json.dumps({"_histograms": payload}) + "\n")
        return written

    @classmethod
    def load_jsonl(cls, path: str) -> "Trace":
        """Rebuild a trace (records, counters, histograms) from an
        :meth:`export_jsonl` file — the offline half of the span tooling."""
        trace = cls()
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                line = json.loads(raw)
                if "_counters" in line:
                    trace._counters.update(line["_counters"])
                    continue
                if "_histograms" in line:
                    for name, payload in line["_histograms"].items():
                        trace._histograms[name] = Histogram.from_payload(payload)
                    continue
                time = float(line.pop("time"))
                category = str(line.pop("category"))
                trace._records.append(TraceRecord(time=time, category=category, fields=line))
                trace.total_marked += 1
        return trace

    def clear(self) -> None:
        """Drop retained records (counters are kept)."""
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    # -- counters ------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never touched)."""
        return self._counters.get(name, 0.0)

    def counters(self, prefix: str = "") -> dict[str, float]:
        """Snapshot of all counters whose name starts with ``prefix``."""
        return {k: v for k, v in self._counters.items() if k.startswith(prefix)}

    # -- histograms ----------------------------------------------------------
    def observe(self, name: str, value: float, bounds: tuple[float, ...] | None = None) -> None:
        """Feed one observation into histogram ``name`` (auto-created).

        ``bounds`` only applies at creation; span close calls this with
        the span's category, so the spine's latency distributions build
        up without any harness code.
        """
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(bounds or DEFAULT_BUCKETS)
        hist.observe(value)

    def histogram(self, name: str) -> Histogram | None:
        """Histogram ``name``, or ``None`` if never fed."""
        return self._histograms.get(name)

    def histograms(self, prefix: str = "") -> dict[str, Histogram]:
        """All histograms whose name starts with ``prefix``."""
        return {k: v for k, v in self._histograms.items() if k.startswith(prefix)}


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


_MISSING = _Missing()
