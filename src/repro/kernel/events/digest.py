"""Cross-region event digestion (two-tier federation, DESIGN.md §16).

When a forward batch leaves its region, the bulk of its payload is
usually the ``db.delta`` change feed: every base-table mutation of every
partition in the region.  :func:`digest_batch` coalesces each contiguous
``seq`` run of one ``(partition, table, epoch)`` stream into a single
``db.delta_digest`` event that keeps only the *latest* delta per row key
— intermediate versions of a hot row are dropped, which is safe because
the view engine derives old-row values from its own mirror, never from
the feed (see :meth:`repro.kernel.bulletin.views.ViewEngine.on_feed`).

Everything that is not a ``db.delta`` — including digests produced by an
earlier hop — passes through untouched, in order, so digestion is
idempotent and safe to apply to a re-queued batch.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.events.types import DB_DELTA, DB_DELTA_DIGEST

__all__ = ["digest_batch"]

#: Required delta-stream coordinates; a ``db.delta`` missing any of them
#: cannot be merged safely and passes through verbatim.
_STREAM_FIELDS = ("partition", "table", "epoch", "seq")


def _stream_of(payload: dict[str, Any]) -> tuple | None:
    """(partition, table, epoch) of a digestible delta payload, else None."""
    if payload.get("type") != DB_DELTA:
        return None
    data = payload.get("data") or {}
    if any(data.get(f) is None for f in _STREAM_FIELDS):
        return None
    return (data["partition"], data["table"], data["epoch"])


def _fold_run(run: list[dict[str, Any]]) -> dict[str, Any]:
    """One digest event payload covering a contiguous-seq delta run."""
    last = run[-1]
    latest: dict[str, dict[str, Any]] = {}
    for payload in run:
        delta = payload["data"]
        latest[delta["key"]] = delta
    deltas = sorted(latest.values(), key=lambda d: d["seq"])
    return {
        # Deterministically derived from the run's last member, so a
        # retried send carries the same id and receiver-side duplicate
        # suppression still works.
        "event_id": f"{last['event_id']}+dig{len(run)}",
        "type": DB_DELTA_DIGEST,
        "source": last["source"],
        "partition": last["partition"],
        "time": last["time"],
        "data": {
            "table": last["data"]["table"],
            "partition": last["data"]["partition"],
            "epoch": last["data"]["epoch"],
            "seq_lo": run[0]["data"]["seq"],
            "seq_hi": last["data"]["seq"],
            "deltas": deltas,
        },
        "span": last.get("span", ""),
    }


def digest_batch(batch: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Coalesce a forward batch's delta runs for a cross-region hop.

    Preserves relative order: a digest replaces its run at the position
    of the run's *last* member, so per-stream seq order (all the receiver
    relies on) is unchanged.  Single-delta runs pass through as plain
    ``db.delta`` events.
    """
    # Pass 1: assign each digestible delta to a maximal contiguous-seq
    # run of its (partition, table, epoch) stream.
    runs: list[list[dict[str, Any]]] = []
    run_of: dict[int, list[dict[str, Any]]] = {}
    open_runs: dict[tuple, list[dict[str, Any]]] = {}
    for idx, payload in enumerate(batch):
        stream = _stream_of(payload)
        if stream is None:
            continue
        run = open_runs.get(stream)
        if run is not None and payload["data"]["seq"] != run[-1]["data"]["seq"] + 1:
            run = None  # a gap (dropped delta) ends the mergeable run
        if run is None:
            run = open_runs[stream] = []
            runs.append(run)
        run.append(payload)
        run_of[idx] = run
    # Pass 2: emit in order; a run surfaces once, where its last member sat.
    out: list[dict[str, Any]] = []
    for idx, payload in enumerate(batch):
        run = run_of.get(idx)
        if run is None:
            out.append(payload)
        elif payload is run[-1]:
            out.append(payload if len(run) == 1 else _fold_run(run))
    return out
