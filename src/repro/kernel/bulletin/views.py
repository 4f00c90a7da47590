"""Incrementally maintained materialized views over the bulletin.

The registry half of the relational layer (see
:mod:`repro.kernel.bulletin.query` for the query half): a bulletin
instance that owns registered views keeps them current by consuming the
``db.delta`` change feed every instance publishes through the event
service, instead of rescanning the federation per read.

Two layers:

* :class:`MaterializedView` — a pure state machine: matched-row cache
  plus per-group *subtractable* accumulators (``sum``/``count``/``avg``
  subtract exactly; ``min``/``max`` recompute from the cached group
  members only when the removed value was the extremum).  No simulator
  or network dependencies, so the delta-maintenance algebra is unit- and
  property-testable in isolation.
* :class:`ViewEngine` — the owner-side coordinator: a mirror of the
  maintained base tables, per-``(partition, table)`` ``(epoch, seq)``
  watermarks with duplicate suppression and gap-triggered resync, and
  the build/rebuild flows (initial scans, failover rebuild from the
  checkpointed base tables, buffered deltas during either).

Ordering contract: the event service delivers each source instance's
deltas FIFO (per-peer one-in-flight batches), so a per-source gap in
``seq`` means loss (outbox overflow or a subscription race), never
reordering — the engine heals by rescanning exactly that partition's
slice of that table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import KernelError
from repro.kernel import ports
from repro.kernel.bulletin.query import Query, _project, _sort_key, is_numeric, table_def
from repro.kernel.events.types import DB_DELTA
from repro.kernel.query import matches
from repro.sim import Signal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.bulletin.service import BulletinDaemon

_TABLES = ports.mapping(ports.NAME, ports.mapping(ports.STR, ports.record(
    "stored row", _key=ports.STR, _partition=ports.STR, _updated_at=ports.NUMBER)))


def checkpointed_tables(data: dict[str, Any], names: ports.Names) -> dict[str, list[Any]]:
    """A ``db.tables.<pid>`` checkpoint's rows by table, as the ``AS OF``
    read and the failover seed read it; raises on any other shape."""
    tables = _TABLES.check(data.get("tables") or {}, names)
    return {table: list(rows.values()) for table, rows in tables.items()}


# -- accumulators -------------------------------------------------------------
class _Group:
    """One group's cached member keys plus per-aggregate accumulators."""

    __slots__ = ("keys", "accs")

    def __init__(self, n_aggs: int) -> None:
        self.keys: set[str] = set()
        #: Parallel to the query's aggs: {"c": count, "s": sum, "m": extremum}.
        self.accs: list[dict[str, Any]] = [{"c": 0, "s": 0.0, "m": None} for _ in range(n_aggs)]


class MaterializedView:
    """One registered view: definition, cached result, and counters."""

    def __init__(self, name: str, query: Query) -> None:
        if query.as_of is not None:
            raise KernelError("a materialized view cannot be AS OF a fixed time")
        query.validate()
        self.name = name
        self.query = query
        #: Logical key -> matched logical row (the view's row cache; for
        #: grouped views also the recompute source for min/max removal).
        self._members: dict[str, dict[str, Any]] = {}
        self._groups: dict[tuple, _Group] = {}
        # -- maintenance counters (surfaced by view_report / DB_VIEW_LIST)
        self.maintenance_events = 0  # deltas examined for this view
        self.delta_applied = 0  # deltas that changed the view's content
        self.rebuilds = 0  # from-scratch reconstructions (failover/resync)
        self.resyncs = 0  # source rescans triggered by epoch/seq gaps
        self.last_event_t: float | None = None  # event time of last applied delta
        self.last_lag = 0.0  # apply time - event time of last applied delta
        self.max_lag = 0.0

    # -- delta maintenance ---------------------------------------------------
    def apply(self, key: str, old_row: dict | None, new_row: dict | None) -> bool:
        """Fold one logical-row transition into the view; True if changed."""
        where = self.query.where
        old_m = old_row if old_row is not None and matches(where, old_row) else None
        new_m = new_row if new_row is not None and matches(where, new_row) else None
        if old_m is None and new_m is None:
            return False
        if self.query.grouped:
            if old_m is not None:
                self._group_remove(key, old_m)
            if new_m is None:
                self._members.pop(key, None)
            else:
                self._members[key] = new_m
                self._group_add(key, new_m)
        elif new_m is None:
            self._members.pop(key, None)
        else:
            self._members[key] = new_m
        return True

    def rebuild(self, rows: list[dict[str, Any]]) -> None:
        """From-scratch reconstruction (failover recovery, resync)."""
        self._members.clear()
        self._groups.clear()
        for row in rows:
            self.apply(row["_key"], None, row)
        self.rebuilds += 1

    def _group_key(self, row: dict[str, Any]) -> tuple:
        return tuple(row.get(f) for f in self.query.group_by)

    def _group_add(self, key: str, row: dict[str, Any]) -> None:
        gkey = self._group_key(row)
        group = self._groups.get(gkey)
        if group is None:
            group = self._groups[gkey] = _Group(len(self.query.aggs))
        group.keys.add(key)
        for agg, acc in zip(self.query.aggs, group.accs):
            if agg.field == "*":
                continue
            value = row.get(agg.field)
            if agg.func == "count":
                if value is not None:
                    acc["c"] += 1
            elif is_numeric(value):
                acc["c"] += 1
                acc["s"] += value
                if agg.func == "min":
                    acc["m"] = float(value) if acc["c"] == 1 else min(acc["m"], float(value))
                elif agg.func == "max":
                    acc["m"] = float(value) if acc["c"] == 1 else max(acc["m"], float(value))

    def _group_remove(self, key: str, row: dict[str, Any]) -> None:
        gkey = self._group_key(row)
        group = self._groups.get(gkey)
        if group is None or key not in group.keys:
            return
        group.keys.discard(key)
        for agg, acc in zip(self.query.aggs, group.accs):
            if agg.field == "*":
                continue
            value = row.get(agg.field)
            if agg.func == "count":
                if value is not None:
                    acc["c"] -= 1
            elif is_numeric(value):
                acc["c"] -= 1
                acc["s"] -= value
                if agg.func in ("min", "max") and acc["c"] > 0:
                    # Only an extremum's departure invalidates the cached
                    # bound; anything else subtracts for free.
                    v = float(value)
                    if (agg.func == "min" and v <= acc["m"]) or (
                        agg.func == "max" and v >= acc["m"]
                    ):
                        acc["m"] = self._recompute_extremum(agg, group)
        if not group.keys:
            del self._groups[gkey]

    def _recompute_extremum(self, agg, group: _Group) -> float | None:
        values = [
            float(self._members[k][agg.field])
            for k in group.keys
            if is_numeric(self._members.get(k, {}).get(agg.field))
        ]
        if not values:
            return None
        return min(values) if agg.func == "min" else max(values)

    # -- reads ---------------------------------------------------------------
    def _acc_value(self, agg, acc: dict[str, Any], group: _Group) -> Any:
        if agg.func == "count":
            return len(group.keys) if agg.field == "*" else acc["c"]
        if agg.func == "sum":
            return float(acc["s"])
        if acc["c"] == 0:
            return None
        if agg.func == "avg":
            return float(acc["s"]) / acc["c"]
        return acc["m"]  # min / max

    def rows(self) -> list[dict[str, Any]]:
        """The current materialized result, shaped exactly like
        :func:`repro.kernel.bulletin.query.execute` would shape it."""
        q = self.query
        if q.grouped:
            out = []
            for gkey in sorted(self._groups, key=lambda k: tuple(_sort_key(v) for v in k)):
                group = self._groups[gkey]
                row = dict(zip(q.group_by, gkey))
                for agg, acc in zip(q.aggs, group.accs):
                    row[agg.name] = self._acc_value(agg, acc, group)
                out.append(row)
        else:
            out = [_project(self._members[k], q.select) for k in sorted(self._members)]
        for field_name, descending in reversed(q.order_by):
            out.sort(key=lambda r: _sort_key(r.get(field_name)), reverse=descending)
        if q.limit is not None:
            out = out[: q.limit]
        return out

    def stats(self, now: float | None = None) -> dict[str, Any]:
        """Maintenance counters for view_report / DB_VIEW_LIST."""
        return {
            "maintenance_events": self.maintenance_events,
            "delta_applied": self.delta_applied,
            "rebuilds": self.rebuilds,
            "resyncs": self.resyncs,
            "cached_rows": len(self._members),
            "last_event_t": self.last_event_t,
            "staleness": self.last_lag,
            "max_staleness": self.max_lag,
        }


# -- owner-side coordinator ---------------------------------------------------
_DELTA = ports.CONTRACTS[DB_DELTA]


class ViewEngine:
    """Keeps an owner's views current from the ``db.delta`` feed.

    The engine mirrors every maintained base table (all partitions'
    rows), because delta maintenance needs the *previous* row to derive
    old aggregate contributions — the deltas themselves only ship the
    new row, keeping the feed O(change) bytes.
    """

    def __init__(self, daemon: "BulletinDaemon") -> None:
        self.daemon = daemon
        self.views: dict[str, MaterializedView] = {}
        #: table -> key -> base row (all partitions).
        self.mirror: dict[str, dict[str, dict[str, Any]]] = {}
        #: (partition, table) -> (epoch, delta_seq) last applied.
        self.sources: dict[tuple[str, str], tuple[int, int]] = {}
        #: False until the initial build (or failover rebuild) finishes;
        #: deltas arriving meanwhile are buffered and drained through the
        #: watermark check, so the scan/subscribe race cannot lose or
        #: double-apply an update.
        self.ready = False
        self.building = False
        #: Admitted feeds ``(part, table, epoch, seq, delta)``.
        self._startup_buffer: list[tuple] = []
        self._resyncing: dict[tuple[str, str], list[tuple]] = {}

    # -- helpers -------------------------------------------------------------
    def tables(self) -> set[str]:
        """Base tables any registered view derives from."""
        out: set[str] = set()
        for view in self.views.values():
            out.update(table_def(view.query.table).bases)
        return out

    def _get_row(self, table: str, key: str) -> dict[str, Any] | None:
        return self.mirror.get(table, {}).get(key)

    def _get_rows(self, table: str) -> list[dict[str, Any]]:
        rows = self.mirror.get(table, {})
        return [rows[k] for k in sorted(rows)]

    def _views_for(self, table: str) -> list[MaterializedView]:
        return [
            v for v in self.views.values() if table in table_def(v.query.table).bases
        ]

    def read(self, name: str) -> list[dict[str, Any]]:
        return self.views[name].rows()

    # -- delta intake --------------------------------------------------------
    def on_feed(self, payload: Any, now: float) -> None:
        """Entry point for one ``db.delta`` payload; buffered while the
        initial build is in flight.  Any client may publish a ``db.delta``,
        so the payload is checked against its declaration in
        :mod:`repro.kernel.ports` and refused (``db.refused``) if it breaks it."""
        if _DELTA.refusal(payload, None) is not None:  # a delta names no address
            self.daemon.sim.trace.count(_DELTA.counter)
            return
        table = payload["table"]
        if table not in self.tables():
            return  # subscription lagging a view drop
        feed = (payload["partition"], table, payload["epoch"], payload["seq"], payload)
        if self.ready:
            self._admit(*feed, now)
        else:
            self._startup_buffer.append(feed)

    def _admit(
        self, part: str, table: str, epoch: int, seq: int, delta: dict[str, Any], now: float,
    ) -> None:
        feed = (part, table, epoch, seq, delta)
        pending = self._resyncing.get((part, table))
        if pending is not None:
            pending.append(feed)
            return
        known = self.sources.get((part, table))
        if known is None:
            # A source we never scanned (new partition, or its config
            # outlived a scan failure): baseline it with a rescan.
            self._start_resync(part, table, first=feed)
            return
        cur_epoch, cur_seq = known
        if epoch < cur_epoch or (epoch == cur_epoch and seq <= cur_seq):
            # seq 0 is only ever a successor's epoch announce (repeated on
            # purpose), not a lost or duplicate delta.
            self.daemon.sim.trace.count("db.view_delta_stale" if seq else "db.view_epoch_announces")
            return
        if epoch > cur_epoch or seq > cur_seq + 1:
            # New incarnation (failover) or a lost delta ahead of this one
            # (outbox overflow, subscribe race): the slice is
            # untrustworthy — rescan it.
            self._start_resync(part, table, first=feed)
            return
        self.sources[(part, table)] = (epoch, seq)
        t = delta.get("t")
        self._apply(
            table, delta["key"], delta["row"] if delta["op"] == "put" else None,
            float(now if t is None else t), now,
        )

    def _apply(
        self, table: str, key: str, new_base_row: dict[str, Any] | None,
        event_t: float, now: float,
    ) -> None:
        """Apply one base-row transition to the mirror and every view."""
        affected = self._views_for(table)
        old_logical: dict[str, dict | None] = {}
        for view in affected:
            lt = view.query.table
            if lt not in old_logical:
                old_logical[lt] = table_def(lt).derive_key(key, self._get_row)
        if new_base_row is None:
            self.mirror.get(table, {}).pop(key, None)
        else:
            self.mirror.setdefault(table, {})[key] = new_base_row
        new_logical: dict[str, dict | None] = {}
        for view in affected:
            lt = view.query.table
            if lt not in new_logical:
                new_logical[lt] = table_def(lt).derive_key(key, self._get_row)
            view.maintenance_events += 1
            if view.apply(key, old_logical[lt], new_logical[lt]):
                view.delta_applied += 1
                view.last_event_t = event_t
                view.last_lag = max(0.0, now - event_t)
                view.max_lag = max(view.max_lag, view.last_lag)
                self.daemon.sim.trace.count("db.view_delta_applied")

    # -- resync (gap healing) ------------------------------------------------
    def _start_resync(self, part: str, table: str, first: tuple) -> None:
        self._resyncing[(part, table)] = [first]
        for view in self._views_for(table):
            view.resyncs += 1
        self.daemon.sim.trace.count("db.view_resyncs")
        self.daemon.spawn(
            self._resync_proc(part, table),
            name=f"{self.daemon.node_id}/db.view_resync.{part}.{table}",
        )

    def _resync_proc(self, part: str, table: str) -> Generator[Any, Any, None]:
        scan = yield from self._scan_source(part, table)
        # Popped before the drain: a buffered payload still ahead of the
        # scan plus one (a residual gap) starts a fresh resync of its own.
        buffered = self._resyncing.pop((part, table))
        if scan is None:
            # Peer unreachable: forget the source so the next delta
            # from its successor incarnation retries the rescan.
            self.sources.pop((part, table), None)
            return
        self.replace_slice(part, table, *scan)
        now = self.daemon.sim.now
        for feed in buffered:
            self._admit(*feed, now)

    def _scan_rpc(self, node: str, table: str) -> Signal:
        """Local-scope scan of one peer's slice of one table."""
        return self.daemon.rpc_retry(
            node, ports.DB, ports.DB_QUERY, {"table": table, "scope": "local"},
            call_class="bulletin.fanout",
        )

    @staticmethod
    def _scan_result(reply: dict | None) -> tuple[list[dict], tuple[int, int]] | None:
        """``(rows, (epoch, delta_seq))`` of a scan reply; None when the
        peer was unreachable."""
        if reply is None or "watermark" not in reply:
            return None
        wm = reply["watermark"]
        return reply.get("rows", []), (int(wm["epoch"]), int(wm["delta_seq"]))

    def _scan_source(
        self, part: str, table: str
    ) -> Generator[Any, Any, tuple[list[dict], tuple[int, int]] | None]:
        """One partition's slice of one table: own store read, peer RPC."""
        daemon = self.daemon
        if part == daemon.partition_id:
            return daemon.store.query(table), (daemon.epoch, daemon.delta_seq(table))
        node = daemon.kernel.db_locations().get(part)
        if node is None:
            return None
        return self._scan_result((yield self._scan_rpc(node, table)))

    def _swap_slice(
        self, part: str, table: str, rows: list[dict[str, Any]],
        watermark: tuple[int, int],
    ) -> None:
        slice_ = self.mirror.setdefault(table, {})
        for key in [k for k, r in slice_.items() if r.get("_partition") == part]:
            del slice_[key]
        for row in rows:
            slice_[row["_key"]] = row
        self.sources[(part, table)] = watermark

    def replace_slice(
        self, part: str, table: str, rows: list[dict[str, Any]],
        watermark: tuple[int, int],
    ) -> None:
        """Swap one partition's slice of one mirrored table and rebuild
        the views deriving from it (scan results supersede any deltas
        applied while the scan was in flight)."""
        self._swap_slice(part, table, rows, watermark)
        for view in self._views_for(table):
            view.rebuild(table_def(view.query.table).derive(self._get_rows))

    def _baseline_own(self, table: str, seed: dict[str, list[Any]] | None = None) -> None:
        """Own partition's slice: the seed's rows with the live store
        overlaid on top (fresher), watermarked on the *current*
        incarnation so new deltas apply cleanly."""
        daemon = self.daemon
        own = daemon.partition_id
        seeded = (seed or {}).get(table, ())
        self._swap_slice(
            own, table,
            [r for r in seeded if r.get("_partition") == own] + daemon.store.query(table),
            (daemon.epoch, daemon.delta_seq(table)),
        )

    # -- build / failover rebuild --------------------------------------------
    def build(self, seed: dict[str, list[Any]] | None = None) -> Generator[Any, Any, None]:
        """Initial build (registration) or failover rebuild.

        ``seed`` is a recovered ``db.tables.<pid>`` checkpoint's rows
        (:func:`checkpointed_tables`): the dead incarnation's local base
        rows, used to answer reads immediately while detectors repopulate
        the restarted store.  Seed rows a producer never re-exports are
        garbage-collected by :meth:`reconcile_own`.
        """
        daemon = self.daemon
        own = daemon.partition_id
        tables = sorted(self.tables())
        self.building = True
        for table in tables:
            self._baseline_own(table, seed)
        # Every scan goes on the wire before the first reply is folded:
        # send order drives the jitter RNG.
        signals = {
            (part, table): self._scan_rpc(node, table)
            for part, node in sorted(daemon.kernel.db_locations().items())
            if part != own
            for table in tables
        }
        for (part, table), signal in signals.items():
            scan = self._scan_result((yield signal))
            if scan is not None:  # else: the peer's first delta triggers a resync
                self._swap_slice(part, table, *scan)
        for view in self.views.values():
            view.rebuild(table_def(view.query.table).derive(self._get_rows))
        self.ready = True
        self.building = False
        buffered, self._startup_buffer = self._startup_buffer, []
        now = daemon.sim.now
        for feed in buffered:
            self._admit(*feed, now)

    def build_table(self, table: str) -> Generator[Any, Any, None]:
        """Bring one *additional* base table under maintenance (a later
        view needs a table no earlier view derived from)."""
        daemon = self.daemon
        own = daemon.partition_id
        if (own, table) not in self.sources:
            self._baseline_own(table)
        for part in sorted(daemon.kernel.db_locations()):
            if part == own or (part, table) in self.sources:
                continue
            scan = yield from self._scan_source(part, table)
            if scan is not None:
                self.replace_slice(part, table, *scan)

    # -- housekeeping ---------------------------------------------------------
    def reconcile_own(self, now: float, grace: float) -> int:
        """Drop own-partition mirror rows absent from the live store for
        longer than ``grace`` — checkpoint-seeded rows whose producer
        never re-exported (every *live* removal publishes a delta, so
        this only ever collects failover leftovers)."""
        daemon = self.daemon
        own = daemon.partition_id
        dropped = 0
        for table, slice_ in self.mirror.items():
            stale = [
                key
                for key, row in slice_.items()
                if row.get("_partition") == own
                and now - float(row.get("_updated_at", now)) > grace
                and daemon.store.get(table, key) is None
            ]
            for key in stale:
                self._apply(table, key, None, now, now)
                dropped += 1
        if dropped:
            daemon.sim.trace.count("db.view_reconciled", dropped)
        return dropped

    # -- introspection ---------------------------------------------------------
    def stats(self, now: float | None = None) -> dict[str, Any]:
        return {
            "ready": self.ready,
            "tables": sorted(self.tables()),
            "mirror_rows": sum(len(s) for s in self.mirror.values()),
            "views": {name: view.stats(now) for name, view in sorted(self.views.items())},
        }


# -- report helper (monitoring satellite) -------------------------------------
def view_report(
    listings: dict[str, dict[str, Any]], now: float | None = None
) -> dict[str, Any]:
    """``messaging_report``-style summary over ``DB_VIEW_LIST`` replies.

    ``listings`` maps owner partition id -> its reply payload
    (``{"views": [{"name", "query", "stats"}, ...]}``).
    """
    views: dict[str, dict[str, Any]] = {}
    totals = {"maintenance_events": 0, "delta_applied": 0, "rebuilds": 0, "resyncs": 0}
    for part, listing in sorted(listings.items()):
        if not listing:
            continue  # instance unreachable when surveyed — skip, don't fail
        for entry in listing.get("views", []):
            stats = dict(entry.get("stats", {}))
            stats["owner"] = part
            views[entry["name"]] = stats
            for key in totals:
                totals[key] += int(stats.get(key, 0))
    return {"views": views, "totals": totals}
