"""Data bulletin service — the cluster-wide in-memory database.

"Data bulletin service is an in-memory database which stores the state of
cluster-wide physical resource and application state; it provides
interfaces for non-persistent data storage and data query" (paper §4.2).

One instance per partition holds that partition's detector exports.  The
instances form a federation shaped like a complete graph (Figure 5):
``DB_EXEC``, the one cluster-wide read, sent to *any* instance probes
every peer (``DB_QUERY``, the peer probe), merges the rows, and reports
which partitions could not answer — so users see a single access point,
and one failed instance only hides one partition's state until the GSD
restarts it.  A key-value read is ``Query(table, where)`` over a
physical table; a registered view is a table too, answered by its owner.

The reads are a small relational layer
(:mod:`repro.kernel.bulletin.query`): typed AST queries over logical or
physical tables (the full-scan reference path, also serving ``AS OF``
time-travel from checkpoint history) and incrementally maintained
materialized views (:mod:`repro.kernel.bulletin.views`).  While any view
is registered, every instance publishes a ``db.delta`` change feed
through its partition's event service; the owning instance folds those
deltas into its views instead of rescanning, and checkpoints its base
tables so a restarted owner can rebuild without waiting a full detector
cycle.  With no view registered the layer is inert: no deltas, no
subscriptions, no checkpoints.
"""

from __future__ import annotations

import math
from typing import Any

from repro.cluster.message import Message
from repro.errors import KernelError
from repro.kernel import ports
from repro.kernel.bulletin import query as rel
from repro.kernel.bulletin.query import (  # noqa: F401 - re-exported
    TABLE_APPS,
    TABLE_NET_STATE,
    TABLE_NODE_METRICS,
    TABLE_NODE_STATE,
)
from repro.kernel.bulletin.store import BulletinStore
from repro.kernel.bulletin.views import MaterializedView, ViewEngine, checkpointed_tables
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.events.types import DB_DELTA

#: Port where a view-owning instance receives its ``db.delta`` feed.
VIEW_EVENTS_PORT = "db.view_events"


def _row_order(row: dict[str, Any]) -> tuple[str, str]:
    """Canonical result order: by source partition, then key."""
    return (row.get("_partition", ""), row.get("_key", ""))


def _ordered(rows_by_table: dict[str, list[dict[str, Any]]], table: str):
    """Executor row source for a scan of ``table``: each base table's
    gathered rows in canonical order, or as gathered where ``table``'s
    derive orders its rows itself (one sort either way)."""
    if rel.table_def(table).self_ordered:
        return lambda base: rows_by_table.get(base, [])
    return lambda base: sorted(rows_by_table.get(base, []), key=_row_order)


#: Tables whose rows go stale when their producer stops exporting
#: (detector feeds); mapped to expiry in units of the detector interval.
EXPIRING_TABLES = {
    TABLE_NODE_METRICS: 4.0,
    TABLE_NET_STATE: 4.0,
    TABLE_APPS: 12.0,
}


#: A ``db.views.<pid>`` checkpoint (each view entry is adopted, or skipped, on its own).
_VIEWS = ports.record("views config", tables=ports.opt(ports.NAMES),
                      views=ports.opt(ports.each(ports.ANY)))


class BulletinDaemon(ServiceDaemon):
    """Per-partition data bulletin instance."""

    SERVICE = "db"

    def __init__(self, kernel, node_id: str) -> None:
        super().__init__(kernel, node_id)
        self.store = BulletinStore()
        self.store.on_mutation = self._on_store_mutation
        #: Incarnation number, assigned at start from a kernel-side
        #: monotone counter: readers use it to detect that two replies
        #: straddled a failover, view owners use it to fence stale deltas.
        self.epoch = 0
        #: Total store mutations this incarnation (read watermarks).
        self._seq = 0
        #: Per-table ``db.delta`` sequence numbers (gap detection is per
        #: (partition, table), so owners maintaining a table subset never
        #: see false gaps from tables they ignore).
        self._delta_seqs: dict[str, int] = {}
        #: Tables whose mutations are published as ``db.delta`` events
        #: (empty until a view registration's DB_MAINT broadcast arrives).
        self._publish_tables: set[str] = set()
        #: Epoch announces sent per quiet published table (successors only).
        self._epoch_announces: dict[str, int] = {}
        self.engine: ViewEngine | None = None
        self._tables_key = f"db.tables.{self.partition_id}"
        self._views_key = f"db.views.{self.partition_id}"

    def on_start(self) -> None:
        self.epoch = self.kernel.next_db_epoch(self.partition_id)
        # The store's mutation callback calls back into this daemon: a dead
        # incarnation drops it, or it would stay in a cycle only the collector frees.
        self.hp.on_kill(self._release_self_references)
        self.spawn(self._housekeeping(), name=f"{self.node_id}/db.housekeeping")
        if self.kernel.view_maintenance:
            # A prior incarnation somewhere enabled the relational layer:
            # recover our maintenance config (and owned views) from the
            # checkpoint service.  Gating on the kernel-wide latch keeps
            # runs that never register a view byte-identical.
            self.spawn(self._recover_maintenance(), name=f"{self.node_id}/db.view_recovery")

    def _release_self_references(self) -> None:
        self.store.on_mutation = None

    def delta_seq(self, table: str) -> int:
        return self._delta_seqs.get(table, 0)

    def _housekeeping(self):
        """Evict rows whose producers stopped exporting (e.g. a crashed
        node's last metrics sample) — the bulletin is a live cache, not
        an archive ("non-persistent data storage", §4.2)."""
        interval = self.timings.detector_interval
        while True:
            yield interval
            for table, multiple in EXPIRING_TABLES.items():
                expired = self.store.expire(table, max_age=multiple * interval, now=self.sim.now)
                if expired:
                    self.sim.trace.count("db.expired", expired)
            if self.epoch > 1:
                # A successor whose table stays quiet never publishes a
                # delta carrying its new epoch, so remote view owners would
                # keep the dead incarnation's rows forever.  Announce it
                # with seq 0: the owner resyncs on the newer epoch.  Not
                # once at start-up (the partition's ES may be failing over
                # alongside us) but for enough ticks to outlast that
                # failover: two heartbeats' worth, three at least.
                ticks = max(3, math.ceil(2.0 * self.timings.heartbeat_interval / interval))
                for table in sorted(self._publish_tables):
                    sent = self._epoch_announces.get(table, 0)
                    if not self.delta_seq(table) and sent < ticks:
                        self._epoch_announces[table] = sent + 1
                        self._publish_delta(table, "", "epoch", 0)
            if self.engine is not None and self.engine.ready:
                # Collect failover leftovers: checkpoint-seeded mirror rows
                # whose producer never re-exported into the live store.
                self.engine.reconcile_own(self.sim.now, grace=2.0 * interval)
                # Re-assert maintenance config (best-effort, idempotent):
                # heals a peer that restarted before ever persisting it.
                self._rebroadcast_maint()
                # Re-assert the delta-feed subscriptions (replace-in-place):
                # heals a subscribe that raced an ES failover, or an ES
                # whose restored registry still points at our predecessor.
                self.spawn(
                    self._subscribe_view_feed(self.engine.tables()),
                    name=f"{self.node_id}/db.view_resub",
                )

    # -- change feed (materialized-view maintenance) -----------------------
    def _on_store_mutation(self, table: str, key: str, op: str, row) -> None:
        self._seq += 1
        if table not in self._publish_tables:
            return
        seq = self._delta_seqs.get(table, 0) + 1
        self._delta_seqs[table] = seq
        self._publish_delta(table, key, op, seq, row)
        self.sim.trace.count("db.deltas_published")
        self.save_state_soon(self._tables_key, self._tables_snapshot)

    def _publish_delta(self, table: str, key: str, op: str, seq: int, row=None) -> None:
        delta: dict[str, Any] = {
            "table": table,
            "key": key,
            "op": op,
            "partition": self.partition_id,
            "epoch": self.epoch,
            "seq": seq,
            "t": self.sim.now,
        }
        if row is not None:
            delta["row"] = row
        # One way: the feed is lossy by design — a dropped delta shows up
        # as a seq gap at the owner, which rescans the slice.
        self.publish(DB_DELTA, delta)

    def _tables_snapshot(self) -> dict[str, Any] | None:
        """The maintained base tables, saved debounced: a detector export
        burst coalesces into one write."""
        return {
            "tables": {
                table: {row["_key"]: row for row in self.store.query(table)}
                for table in sorted(self._publish_tables)
            },
            "epoch": self.epoch, "delta_seqs": dict(self._delta_seqs), "t": self.sim.now,
        } if self._publish_tables else None

    def _save_views(self):
        """Persist the maintenance config (published tables + owned view
        definitions) so a restarted instance can resume both roles."""
        return self.save_state(self._views_key, {
            "tables": sorted(self._publish_tables),
            "views": [{"name": view.name, "query": view.query.to_payload()}
                      for _, view in sorted(self.engine.views.items())]
            if self.engine is not None else [],
        })

    # -- handlers ----------------------------------------------------------
    def _on_put(self, msg: Message) -> dict[str, Any]:
        self.store.put(
            msg.payload["table"],
            msg.payload["key"],
            msg.payload["row"],
            now=self.sim.now,
            partition=self.partition_id,
        )
        self.sim.trace.count("db.puts")
        # Ingest latency: producer send → row visible in the store.
        self.sim.trace.observe("db.put", self.sim.now - msg.sent_at)
        return {"ok": True}

    def _on_query(self, msg: Message) -> dict[str, Any] | None:
        """The federation's peer probe: this instance's slice of one table
        and its watermark (``local``), or, at an aggregator, its region
        mesh's slices through the executor (``region``)."""
        table, where = msg.payload["table"], msg.payload.get("where")
        self.sim.trace.count("db.queries")
        if msg.payload["scope"] == "region":
            return self._start_exec(msg, rel.Query(table, where), region=True)
        watermark = {"epoch": self.epoch, "seq": self._seq, "delta_seq": self.delta_seq(table)}
        return {"rows": self.store.query(table, where), "partitions_missing": [],
                "watermark": watermark}

    # -- the one cluster-wide read (DB_EXEC) -------------------------------
    def _on_exec(self, msg: Message) -> dict[str, Any] | None:
        """A registered view is a table: a query over its name is answered
        at once from the maintained rows; any other table is gathered."""
        try:
            q = rel.Query.from_payload(msg.payload["query"])
            q.validate()
            if q.table in self.kernel.view_owners:
                return self._read_view(q)
        except Exception as exc:
            return {"error": str(exc), "rows": [], "partitions_missing": []}
        self.sim.trace.count("db.execs")
        return self._start_exec(msg, q)

    def _read_view(self, q: "rel.Query") -> dict[str, Any]:
        """``q`` over the view it names, at the view's owner: O(result)
        bytes.  A view keeps no history, so it has no ``AS OF``."""
        engine = self.engine
        if engine is None or q.table not in engine.views:
            raise KernelError(f"view {q.table!r} is not registered here")
        if q.as_of is not None:
            raise KernelError(f"view {q.table!r} has no as_of: query its base table")
        self.sim.trace.count("db.view_reads")
        return {
            "rows": rel.execute(q, engine.read(q.table)),
            "ready": engine.ready,
            "watermark": {"epoch": self.epoch, "seq": self._seq},
            "watermarks": {
                part_id: epoch
                for (part_id, _table), (epoch, _seq) in sorted(engine.sources.items())
            },
            "staleness": engine.views[q.table].last_lag,
        }

    def _start_exec(self, msg: Message, q: "rel.Query", region: bool = False) -> None:
        span = self.sim.trace.span(
            "db.exec", parent=msg.payload.get("_span", ""), node=self.node_id, table=q.table
        )
        self.spawn(self._exec_flow(msg, q, span, region), name=f"{self.node_id}/db.exec")
        return None  # answered by _exec_flow, not by the transport

    def _exec_flow(self, msg: Message, q: "rel.Query", span, region: bool):
        if q.as_of is not None:
            rows_by_table, missing, extra = yield from self._as_of_rows(q, span)
        else:
            rows_by_table, missing, extra = yield from self._live_rows(q, span, region)
        result = rel.execute_on(q, _ordered(rows_by_table, q.table))
        self.reply(msg, {"rows": result, "partitions_missing": missing, **extra})
        span.end(rows=len(result), missing=len(missing),
                 **({} if q.as_of is None else {"as_of": q.as_of}))

    def _live_rows(self, q: "rel.Query", span, region: bool):
        """Every base table of ``q``'s table, gathered across the federation:
        the deliberately naive reference path the IVM layer is measured
        against, O(nodes) rows over the wire per query.  A physical table's
        ``where`` is pushed into every read; a derived table is filtered
        after the join.

        Probes go to the own-region mesh at local scope plus — unless the
        read is itself region-scoped — one region-scope probe per remote
        aggregator, O(R + P/R) requests instead of O(P), in ``sorted()``
        order × base tables.  All are sent before the first reply is
        folded: send order drives the jitter RNG."""
        tables = rel.base_tables(q.table)
        where = q.where if tables == (q.table,) else None
        rows_by_table = {table: self.store.query(table, where) for table in tables}
        peers = sorted(
            (pid, node, "region" if remote else "local")
            for pid, node, remote in self.kernel.federation_edges("db", self.partition_id)
            if not (region and remote)
        )
        # Peer probes are idempotent: retry within the same budget so one
        # lost datagram does not hide a partition's rows.
        signals = [
            (part_id, scope, table, self.rpc_retry(
                node, ports.DB, ports.DB_QUERY,
                {"table": table, "where": where, "scope": scope} if where
                else {"table": table, "scope": scope},
                span=span, call_class="bulletin.fanout",
            ))
            for part_id, node, scope in peers
            for table in tables
        ]
        replies: list[tuple[str, dict[str, Any]]] = []
        missing: list[str] = []
        watermarks: dict[str, int] = {self.partition_id: self.epoch}
        for part_id, scope, table, signal in signals:
            reply = yield signal
            if reply is None:  # hides the partition, or a remote aggregator's region
                missing.extend(self.kernel.region_partitions(part_id)
                               if scope == "region" else [part_id])
                continue
            wm = reply.get("watermark")
            epochs = {part_id: wm["epoch"]} if wm is not None else reply.get("watermarks") or {}
            for pid, epoch in epochs.items():
                if watermarks.setdefault(pid, int(epoch)) != int(epoch):
                    missing.append(pid)  # answered by two incarnations
            missing.extend(reply.get("partitions_missing", ()))
            replies.append((table, reply))
        # A partition answers whole or not at all: rows from a partition
        # missing any base table, or read from two incarnations, would
        # join into a state that never existed (a down node counted up).
        missing = sorted(set(missing))  # one entry per partition, not per table probe
        for table, reply in replies:
            rows = reply.get("rows", [])
            if missing:
                rows = [r for r in rows if r["_partition"] not in missing]
            rows_by_table[table].extend(rows)
        return rows_by_table, missing, {"watermarks": watermarks}

    def _as_of_rows(self, q: "rel.Query", span):
        """Time-travel: answer from checkpointed base tables instead of
        live stores — "what did the cluster look like at t" (§time-travel
        in DESIGN.md §14).  Requires view maintenance to have been on
        around ``t`` (that is what checkpoints the base tables).

        Every partition's ``db.tables.<pid>`` pull goes on the wire, in
        ``sorted()`` order, before the first reply is folded; a partition
        whose checkpoint is missing or unreadable is missing."""
        pulls = {
            part_id: self.load_state(
                f"db.tables.{part_id}", lambda d, n: (checkpointed_tables(d, n), d.get("t")),
                partition=part_id, at_time=q.as_of, span=span)
            for part_id in sorted(p.partition_id for p in self.kernel.cluster.partitions)
        }
        rows_by_table: dict[str, list[dict[str, Any]]] = {}
        versions: dict[str, dict[str, Any]] = {}
        missing = []
        for part_id, pull in pulls.items():
            loaded = yield from pull
            if not loaded:
                missing.append(part_id)
                continue
            tables, t = loaded["data"]
            versions[part_id] = {"version": loaded["version"], "t": t}
            for table, rows in tables.items():
                rows_by_table.setdefault(table, []).extend(rows)
        return rows_by_table, missing, {"as_of": q.as_of, "versions": versions}

    # -- materialized views -------------------------------------------------
    def _adopt_view(self, name: str, query: dict[str, Any]) -> MaterializedView:
        """Take ownership of one view definition (registration or
        failover recovery); raises on a definition that does not parse."""
        view = MaterializedView(name, rel.Query.from_payload(query))
        if self.engine is None:
            self.engine = ViewEngine(self)
        self.engine.views[name] = view
        self.kernel.view_owners[name] = self.partition_id
        return view

    def _on_view_register(self, msg: Message) -> dict[str, Any] | None:
        name = msg.payload["name"]
        if name in rel.KERNEL_TABLES or name in self.store.tables():
            return {"ok": False, "error": f"view {name!r} would shadow the table {name!r}"}
        try:
            view = self._adopt_view(name, msg.payload["query"])
        except Exception as exc:
            return {"ok": False, "error": str(exc)}
        self.kernel.view_maintenance = True
        self._publish_tables |= set(rel.base_tables(view.query.table))
        self.sim.trace.count("db.view_registers")
        self.spawn(self._register_flow(msg, view), name=f"{self.node_id}/db.view_register")
        return None

    def _register_flow(self, msg: Message, view: MaterializedView):
        engine = self.engine
        yield from self._subscribe_view_feed(engine.tables())
        yield from self._broadcast_maint()
        saved = self._save_views()
        if saved is not None:
            yield saved
        self.save_state_soon(self._tables_key, self._tables_snapshot)
        if not engine.ready and not engine.building:
            yield from engine.build()
        else:
            while not engine.ready:
                yield 0.05  # a concurrent registration's build is in flight
            for table in sorted(rel.base_tables(view.query.table)):
                yield from engine.build_table(table)
            view.rebuild(rel.table_def(view.query.table).derive(engine._get_rows))
        self.sim.trace.mark("db.view_built", view=view.name, node=self.node_id)
        self.reply(msg, {
            "ok": True,
            "view": view.name,
            "owner": self.partition_id,
            "rows": len(view.rows()),
        })

    def _subscribe_view_feed(self, tables):
        """One ES subscription per maintained base table — equality on
        ``table`` so the SubscriptionIndex hash-prunes the feed.
        Re-subscribing with the same consumer id replaces in place."""
        for table in sorted(tables):
            yield from self.subscribe(f"db.views.{self.partition_id}.{table}",
                                      VIEW_EVENTS_PORT, [DB_DELTA], {"table": table})

    def _maint_probes(self) -> list[tuple[str, dict[str, Any]]]:
        """``(node, DB_MAINT payload)`` per broadcast target in ``sorted()``
        order: own region's mesh plus remote aggregators, the latter
        flagged to re-relay into their region so config reaches everyone
        in O(R + P/R)."""
        payload = self._maint_payload()
        return [
            (node, dict(payload, relay=True) if relay else dict(payload))
            for _pid, node, relay in sorted(self.kernel.federation_edges("db", self.partition_id))
        ]

    def _broadcast_maint(self):
        signals = [
            self.rpc_retry(node, ports.DB, ports.DB_MAINT, payload, call_class="bulletin.fanout")
            for node, payload in self._maint_probes()
        ]
        for signal in signals:
            yield signal  # best-effort: housekeeping re-broadcasts heal stragglers

    def _rebroadcast_maint(self) -> None:
        for node, payload in self._maint_probes():
            self.send(node, ports.DB, ports.DB_MAINT, payload)

    def _maint_payload(self) -> dict[str, Any]:
        return {
            "tables": sorted(self._publish_tables),
            "views": {
                name: self.partition_id
                for name in (self.engine.views if self.engine is not None else ())
            },
        }

    def _on_maint(self, msg: Message) -> dict[str, Any] | None:
        tables = msg.payload.get("tables") or ()
        views = msg.payload.get("views") or {}
        self.kernel.view_maintenance = True
        if msg.payload.get("relay"):
            # The sender only reached this region's aggregator — re-relay
            # the config into the local mesh (one hop only; the relayed
            # copy drops the flag).
            relayed = {k: v for k, v in msg.payload.items() if k != "relay"}
            for _pid, node, remote in self.kernel.federation_edges("db", self.partition_id):
                if not remote:
                    self.send(node, ports.DB, ports.DB_MAINT, dict(relayed))
        for name, part_id in views.items():
            self.kernel.view_owners[name] = part_id
        new = set(tables) - self._publish_tables
        if new:
            self._publish_tables |= new
            self.save_state_soon(self._tables_key, self._tables_snapshot)
            self._save_views()
        return {"ok": True, "epoch": self.epoch, "tables": sorted(self._publish_tables)}

    def _on_view_drop(self, msg: Message) -> dict[str, Any]:
        name = msg.payload["name"]
        if self.engine is None or name not in self.engine.views:
            return {"ok": False, "error": f"view {name!r} is not registered here"}
        del self.engine.views[name]
        self.kernel.view_owners.pop(name, None)
        keep = self.engine.tables()
        for table in [t for t in self.engine.mirror if t not in keep]:
            del self.engine.mirror[table]
            for source in [s for s in self.engine.sources if s[1] == table]:
                del self.engine.sources[source]
        self._save_views()
        return {"ok": True, "view": name}

    def _on_view_list(self, msg: Message) -> dict[str, Any]:
        engine = self.engine
        return {
            "partition": self.partition_id,
            "views": [
                {"name": view.name, "query": view.query.to_payload(),
                 "stats": view.stats(self.sim.now)}
                for _, view in sorted(engine.views.items())
            ]
            if engine is not None
            else [],
            "engine": engine.stats(self.sim.now) if engine is not None else None,
        }

    def _on_view_event(self, msg: Message) -> None:
        if self.engine is not None:
            self.engine.on_feed(msg.payload["event"].get("data") or {}, self.sim.now)

    PORTS = {
        ports.DB: {
            ports.DB_PUT: _on_put,
            ports.DB_DELETE: lambda self, msg: {
                "ok": self.store.delete(msg.payload["table"], msg.payload["key"])},
            ports.DB_QUERY: _on_query,
            ports.DB_EXEC: _on_exec,
            ports.DB_VIEW_REGISTER: _on_view_register,
            ports.DB_VIEW_DROP: _on_view_drop,
            ports.DB_VIEW_LIST: _on_view_list,
            ports.DB_MAINT: _on_maint,
        },
        VIEW_EVENTS_PORT: {ports.ES_EVENT: _on_view_event},
    }

    def _recover_maintenance(self):
        """Failover path: restore maintenance config — and, when this
        partition owned views, rebuild them from the checkpointed base
        tables + live peer scans (DESIGN.md §14)."""
        # The checkpoint primary may be failing over alongside us — keep
        # probing until one answers (this coroutine dies with the daemon, so
        # the loop cannot outlive an obsolete instance).
        while (loaded := (yield from self.load_state(self._views_key, _VIEWS.check))) is None:
            yield self.timings.detector_interval
        if not loaded:
            return
        self._publish_tables |= set(loaded["data"].get("tables") or ())
        adopted = False
        for entry in loaded["data"].get("views") or ():
            try:
                self._adopt_view(entry["name"], entry["query"])
                adopted = True
            except Exception:
                continue  # a config checkpoint predating a schema change
        if not adopted:
            return
        seed = yield from self.load_state(self._tables_key, checkpointed_tables)
        yield from self._subscribe_view_feed(self.engine.tables())
        yield from self.engine.build(seed and seed["data"])
        self.sim.trace.mark(
            "db.views_rebuilt", node=self.node_id, views=len(self.engine.views)
        )
        yield from self._broadcast_maint()
