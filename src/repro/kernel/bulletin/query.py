"""Relational layer over the data bulletin: typed queries and logical tables.

Robinson & DeWitt's "cluster management as data management" thesis
(PAPERS.md) says monitoring consoles should *query* cluster state rather
than hand-roll scans.  This module is the query half of that bargain:

* a typed AST (:class:`Query`, :class:`Agg`) — select / project / filter
  / group-aggregate / order / limit, serialized as plain dict payloads so
  queries travel over the bulletin RPC wire unchanged;
* a catalog of **logical tables** (``nodes``, ``jobs``, ``services``,
  ``health``) derived from the physical bulletin tables the detectors
  and GSDs export, including the ``nodes`` full outer join of
  ``node_metrics`` and ``node_state``; any other name is a physical
  table read as itself (:func:`table_def`), so a key-value read is a
  ``Query(table, where)`` too;
* a pure executor, :func:`execute`, used both by ``DB_EXEC`` (the one
  cluster-wide read) and as the from-scratch reference the materialized
  views (:mod:`repro.kernel.bulletin.views`) are tested against;
* a tiny SQL-ish parser (:func:`parse`) for ``python -m repro query`` —
  a convenience only; every kernel consumer builds the AST directly.

The ``where`` clauses reuse the predicate language of
:mod:`repro.kernel.query` verbatim, so filters behave identically across
event subscriptions, key-value queries, and relational queries.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field, replace
from operator import methodcaller
from typing import Any, Callable

from repro.errors import KernelError
from repro.kernel.daemon import HEALTH_TABLE as TABLE_HEALTH
from repro.kernel.query import OPS, matches, validate_where

AGG_FUNCS = ("count", "sum", "avg", "min", "max")

#: The well-known physical bulletin tables (re-exported by
#: :mod:`repro.kernel.bulletin.service`); the logical catalog derives
#: from them.
TABLE_NODE_METRICS = "node_metrics"
TABLE_NODE_STATE = "node_state"
TABLE_NET_STATE = "net_state"
TABLE_APPS = "apps"


# -- AST ---------------------------------------------------------------------
@dataclass(frozen=True)
class Agg:
    """One aggregate term: ``func(field) AS alias``.

    ``count`` accepts the ``*`` field (row count); the numeric functions
    skip missing values and values :func:`is_numeric` refuses (bools
    among them).
    """

    func: str
    field: str = "*"
    alias: str = ""

    @property
    def name(self) -> str:
        if self.alias:
            return self.alias
        return self.func if self.field == "*" else f"{self.func}_{self.field}"

    def to_payload(self) -> dict[str, Any]:
        return {"func": self.func, "field": self.field, "alias": self.alias}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Agg":
        return cls(
            func=payload["func"],
            field=payload.get("field", "*"),
            alias=payload.get("alias", ""),
        )


@dataclass(frozen=True)
class Query:
    """A typed relational query over one logical table.

    ``order_by`` entries are ``(field, descending)`` pairs; ``as_of``
    (virtual time) turns the query into a time-travel read answered from
    checkpointed base tables instead of live state.
    """

    table: str
    where: dict[str, Any] | None = None
    select: tuple[str, ...] = ()  # empty = all columns
    group_by: tuple[str, ...] = ()
    aggs: tuple[Agg, ...] = ()
    order_by: tuple[tuple[str, bool], ...] = ()
    limit: int | None = None
    as_of: float | None = None

    def validate(self) -> None:
        if not isinstance(self.table, str) or not self.table:
            raise KernelError(f"'table': expected a non-empty name, got {self.table!r}")
        validate_where(self.where)
        if self.limit is not None and (type(self.limit) is not int or self.limit < 0):
            raise KernelError(f"limit must be an int >= 0, got {self.limit!r}")
        if self.as_of is not None and not is_numeric(self.as_of):
            raise KernelError(f"as_of must be a number, got {self.as_of!r}")
        if self.select or self.group_by or self.order_by or self.aggs:
            self._validate_fields()

    def _validate_fields(self) -> None:
        fields = [*self.select, *self.group_by, *(f for f, _ in self.order_by),
                  *(name for agg in self.aggs for name in (agg.field, agg.alias))]
        if not all(isinstance(f, str) for f in fields):
            raise KernelError(f"field names must be strings, got {fields!r}")
        for agg in self.aggs:
            if agg.func not in AGG_FUNCS:
                raise KernelError(f"unknown aggregate {agg.func!r}")
            if agg.field == "*" and agg.func != "count":
                raise KernelError(f"{agg.func}(*) is not a thing; only count(*)")
        if self.aggs or self.group_by:
            extra = [f for f in self.select if f not in self.group_by]
            if extra:
                raise KernelError(
                    f"selected fields {extra} must appear in GROUP BY alongside aggregates"
                )
        names = [a.name for a in self.aggs]
        if len(set(names)) != len(names):
            raise KernelError(f"duplicate aggregate output names in {names}")

    @property
    def grouped(self) -> bool:
        return bool(self.aggs or self.group_by)

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"table": self.table}
        if self.where:
            payload["where"] = self.where
        if self.select:
            payload["select"] = list(self.select)
        if self.group_by:
            payload["group_by"] = list(self.group_by)
        if self.aggs:
            payload["aggs"] = [a.to_payload() for a in self.aggs]
        if self.order_by:
            payload["order_by"] = [[f, bool(d)] for f, d in self.order_by]
        if self.limit is not None:
            payload["limit"] = self.limit
        if self.as_of is not None:
            payload["as_of"] = self.as_of
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Query":
        return cls(
            table=payload["table"],
            where=payload.get("where"),
            select=tuple(payload.get("select", ())),
            group_by=tuple(payload.get("group_by", ())),
            aggs=tuple(Agg.from_payload(p) for p in payload.get("aggs", ())),
            order_by=tuple((f, bool(d)) for f, d in payload.get("order_by", ())),
            limit=payload.get("limit"),
            as_of=payload.get("as_of"),
        )

    def live(self) -> "Query":
        """The same query without time travel (for view registration)."""
        return replace(self, as_of=None) if self.as_of is not None else self


# -- logical tables ----------------------------------------------------------
def _join_node_row(
    metrics: dict[str, Any] | None, state: dict[str, Any] | None
) -> dict[str, Any] | None:
    """Full outer join of one node's metrics and state rows.

    Full outer — not left — so a down node whose metrics have expired
    still appears (with ``state`` but no samples), and a node whose GSD
    has not exported state yet still shows its metrics.  ``reporting``
    is 1 when the metrics side is present, so ``sum(reporting)`` counts
    live reporters.  The row is a copy of metrics updated by state, with
    the later ``_updated_at`` of the two.
    """
    if metrics is None:
        if state is None:
            return None
        row = dict(state)
        row["_updated_at"] = row.pop("_updated_at")  # after the state columns
        row["reporting"] = 0
        return row
    row = dict(metrics)
    if state is not None:
        row.update(state)
        row["_updated_at"] = max(metrics["_updated_at"], state["_updated_at"])
    row["reporting"] = 1
    return row


_SERVICE_COLUMNS = ("_key", "_partition", "_updated_at", "service", "node", "partition", "time")


def _project_service(row: dict[str, Any] | None) -> dict[str, Any] | None:
    """``services`` is the light projection of ``kernel_health`` — the
    placement facts without the counter/histogram blobs."""
    if row is None:
        return None
    return {k: row[k] for k in _SERVICE_COLUMNS if k in row}


@dataclass(frozen=True)
class LogicalTable:
    """One queryable table and its derivation from physical tables.

    ``derive_key`` rebuilds a single logical row from per-key physical
    rows — the primitive the IVM layer uses to turn one base-table delta
    into an old-row/new-row pair without rescanning anything.
    """

    name: str
    bases: tuple[str, ...]
    #: get_rows(physical_table) -> list[row]
    derive: Callable[[Callable[[str], list[dict[str, Any]]]], list[dict[str, Any]]]
    #: derive_key(key, get_row) with get_row(physical_table, key) -> row | None
    derive_key: Callable[
        [str, Callable[[str, str], dict[str, Any] | None]], dict[str, Any] | None
    ]
    #: ``derive`` orders its rows by ``_key`` itself and takes base rows in
    #: any order, so a gathered scan need not sort them first.
    self_ordered: bool = False


_PARTITION = methodcaller("get", "_partition", "")


def _by_key(rows: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """``rows`` by ``_key``, whatever their order: of rows sharing a key the
    one from the greatest ``_partition`` (``""`` if none) wins, the later
    one among equals, as if ordered by partition, then key."""
    by_key = {row["_key"]: row for row in rows}
    if len(by_key) < len(rows):  # a key gathered from two partitions
        by_key = {row["_key"]: row for row in sorted(rows, key=_PARTITION)}
    return by_key


def _derive_nodes(get_rows: Callable[[str], list[dict[str, Any]]]) -> list[dict[str, Any]]:
    metrics = _by_key(get_rows(TABLE_NODE_METRICS))
    states = _by_key(get_rows(TABLE_NODE_STATE))
    return [_join_node_row(metrics.get(key), states.get(key))
            for key in sorted(metrics.keys() | states.keys())]


def _derive_nodes_key(key, get_row):
    return _join_node_row(get_row(TABLE_NODE_METRICS, key), get_row(TABLE_NODE_STATE, key))


def _single(base: str, project=None) -> tuple:
    def derive(get_rows):
        rows = get_rows(base)
        return [project(r) for r in rows] if project else list(rows)

    def derive_key(key, get_row):
        row = get_row(base, key)
        return project(row) if project else row

    return derive, derive_key


_jobs_derive, _jobs_key = _single(TABLE_APPS)
_services_derive, _services_key = _single(TABLE_HEALTH, _project_service)
_health_derive, _health_key = _single(TABLE_HEALTH)

LOGICAL_TABLES: dict[str, LogicalTable] = {
    "nodes": LogicalTable("nodes", (TABLE_NODE_METRICS, TABLE_NODE_STATE),
                          _derive_nodes, _derive_nodes_key, self_ordered=True),
    "jobs": LogicalTable("jobs", (TABLE_APPS,), _jobs_derive, _jobs_key),
    "services": LogicalTable("services", (TABLE_HEALTH,), _services_derive, _services_key),
    "health": LogicalTable("health", (TABLE_HEALTH,), _health_derive, _health_key),
}


@functools.lru_cache(maxsize=64)  # names come from clients: bounded
def _physical(name: str) -> LogicalTable:
    return LogicalTable(name, (name,), *_single(name))


def table_def(name: str) -> LogicalTable:
    """The catalog entry of ``name``: a derived table, or else the physical
    table ``name`` read as itself (tables are free-form, so the set of
    names cannot be closed)."""
    return LOGICAL_TABLES.get(name) or _physical(name)


def base_tables(logical: str) -> tuple[str, ...]:
    """Physical bulletin tables a logical table is derived from."""
    return table_def(logical).bases


# -- executor ----------------------------------------------------------------
def is_numeric(value: Any) -> bool:
    """The one rule for what an aggregate counts: an int or a float, never
    a bool.  Views and GridView's banner skip values the same way."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _sort_key(value: Any) -> tuple:
    """Total order over mixed-type cells (missing last, numbers before
    strings) so ORDER BY is deterministic whatever the rows hold."""
    if value is None:
        return (3, "")
    if is_numeric(value):
        return (0, float(value), "")
    if isinstance(value, str):
        return (1, 0.0, value)
    return (2, 0.0, repr(value))


def _project(row: dict[str, Any], select: tuple[str, ...]) -> dict[str, Any]:
    if not select:
        return dict(row)
    return {f: row[f] for f in select if f in row}


def _agg_value(agg: Agg, rows: list[dict[str, Any]]) -> Any:
    if agg.func == "count":
        if agg.field == "*":
            return len(rows)
        return sum(1 for r in rows if r.get(agg.field) is not None)
    values = [r[agg.field] for r in rows if is_numeric(r.get(agg.field))]
    if agg.func == "sum":
        return float(sum(values))
    if not values:
        return None
    if agg.func == "avg":
        return float(sum(values)) / len(values)
    if agg.func == "min":
        return float(min(values))
    return float(max(values))


def _grouped(rows: list[dict[str, Any]], query: Query) -> list[dict[str, Any]]:
    groups: dict[tuple, list[dict[str, Any]]] = {}
    for row in rows:
        key = tuple(map(row.get, query.group_by))
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: tuple(_sort_key(v) for v in k)):
        result = dict(zip(query.group_by, key))
        for agg in query.aggs:
            result[agg.name] = _agg_value(agg, groups[key])
        out.append(result)
    return out


def execute(query: Query, rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Run ``query`` over already-derived logical ``rows`` (pure)."""
    query.validate()
    return _run(query, rows)


def execute_on(
    query: Query, get_rows: Callable[[str], list[dict[str, Any]]]
) -> list[dict[str, Any]]:
    """Derive the logical table from physical rows, then run the already
    validated ``query`` over it."""
    return _run(query, table_def(query.table).derive(get_rows))


def _run(query: Query, rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Filter, group or project, order, limit.  Rows are values (stored
    rows are frozen), so a row without ``select`` is handed out as is."""
    if query.where:
        rows = [r for r in rows if matches(query.where, r)]
    if query.grouped:
        out = _grouped(rows, query)
    elif query.select:
        out = [_project(r, query.select) for r in rows]
    else:
        out = list(rows)
    for field_name, descending in reversed(query.order_by):
        out.sort(key=lambda r: _sort_key(r.get(field_name)), reverse=descending)
    if query.limit is not None:
        out = out[: query.limit]
    return out


# -- tiny SQL-ish parser (CLI convenience) -----------------------------------
_TOKEN = re.compile(
    r"""\s*(?:
        (?P<str>'[^']*'|"[^"]*")
      | (?P<op><=|>=|==|!=|<|>|=)
      | (?P<punct>[(),*\[\]])
      | (?P<word>[A-Za-z0-9_.+-]+)
    )""",
    re.VERBOSE,
)

def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise KernelError(f"cannot tokenize query near {text[pos:pos + 20]!r}")
            break
        pos = m.end()
        tokens.append(m.group().strip())
    return tokens


def _literal(token: str) -> Any:
    if token and token[0] in "'\"":
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise KernelError("unexpected end of query")
        self.pos += 1
        return token

    def accept(self, *words: str) -> bool:
        token = self.peek()
        if token is not None and token.lower() in words:
            self.pos += 1
            return True
        return False

    def expect(self, word: str) -> None:
        token = self.next()
        if token.lower() != word:
            raise KernelError(f"expected {word.upper()!r}, got {token!r}")

    # SELECT item [, item]* -------------------------------------------------
    def select_list(self) -> tuple[tuple[str, ...], tuple[Agg, ...]]:
        select: list[str] = []
        aggs: list[Agg] = []
        while True:
            token = self.next()
            if token == "*":
                pass  # all columns
            elif token.lower() in AGG_FUNCS and self.peek() == "(":
                self.next()  # (
                agg_field = self.next()
                self.expect(")")
                alias = self.next() if self.accept("as") else ""
                aggs.append(Agg(token.lower(), agg_field, alias))
            else:
                select.append(token)
            if not self.accept(","):
                return tuple(select), tuple(aggs)

    # field op literal [AND ...] --------------------------------------------
    def where_clause(self) -> dict[str, Any]:
        where: dict[str, Any] = {}
        while True:
            clause_field = self.next()
            op = self.next()
            op = {"=": "=="}.get(op, op.lower())
            if op not in OPS:
                raise KernelError(f"unknown operator {op!r} in WHERE")
            if self.peek() == "[":
                self.next()
                value: Any = []
                while self.peek() != "]":
                    value.append(_literal(self.next()))
                    self.accept(",")
                self.next()  # ]
            else:
                value = _literal(self.next())
            where[clause_field] = value if op == "==" else {"op": op, "value": value}
            if not self.accept("and"):
                return where

    def field_list(self) -> tuple[str, ...]:
        fields = [self.next()]
        while self.accept(","):
            fields.append(self.next())
        return tuple(fields)

    def order_list(self) -> tuple[tuple[str, bool], ...]:
        out = []
        while True:
            name = self.next()
            descending = False
            if self.accept("desc"):
                descending = True
            else:
                self.accept("asc")
            out.append((name, descending))
            if not self.accept(","):
                return tuple(out)


def parse(text: str) -> Query:
    """Parse ``SELECT ... FROM table [WHERE ...] [GROUP BY ...]
    [ORDER BY ...] [LIMIT n] [AS OF t]`` into a :class:`Query`.

    A convenience for the ``python -m repro query`` CLI; kernel code
    builds :class:`Query` objects directly.
    """
    p = _Parser(_tokenize(text))
    p.expect("select")
    select, aggs = p.select_list()
    p.expect("from")
    table = p.next()
    where = group_by = order_by = None
    limit = as_of = None
    while p.peek() is not None:
        token = p.next().lower()
        if token == "where":
            where = p.where_clause()
        elif token == "group":
            p.expect("by")
            group_by = p.field_list()
        elif token == "order":
            p.expect("by")
            order_by = p.order_list()
        elif token == "limit":
            limit = int(_literal(p.next()))
        elif token == "as":
            p.expect("of")
            as_of = float(_literal(p.next()))
        else:
            raise KernelError(f"unexpected token {token!r}")
    query = Query(
        table=table,
        where=where,
        select=select,
        group_by=group_by or (),
        aggs=aggs,
        order_by=order_by or (),
        limit=limit,
        as_of=as_of,
    )
    query.validate()
    return query
