"""Event filtering — "event service also provides functions like events
filtering and real-time notification" (paper §4.2).

A subscription carries the event types it wants plus an optional ``where``
clause of exact-match constraints against the event's ``data`` fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.kernel.events.types import Event
from repro.kernel.query import matches as where_matches


@dataclass(frozen=True)
class Subscription:
    """One consumer registration at the event service (its wire form is
    the ``es.subscribe`` declaration, checked before one is built)."""

    consumer_id: str
    node: str  # where ES pushes notifications
    port: str  # consumer's port for ES_EVENT messages
    types: tuple[str, ...]  # empty = all types
    where: dict[str, Any] = field(default_factory=dict, hash=False)

    def matches(self, event: Event) -> bool:
        """Type filter plus the :mod:`repro.kernel.query` where clause
        (plain values mean equality; operator dicts allow comparisons).

        A type entry ending in ``.*`` matches the whole family
        (``"node.*"`` matches ``node.failure`` and ``node.recovery``).
        """
        if self.types and not any(_type_matches(t, event.type) for t in self.types):
            return False
        return where_matches(self.where, event.data)

    def to_payload(self) -> dict[str, Any]:
        return {
            "consumer_id": self.consumer_id,
            "node": self.node,
            "port": self.port,
            "types": list(self.types),
            "where": dict(self.where),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Subscription":
        """A registration from an ``es.subscribe`` payload (or its
        checkpointed :meth:`to_payload`)."""
        return cls(payload["consumer_id"], payload["node"], payload["port"],
                   types=tuple(payload.get("types") or ()), where=dict(payload.get("where") or {}))


def _type_matches(pattern: str, event_type: str) -> bool:
    if pattern.endswith(".*"):
        return event_type.startswith(pattern[:-1])
    return event_type == pattern


class _NoEq:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<no-eq>"


#: Sentinel for "this condition carries no indexable equality value".
_NO_EQ = _NoEq()


def _equality_value(condition: Any) -> Any:
    """The hashable equality value of a ``where`` condition, or ``_NO_EQ``.

    Plain values and ``{"op": "==", "value": v}`` dicts are equality
    constraints; every other operator — and unhashable values, which the
    index cannot bucket — falls back to the per-candidate check.
    """
    if isinstance(condition, dict):
        if set(condition) != {"op", "value"} or condition["op"] != "==":
            return _NO_EQ
        condition = condition["value"]
    try:
        hash(condition)
    except TypeError:
        return _NO_EQ
    return condition


_RANGE_OPS = ("<", "<=", ">", ">=")


def _range_constraint(condition: Any) -> tuple[str, float] | None:
    """``(op, bound)`` when a condition is a numeric range constraint the
    index can prune on, else ``None``.  Only numeric bounds qualify: for
    them the query layer's outcome is fully predictable from the event
    value (numeric comparison, or ``False`` on a missing field / cross-
    type ``TypeError``), so pruning is provably equivalent."""
    if (
        isinstance(condition, dict)
        and set(condition) == {"op", "value"}
        and condition["op"] in _RANGE_OPS
        and isinstance(condition["value"], (int, float))
    ):
        return (condition["op"], condition["value"])
    return None


def _range_admits(op: str, bound: float, value: float) -> bool:
    if op == "<":
        return value < bound
    if op == "<=":
        return value <= bound
    if op == ">":
        return value > bound
    return value >= bound


class SubscriptionIndex:
    """Type-prefix + where-key index over a subscription registry.

    Replaces the event service's per-event linear scan: an incoming event
    only visits subscriptions whose type filter *could* match — exact
    types via one dict hit, family wildcards (``"node.*"``) via the dotted
    prefixes of the event type, plus the catch-all set (empty ``types``).

    Every ``where`` key some subscription constrains is indexed too, from
    the first subscription that pins it: a candidate whose clause pins a
    key to a different equality value, or whose numeric range constraint
    (``<``/``<=``/``>``/``>=`` with an int/float bound) the event's value
    provably fails, is skipped without running its clause.  ``where``
    clauses still run per surviving candidate, so the index is exactly
    equivalent to scanning everything with :meth:`Subscription.matches`.

    Candidates come back in registration order (re-registering an existing
    consumer keeps its original slot), so delivery order is identical to
    iterating the old insertion-ordered dict.
    """

    def __init__(self) -> None:
        self._subs: dict[str, Subscription] = {}
        self._order: dict[str, int] = {}
        self._seq = 0
        self._exact: dict[str, set[str]] = {}
        self._prefix: dict[str, set[str]] = {}
        self._all_types: set[str] = set()
        # Where keys appear below with their first constrained consumer
        # and leave with their last.
        #: key -> equality value -> consumers pinned to that value.
        self._eq: dict[str, dict[Any, set[str]]] = {}
        #: key -> all consumers with an indexable equality constraint on it.
        self._eq_constrained: dict[str, set[str]] = {}
        #: key -> consumer -> (op, bound) numeric range constraint.
        self._range: dict[str, dict[str, tuple[str, float]]] = {}

    def __len__(self) -> int:
        return len(self._subs)

    def __contains__(self, consumer_id: str) -> bool:
        return consumer_id in self._subs

    def get(self, consumer_id: str) -> Subscription | None:
        return self._subs.get(consumer_id)

    def values(self) -> list[Subscription]:
        """All subscriptions in registration order."""
        return [self._subs[cid] for cid in sorted(self._subs, key=self._order.__getitem__)]

    def add(self, sub: Subscription) -> None:
        """Register ``sub``, replacing any previous registration of the
        same consumer (which keeps its original ordering slot)."""
        slot = self._order.get(sub.consumer_id)
        self.remove(sub.consumer_id)
        if slot is None:
            slot = self._seq
            self._seq += 1
        self._subs[sub.consumer_id] = sub
        self._order[sub.consumer_id] = slot
        if not sub.types:
            self._all_types.add(sub.consumer_id)
        for pattern in sub.types:
            if pattern.endswith(".*"):
                self._prefix.setdefault(pattern[:-1], set()).add(sub.consumer_id)
            else:
                self._exact.setdefault(pattern, set()).add(sub.consumer_id)
        for key, condition in sub.where.items():
            value = _equality_value(condition)
            if value is not _NO_EQ:
                self._eq.setdefault(key, {}).setdefault(value, set()).add(sub.consumer_id)
                self._eq_constrained.setdefault(key, set()).add(sub.consumer_id)
            else:
                ranged = _range_constraint(condition)
                if ranged is not None:
                    self._range.setdefault(key, {})[sub.consumer_id] = ranged

    def remove(self, consumer_id: str) -> Subscription | None:
        """Drop a consumer; returns its subscription or ``None``."""
        sub = self._subs.pop(consumer_id, None)
        if sub is None:
            return None
        self._order.pop(consumer_id, None)
        self._all_types.discard(consumer_id)
        for pattern in sub.types:
            table = self._prefix if pattern.endswith(".*") else self._exact
            key = pattern[:-1] if pattern.endswith(".*") else pattern
            bucket = table.get(key)
            if bucket is not None:
                bucket.discard(consumer_id)
                if not bucket:
                    del table[key]
        for key, condition in sub.where.items():
            value = _equality_value(condition)
            if value is not _NO_EQ:
                self._eq[key][value].discard(consumer_id)
                if not self._eq[key][value]:
                    del self._eq[key][value]
                self._eq_constrained[key].discard(consumer_id)
                if not self._eq_constrained[key]:
                    del self._eq[key], self._eq_constrained[key]
            elif consumer_id in self._range.get(key, ()):
                del self._range[key][consumer_id]
                if not self._range[key]:
                    del self._range[key]
        return sub

    def candidates(
        self, event_type: str, data: dict[str, Any] | None = None
    ) -> list[Subscription]:
        """Subscriptions whose filters may match an event of ``event_type``
        (and, when ``data`` is given, its payload), in registration order.
        Callers still apply ``sub.matches(event)``.

        With ``data``, candidates whose clause pins a where key to a
        different equality value are pruned via one bucket probe per
        key — e.g. per-node monitors with ``where={"node": ...}`` stop
        being visited for every other node's events.  Numeric range
        constraints prune the same way: a threshold
        alarm with ``where={"cpu_pct": {"op": ">", "value": 90}}`` is
        only visited by events whose value clears the bound (missing
        fields and cross-type comparisons never match range operators,
        so those prune too).
        """
        if not self._subs:
            return []
        ids: set[str] = set(self._all_types)
        exact = self._exact.get(event_type)
        if exact:
            ids |= exact
        if self._prefix:
            pos = event_type.find(".")
            while pos != -1:
                bucket = self._prefix.get(event_type[: pos + 1])
                if bucket:
                    ids |= bucket
                pos = event_type.find(".", pos + 1)
        if data is not None:
            for key, constrained in self._eq_constrained.items():
                try:
                    # A missing field never satisfies an equality constraint:
                    # _NO_EQ (never a bucket key) prunes every pinned sub.
                    matching = self._eq[key].get(data.get(key, _NO_EQ), ())
                except TypeError:
                    # Unhashable event value: it cannot equal any of the
                    # (hashable) pinned values, so no pinned sub matches.
                    matching = ()
                ids = {cid for cid in ids if cid not in constrained or cid in matching}
            for key, ranged in self._range.items():
                value = data.get(key, _NO_EQ)
                if value is _NO_EQ:
                    # Missing field: range operators never match it.
                    ids = {cid for cid in ids if cid not in ranged}
                elif isinstance(value, (int, float)):
                    ids = {
                        cid
                        for cid in ids
                        if cid not in ranged or _range_admits(*ranged[cid], value)
                    }
                # Non-numeric event values stay unpruned: exotic types
                # (Decimal, strings vs numeric bounds) are left to the
                # full per-candidate clause.
        return [self._subs[cid] for cid in sorted(ids, key=self._order.__getitem__)]
