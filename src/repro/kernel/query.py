"""Predicate language shared by event filtering and bulletin queries.

A ``where`` clause maps field names to conditions.  A condition is either
a plain value (exact equality — the common case and the wire-compatible
original form) or an operator dict::

    {"cpu_pct": {"op": ">", "value": 90.0}}       # comparison
    {"state": {"op": "in", "value": ["down", "failed"]}}
    {"node": {"op": "!=", "value": "p0s0"}}
    {"name": {"op": "contains", "value": "web"}}  # substring / membership

Missing fields never match (except under ``!=``, where a missing field
counts as "not equal").  Type errors during comparison count as
non-matches rather than raising: a monitoring query must not be killed
by one odd row.
"""

from __future__ import annotations

from typing import Any

from repro.errors import KernelError

OPS = ("==", "!=", "<", "<=", ">", ">=", "in", "contains")


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


_MISSING = _Missing()


def validate_where(where: dict[str, Any] | None) -> None:
    """Reject malformed clauses early (at subscribe/query time)."""
    if where is None:
        return
    if not isinstance(where, dict):
        raise KernelError(f"where clause must be a dict, got {type(where).__name__}")
    for field, condition in where.items():
        if not isinstance(field, str) or not field:
            raise KernelError(f"invalid where field {field!r}")
        if isinstance(condition, dict):
            if set(condition) != {"op", "value"}:
                raise KernelError(f"{field}: condition needs exactly 'op' and 'value'")
            if condition["op"] not in OPS:
                raise KernelError(f"{field}: unknown operator {condition['op']!r}")


def _check(op: str, actual: Any, expected: Any) -> bool:
    try:
        if op == "==":
            return actual == expected
        if op == "!=":
            return actual != expected
        if op == "<":
            return actual < expected
        if op == "<=":
            return actual <= expected
        if op == ">":
            return actual > expected
        if op == ">=":
            return actual >= expected
        if op == "in":
            return actual in expected
        if op == "contains":
            return expected in actual
    except TypeError:
        return False
    raise KernelError(f"unknown operator {op!r}")


def matches(where: dict[str, Any] | None, row: dict[str, Any]) -> bool:
    """Does ``row`` satisfy every condition of ``where``?"""
    if not where:
        return True
    for field, condition in where.items():
        actual = row.get(field, _MISSING)
        if isinstance(condition, dict) and set(condition) == {"op", "value"}:
            op, expected = condition["op"], condition["value"]
        else:
            op, expected = "==", condition
        if actual is _MISSING:
            if op == "!=":
                continue  # a missing field is "not equal" to anything
            return False
        if not _check(op, actual, expected):
            return False
    return True

