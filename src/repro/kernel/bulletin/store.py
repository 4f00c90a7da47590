"""In-memory table store backing the data bulletin service."""

from __future__ import annotations

from typing import Any

from repro.cluster.message import SizedDict
from repro.errors import KernelError
from repro.kernel.query import matches as where_matches


#: A stored row: a :class:`~repro.cluster.message.SizedDict` that every reader
#: (replies, the ``db.delta`` feed, view mirrors, checkpoints) shares;
#: ``dict(row)`` is the copy to edit and put back.
FrozenRow = SizedDict


class BulletinStore:
    """Tables of keyed rows with metadata columns.

    Every row gets ``_key``, ``_partition`` (the partition whose detectors
    produced it) and ``_updated_at`` (virtual time of the last put).  The
    bulletin is explicitly *non-persistent* (paper §4.2): a restarted
    instance starts empty and refills from the next detector export cycle.

    Rows are :class:`FrozenRow` values: ``put`` freezes its own copy of the
    sender's row and every read returns the stored rows themselves.
    """

    def __init__(self) -> None:
        self._tables: dict[str, dict[str, FrozenRow]] = {}
        #: Optional change hook ``(table, key, op, stored_row_or_None)``
        #: fired after every put / delete / per-row expiry; the bulletin
        #: daemon installs it to drive the ``db.delta`` feed for
        #: materialized-view maintenance.
        self.on_mutation = None

    def put(self, table: str, key: str, row: dict[str, Any], now: float, partition: str) -> None:
        if not table or not key:
            raise KernelError("bulletin put needs a table and a key")
        stored = FrozenRow(row, _key=key, _partition=partition, _updated_at=now)
        self._tables.setdefault(table, {})[key] = stored
        if self.on_mutation is not None:
            self.on_mutation(table, key, "put", stored)

    def _remove(self, table: str, key: str) -> None:
        del self._tables[table][key]
        if self.on_mutation is not None:
            self.on_mutation(table, key, "delete", None)

    def delete(self, table: str, key: str) -> bool:
        removed = key in self._tables.get(table, ())
        if removed:
            self._remove(table, key)
        return removed

    def query(self, table: str, where: dict[str, Any] | None = None) -> list[FrozenRow]:
        """Rows of ``table`` matching the ``where`` clause (plain values
        mean equality, operator dicts per :mod:`repro.kernel.query`),
        ordered by key for determinism."""
        rows = self._tables.get(table, {})
        return [rows[k] for k in sorted(rows) if not where or where_matches(where, rows[k])]

    def get(self, table: str, key: str) -> FrozenRow | None:
        return self._tables.get(table, {}).get(key)

    def tables(self) -> list[str]:
        return sorted(self._tables)

    def row_count(self, table: str | None = None) -> int:
        if table is not None:
            return len(self._tables.get(table, {}))
        return sum(len(rows) for rows in self._tables.values())

    def expire(self, table: str, max_age: float, now: float) -> int:
        """Drop rows older than ``max_age``; returns how many were dropped."""
        rows = self._tables.get(table, {})
        stale = [k for k, row in rows.items() if now - row["_updated_at"] > max_age]
        for key in stale:
            self._remove(table, key)
        return len(stale)
