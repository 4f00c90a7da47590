"""Versioned in-memory checkpoint store.

Each key keeps a bounded history of recent versions, so upper-layer
services can roll back to an earlier snapshot (e.g. after discovering a
corrupt save) — ``load(key)`` returns the latest, ``load(key, version=n)``
a specific retained one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.cluster.message import SizedDict
from repro.errors import CheckpointError


@dataclass(frozen=True, slots=True)
class CheckpointEntry:
    key: str
    data: dict[str, Any]
    version: int
    saved_at: float


class CheckpointStore:
    """Key → recent checkpoint versions (monotonically numbered).

    A checkpoint is a value: :meth:`save` freezes it once into a
    :class:`~repro.cluster.message.SizedDict` (lists copied, dicts frozen),
    so a sender's later edit cannot reach the store, as a disk write would
    isolate it.  The replica, :meth:`load` and :meth:`dump` share that one
    object; a reader edits a ``dict(...)`` copy.
    """

    def __init__(self, history: int = 4) -> None:
        """``history`` caps retained versions per key (default 4, which
        also bounds bulletin ``AS OF`` reach)."""
        if history < 1:
            raise CheckpointError("history depth must be >= 1")
        self.history = history
        self._entries: dict[str, deque[CheckpointEntry]] = {}

    def _latest(self, key: str) -> CheckpointEntry | None:
        versions = self._entries.get(key)
        return versions[-1] if versions else None

    def save(self, key: str, data: dict[str, Any], now: float, version: int | None = None) -> int:
        """Store a snapshot; returns the new version.

        An explicit ``version`` (used by replication) must not go backwards
        for an existing key — stale replication writes are rejected.
        """
        if not isinstance(key, str) or not key:
            raise CheckpointError(f"checkpoint key must be a non-empty string, got {key!r}")
        if not isinstance(data, dict):
            raise CheckpointError(f"checkpoint data must be a dict, got {type(data).__name__}")
        current = self._latest(key)
        if version is None:
            version = (current.version + 1) if current else 1
        elif current is not None and version < current.version:
            raise CheckpointError(
                f"stale write for {key!r}: version {version} < {current.version}"
            )
        if not isinstance(data, SizedDict):
            data = SizedDict(data)
        entry = CheckpointEntry(key=key, data=data, version=version, saved_at=now)
        versions = self._entries.setdefault(key, deque(maxlen=self.history))
        if current is not None and version == current.version:
            versions[-1] = entry  # idempotent re-write of the same version
        else:
            versions.append(entry)
        return version

    def load(
        self, key: str, version: int | None = None, at_time: float | None = None
    ) -> CheckpointEntry | None:
        """Latest (or a specific retained) version of ``key``; None if gone.

        With ``at_time``, the newest retained version saved at or before
        that instant — the time-travel read behind ``AS OF`` queries.
        History is bounded (the retention deque), so an ``at_time`` older
        than the oldest retained save finds nothing.
        """
        versions = self._entries.get(key)
        if not versions:
            return None
        if at_time is not None:
            entry = next(
                (e for e in reversed(versions) if e.saved_at <= at_time), None
            )
        elif version is None:
            entry = versions[-1]
        else:
            entry = next((e for e in versions if e.version == version), None)
        return entry

    def versions(self, key: str) -> list[int]:
        """Retained version numbers of ``key``, oldest first."""
        return [e.version for e in self._entries.get(key, ())]

    def delete(self, key: str) -> bool:
        return self._entries.pop(key, None) is not None

    def keys(self) -> list[str]:
        return sorted(self._entries)

    def dump(self) -> dict[str, dict[str, Any]]:
        """Latest version of every key (for anti-entropy pulls)."""
        out: dict[str, dict[str, Any]] = {}
        for key, versions in self._entries.items():
            latest = versions[-1]
            out[key] = {
                "data": latest.data,
                "version": latest.version,
                "saved_at": latest.saved_at,
            }
        return out

    def absorb(self, dumped: dict[str, dict[str, Any]], now: float) -> int:
        """Merge a :meth:`dump` from a peer; newer versions win.  Returns
        the number of keys updated."""
        updated = 0
        for key, blob in dumped.items():
            current = self._latest(key)
            if current is None or blob["version"] > current.version:
                self.save(
                    key, blob["data"], blob.get("saved_at", now), version=blob["version"]
                )
                updated += 1
        return updated

    def __len__(self) -> int:
        return len(self._entries)
