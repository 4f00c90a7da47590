"""Versioned in-memory checkpoint store.

Each key keeps a bounded history of recent versions, so upper-layer
services can roll back to an earlier snapshot (e.g. after discovering a
corrupt save) — ``load(key)`` returns the latest, ``load(key, version=n)``
a specific retained one.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import CheckpointError


@dataclass
class CheckpointEntry:
    key: str
    data: dict[str, Any]
    version: int
    saved_at: float


class CheckpointStore:
    """Key → recent checkpoint versions (monotonically numbered).

    Data is deep-copied on the way in and out: a checkpoint is a snapshot,
    not a shared reference (upper services keep mutating their live state
    after saving, exactly like serializing to disk would isolate it).
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
        if not key:
            raise CheckpointError("empty checkpoint key")
        current = self._latest(key)
        if version is None:
            version = (current.version + 1) if current else 1
        elif current is not None and version < current.version:
            raise CheckpointError(
                f"stale write for {key!r}: version {version} < {current.version}"
            )
        entry = CheckpointEntry(key=key, data=copy.deepcopy(data), version=version, saved_at=now)
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
        if entry is None:
            return None
        return CheckpointEntry(
            key=entry.key,
            data=copy.deepcopy(entry.data),
            version=entry.version,
            saved_at=entry.saved_at,
        )

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
                "data": copy.deepcopy(latest.data),
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
