"""A user environment's one view of its nodes (paper §3, Figures 7–8).

PWS and the business runtime read capacity (``cpus``) and up/down
(``state``) from the bulletin's ``nodes`` table, then keep both current
from node events and their own allocations by one set of rules:

* **completeness** — the read is asked again every ``detector_interval``
  while a managed node has no row or is up without ``cpus`` (a migrated
  bulletin starts empty), at most the bulletin's epoch-announce bound of
  reads; a node event heard before an answer wins over it;
* **refund** — a refund counts only while the node is up, free never
  exceeds capacity, and a returning node gets its capacity minus what the
  caller still places there.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import Any

from repro.kernel.bulletin.query import Query

#: The one read: each node's metrics ⟗ state row.
NODES_QUERY = Query("nodes")


class Inventory:
    """Capacity, free CPUs and up/down of the nodes a user environment manages."""

    def __init__(self, nodes: Iterable[str]) -> None:
        self.managed = frozenset(nodes)
        self._capacity: dict[str, int] = {}
        self._free: dict[str, int] = {}
        self._up: dict[str, bool] = {}
        #: Nodes whose up/down a node event set: no answer overrides it.
        self._heard: set[str] = set()
        #: A :meth:`load` is running (it asks for any node still missing).
        self._loading = False

    def load(self, daemon):
        """``yield from`` it: read ``nodes`` through ``daemon``'s partition
        bulletin until :meth:`missing` is empty or the reads run out."""
        timings = daemon.timings
        reads = max(3, math.ceil(2.0 * timings.heartbeat_interval / timings.detector_interval))
        self._loading = True
        try:
            for attempt in range(reads):
                if attempt:
                    yield timings.detector_interval
                read = daemon.exec_query(NODES_QUERY, timeout=10.0)
                reply = None if read is None else (yield read)
                self.learn((reply or {}).get("rows", ()))
                if not self.missing():
                    return
        finally:
            self._loading = False

    def learn(self, rows: Iterable[dict[str, Any]]) -> None:
        """Take each managed node's ``state`` (unless an event set it) and,
        the first time it is there, its ``cpus`` as capacity, all free."""
        for row in rows:
            node = row["_key"]
            if node in self.managed:
                if node not in self._heard:
                    self._up[node] = row.get("state", "up") == "up"
                if "cpus" in row and node not in self._capacity:
                    self._capacity[node] = self._free[node] = int(row["cpus"])

    def missing(self) -> list[str]:
        """Managed nodes with no row, or up without ``cpus``."""
        return sorted(n for n in self.managed if n not in self._capacity and self._up.get(n, True))

    def nodes(self) -> list[str]:
        """The nodes whose capacity is known."""
        return sorted(self._capacity)

    def known(self, node: str) -> bool:
        return node in self._capacity

    def up(self, node: str) -> bool:
        return self._up.get(node, False)

    def capacity(self, node: str) -> int:
        return self._capacity.get(node, 0)

    def free(self, node: str) -> int:
        return self._free.get(node, 0) if self.up(node) else 0

    def node_failed(self, node: str) -> None:
        if node in self.managed:
            self._heard.add(node)
            self._up[node] = False

    def node_returned(self, node: str, placed: int) -> bool:
        """``node`` is up again with ``placed`` CPUs still the caller's there;
        returns whether its capacity is known (it can take work)."""
        if node not in self.managed:
            return False
        self._heard.add(node)
        self._up[node] = True
        if node in self._capacity:
            self._free[node] = self._capacity[node] - placed
        return node in self._capacity

    def needs_load(self, node: str) -> bool:
        """``node`` is managed and up with no capacity known (it was down at
        the load) and no load is running to ask for it: load again."""
        return self.up(node) and node not in self._capacity and not self._loading

    def allocate(self, node: str, cpus: int) -> bool:
        """Take ``cpus`` on ``node`` if it is up and has them free."""
        if self.free(node) < cpus:
            return False
        self._free[node] -= cpus
        return True

    def release(self, node: str | None, cpus: int) -> None:
        """Give ``cpus`` back on ``node``, if it is up (``None``: placed nowhere)."""
        if self.up(node) and node in self._capacity:
            self._free[node] = min(self._capacity[node], self._free[node] + cpus)
