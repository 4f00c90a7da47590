"""Multi-pool node management with dynamic leasing (paper §5.4 property 4).

"PWS supports multi-pools with customized scheduling policies for
different pools and dynamic leasing among different pools": each pool
owns a set of nodes; when a pool's queue is starved, idle nodes are
*leased* from other pools and returned when the borrowing job finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.userenv.inventory import Inventory


@dataclass
class PoolSpec:
    """Static pool definition."""

    name: str
    nodes: list[str]
    #: "fifo" (strict order), "sjf" (shortest first), or "backfill"
    #: (FIFO preference, but jobs behind a blocked head may run if they
    #: fit the currently free resources).
    policy: str = "fifo"
    #: May this pool lend idle nodes to starved pools?
    lendable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SchedulingError("pool needs a name")
        if self.policy not in ("fifo", "sjf", "backfill"):
            raise SchedulingError(f"pool {self.name}: unknown policy {self.policy!r}")


@dataclass
class Lease:
    """One node temporarily moved between pools for one job."""

    node: str
    owner_pool: str
    borrower_pool: str
    job_id: str

    def to_payload(self) -> dict:
        return {
            "node": self.node,
            "owner_pool": self.owner_pool,
            "borrower_pool": self.borrower_pool,
            "job_id": self.job_id,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Lease":
        return cls(
            node=payload["node"],
            owner_pool=payload["owner_pool"],
            borrower_pool=payload["borrower_pool"],
            job_id=payload["job_id"],
        )


class PoolManager:
    """Tracks pool membership and active leases over the pool nodes'
    :class:`~repro.userenv.inventory.Inventory` (capacity, free CPUs,
    up/down), which the scheduler loads from the data bulletin and keeps
    current from node events and its own allocations.
    """

    def __init__(self, pools: list[PoolSpec]) -> None:
        if not pools:
            raise SchedulingError("need at least one pool")
        names = [p.name for p in pools]
        if len(set(names)) != len(names):
            raise SchedulingError("duplicate pool names")
        self.pools: dict[str, PoolSpec] = {p.name: p for p in pools}
        self._home: dict[str, str] = {}
        for pool in pools:
            for node in pool.nodes:
                if node in self._home:
                    raise SchedulingError(f"node {node} in two pools")
                self._home[node] = pool.name
        self.inventory = Inventory(self._home)
        self.leases: list[Lease] = []

    # -- pool views ----------------------------------------------------------
    def pool_of(self, node: str) -> str | None:
        """Current pool of a node, honoring active leases."""
        for lease in self.leases:
            if lease.node == node:
                return lease.borrower_pool
        return self._home.get(node)

    def nodes_in_pool(self, pool: str) -> list[str]:
        return sorted(n for n in self._home if self.pool_of(n) == pool)

    def idle_nodes(self, pool: str) -> list[str]:
        """Nodes of ``pool`` that are up and fully free."""
        inv = self.inventory
        return [n for n in self.nodes_in_pool(pool)
                if inv.known(n) and inv.up(n) and inv.free(n) == inv.capacity(n)]

    # -- candidate selection ---------------------------------------------
    def pick_nodes(self, pool: str, count: int, cpus_per_node: int) -> list[str]:
        """Up to ``count`` nodes of ``pool`` with enough free CPUs."""
        picked = []
        for node in self.nodes_in_pool(pool):
            if self.inventory.free(node) >= cpus_per_node:
                picked.append(node)
                if len(picked) == count:
                    break
        return picked

    def lease_candidates(self, borrower: str, needed: int, cpus_per_node: int) -> list[Lease]:
        """Idle lendable nodes from other pools, up to ``needed``."""
        out: list[Lease] = []
        for name, pool in sorted(self.pools.items()):
            if name == borrower or not pool.lendable:
                continue
            for node in self.idle_nodes(name):
                if self.inventory.capacity(node) >= cpus_per_node:
                    out.append(Lease(node=node, owner_pool=name, borrower_pool=borrower, job_id=""))
                    if len(out) == needed:
                        return out
        return out

    def add_lease(self, lease: Lease) -> None:
        self.leases.append(lease)

    def return_leases(self, job_id: str) -> list[Lease]:
        """Release all leases held by ``job_id``; returns them."""
        returned = [l for l in self.leases if l.job_id == job_id]
        self.leases = [l for l in self.leases if l.job_id != job_id]
        return returned

    # -- stats ----------------------------------------------------------
    def pool_stats(self) -> dict[str, dict]:
        inv, stats = self.inventory, {}
        for name in sorted(self.pools):
            nodes = self.nodes_in_pool(name)
            stats[name] = {
                "nodes": len(nodes),
                "nodes_up": sum(1 for n in nodes if inv.up(n)),
                "free_cpus": sum(inv.free(n) for n in nodes),
                "total_cpus": sum(inv.capacity(n) for n in nodes),
                "leases_in": sum(1 for l in self.leases if l.borrower_pool == name),
                "leases_out": sum(1 for l in self.leases if l.owner_pool == name),
            }
        return stats
