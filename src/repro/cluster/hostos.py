"""Per-node host operating system: process table and daemon lifecycle.

The Phoenix kernel sits *above* host operating systems (paper Figure 1);
what matters for the reproduction is the failure taxonomy:

* killing a **host process** leaves the node and its other daemons alive
  (GSD can still reach the node's OS, so diagnosis concludes "process
  failure" and recovery is a local restart);
* crashing the **node** kills every host process at once and stops the OS
  answering pings (diagnosis concludes "node failure", recovery may
  require migration to a backup node).

A :class:`HostProcess` groups the simulator coroutines that make up one
daemon, so a single kill takes down all of its loops, and transport
endpoints owned by it stop accepting messages.
"""

from __future__ import annotations

import copy
from collections.abc import Callable, Generator
from typing import Any

from repro.errors import ClusterError
from repro.sim import Proc, Simulator


class HostProcess:
    """One OS-level process hosting a daemon's coroutines."""

    def __init__(self, sim: Simulator, node_id: str, name: str) -> None:
        self.sim = sim
        self.node_id = node_id
        self.name = name
        self.alive = True
        self.started_at = sim.now
        #: The running coroutines, in adoption order (a dict for O(1)
        #: removal: each one leaves as it finishes).
        self._procs: dict[Proc, None] = {}
        #: Optional cleanup hooks run on kill (daemon-level bookkeeping).
        self._on_kill: list[Callable[[], None]] = []

    def adopt(self, body: Generator[Any, Any, Any], name: str = "") -> Proc:
        """Spawn a coroutine owned by this process."""
        if not self.alive:
            raise ClusterError(f"{self.node_id}/{self.name}: process is dead")
        proc = Proc(self.sim, body, name=name or f"{self.node_id}/{self.name}",
                    on_exit=self._release)
        self._procs[proc] = None
        return proc

    def _release(self, proc: Proc) -> None:
        self._procs.pop(proc, None)

    def on_kill(self, hook: Callable[[], None]) -> None:
        self._on_kill.append(hook)

    def kill(self) -> None:
        """Terminate the process and every coroutine it owns."""
        if not self.alive:
            return
        self.alive = False
        for proc in list(self._procs):  # each one leaves the dict as it dies
            proc.kill()
        hooks, self._on_kill = self._on_kill, []
        for hook in hooks:
            hook()

    @property
    def uptime(self) -> float:
        return self.sim.now - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "dead"
        return f"HostProcess({self.node_id}/{self.name}, {state})"


class HostOS:
    """Process table of one node."""

    def __init__(self, sim: Simulator, node: Any) -> None:
        self.sim = sim
        self.node = node
        self._table: dict[str, HostProcess] = {}
        #: Local stable storage (the node's disk): survives process death
        #: and node crash/boot — only losing the physical node loses it.
        #: Daemons journal here what must outlive their own incarnation
        #: (e.g. a parked GSD's deferred state commits).
        self.stable_store: dict[str, Any] = {}
        node.hostos = self

    # -- process lifecycle ---------------------------------------------------
    def start_process(self, name: str) -> HostProcess:
        """Create a new live process entry named ``name``.

        A dead predecessor with the same name is replaced; a live one is a
        caller bug (daemon managers must kill before restart).
        """
        if not self.node.up:
            raise ClusterError(f"{self.node.node_id}: cannot start {name!r}, node is down")
        existing = self._table.get(name)
        if existing is not None and existing.alive:
            raise ClusterError(f"{self.node.node_id}: process {name!r} already running")
        hp = HostProcess(self.sim, self.node.node_id, name)
        self._table[name] = hp
        return hp

    def process(self, name: str) -> HostProcess | None:
        return self._table.get(name)

    def process_alive(self, name: str) -> bool:
        hp = self._table.get(name)
        return hp is not None and hp.alive

    def kill_process(self, name: str) -> None:
        hp = self._table.get(name)
        if hp is None:
            raise ClusterError(f"{self.node.node_id}: no process {name!r}")
        hp.kill()

    def running(self) -> list[str]:
        return sorted(name for name, hp in self._table.items() if hp.alive)

    # -- local stable storage ------------------------------------------------
    def stable_write(self, key: str, value: Any) -> None:
        """Persist ``value`` on the node's disk (deep-copied: a journal
        record is a snapshot, not a live reference)."""
        self.stable_store[key] = copy.deepcopy(value)

    def stable_read(self, key: str, default: Any = None) -> Any:
        value = self.stable_store.get(key, default)
        return copy.deepcopy(value)

    def stable_delete(self, key: str) -> bool:
        return self.stable_store.pop(key, None) is not None

    # -- node power events -----------------------------------------------
    def handle_node_crash(self) -> None:
        """Kill every process (called by :meth:`Node.crash`)."""
        for hp in self._table.values():
            hp.kill()
