"""Synthetic physical-resource usage model.

The physical resource detector "monitors usage of physical resources,
such as CPU, memory, swap, disk I/O and network I/O of each node" (paper
§4.2).  We have no production traces from the Dawning 4000A, so the model
below synthesizes per-node samples with the statistical shape of the
paper's Figure 6 snapshot under "common load": average memory usage
≈ 18.6%, CPU ≈ 5.5%, swap ≈ 0.72%.

Jobs raise a node's CPU/memory proportionally to the CPUs they pin, so
the monitoring and scheduling stacks see realistic load movement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.node import Node, NodeMetrics
from repro.sim import Simulator


#: Standard normals drawn per refill of the noise block (five per sample).
_NOISE_BLOCK = 5 * 256


def _clamp(x: float, lo: float = 0.0, hi: float = 100.0) -> float:
    """``x`` limited to ``[lo, hi]`` (``lo`` for NaN)."""
    if x >= hi:
        return hi
    if x > lo:
        return x
    return lo


@dataclass(frozen=True)
class LoadProfile:
    """Baseline (idle) resource levels plus noise scales."""

    cpu_base: float = 5.5
    mem_base: float = 18.6
    swap_base: float = 0.72
    disk_io_base: float = 2.0
    net_io_base: float = 1.0
    cpu_noise: float = 1.5
    mem_noise: float = 1.0
    swap_noise: float = 0.2
    io_noise: float = 0.8

    @classmethod
    def common_load(cls) -> "LoadProfile":
        """The Figure 6 'common load' profile (default)."""
        return cls()

    @classmethod
    def heavy_load(cls) -> "LoadProfile":
        return cls(cpu_base=60.0, mem_base=55.0, swap_base=6.0, disk_io_base=40.0, net_io_base=25.0)


class ResourceModel:
    """Per-node metric sampler with smooth (AR(1)) noise.

    Each sample takes five standard normals, scaled by the profile's noise
    scales, from the simulator's ``metrics`` stream.  They are drawn a
    block at a time: the stream is this model's alone, so consuming a
    block five values at a time yields exactly what a five-wide draw per
    sample would.
    """

    def __init__(self, sim: Simulator, profile: LoadProfile | None = None, smoothing: float = 0.8) -> None:
        if not 0.0 <= smoothing < 1.0:
            raise ValueError(f"smoothing must be in [0, 1), got {smoothing}")
        self.sim = sim
        self.profile = profile or LoadProfile.common_load()
        self.smoothing = smoothing
        self._state: dict[str, tuple[float, float, float, float, float]] = {}
        self._rng = sim.rngs.stream("metrics")
        self._normals: list[float] = []
        self._next = 0

    def sample(self, node: Node) -> NodeMetrics:
        """One metrics sample for ``node`` at the current instant."""
        p = self.profile
        z, i = self._normals, self._next
        if i == len(z):
            z = self._normals = self._rng.standard_normal(_NOISE_BLOCK).tolist()
            i = 0
        self._next = i + 5
        cpu, mem, swap, disk, net = (p.cpu_noise * z[i], p.mem_noise * z[i + 1],
                                     p.swap_noise * z[i + 2], p.io_noise * z[i + 3],
                                     p.io_noise * z[i + 4])
        prev = self._state.get(node.node_id)
        if prev is not None:
            keep = self.smoothing
            new = 1.0 - keep
            cpu = keep * prev[0] + new * cpu
            mem = keep * prev[1] + new * mem
            swap = keep * prev[2] + new * swap
            disk = keep * prev[3] + new * disk
            net = keep * prev[4] + new * net
        self._state[node.node_id] = (cpu, mem, swap, disk, net)

        busy_frac = node.busy_cpus / node.spec.cpus if node.spec.cpus else 0.0
        return NodeMetrics(
            cpu_pct=_clamp(p.cpu_base + busy_frac * 92.0 + cpu),
            mem_pct=_clamp(p.mem_base + busy_frac * 45.0 + mem),
            swap_pct=_clamp(p.swap_base + max(0.0, busy_frac - 0.8) * 20.0 + swap),
            disk_io_mbps=_clamp(p.disk_io_base + busy_frac * 15.0 + disk, hi=math.inf),
            net_io_mbps=_clamp(p.net_io_base + busy_frac * 30.0 + net, hi=math.inf),
        )
