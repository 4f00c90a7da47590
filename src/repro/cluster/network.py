"""Simulated physical network fabrics.

Each Dawning-4000A-like node attaches one NIC to every fabric; the watch
daemon heartbeats over *all* of them, which is how the paper gets
"recovery time of network is 0, because each node has three networks".

Failure surface modelled here:

* per-node NIC (link) failure on one fabric — paper Tables 1–3 "failure
  of one network interface";
* whole-fabric outage;
* fabric *split* into connectivity groups (network partition);
* independent per-message loss;
* per-link *gray* degradation — directional loss probability and latency
  inflation on one node's link, so a NIC can be lossy or slow (or lossy
  in only one direction) without being *down*.  A degraded link still
  passes :meth:`path_open`; only statistics change.

Delivery is datagram-like: any failed check silently drops the message
and marks a ``net.drop`` trace record; protocols above detect loss via
heartbeats/timeouts exactly as the real system would.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.cluster.message import Message
from repro.cluster.spec import NetworkSpec
from repro.errors import ClusterError
from repro.sim import Simulator

#: Valid ``direction`` arguments for link degradation.
DEGRADE_DIRECTIONS = ("out", "in", "both")


@dataclass(frozen=True)
class LinkDegradation:
    """Gray-failure profile of one direction of one node's link.

    ``loss`` is an independent per-message drop probability; ``latency_mult``
    scales the sampled fabric latency.  Both apply on top of the fabric's
    own ``loss_rate``/jitter, so a degraded link on a lossy fabric is worse
    than either alone — as in the field.
    """

    loss: float = 0.0
    latency_mult: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss <= 1.0:
            raise ClusterError(f"degradation loss must be in [0, 1], got {self.loss}")
        if not 1.0 <= self.latency_mult < math.inf:
            raise ClusterError(
                f"degradation latency_mult must be finite and >= 1, got {self.latency_mult}"
            )


class Network:
    """One physical fabric connecting every node's NIC on it.

    ``node_groups`` (node id → group tag, typically the partition id)
    enables the two-level topology's uplink charge for cross-group
    traffic; with a flat topology it is ignored.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: NetworkSpec,
        node_ids: list[str],
        node_groups: dict[str, str] | None = None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.name = spec.name
        self._node_groups = node_groups or {}
        self.fabric_up = True
        self._link_up: dict[str, bool] = {nid: True for nid in node_ids}
        #: None = fully connected; else node -> group tag, cross-group drops.
        self._split: dict[str, int] | None = None
        #: Gray degradation per (node, "out"|"in"); absent = clean link.
        self._degraded: dict[tuple[str, str], LinkDegradation] = {}
        #: Correlated fabric-wide gray profile (a lossy/slow switch): one
        #: profile applied to *every* message on the fabric, on top of any
        #: per-link degradation.  None = healthy switch.
        self._fabric_profile: LinkDegradation | None = None
        self._rng = sim.rngs.stream(f"net.{self.name}")
        #: Trace counter names, built once instead of once per message.
        self._msgs_key = f"net.{self.name}.msgs"
        self._bytes_key = f"net.{self.name}.bytes"
        self._drops_key = f"net.{self.name}.drops"
        #: Per-(src, dst) FIFO clock: latest scheduled arrival on the flow.
        self._flow_clock: dict[tuple[str, str], float] = {}
        #: Messages delivered / dropped (also mirrored into trace counters).
        self.delivered = 0
        self.dropped = 0

    # -- state manipulation (used by the fault injector) --------------------
    def set_fabric(self, up: bool) -> None:
        self.fabric_up = up

    def set_link(self, node_id: str, up: bool) -> None:
        if node_id not in self._link_up:
            raise ClusterError(f"network {self.name}: unknown node {node_id}")
        self._link_up[node_id] = up

    def link_up(self, node_id: str) -> bool:
        return self._link_up[node_id]

    def split(self, groups: list[set[str]]) -> None:
        """Partition the fabric: traffic crosses groups only within one group."""
        assignment: dict[str, int] = {}
        for tag, group in enumerate(groups):
            for node_id in group:
                if node_id not in self._link_up:
                    raise ClusterError(f"network {self.name}: unknown node {node_id}")
                if node_id in assignment:
                    raise ClusterError(f"network {self.name}: node {node_id} in two groups")
                assignment[node_id] = tag
        self._split = assignment

    def heal(self) -> None:
        """Undo :meth:`split`."""
        self._split = None

    def degrade(
        self,
        node_id: str,
        *,
        loss: float = 0.0,
        latency_mult: float = 1.0,
        direction: str = "both",
    ) -> None:
        """Apply a gray-failure profile to one node's link.

        ``direction="out"`` degrades only messages the node *sends* (its
        transmit path), ``"in"`` only messages it *receives* — the
        asymmetric, one-way failure modes a binary up/down link model
        cannot express.  Re-degrading replaces the previous profile.
        """
        if node_id not in self._link_up:
            raise ClusterError(f"network {self.name}: unknown node {node_id}")
        if direction not in DEGRADE_DIRECTIONS:
            raise ClusterError(f"network {self.name}: bad direction {direction!r}")
        profile = LinkDegradation(loss=loss, latency_mult=latency_mult)
        for side in ("out", "in") if direction == "both" else (direction,):
            self._degraded[(node_id, side)] = profile

    def restore_quality(self, node_id: str, direction: str = "both") -> bool:
        """Remove the gray-failure profile; returns True if one existed."""
        if direction not in DEGRADE_DIRECTIONS:
            raise ClusterError(f"network {self.name}: bad direction {direction!r}")
        removed = False
        for side in ("out", "in") if direction == "both" else (direction,):
            removed |= self._degraded.pop((node_id, side), None) is not None
        return removed

    def degradation(self, node_id: str, direction: str) -> LinkDegradation | None:
        """The active profile for one direction of a node's link, if any."""
        return self._degraded.get((node_id, direction))

    def degrade_fabric_quality(
        self, *, loss: float = 0.0, latency_mult: float = 1.0
    ) -> None:
        """Apply one gray profile to **every** link of the fabric at once —
        the correlated "bad switch" failure a per-link model cannot
        express.  ``loss=0`` with ``latency_mult>1`` models pure latency
        inflation (congestion) with no message loss at all.
        Re-degrading replaces the previous profile."""
        self._fabric_profile = LinkDegradation(loss=loss, latency_mult=latency_mult)

    def restore_fabric_quality(self) -> bool:
        """Remove the fabric-wide gray profile; returns True if one existed."""
        removed = self._fabric_profile is not None
        self._fabric_profile = None
        return removed

    def fabric_degradation(self) -> LinkDegradation | None:
        """The active fabric-wide profile, if any."""
        return self._fabric_profile

    # -- sender-visible health --------------------------------------------
    def usable_from(self, node_id: str) -> bool:
        """Can ``node_id`` transmit on this fabric right now?

        This is what a *sender* can observe locally (its NIC + carrier);
        remote link state is invisible until timeouts reveal it.
        """
        return self.fabric_up and self._link_up.get(node_id, False)

    def path_open(self, src: str, dst: str) -> bool:
        """Full path check used at delivery time."""
        if not self.fabric_up:
            return False
        if not self._link_up.get(src, False) or not self._link_up.get(dst, False):
            return False
        if self._split is not None and self._split.get(src) != self._split.get(dst):
            return False
        return True

    # -- transmission --------------------------------------------------------
    def latency_sample(self, src: str = "", dst: str = "", size: int = 0) -> float:
        """Per-message delay: base + optional uplink hop + optional
        serialization (size/bandwidth) + exponential jitter."""
        base = self.spec.base_latency
        if (
            self.spec.topology == "two_level"
            and src
            and dst
            and self._node_groups.get(src) != self._node_groups.get(dst)
        ):
            base += self.spec.uplink_latency  # edge -> core -> edge hop
        if self.spec.bandwidth is not None and size > 0:
            base += size / self.spec.bandwidth
        if self.spec.jitter > 0:
            return base + float(self._rng.exponential(self.spec.jitter))
        return base

    def transmit(self, msg: Message, deliver: Callable[[Message], None]) -> bool:
        """Accept ``msg`` for transmission; returns False on immediate drop.

        The path is checked at **two points**: once here at send time
        (closed path or sampled loss → immediate False), and once again in
        :meth:`_arrive` after the sampled latency — a link or fabric that
        fails while the message is in flight drops it with an
        ``in_flight=True`` ``net.drop`` trace mark.  This approximates
        store-and-forward fabrics without modelling per-hop occupancy.
        """
        trace = self.sim.trace
        if not self.path_open(msg.src_node, msg.dst_node):
            self.dropped += 1
            trace.count(self._drops_key)
            trace.mark("net.drop", network=self.name, src=msg.src_node, dst=msg.dst_node, mtype=msg.mtype)
            return False
        if self.spec.loss_rate > 0 and self._rng.random() < self.spec.loss_rate:
            self.dropped += 1
            trace.count(self._drops_key)
            trace.mark("net.loss", network=self.name, src=msg.src_node, dst=msg.dst_node, mtype=msg.mtype)
            return False
        # Gray degradation: the fabric-wide profile (bad switch), sender's
        # outbound profile, and receiver's inbound profile drop
        # independently (a message crossing two degraded links survives
        # only if both let it through).
        out = self._degraded.get((msg.src_node, "out"))
        inbound = self._degraded.get((msg.dst_node, "in"))
        latency_mult = 1.0
        for profile in (self._fabric_profile, out, inbound):
            if profile is None:
                continue
            if profile.loss > 0 and self._rng.random() < profile.loss:
                self.dropped += 1
                trace.count(self._drops_key)
                trace.count(f"net.{self.name}.degraded_drops")
                trace.mark(
                    "net.loss", network=self.name, src=msg.src_node, dst=msg.dst_node,
                    mtype=msg.mtype, degraded=True,
                )
                return False
            latency_mult *= profile.latency_mult
        trace.count(self._msgs_key)
        trace.count(self._bytes_key, msg.size)

        # FIFO per (src, dst) flow: jitter never reorders two messages on
        # the same path, as on a real store-and-forward fabric (a later
        # send may arrive together with, but not before, an earlier one).
        sim = self.sim
        arrival = sim.now + latency_mult * self.latency_sample(
            msg.src_node, msg.dst_node, msg.size
        )
        flow = (msg.src_node, msg.dst_node)
        prev = self._flow_clock.get(flow, 0.0)
        if arrival < prev:
            arrival = prev
        self._flow_clock[flow] = arrival
        # The spec and the degradation profiles refuse infinite latencies
        # and the flow clock only moves ``arrival`` later, so it is finite
        # and >= now: the unchecked scheduling entry point is safe here.
        sim._schedule(arrival, 0, self._arrive, (msg, deliver))
        return True

    def _arrive(self, msg: Message, deliver: Callable[[Message], None]) -> None:
        # The destination link may have failed while in flight.
        if not self.path_open(msg.src_node, msg.dst_node):
            self.dropped += 1
            trace = self.sim.trace
            trace.count(self._drops_key)
            trace.mark(
                "net.drop", network=self.name, src=msg.src_node, dst=msg.dst_node,
                mtype=msg.mtype, in_flight=True,
            )
            return
        self.delivered += 1
        deliver(msg)
