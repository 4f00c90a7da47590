"""Meta-group membership: the ring of GSDs (paper Figure 3).

"Several group service daemons form a meta-group which [is] managed by
membership protocol. The GSD meta-group takes a ring structure. In case
of failure of Leader, other members of meta-group select Princess to take
over it. If Princess fails, the next member to Princess will take over
it. If one of the members fails, the member next to it will take over
it." (paper §4.3)

Concretely:

* members are ordered in a view; position 0 is the **Leader**, position 1
  the **Princess**;
* every member heartbeats its ring **successor** over all fabrics, so
  each member monitors its **predecessor**;
* the successor of a failed member runs diagnosis and recovery (restart
  in place, or migration to the partition's backup node);
* membership changes go through the Leader, which broadcasts a new view;
  when the *Leader* is the failed member, the Princess installs and
  broadcasts the new view itself — the takeover.

Gray-failure hardening (MSCS-style epochs + fencing): every view carries
a monotone **leader epoch**, bumped exactly once per takeover.  Views are
ordered by ``(epoch, view_id)``; a view or membership command stamped
with an older epoch is *fenced* — rejected with a ``gsd.fenced`` trace
mark, and the sender is pushed the newer view so the stale side of a
healed asymmetric split reconciles instead of writing.  A member that
discovers its partition is now represented by a *different* node (its
GSD was migrated while it was unreachable-but-alive) stands down: it
stops itself and any co-located service group members whose placement
moved — the post-heal reconciliation step that guarantees a heal can
never leave two writers.

Quorum-gated regroup (MCS-style, DESIGN.md §15): fencing reconciles a
split *after* the heal; the regroup protocol keeps the minority side
from acting *during* it.  Before a member acts on a failure that would
shrink its live view to half or less of the **configured** partition
count, it runs a census round — ``GSD_REGROUP_PROBE`` to every
configured partition's GSD over all fabrics, counting distinct
partitions that ack within ``regroup_timeout``:

* strict majority reachable → proceed (evict / take over) as usual;
* exact half reachable → the MCS tie-breaker decides: only the side
  holding the lowest configured partition id survives, so a 2-vs-2
  split converges to exactly one leader;
* minority → **park**: refuse view broadcasts, leadership placement
  writes, and ``gsd.state`` checkpoint commits (each refusal marked
  ``regroup.write_refused``), keep ring beats flowing so the group can
  re-form around us, and re-probe every ``regroup_heal_interval`` until
  the partition heals — then rejoin through the existing epoch-fenced
  reconciliation (including re-ensuring the service group and the
  checkpoint replica the minority hosted).

Census acks carry the responder's view, so the first post-heal round
doubles as anti-entropy.  A one-partition cluster has no peers to lose
and skips the census entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.cluster.message import Message
from repro.kernel import ports
from repro.kernel.events import types as ev
from repro.kernel.group.monitor import HeartbeatMonitor
from repro.kernel.group.recovery import (
    ALIVE,
    NODE,
    PROCESS,
    diagnose,
    pick_migration_target,
    restart_service_remote,
)
from repro.kernel.timings import JOIN_PROCESS_TIME, MIGRATE_SELECT_TIME, NIC_ANALYSIS_DELAY
from repro.util import Ring

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.group.gsd import GSDDaemon


@dataclass(frozen=True)
class View:
    """One membership view: ordered (partition, node) pairs.

    ``epoch`` is the leader epoch: bumped exactly once per takeover and
    never otherwise, so any two views from different leader lineages are
    ordered even when their view_ids collide (the split-brain case).
    Views compare by ``key`` = ``(epoch, view_id)``.
    """

    view_id: int
    members: tuple[tuple[str, str], ...]
    epoch: int = 1

    @property
    def key(self) -> tuple[int, int]:
        return (self.epoch, self.view_id)

    def nodes(self) -> list[str]:
        return [node for _, node in self.members]

    def leader(self) -> tuple[str, str]:
        return self.members[0]

    def princess(self) -> tuple[str, str]:
        return self.members[1 % len(self.members)]

    def contains_node(self, node_id: str) -> bool:
        return any(node == node_id for _, node in self.members)

    def node_for(self, partition_id: str) -> str | None:
        for part, node in self.members:
            if part == partition_id:
                return node
        return None

    def to_payload(self) -> dict[str, Any]:
        return {
            "view_id": self.view_id,
            "epoch": self.epoch,
            "members": [list(m) for m in self.members],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "View":
        return cls(
            view_id=int(payload["view_id"]),
            epoch=int(payload.get("epoch", 1)),
            members=tuple((m[0], m[1]) for m in payload["members"]),
        )


class MetaGroup:
    """The meta-group role of one GSD."""

    def __init__(self, gsd: "GSDDaemon") -> None:
        self.gsd = gsd
        self.sim = gsd.sim
        self.view: View | None = None
        self._ring: Ring[str] = Ring()  # node ids in view order
        self._node_partition: dict[str, str] = {}
        self.monitor = HeartbeatMonitor(
            gsd.sim,
            networks=list(gsd.cluster.networks),
            interval=gsd.timings.heartbeat_interval,
            grace=gsd.timings.deadline_grace,
            on_nic_miss=self._on_nic_miss,
            on_nic_restore=self._on_nic_restore,
            on_full_miss=self._on_full_miss,
            on_return=self._on_return,
        )
        self._recovering: set[str] = set()
        self._rejoining = False
        self._standing_down = False
        #: An isolated leader (every peer evicted) self-demotes: reigning
        #: alone is indistinguishable from being the wrong side of an
        #: asymmetric partition, so it probes for the surviving group
        #: instead of claiming leadership.
        self.demoted = False
        #: Quorum-gated regroup state (DESIGN.md §15).  ``parked`` is the
        #: minority-side refusal state; ``_regrouping`` serializes census
        #: rounds; the ``_round_*`` slots collect the current round's acks.
        self.parked = False
        self._regrouping = False
        self._heal_looping = False
        self._round_seq = 0
        self._round_id = 0
        self._round_acks: dict[str, bool] = {}
        self._round_best_view: View | None = None

    # -- identity helpers --------------------------------------------------
    @property
    def me(self) -> str:
        return self.gsd.node_id

    @property
    def is_leader(self) -> bool:
        return (
            self.view is not None
            and self.view.leader()[1] == self.me
            and not self.demoted
            and not self.parked
        )

    @property
    def is_princess(self) -> bool:
        return self.view is not None and len(self.view.members) > 1 and self.view.princess()[1] == self.me

    def successor(self) -> str | None:
        if self.view is None or self.me not in self._ring or len(self._ring) < 2:
            return None
        return self._ring.successor(self.me)

    def predecessor(self) -> str | None:
        if self.view is None or self.me not in self._ring or len(self._ring) < 2:
            return None
        return self._ring.predecessor(self.me)

    # -- quorum-gated regroup (DESIGN.md §15) -----------------------------
    def quorum_enabled(self) -> bool:
        return len(self.gsd.cluster.partitions) > 1

    def tie_break_partition(self) -> str:
        """The MCS tie-breaker: on an exact-half split, only the side
        holding the lowest configured partition id keeps quorum."""
        return min(p.partition_id for p in self.gsd.cluster.partitions)

    def quorum_met(self, live_partitions) -> bool:
        """MCS quorum rule over the *configured* partition count.

        Strict majority wins outright; the exact half is decided by the
        deterministic tie-breaker so two halves can never both claim it.
        A true minority (including the tie-breaker side being dead) has
        no quorum — parking is the correct answer even when the missing
        members are really gone, because the two cases are
        indistinguishable from inside.
        """
        n = len(self.gsd.cluster.partitions)
        live = set(live_partitions)
        if 2 * len(live) > n:
            return True
        if 2 * len(live) < n:
            return False
        return self.tie_break_partition() in live

    def _view_quorate(self, view: View) -> bool:
        return self.quorum_met(part for part, _ in view.members)

    def _probe_targets(self, exclude: set[str]) -> dict[str, set[str]]:
        """Candidate GSD hosts per remote partition: the kernel's current
        placement plus our view's member (they differ across a split)."""
        targets: dict[str, set[str]] = {}
        for part in self.gsd.cluster.partitions:
            pid = part.partition_id
            if pid == self.gsd.partition_id:
                continue
            nodes: set[str] = set()
            placed = self.gsd.kernel.placement.get(("gsd", pid))
            if placed is not None:
                nodes.add(placed)
            if self.view is not None:
                member = self.view.node_for(pid)
                if member is not None:
                    nodes.add(member)
            nodes -= exclude
            nodes.discard(self.me)
            if nodes:
                targets[pid] = nodes
        return targets

    def _regroup_round(self, reason: str, exclude: set[str] | None = None,
                       initiate: bool = True):
        """One census round: probe every configured partition's GSD over
        all fabrics and collect distinct-partition acks for
        ``regroup_timeout``.  Returns ``(live_partitions, best_view)``
        where ``best_view`` is the newest view any responder carried
        (the anti-entropy payload a healed minority rejoins through)."""
        exclude = set(exclude or ())
        self._round_seq += 1
        self._round_id = round_id = self._round_seq
        self._round_acks = {self.gsd.partition_id: True}
        self._round_best_view = self.view
        span = self.sim.trace.span(
            "gsd.regroup", parent=self.sim.trace.scenario_id or None,
            node=self.me, partition=self.gsd.partition_id, reason=reason,
        )
        span.mark(
            "regroup.probe", node=self.me, partition=self.gsd.partition_id,
            round=round_id, reason=reason,
        )
        payload = {
            "node": self.me,
            "partition": self.gsd.partition_id,
            "round": round_id,
            "initiate": initiate,
        }
        for nodes in self._probe_targets(exclude).values():
            for node in nodes:
                self.gsd.send_all_networks(node, ports.GSD, ports.GSD_REGROUP_PROBE, payload)
        yield self.gsd.timings.regroup_period
        self._round_id = 0  # stop collecting
        live = set(self._round_acks)
        best = self._round_best_view
        span.end(live=len(live), quorum=self.quorum_met(live))
        return live, best

    def on_regroup_probe(self, msg: Message) -> None:
        """Any live GSD answers a census probe — parked members included
        (quorum is about connectivity, not state), view-less restarted
        GSDs included (their ack is what lets a parked survivor count a
        repaired partition and resume recovery)."""
        prober = msg.payload.get("node")
        if prober is None or prober == self.me:
            return
        ack = {
            "node": self.me,
            "partition": self.gsd.partition_id,
            "round": msg.payload.get("round"),
            "parked": self.parked,
        }
        if self.view is not None:
            ack["view"] = self.view.to_payload()
        self.gsd.send_all_networks(prober, ports.GSD, ports.GSD_REGROUP_ACK, ack)
        if msg.payload.get("initiate") and not self.parked:
            # Cascade assessment: a member opening a census suspects a
            # split; peers on its side must discover it too (they may sit
            # behind a live predecessor and never miss a beat).  Cascaded
            # rounds probe with ``initiate=False``, bounding the depth.
            self.assess_quorum("cascade", initiate=False)

    def on_regroup_ack(self, msg: Message) -> None:
        if not self._round_id or msg.payload.get("round") != self._round_id:
            return
        self._round_acks[msg.payload["partition"]] = True
        view_payload = msg.payload.get("view")
        if view_payload is not None:
            theirs = View.from_payload(view_payload)
            if self._round_best_view is None or theirs.key > self._round_best_view.key:
                self._round_best_view = theirs

    def assess_quorum(self, reason: str, initiate: bool = True) -> None:
        """Kick off an asynchronous census (no-op if one is running,
        we're parked/standing down, or quorum gating is off)."""
        if (
            not self.quorum_enabled()
            or self._regrouping
            or self.parked
            or self._standing_down
            or not self.gsd.alive
        ):
            return
        self.gsd.spawn(self._assess(reason, initiate), name=f"{self.me}/mg.regroup")

    def _assess(self, reason: str, initiate: bool):
        if self._regrouping or self.parked or not self.gsd.alive:
            return
        self._regrouping = True
        try:
            live, _best = yield from self._regroup_round(reason, initiate=initiate)
        finally:
            self._regrouping = False
        if not self.quorum_met(live):
            self._park(reason, live)

    def _park(self, reason: str, live) -> None:
        """Enter the minority refusal state: no view broadcasts, no
        leadership writes, no ``gsd.state`` checkpoint commits.  Ring
        beats keep flowing (a restarted leader re-forms the group from
        a parked member's beats) and a heal loop keeps probing."""
        if self.parked or not self.quorum_enabled():
            return
        self.parked = True
        view = self.view
        self.sim.trace.mark(
            "quorum.lost", node=self.me, partition=self.gsd.partition_id,
            reason=reason, live=tuple(sorted(live)),
            epoch=view.epoch if view else None,
        )
        self.gsd.publish(
            ev.QUORUM_LOST,
            {
                "node": self.me,
                "partition": self.gsd.partition_id,
                "reason": reason,
                "live": sorted(live),
            },
        )
        # Stop reacting to ring silence: every cross-side predecessor
        # would re-enter diagnosis forever.  WD monitoring of our own
        # partition continues (splits are cross-partition; local repair
        # stays our job) with its bulletin/ckpt exports deferred.
        for subject in self.monitor.subjects():
            self.monitor.forget(subject)
        if not self._heal_looping:
            self._heal_looping = True
            self.gsd.spawn(self._heal_loop(), name=f"{self.me}/mg.heal")

    def _unpark(self, reason: str) -> None:
        if not self.parked:
            return
        self.parked = False
        view = self.view
        self.sim.trace.mark(
            "quorum.regained", node=self.me, partition=self.gsd.partition_id,
            reason=reason, epoch=view.epoch if view else None,
        )
        self.gsd.publish(
            ev.QUORUM_REGAINED,
            {"node": self.me, "partition": self.gsd.partition_id, "reason": reason},
        )
        pred = self.predecessor()
        if pred is not None:
            self.monitor.expect(pred)
        self.gsd.on_unpark()

    def _heal_probe_now(self):
        """One immediate heal census (a JOIN reached us while parked)."""
        if self._regrouping or not self.parked or not self.gsd.alive:
            return
        self._regrouping = True
        try:
            live, best = yield from self._regroup_round("heal", initiate=False)
        finally:
            self._regrouping = False
        if self.parked and self.quorum_met(live):
            self._unpark("heal")
            self._adopt_after_heal(best)

    def _adopt_after_heal(self, best: View | None) -> None:
        """Adopt the newest view a heal census surfaced — via a scheduled
        callback, never inline: installing it may stand this GSD down,
        which kills the very heal process that is still executing."""
        if best is not None and (self.view is None or best.key > self.view.key):
            self.sim.schedule(0.0, self._install_if_newer, best)

    def _install_if_newer(self, view: View) -> None:
        if self.gsd.alive and (self.view is None or view.key > self.view.key):
            self.install_view(view)

    def _heal_loop(self):
        """Parked side of the regroup: re-census every
        ``regroup_heal_interval`` until quorum is reachable again, then
        rejoin through the newest view any responder carried."""
        try:
            while self.gsd.alive and self.parked:
                yield self.gsd.timings.regroup_heal_period
                if not self.gsd.alive or not self.parked or self._regrouping:
                    continue
                self._regrouping = True
                try:
                    live, best = yield from self._regroup_round("heal", initiate=False)
                finally:
                    self._regrouping = False
                if not self.parked:
                    break
                if self.quorum_met(live):
                    self._unpark("heal")
                    self._adopt_after_heal(best)
                    break
        finally:
            self._heal_looping = False

    # -- view management -----------------------------------------------------
    def install_view(self, view: View) -> bool:
        """Adopt ``view``; rearms ring monitoring toward the new predecessor.

        Returns True if adopted.  Views are ordered by ``(epoch,
        view_id)``; one from an older *epoch* is **fenced** — rejected
        with a ``gsd.fenced`` mark — because it comes from a superseded
        leader lineage (callers push the newer view back at the sender so
        the stale side reconciles).
        """
        if self.view is not None and view.key <= self.view.key:
            if view.epoch < self.view.epoch:
                self.sim.trace.mark(
                    "gsd.fenced", target="view", node=self.me, view_id=view.view_id,
                    epoch=view.epoch, current_epoch=self.view.epoch,
                )
            return False  # stale or duplicate
        old_pred = self.predecessor()
        was_leader = self.is_leader
        old_members = len(self.view.members) if self.view is not None else None
        self.view = view
        self._ring = Ring(view.nodes())
        self._node_partition = {node: part for part, node in view.members}
        new_pred = self.predecessor()
        if old_pred is not None and old_pred != new_pred:
            self.monitor.forget(old_pred)
        if new_pred is not None and new_pred != old_pred and not self.parked:
            # While parked, ring monitoring stays off; _unpark re-arms it.
            self.monitor.expect(new_pred)
        elif (
            new_pred is not None
            and new_pred == old_pred
            and not self.parked
            and self.monitor.is_suspended(new_pred)
        ):
            # Same predecessor, but we had already declared it dead and our
            # report went to a leader this view dethroned.  The new lineage
            # asserts the member is alive, so it must prove itself again
            # within one interval — otherwise its death would never be
            # re-reported to the new leader.
            self.monitor.expect(new_pred)
        self.sim.trace.mark(
            "view.installed", node=self.me, view_id=view.view_id, epoch=view.epoch,
            members=len(view.members),
        )
        # Two-tier federation (DESIGN.md §16): every adopted view refreshes
        # the host-side region-aggregator map (epoch-fenced, no-op in flat
        # mode) so aggregator handover rides the existing view machinery.
        self.gsd.kernel.note_view(view)
        if was_leader and not self.is_leader:
            # A higher-epoch view dethroned us (we were the stale side of
            # a healed split, or a takeover raced our own view change).
            self.sim.trace.mark("leader.stepdown", node=self.me, epoch=view.epoch)
        if self.parked and self._view_quorate(view):
            # A quorate lineage reached us (its broadcast, a corrective
            # push, or a ring beat made it through): the partition healed
            # from their side before our next heal probe.
            self._unpark("view_adopted")
        if not view.contains_node(self.me):
            replacement = view.node_for(self.gsd.partition_id)
            if replacement is not None and replacement != self.me:
                # Post-heal reconciliation: our partition is already
                # represented by a migrated GSD, so we are a superseded
                # duplicate — stand down rather than rejoin.
                self._stand_down(view, replacement)
            elif not self._rejoining:
                # We were evicted (e.g. falsely declared dead across a
                # network split); rejoin through the current leader.
                self._rejoining = True
                self.gsd.spawn(self._rejoin(), name=f"{self.me}/mg.rejoin")
        elif len(view.members) > 1:
            self.demoted = False
            if (
                not self.parked
                and self.quorum_enabled()
                and old_members is not None
                and len(view.members) < old_members
                and 2 * len(view.members) <= len(self.gsd.cluster.partitions)
            ):
                # The view shrank to half or less of the configured
                # partitions: make sure we can still see a quorum before
                # keeping faith in this membership (the evicted members
                # may be the reachable majority's side of a split).
                self.assess_quorum("small_view")
        elif len(self.gsd.cluster.partitions) > 1 and not self.demoted:
            # We just evicted our last peer.  A leader that watched every
            # member vanish is indistinguishable from a leader on the
            # wrong (outbound-dead) side of an asymmetric partition, so
            # it must not keep acting on that belief: demote, and probe
            # for a surviving group to rejoin or stand down into.
            self.demoted = True
            self.sim.trace.mark("leader.isolated", node=self.me, epoch=view.epoch)
            self.gsd.spawn(self._probe_for_group(), name=f"{self.me}/mg.probe")
        return True

    def _stand_down(self, view: View, replacement: str) -> None:
        """Stop this GSD: a newer-epoch view shows our partition led from
        ``replacement``.  Fencing already silences our control messages;
        standing down removes the stale *writer* itself, plus any
        co-located service-group members whose placement moved away."""
        if self._standing_down:
            return
        self._standing_down = True
        self.sim.trace.mark(
            "gsd.superseded", node=self.me, partition=self.gsd.partition_id,
            replacement=replacement, epoch=view.epoch,
        )
        for subject in self.monitor.subjects():
            self.monitor.forget(subject)
        for subject in self.gsd.wd_monitor.subjects():
            self.gsd.wd_monitor.forget(subject)
        kernel = self.gsd.kernel
        for svc in self.gsd.managed_services():
            placed = kernel.placement.get((svc, self.gsd.partition_id))
            if placed is not None and placed != self.me:
                local = kernel.live_daemon(svc, self.me)
                if local is not None and local.alive:
                    local.stop()
        self.gsd.stop()

    def _rejoin(self):
        try:
            yield from self.join_loop()
        finally:
            self._rejoining = False

    def _probe_for_group(self):
        """Isolated-leader reconciliation: keep sending JOINs toward the
        recorded leadership placement.  On the stale side of a healed
        asymmetric split the join eventually lands, gets refused (our
        partition slot is taken), and the corrective view stands us down;
        if instead a joiner reaches *us*, ``on_join`` re-promotes."""
        while self.demoted and self.gsd.alive:
            leader = self.gsd.kernel.placement.get(("metagroup", "leader"))
            if leader is not None and leader != self.me:
                self.gsd.send(
                    leader, ports.GSD, ports.GSD_JOIN,
                    {"partition": self.gsd.partition_id, "node": self.me},
                )
            yield self.gsd.timings.heartbeat_interval

    def broadcast_view(self) -> None:
        assert self.view is not None
        if self.parked:
            # Minority refusal: a parked member's membership opinion must
            # not leave the node (a broadcast is a write to every peer's
            # view state).
            self.sim.trace.mark(
                "regroup.write_refused", node=self.me, kind="view_broadcast",
                view_id=self.view.view_id, epoch=self.view.epoch,
            )
            return
        for _, node in self.view.members:
            if node != self.me:
                self.gsd.send(node, ports.GSD, ports.GSD_VIEW, {"view": self.view.to_payload()})

    def _export_leader(self) -> None:
        """Publish the epoch-stamped leadership record to the bulletin, so
        monitoring readers can resolve conflicting claims by epoch."""
        if self.view is None:
            return
        if self.parked:
            self.sim.trace.mark(
                "regroup.write_refused", node=self.me, kind="leader_export",
                epoch=self.view.epoch,
            )
            return
        db_node = self.gsd.kernel.placement.get(("db", self.gsd.partition_id))
        if db_node is not None:
            self.gsd.send(
                db_node, ports.DB, ports.DB_PUT,
                {
                    "table": "metagroup",
                    "key": "leader",
                    "row": {
                        "node": self.me,
                        "epoch": self.view.epoch,
                        "view_id": self.view.view_id,
                    },
                },
            )

    def _make_view(
        self, members: tuple[tuple[str, str], ...], bump_epoch: bool = False
    ) -> View:
        next_id = (self.view.view_id if self.view else 0) + 1
        epoch = (self.view.epoch if self.view else 1) + (1 if bump_epoch else 0)
        return View(view_id=next_id, members=members, epoch=epoch)

    # -- ring heartbeats -----------------------------------------------------
    def beat_loop(self):
        while True:
            succ = self.successor()
            if succ is not None:
                payload = {"node": self.me, "partition": self.gsd.partition_id}
                if self.view is not None:
                    # Beats carry the sender's view: the ring's anti-entropy
                    # channel, which re-merges diverged memberships after a
                    # healed network split.
                    payload["view"] = self.view.to_payload()
                self.gsd.send_all_networks(succ, ports.GSD_HB, ports.HB_GSD, payload)
                self.sim.trace.count("gsd.ring_beats")
            yield self.gsd.timings.heartbeat_interval

    def on_ring_beat(self, msg: Message) -> None:
        sender = msg.payload.get("node")
        beat_view = msg.payload.get("view")
        if beat_view is not None:
            theirs = (int(beat_view.get("epoch", 1)), int(beat_view["view_id"]))
            mine = self.view.key if self.view is not None else (0, 0)
            if theirs > mine:
                self.install_view(View.from_payload(beat_view))
            elif theirs < mine and sender is not None and not self.parked:
                if theirs[0] < mine[0]:
                    # A beat from a superseded leader lineage.
                    self.sim.trace.mark(
                        "gsd.fenced", target="ring_beat", node=self.me, sender=sender,
                        epoch=theirs[0], current_epoch=mine[0],
                    )
                # The sender is behind (stale side of a healed split):
                # push our view so its ring re-forms, it rejoins, or a
                # superseded duplicate stands down.  Parked members skip
                # the push: their view is a minority opinion.
                self.gsd.send(sender, ports.GSD, ports.GSD_VIEW,
                              {"view": self.view.to_payload()})
        if sender == self.predecessor():
            self.monitor.beat(sender, msg.network)

    # -- control messages ------------------------------------------------
    def on_join(self, msg: Message) -> None:
        """Leader side: admit a (re)joining GSD."""
        if self.parked:
            # No admissions from the minority side — but an inbound JOIN
            # is evidence of connectivity, so pull the next heal probe
            # forward instead of making the joiner wait a full period.
            if not self._regrouping:
                self.gsd.spawn(self._heal_probe_now(), name=f"{self.me}/mg.healnow")
            return
        if self.demoted and self.view is not None and self.view.leader()[1] == self.me:
            # An isolated ex-leader that a joiner can still reach: the
            # group is re-forming around us — resume leadership.
            self.demoted = False
            self.sim.trace.mark("leader.reformed", node=self.me, epoch=self.view.epoch)
        if not self.is_leader:
            # Forward to whoever we believe leads (a restarted GSD may have
            # a stale idea of the leader's location).
            leader = self.view.leader()[1] if self.view else None
            if leader is not None and leader != self.me:
                self.gsd.send(leader, ports.GSD, ports.GSD_JOIN, msg.payload, )
            return
        self.gsd.spawn(self._admit(msg), name=f"{self.me}/mg.admit")

    def _admit(self, msg: Message):
        yield JOIN_PROCESS_TIME
        if self.view is None:
            return
        partition = msg.payload["partition"]
        node = msg.payload["node"]
        current = self.view.node_for(partition)
        if current is not None and current != node:
            # The partition already has a representative (e.g. its GSD
            # was migrated while the old host was unreachable-but-alive).
            # Refuse, and push the current view so the stale duplicate
            # reconciles — its stand-down path fires on installation.
            self.sim.trace.mark(
                "gsd.join_refused", partition=partition, node=node,
                current=current, epoch=self.view.epoch,
            )
            self.gsd.send(node, ports.GSD, ports.GSD_VIEW, {"view": self.view.to_payload()})
            return
        members = [(p, n) for p, n in self.view.members if p != partition]
        members.append((partition, node))
        self.install_view(self._make_view(tuple(members)))
        self.broadcast_view()
        self.gsd.publish(ev.MEMBER_JOINED, {"partition": partition, "node": node})
        self.sim.trace.mark("member.joined", partition=partition, node=node)

    def on_view(self, msg: Message) -> None:
        view = View.from_payload(msg.payload["view"])
        installed = self.install_view(view)
        if not installed and self.view is not None and view.epoch < self.view.epoch and not self.parked:
            # The sender is pushing a superseded lineage's view: reply
            # with the newer one so the stale side demotes, rejoins, or
            # stands down instead of retrying forever.
            if msg.src_node != self.me:
                self.gsd.send(
                    msg.src_node, ports.GSD, ports.GSD_VIEW,
                    {"view": self.view.to_payload()},
                )

    def on_member_failed(self, msg: Message) -> None:
        """Leader side: drop a reported-dead member and broadcast."""
        if not self.is_leader or self.view is None:
            return
        claimed_epoch = msg.payload.get("epoch")
        if claimed_epoch is not None and int(claimed_epoch) < self.view.epoch:
            # A stale-epoch eviction command (e.g. from the old side of a
            # healed split): fence it and correct the sender.
            self.sim.trace.mark(
                "gsd.fenced", target="member_failed", node=self.me, sender=msg.src_node,
                epoch=int(claimed_epoch), current_epoch=self.view.epoch,
            )
            if msg.src_node != self.me:
                self.gsd.send(
                    msg.src_node, ports.GSD, ports.GSD_VIEW,
                    {"view": self.view.to_payload()},
                )
            return
        node = msg.payload["node"]
        if not self.view.contains_node(node):
            return
        members = tuple(m for m in self.view.members if m[1] != node)
        self.install_view(self._make_view(members))
        self.broadcast_view()
        self.gsd.publish(ev.MEMBER_LEFT, {"node": node})

    # -- joining --------------------------------------------------------
    def join_loop(self):
        """Used by restarted/migrated GSDs to (re)enter the meta-group."""
        while True:
            if self.view is not None and self.view.contains_node(self.me):
                return
            leader = self.gsd.kernel.placement.get(("metagroup", "leader"))
            if leader is not None and leader != self.me:
                self.gsd.send(
                    leader,
                    ports.GSD,
                    ports.GSD_JOIN,
                    {"partition": self.gsd.partition_id, "node": self.me},
                )
            yield 2.0 * JOIN_PROCESS_TIME + 0.5

    # -- monitor callbacks ---------------------------------------------------
    def _on_nic_miss(self, subject: str, network: str) -> None:
        if not self.gsd.alive:  # leftover timers of a dead GSD are inert
            return
        self.sim.trace.mark(
            "failure.detected", component="gsd", node=subject, network=network, by=self.me
        )
        self.gsd.spawn(self._nic_failure(subject, network), name=f"{self.me}/mg.nic")

    def _nic_failure(self, subject: str, network: str):
        yield NIC_ANALYSIS_DELAY
        self.sim.trace.mark(
            "failure.diagnosed", component="gsd", kind="network", node=subject, network=network
        )
        # Three redundant fabrics: nothing to migrate, recovery is free.
        self.sim.trace.mark(
            "failure.recovered", component="gsd", kind="network", node=subject, network=network
        )
        self.gsd.publish(ev.NETWORK_FAILURE, {"node": subject, "network": network})

    def _on_nic_restore(self, subject: str, network: str) -> None:
        if not self.gsd.alive:
            return
        self.sim.trace.mark("network.restored", component="gsd", node=subject, network=network)
        self.gsd.publish(ev.NETWORK_RECOVERY, {"node": subject, "network": network})

    def _on_full_miss(self, subject: str) -> None:
        if not self.gsd.alive or subject in self._recovering or self.parked:
            return
        self._recovering.add(subject)
        root = self.sim.trace.span("gsd.failover", component="gsd", node=subject)
        root.mark("failure.detected", component="gsd", node=subject, by=self.me)
        self.gsd.spawn(self._handle_member_failure(subject, root), name=f"{self.me}/mg.recover")

    def _on_return(self, subject: str) -> None:
        if not self.gsd.alive:
            return
        self.sim.trace.mark("member.returned", node=subject, by=self.me)

    def _report_watchdog(self, expected_key: tuple[int, int]) -> None:
        """Fires one regroup period after a member-failed report went to a
        remote leader: an unchanged view means nobody acted on it."""
        if (
            self.gsd.alive
            and not self.parked
            and not self._regrouping
            and self.view is not None
            and self.view.key == expected_key
        ):
            self.assess_quorum("leader_unreachable")

    # -- the takeover path -----------------------------------------------
    def _handle_member_failure(self, failed_node: str, root):
        try:
            partition = self._node_partition.get(failed_node)
            if partition is None or self.view is None:
                root.end(aborted=True)
                return
            was_leader = self.view.leader()[1] == failed_node
            diag = root.child("gsd.diagnose", node=failed_node)
            kind = yield from diagnose(
                self.gsd, failed_node, server_mode=True, span=diag, service="gsd"
            )
            diag.end(kind=kind)
            if kind == ALIVE:
                # Gray failure: the member's GSD answered our status query
                # directly — the quiet ring beats were network loss, not a
                # death.  Keep the membership, resume monitoring.
                root.mark("suspicion.cleared", component="gsd", node=failed_node, by=self.me)
                self.sim.trace.count("gsd.false_suspicions")
                if failed_node == self.predecessor():
                    self.monitor.expect(failed_node)
                root.end(kind=kind, ok=True)
                return
            root.mark(
                "failure.diagnosed", component="gsd", kind=kind, node=failed_node, by=self.me
            )
            # The co-located service group died with its node.
            if kind == NODE:
                for svc in self.gsd.managed_services():
                    root.mark(
                        "failure.diagnosed", component=svc, kind="node", node=failed_node, by=self.me
                    )

            # Quorum gate: if dropping the failed member would leave half
            # or less of the configured partitions, census first — across
            # a split, "the others all died" and "we are the cut-off side"
            # look identical from here, and only one of them may act.
            if (
                self.quorum_enabled()
                and not self.parked
                and not self._regrouping
                and sum(1 for m in self.view.members if m[1] != failed_node) * 2
                <= len(self.gsd.cluster.partitions)
            ):
                self._regrouping = True
                try:
                    live, _best = yield from self._regroup_round(
                        "member_failure", exclude={failed_node}
                    )
                finally:
                    self._regrouping = False
                if not self.quorum_met(live):
                    self._park("member_failure", live)
                    root.end(kind=kind, parked=True)
                    return
                if (
                    self.parked
                    or self.view is None
                    or not self.view.contains_node(failed_node)
                ):
                    # The census took time; a concurrent install already
                    # resolved this membership change.
                    root.end(kind=kind, superseded=True)
                    return
                was_leader = self.view.leader()[1] == failed_node

            # Membership first: the ring must close around the gap.
            members = tuple(m for m in self.view.members if m[1] != failed_node)
            if was_leader:
                # "In case of failure of Leader ... select Princess to take
                # over it."  We are the Leader's successor == the Princess.
                # The takeover bumps the leader epoch: every control
                # message of the old lineage is now fenceable, so even if
                # the old leader was only unreachable (asymmetric split)
                # it can never re-assert leadership after the heal.
                self.install_view(self._make_view(members, bump_epoch=True))
                self.broadcast_view()
                epoch = self.view.epoch
                self.gsd.kernel.note_placement("metagroup", "leader", self.me, epoch=epoch)
                self._export_leader()
                root.mark("leader.takeover", old=failed_node, new=self.me, epoch=epoch)
                self.gsd.publish(
                    ev.LEADER_CHANGED,
                    {"old": failed_node, "new": self.me, "epoch": epoch},
                    span=root,
                )
            else:
                report = {"node": failed_node, "epoch": self.view.epoch}
                leader = self.view.leader()[1]
                if leader == self.me:
                    self.on_member_failed(
                        Message(self.me, self.me, ports.GSD, ports.GSD_MEMBER_FAILED, report)
                    )
                else:
                    self.gsd.send(leader, ports.GSD, ports.GSD_MEMBER_FAILED, report)
                    if self.quorum_enabled():
                        # Report watchdog: if no new view lands within a
                        # regroup period, the leader may be unreachable
                        # too (we could be a cut-off member whose own
                        # predecessor is still on our side) — census.
                        expected_key = self.view.key
                        self.sim.schedule(
                            self.gsd.timings.regroup_period,
                            self._report_watchdog, expected_key,
                        )

            if kind == PROCESS:
                self.gsd.publish(
                    ev.SERVICE_FAILURE, {"service": "gsd", "node": failed_node}, span=root
                )
                rec = root.child("gsd.recover", node=failed_node, action="restart")
                ok = yield from restart_service_remote(self.gsd, failed_node, "gsd", span=rec)
                rec.end(ok=ok)
                if ok:
                    root.mark(
                        "failure.recovered", component="gsd", kind="process", node=failed_node
                    )
                    self.gsd.publish(
                        ev.SERVICE_RECOVERY, {"service": "gsd", "node": failed_node}, span=root
                    )
                else:
                    root.mark("recovery.failed", component="gsd", node=failed_node)
                root.end(kind=kind, ok=ok)
                return

            # Node death: publish, then migrate the GSD (and with it the
            # partition's service group).  Preference order is backup
            # nodes then computes; if the chosen target dies under us we
            # move on to the next candidate rather than leaving the
            # partition headless.
            self.gsd.publish(
                ev.NODE_FAILURE, {"node": failed_node, "partition": partition}, span=root
            )
            rec = root.child("gsd.recover", node=failed_node, action="migrate")
            yield MIGRATE_SELECT_TIME
            tried: set[str] = {failed_node}
            while True:
                target = pick_migration_target(self.gsd, partition, exclude=tried)
                if target is None:
                    root.mark(
                        "recovery.failed", component="gsd", node=failed_node, reason="no target"
                    )
                    rec.end(ok=False)
                    root.end(kind=kind, ok=False)
                    return
                tried.add(target)
                root.mark("service.migrating", service="gsd", src=failed_node, dst=target)
                ok = yield from restart_service_remote(self.gsd, target, "gsd", span=rec)
                if ok:
                    rec.end(ok=True, dst=target)
                    root.mark(
                        "failure.recovered", component="gsd", kind="node",
                        node=failed_node, dst=target,
                    )
                    self.gsd.publish(
                        ev.SERVICE_RECOVERY,
                        {"service": "gsd", "node": target, "migrated_from": failed_node},
                        span=root,
                    )
                    root.end(kind=kind, ok=True)
                    return
                root.mark(
                    "migration.retry", component="gsd", node=failed_node, failed_target=target
                )
        finally:
            self._recovering.discard(failed_node)
