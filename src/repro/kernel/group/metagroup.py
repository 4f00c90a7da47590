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
a monotone **leader epoch**, bumped exactly once per takeover; views are
ordered by ``(epoch, view_id)`` and an older-epoch view or membership
command is *fenced* (``gsd.fenced``) and answered with the newer view, so
the stale side of a healed split reconciles instead of writing.

Quorum-gated regroup (MCS-style): before a member acts on a failure that
would leave half or less of the **configured** partitions in its view, it
runs a census (:meth:`MetaGroup._census`): a strict majority proceeds, an
exact half proceeds only on the side holding the lowest partition id, and
a minority **parks** until a heal census or a quorate view says
otherwise.  Census acks carry the responder's view (anti-entropy); a
one-partition cluster has no peers to lose and never runs a census.

Every member has exactly one **role** (DESIGN.md §10): ``joining`` (not
in the installed view), ``member``, ``leader``, ``parked`` (refuses view
broadcasts, leadership writes and ``gsd.state`` commits, each refusal
marked ``regroup.write_refused``; ring beats keep flowing) or
``superseded`` (a newer-epoch view shows our partition led from another
node: this GSD stops).  :meth:`MetaGroup._become` makes every change of
role and everything that goes with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.cluster.message import Message
from repro.kernel import ports
from repro.kernel.events import types as ev
from repro.kernel.group.recovery import NODE, PROCESS, Failover, pick_migration_target
from repro.kernel.timings import JOIN_PROCESS_TIME, MIGRATE_SELECT_TIME
from repro.sim import Proc
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
            epoch=int(payload.get("epoch") or 1),
            members=tuple((m[0], m[1]) for m in payload["members"]),
        )


#: The roles a meta-group member can hold (DESIGN.md §10).
ROLES = ("joining", "member", "leader", "parked", "superseded")


class MetaGroup(Failover):
    """The meta-group side of one GSD, and the failover of its ring
    predecessor (:meth:`recover`)."""

    def __init__(self, gsd: "GSDDaemon") -> None:
        super().__init__(gsd, "gsd")
        self.view: View | None = None
        self._ring: Ring[str] = Ring()  # node ids in view order
        self._node_partition: dict[str, str] = {}
        #: One of ``ROLES``; only :meth:`_become` assigns it.
        self.role = "joining"
        #: The heal and rejoin loops by name, while they run (see _spawn_once).
        self._loops: dict[str, Proc] = {}
        #: Census state: ``_regrouping`` serializes rounds, the ``_round_*``
        #: slots collect the current round's acks (only :meth:`_census`).
        self._regrouping = False
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
        return self.role == "leader"

    @property
    def parked(self) -> bool:
        return self.role == "parked"

    @property
    def is_princess(self) -> bool:
        return self.view is not None and len(self.view.members) > 1 and self.view.princess()[1] == self.me

    def _on_ring(self) -> bool:
        return self.view is not None and self.me in self._ring and len(self._ring) > 1

    def successor(self) -> str | None:
        return self._ring.successor(self.me) if self._on_ring() else None

    def predecessor(self) -> str | None:
        return self._ring.predecessor(self.me) if self._on_ring() else None

    # -- roles -------------------------------------------------------------
    def _role_in(self, view: View | None) -> str:
        """The role ``view`` gives us, refusals aside."""
        if view is None or not view.contains_node(self.me):
            # Our partition represented by another node (our GSD was
            # migrated while we were unreachable-but-alive): superseded.
            if view is not None and view.node_for(self.gsd.partition_id) is not None:
                return "superseded"
            return "joining"
        return "leader" if view.leader()[1] == self.me else "member"

    def _become(self, role: str, reason: str, live=()) -> None:
        """The one role transition: every mark, event, monitor change and
        loop a change of role implies happens here.  ``reason`` and
        ``live`` only label the ``quorum.*`` marks; ``superseded`` is final
        (the GSD stops)."""
        old = self.role
        if role == old:
            return
        self.role = role
        gsd, view = self.gsd, self.view
        epoch = view.epoch if view else None
        if old == "leader" and role != "parked":
            # A higher-epoch view dethroned us (we were the stale side of a
            # healed split, or a takeover raced our own view change).
            self.sim.trace.mark("leader.stepdown", node=self.me, epoch=epoch)
        if old == "parked" and (role != "superseded" or self._view_quorate(view)):
            # Quorum regained: a quorate census or view let us out — also
            # when that view then supersedes us; a minority lineage's does not.
            self.sim.trace.mark(
                "quorum.regained", node=self.me, partition=gsd.partition_id,
                reason=reason, epoch=epoch,
            )
            gsd.publish(
                ev.QUORUM_REGAINED,
                {"node": self.me, "partition": gsd.partition_id, "reason": reason},
            )
            pred = self.predecessor()
            if pred is not None:
                self.monitor.expect(pred)
            gsd.on_unpark()
        if role == "parked":
            self.sim.trace.mark(
                "quorum.lost", node=self.me, partition=gsd.partition_id,
                reason=reason, live=tuple(sorted(live)), epoch=epoch,
            )
            gsd.publish(
                ev.QUORUM_LOST,
                {"node": self.me, "partition": gsd.partition_id, "reason": reason,
                 "live": sorted(live)},
            )
            # Stop reacting to ring silence: every cross-side predecessor
            # would re-enter diagnosis forever.  WD monitoring of our own
            # partition continues (splits are cross-partition; local repair
            # stays our job) with its bulletin/ckpt exports deferred.
            for subject in self.monitor.subjects():
                self.monitor.forget(subject)
            self._spawn_once("heal", self._heal_loop)
        elif role == "joining":
            # Evicted (e.g. falsely declared dead across a network split):
            # rejoin through the current leader.
            self._spawn_once("rejoin", self.join_loop)
        elif role == "superseded":
            # Fencing already silences our control messages; stopping
            # removes the stale *writer* itself, plus any co-located
            # service-group members whose placement moved away.
            self.sim.trace.mark(
                "gsd.superseded", node=self.me, partition=gsd.partition_id,
                replacement=view.node_for(gsd.partition_id), epoch=epoch,
            )
            for monitor in (self.monitor, gsd.wd_monitor):
                for subject in monitor.subjects():
                    monitor.forget(subject)
            kernel = gsd.kernel
            for svc in gsd.managed_services():
                placed = kernel.placement.get((svc, gsd.partition_id))
                if placed is not None and placed != self.me:
                    local = kernel.live_daemon(svc, self.me)
                    if local is not None and local.alive:
                        local.stop()
            gsd.stop()

    def _spawn_once(self, name: str, body) -> None:
        """Start loop ``name`` unless it still runs.  The role alone cannot
        guard it: a park → unpark → park inside one heal period finds the
        first heal loop asleep, not finished, and a parked member keeps
        the rejoin loop it started while joining."""
        proc = self._loops.get(name)
        if proc is None or not proc.alive:
            self._loops[name] = self.gsd.spawn(body(), name=f"{self.me}/mg.{name}")

    # -- quorum-gated regroup ----------------------------------------------
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

    def _census(self, reason: str, exclude=(), initiate: bool = True):
        """One census round — the only one: probe every configured
        partition's GSD over all fabrics, collect distinct-partition acks
        for ``regroup_period``, then act on the verdict.  It applies to
        the role the round started from: a member without quorum parks, a
        parked member with quorum unparks and adopts the newest view any
        responder carried.  Returns the verdict, or None without probing
        while another round is in flight (that round's verdict governs)."""
        if self._regrouping:
            return None
        was_parked = self.parked
        self._regrouping = True
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
        for nodes in self._probe_targets(set(exclude)).values():
            for node in nodes:
                self.gsd.send_all_networks(node, ports.GSD, ports.GSD_REGROUP_PROBE, payload)
        try:
            yield self.gsd.timings.regroup_period
        finally:
            self._round_id = 0  # stop collecting
            self._regrouping = False
        live = set(self._round_acks)
        quorate = self.quorum_met(live)
        span.end(live=len(live), quorum=quorate)
        if not was_parked and not quorate:
            self._become("parked", reason, live)
        elif was_parked and quorate and self.parked:
            self._become(self._role_in(self.view), reason)
            # Adopt via a scheduled callback, never inline: installing it
            # may supersede this GSD, which kills the very process that
            # is still executing this census.
            best = self._round_best_view
            if best is not None and (self.view is None or best.key > self.view.key):
                self.sim.schedule(0.0, self._install_if_newer, best)
        return quorate

    def on_regroup_probe(self, msg: Message) -> None:
        """Any live GSD answers a census probe — parked members included
        (quorum is about connectivity, not state), view-less restarted
        GSDs included (their ack is what lets a parked survivor count a
        repaired partition and resume recovery)."""
        prober = msg.payload["node"]
        if prober == self.me:
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
        """Kick off an asynchronous census (no-op if one is running, we
        are parked or stopped, or quorum gating is off)."""
        if not self.quorum_enabled() or self._regrouping or self.parked or not self.gsd.alive:
            return
        self.gsd.spawn(self._assess(reason, initiate), name=f"{self.me}/mg.regroup")

    def _assess(self, reason: str, initiate: bool):
        if not self.parked and self.gsd.alive:
            yield from self._census(reason, initiate=initiate)

    def _heal_probe(self):
        """One heal census, if still parked."""
        if self.parked and self.gsd.alive:
            yield from self._census("heal", initiate=False)

    def _install_if_newer(self, view: View) -> None:
        if self.gsd.alive and (self.view is None or view.key > self.view.key):
            self.install_view(view)

    def _heal_loop(self):
        """Parked side of the regroup: re-census every
        ``regroup_heal_period`` until quorum is reachable again."""
        while self.gsd.alive and self.parked:
            yield self.gsd.timings.regroup_heal_period
            yield from self._heal_probe()

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
        old_members = len(self.view.members) if self.view is not None else 0
        self.view = view
        self._ring = Ring(view.nodes())
        self._node_partition = {node: part for part, node in view.members}
        new_pred = self.predecessor()
        if old_pred is not None and old_pred != new_pred:
            self.monitor.forget(old_pred)
        # While parked, ring monitoring stays off; unparking re-arms it.
        # An unchanged predecessor is re-armed too if we had already declared
        # it dead and our report went to a leader this view dethroned: the
        # new lineage asserts the member is alive, so it must prove itself
        # again within one interval — or its death is never re-reported.
        if new_pred is not None and not self.parked and (
            new_pred != old_pred or self.monitor.is_suspended(new_pred)
        ):
            self.monitor.expect(new_pred)
        self.sim.trace.mark(
            "view.installed", node=self.me, view_id=view.view_id, epoch=view.epoch,
            members=len(view.members),
        )
        # Two-tier federation (DESIGN.md §16): every adopted view refreshes
        # the host-side region-aggregator map (epoch-fenced, no-op in flat
        # mode) so aggregator handover rides the existing view machinery.
        self.gsd.kernel.note_view(view)
        role = self._role_in(view)
        if self.parked and role != "superseded" and not self._view_quorate(view):
            role = "parked"  # a minority lineage's view unparks nobody
        # A quorate view reaching a parked member (its broadcast, a
        # corrective push, or a ring beat made it through) means the
        # partition healed from their side before our next heal probe.
        self._become(role, "view_adopted")
        if (
            role in ("leader", "member")
            and 1 < len(view.members) < old_members
            and 2 * len(view.members) <= len(self.gsd.cluster.partitions)
        ):
            # The view shrank to half or less of the configured
            # partitions: make sure we can still see a quorum before
            # keeping faith in this membership (the evicted members
            # may be the reachable majority's side of a split).
            self.assess_quorum("small_view")
        return True

    def _push_view(self, node: str) -> None:
        """Send our view to ``node``: a broadcast, or a correction for a
        sender that is behind or on a superseded lineage."""
        self.gsd.send(node, ports.GSD, ports.GSD_VIEW, {"view": self.view.to_payload()})

    def _refused(self, kind: str, **fields) -> bool:
        """Minority refusal: a parked member marks ``regroup.write_refused``
        instead of writing."""
        if self.parked:
            self.sim.trace.mark("regroup.write_refused", node=self.me, kind=kind, **fields)
        return self.parked

    def broadcast_view(self) -> None:
        assert self.view is not None
        # A parked member's membership opinion must not leave the node (a
        # broadcast is a write to every peer's view state).
        if self._refused("view_broadcast", view_id=self.view.view_id, epoch=self.view.epoch):
            return
        for _, node in self.view.members:
            if node != self.me:
                self._push_view(node)

    def _export_leader(self) -> None:
        """Publish the epoch-stamped leadership record to the bulletin, so
        monitoring readers can resolve conflicting claims by epoch."""
        if self.view is None or self._refused("leader_export", epoch=self.view.epoch):
            return
        self.gsd.export_row(
            "metagroup", "leader",
            {"node": self.me, "epoch": self.view.epoch, "view_id": self.view.view_id},
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
        sender = msg.payload["node"]
        beat_view = msg.payload.get("view")
        if beat_view is not None:
            theirs = (int(beat_view.get("epoch") or 1), int(beat_view["view_id"]))
            mine = self.view.key if self.view is not None else (0, 0)
            if theirs > mine:
                self.install_view(View.from_payload(beat_view))
            elif theirs < mine and not self.parked:
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
                self._push_view(sender)
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
                self.gsd.spawn(self._heal_probe(), name=f"{self.me}/mg.healnow")
            return
        if not self.is_leader:
            # Forward to whoever we believe leads (a restarted GSD may have
            # a stale idea of the leader's location).
            leader = self.view.leader()[1] if self.view else None
            if leader is not None and leader != self.me:
                self.gsd.send(leader, ports.GSD, ports.GSD_JOIN, msg.payload)
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
            # reconciles — installing it supersedes the duplicate.
            self.sim.trace.mark(
                "gsd.join_refused", partition=partition, node=node,
                current=current, epoch=self.view.epoch,
            )
            self._push_view(node)
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
        if (not installed and self.view is not None and view.epoch < self.view.epoch
                and not self.parked and msg.src_node != self.me):
            # The sender is pushing a superseded lineage's view: reply
            # with the newer one so the stale side steps down, rejoins,
            # or is superseded instead of retrying forever.
            self._push_view(msg.src_node)

    def on_member_failed(self, msg: Message) -> None:
        """Leader side: drop a reported-dead member and broadcast."""
        if not self.is_leader or self.view is None:
            return
        claimed_epoch = msg.payload.get("epoch")
        if claimed_epoch is not None and claimed_epoch < self.view.epoch:
            # A stale-epoch eviction command (e.g. from the old side of a
            # healed split): fence it and correct the sender.
            self.sim.trace.mark(
                "gsd.fenced", target="member_failed", node=self.me, sender=msg.src_node,
                epoch=claimed_epoch, current_epoch=self.view.epoch,
            )
            if msg.src_node != self.me:
                self._push_view(msg.src_node)
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

    # -- the ring's failover (Table 2 mechanics) -------------------------------
    server_mode = True  # ring members are server nodes
    #: A member whose recovery failed was already reported dead: membership,
    #: not the ring monitor, decides whether it is watched again.
    rearm_failed = False

    def admit(self, node: str, network: str | None) -> bool:
        # A parked member leaves the ring's failovers to the quorate side.
        return network is not None or not self.parked

    def begin(self, node: str):
        partition = self._node_partition.get(node)
        if partition is None or self.view is None:
            return None
        return partition, self.view.leader()[1] == node

    def rearm(self, node: str) -> None:
        if node == self.predecessor():
            self.monitor.expect(node)

    def on_return(self, node: str) -> None:
        self.sim.trace.mark("member.returned", node=node, by=self.me)

    def _report_watchdog(self, expected_key: tuple[int, int]) -> None:
        """Fires one regroup period after a member-failed report went to a
        remote leader: an unchanged view means nobody acted on it."""
        if self.view is not None and self.view.key == expected_key:
            self.assess_quorum("leader_unreachable")

    # -- the takeover path -----------------------------------------------
    def recover(self, root, failed_node, component, kind, context):
        """Quorum gate, then membership (the takeover when the Leader
        died), then restart the GSD in place or migrate it."""
        partition, was_leader = context
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
            and sum(1 for m in self.view.members if m[1] != failed_node) * 2
            <= len(self.gsd.cluster.partitions)
        ):
            quorate = yield from self._census("member_failure", exclude={failed_node})
            if quorate is False:
                return {"parked": True}
            if quorate:
                if not self.view.contains_node(failed_node):
                    # The census took time; a concurrent install already
                    # resolved this membership change.
                    return {"superseded": True}
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
            return (yield from self.restart(root, failed_node, component))

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
        while (target := pick_migration_target(self.gsd, partition, tried)) is not None:
            tried.add(target)
            root.mark("service.migrating", service=component, src=failed_node, dst=target)
            if (yield from self.start_remote(target, component, rec)):
                rec.end(ok=True, dst=target)
                return self.recovered(
                    root, failed_node, component, NODE,
                    (ev.SERVICE_RECOVERY,
                     {"service": component, "node": target, "migrated_from": failed_node}),
                    dst=target,
                )
            root.mark(
                "migration.retry", component=component, node=failed_node, failed_target=target
            )
        close = self.failed(root, failed_node, component, reason="no target")
        rec.end(ok=False)
        return close
