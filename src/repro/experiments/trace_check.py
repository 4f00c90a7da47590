"""Leadership, judged once, from the trace.

Every campaign family (:mod:`repro.experiments.fault_campaign`) asks
:func:`check_trace` for its leadership verdict over its own live
``sim.trace`` records; ``python -m repro tracecheck`` asks it again over
an exported JSONL trace (:meth:`repro.sim.trace.Trace.load_jsonl`).
Records are read through the surface a ``TraceRecord`` and a closed
``Span`` share: ``.time``, ``.category``, ``.get``.

Claims are rebuilt from the meta-group's six role-change marks:
``leader.claimed`` / ``leader.takeover`` start one, ``leader.stepdown`` /
``gsd.superseded`` end it, ``quorum.lost`` suspends it and
``quorum.regained`` at the claim's epoch resumes it.  Three rules:

1. **Same-epoch overlap** — no two same-epoch claims by different nodes
   overlap.  Every genuine takeover bumps the epoch, so only split brain
   produces two same-epoch claimants.
2. **Parked commit** — a parked node (``quorum.lost`` to
   ``quorum.regained``) commits no ``placement.committed`` naming it
   meta-group leader, and no ``gsd.state.*`` ``ckpt.committed`` once
   ``ckpt_grace`` has passed since it parked (saves in flight may land).
3. **Minority-window commit** — a ``campaign.fault`` span's ``minority``
   nodes commit neither from its ``start`` to its last ``fault.repaired``
   mark (checkpoints: once ``ckpt_grace`` has passed since ``start``):
   this sees a minority node that never parks.

**Stale belief**, measured but no violation, is the time during which
two or more claims are open (a claim still open ends at the last record).

The marks exist only under ``KernelTimings.trace_commit_marks`` (every
campaign family and ``partition_heal`` turn it on).  A trace with no
``leader.claimed`` mark lacks the boot leader's claim, so a same-epoch
rival of it would pass: it cannot be judged, and fails.
"""

from __future__ import annotations

import argparse
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.sim.trace import Trace, TraceRecord

#: Marks that open a leadership claim: category → the field naming the node.
_CLAIM_STARTS = {
    "leader.claimed": "node",
    "leader.takeover": "new",
}
#: Marks that close the named node's claim outright.
_CLAIM_ENDS = ("leader.stepdown", "gsd.superseded")


@dataclass
class Claim:
    """One reconstructed leadership interval; ``end`` None = held at EOT."""

    node: str
    epoch: int
    start: float
    end: float | None = None

    def overlaps(self, other: "Claim") -> bool:
        a_end = math.inf if self.end is None else self.end
        b_end = math.inf if other.end is None else other.end
        return self.start < b_end and other.start < a_end


@dataclass
class TraceCheckResult:
    claims: list[Claim] = field(default_factory=list)
    #: node -> [(parked_from, parked_until)]; ``inf`` = never regained.
    parked: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    dual_leader: list[dict[str, Any]] = field(default_factory=list)
    minority_writes: list[dict[str, Any]] = field(default_factory=list)
    #: Seconds during which two or more claims were open.
    stale_belief: float = 0.0
    claim_marks: int = 0
    commit_marks: int = 0

    @property
    def ok(self) -> bool:
        """Judged (a ``leader.claimed`` mark exists) and nothing violated."""
        return self.claim_marks > 0 and not self.violations

    @property
    def violations(self) -> list[dict[str, Any]]:
        return self.dual_leader + self.minority_writes

    def writes(self, kind: str) -> int:
        """Minority writes of one kind (``placement`` or ``ckpt``)."""
        return sum(1 for v in self.minority_writes if v["kind"] == kind)


def reconstruct_claims(records: Iterable[TraceRecord]) -> list[Claim]:
    """Leadership claim intervals implied by the trace's marks."""
    claims: list[Claim] = []
    active: dict[str, Claim] = {}
    suspended: dict[str, Claim] = {}

    def start(node: str, epoch: int, t: float) -> None:
        cur = active.get(node)
        if cur is not None:
            if cur.epoch == epoch:
                return  # idempotent re-assertion of the same incumbency
            cur.end = t  # same node advancing its own epoch
        claim = Claim(node=node, epoch=int(epoch), start=t)
        active[node] = claim
        claims.append(claim)

    def end(node: str, t: float) -> Claim | None:
        cur = active.pop(node, None)
        if cur is not None:
            cur.end = t
        return cur

    for rec in records:
        cat, t = rec.category, rec.time
        node_field = _CLAIM_STARTS.get(cat)
        if node_field is not None:
            if rec.get("epoch") is not None:
                start(str(rec.get(node_field)), int(rec.get("epoch")), t)
            continue
        if cat in _CLAIM_ENDS:
            end(str(rec.get("node", "")), t)
            suspended.pop(str(rec.get("node", "")), None)
            continue
        if cat == "quorum.lost":
            node = str(rec.get("node", ""))
            cur = end(node, t)
            if cur is not None:
                suspended[node] = cur
            continue
        if cat == "quorum.regained":
            node = str(rec.get("node", ""))
            prior = suspended.pop(node, None)
            # Unparked into a newer view (another leader's): no claim resumes.
            if (prior is not None and node not in active
                    and rec.get("epoch") in (None, prior.epoch)):
                start(node, prior.epoch, t)
    return claims


def parked_windows(records: Iterable[TraceRecord]) -> dict[str, list[tuple[float, float]]]:
    """Per-node parked intervals from quorum.lost / quorum.regained."""
    windows: dict[str, list[tuple[float, float]]] = {}
    open_since: dict[str, float] = {}
    for rec in records:
        if rec.category == "quorum.lost":
            open_since.setdefault(str(rec.get("node", "")), rec.time)
        elif rec.category == "quorum.regained":
            node = str(rec.get("node", ""))
            t0 = open_since.pop(node, None)
            if t0 is not None:
                windows.setdefault(node, []).append((t0, rec.time))
    for node, t0 in open_since.items():
        windows.setdefault(node, []).append((t0, math.inf))
    return windows


def minority_windows(records: Iterable[TraceRecord]) -> list[tuple[float, float, frozenset]]:
    """(start, last repair, minority nodes) per ``campaign.fault`` span
    that names a minority; a span with no repair mark ends at its close."""
    repaired: dict[str, float] = {}
    spans = []
    for rec in records:
        if rec.category == "fault.repaired":
            repaired[rec.get("span_id")] = rec.time
        elif rec.category == "campaign.fault" and rec.get("minority"):
            spans.append(rec)
    return [
        (s.get("start"), repaired.get(s.get("span_id"), s.time), frozenset(s.get("minority")))
        for s in spans
    ]


def stale_belief(claims: list[Claim], eot: float) -> float:
    """Seconds during which two or more claims are open (open ones end at ``eot``)."""
    # An end sorts before a start at the same instant: touching claims never overlap.
    edges = sorted([(c.start, 1) for c in claims]
                   + [(eot if c.end is None else c.end, -1) for c in claims])
    total, held, since = 0.0, 0, 0.0
    for t, step in edges:
        if held >= 2:
            total += t - since
        held, since = held + step, t
    return total


def check_trace(records: Iterable[TraceRecord], ckpt_grace: float = 0.0) -> TraceCheckResult:
    """The leadership verdict over one trace's records (module docstring)."""
    records = list(records)
    result = TraceCheckResult(
        claims=reconstruct_claims(records),
        parked=parked_windows(records),
    )
    result.stale_belief = stale_belief(result.claims, records[-1].time if records else 0.0)
    # 1. same-epoch overlap: same-epoch claims by different nodes never overlap.
    by_epoch: dict[int, list[Claim]] = {}
    for claim in result.claims:
        by_epoch.setdefault(claim.epoch, []).append(claim)
    for epoch, group in sorted(by_epoch.items()):
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if a.node != b.node and a.overlaps(b):
                    result.dual_leader.append({
                        "invariant": "dual-leader",
                        "epoch": epoch,
                        "nodes": sorted((a.node, b.node)),
                        "interval_a": (a.start, a.end),
                        "interval_b": (b.start, b.end),
                    })
    # 2./3. no meta-group leader placement or gsd.state commit by a parked
    # node, or by a minority node inside its split's window.
    sides = minority_windows(records)
    for rec in records:
        cat, t = rec.category, rec.time
        if cat == "leader.claimed":
            result.claim_marks += 1
            continue
        if cat == "placement.committed":
            shared = rec.get("service") == "metagroup" and rec.get("scope") == "leader"
            grace, what = 0.0, {"kind": "placement", "epoch": rec.get("epoch")}
        elif cat == "ckpt.committed":
            shared = str(rec.get("key", "")).startswith("gsd.state.")
            grace, what = ckpt_grace, {"kind": "ckpt", "key": rec.get("key")}
        else:
            continue
        result.commit_marks += 1
        node = str(rec.get("node", ""))
        if shared and (
            any(t0 + grace <= t < t1 for t0, t1 in result.parked.get(node, ()))
            or any(node in side and t0 + grace <= t <= t1 for t0, t1, side in sides)
        ):
            result.minority_writes.append(
                {"invariant": "minority-write", "node": node, "time": t, **what})
    return result


def render(path: str, result: TraceCheckResult) -> str:
    """Human-readable verdict for one checked trace file."""
    lines = [
        f"{path}: {len(result.claims)} leadership claims, "
        f"{sum(len(w) for w in result.parked.values())} parked windows, "
        f"{result.commit_marks} commit marks",
    ]
    for violation in result.violations:
        lines.append(f"  VIOLATION {violation}")
    if not result.claim_marks:
        lines.append("  FAILED: no leader.claimed mark, so the trace cannot be judged "
                     "(export it with trace_commit_marks on)")
    elif result.violations:
        lines.append(f"  FAILED: {len(result.violations)} violation(s)")
    else:
        lines.append("  ok")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: check each trace, exit 1 if any fails."""
    parser = argparse.ArgumentParser(
        prog="repro tracecheck",
        description="Re-verify leadership invariants from exported JSONL traces.",
    )
    parser.add_argument("traces", nargs="+", help="export_jsonl trace files")
    parser.add_argument(
        "--ckpt-grace", type=float, default=0.0,
        help="seconds after quorum.lost (or a campaign split's start) during which "
        "in-flight gsd.state checkpoint commits are tolerated (the campaign uses 5 heartbeats)",
    )
    args = parser.parse_args(argv)
    failed = False
    for path in args.traces:
        result = check_trace(Trace.load_jsonl(path).records(), ckpt_grace=args.ckpt_grace)
        print(render(path, result))
        failed = failed or not result.ok
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
