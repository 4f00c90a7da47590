"""Offline trace-only leadership checker.

The partition campaign (:mod:`repro.experiments.fault_campaign`) verifies
its split-brain invariants in-process, sampling the live kernel.  This
module re-verifies the same invariants from nothing but an exported
JSONL trace (:meth:`repro.sim.trace.Trace.export_jsonl`), so a reviewer
can audit a run after the fact — or cross-check that the campaign's own
counts are honest:

1. **Zero dual leader** — no two *same-epoch* leadership claims by
   different nodes may overlap in time.  Claims are reconstructed from
   six marks — the meta-group's role changes: ``leader.claimed`` /
   ``leader.takeover`` start one, ``leader.stepdown`` / ``gsd.superseded``
   end it, ``quorum.lost`` suspends it and ``quorum.regained`` resumes it
   (the asym-inbound leader parks and resumes without a fresh takeover
   mark).  Epoch fencing makes the same-epoch restriction the right
   one: every genuine takeover bumps the epoch, so a deposed
   leader's lingering claim at epoch *e* cannot conflict with its
   successor at *e+1* — only true split-brain produces two same-epoch
   claimants.

2. **Zero minority writes** — while a node is parked (between its
   ``quorum.lost`` and ``quorum.regained`` marks) it must not commit
   durable shared state: no ``placement.committed`` naming it meta-group
   leader, and no ``ckpt.committed`` for a ``gsd.state.*`` key on it
   (after a configurable grace for saves already in flight at park time).

The commit marks are emitted only when
:attr:`repro.kernel.timings.KernelTimings.trace_commit_marks` is on —
the partition campaign enables it, default runs do not (byte-identity).
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass, field
from typing import Any

#: Marks that open a leadership claim: (category, node field, epoch field).
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
    commit_marks: int = 0

    @property
    def ok(self) -> bool:
        return not self.dual_leader and not self.minority_writes

    @property
    def violations(self) -> list[dict[str, Any]]:
        return self.dual_leader + self.minority_writes


def load_records(path: str) -> list[dict[str, Any]]:
    """Record lines of an ``export_jsonl`` file (counter/histogram
    trailer lines are skipped) — plain dicts, in export order."""
    records: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            line = json.loads(raw)
            if "_counters" in line or "_histograms" in line:
                continue
            records.append(line)
    return records


def reconstruct_claims(records: list[dict[str, Any]]) -> list[Claim]:
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
        cat = rec.get("category")
        t = float(rec.get("time", 0.0))
        node_field = _CLAIM_STARTS.get(cat)
        if node_field is not None:
            if rec.get("epoch") is not None:
                start(str(rec[node_field]), int(rec["epoch"]), t)
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
            if prior is not None and node not in active:
                start(node, prior.epoch, t)
    return claims


def parked_windows(records: list[dict[str, Any]]) -> dict[str, list[tuple[float, float]]]:
    """Per-node parked intervals from quorum.lost / quorum.regained."""
    windows: dict[str, list[tuple[float, float]]] = {}
    open_since: dict[str, float] = {}
    for rec in records:
        cat = rec.get("category")
        if cat == "quorum.lost":
            open_since.setdefault(str(rec.get("node", "")), float(rec["time"]))
        elif cat == "quorum.regained":
            node = str(rec.get("node", ""))
            t0 = open_since.pop(node, None)
            if t0 is not None:
                windows.setdefault(node, []).append((t0, float(rec["time"])))
    for node, t0 in open_since.items():
        windows.setdefault(node, []).append((t0, math.inf))
    return windows


def _parked_at(
    windows: dict[str, list[tuple[float, float]]], node: str, t: float, grace: float
) -> bool:
    return any(t0 + grace <= t < t1 for t0, t1 in windows.get(node, ()))


def check_trace(records: list[dict[str, Any]], ckpt_grace: float = 0.0) -> TraceCheckResult:
    """Run both invariants over one trace's records."""
    result = TraceCheckResult(
        claims=reconstruct_claims(records),
        parked=parked_windows(records),
    )
    # 1. zero dual leader: same-epoch claims by different nodes never overlap.
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
    # 2. zero minority writes: parked nodes commit no durable shared state.
    for rec in records:
        cat = rec.get("category")
        t = float(rec.get("time", 0.0))
        if cat == "placement.committed":
            result.commit_marks += 1
            if (
                rec.get("service") == "metagroup"
                and rec.get("scope") == "leader"
                and _parked_at(result.parked, str(rec.get("node", "")), t, 0.0)
            ):
                result.minority_writes.append({
                    "invariant": "minority-write",
                    "kind": "placement",
                    "node": rec.get("node"),
                    "time": t,
                    "epoch": rec.get("epoch"),
                })
        elif cat == "ckpt.committed":
            result.commit_marks += 1
            if (
                str(rec.get("key", "")).startswith("gsd.state.")
                and _parked_at(result.parked, str(rec.get("node", "")), t, ckpt_grace)
            ):
                result.minority_writes.append({
                    "invariant": "minority-write",
                    "kind": "ckpt",
                    "node": rec.get("node"),
                    "key": rec.get("key"),
                    "time": t,
                })
    return result


def render(path: str, result: TraceCheckResult) -> str:
    """Human-readable verdict for one checked trace file."""
    lines = [
        f"{path}: {len(result.claims)} leadership claims, "
        f"{sum(len(w) for w in result.parked.values())} parked windows, "
        f"{result.commit_marks} commit marks",
    ]
    if result.commit_marks == 0:
        lines.append(
            "  warning: no commit marks — was the trace exported with "
            "trace_commit_marks enabled?"
        )
    for violation in result.violations:
        lines.append(f"  VIOLATION {violation}")
    lines.append("  ok" if result.ok else f"  FAILED: {len(result.violations)} violation(s)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: check each trace, exit 1 if any has violations."""
    parser = argparse.ArgumentParser(
        prog="repro tracecheck",
        description="Re-verify leadership invariants from exported JSONL traces.",
    )
    parser.add_argument("traces", nargs="+", help="export_jsonl trace files")
    parser.add_argument(
        "--ckpt-grace", type=float, default=0.0,
        help="seconds after quorum.lost during which in-flight gsd.state "
        "checkpoint commits are tolerated (the campaign uses 5 heartbeats)",
    )
    args = parser.parse_args(argv)
    failed = False
    for path in args.traces:
        result = check_trace(load_records(path), ckpt_grace=args.ckpt_grace)
        print(render(path, result))
        failed = failed or not result.ok
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
