"""Compare two ledgers: one row per (end-to-end metric, workload).

Verdicts follow the claim rule of the ``choosing-metrics`` guide:

``worse``       the change's median is worse than the parent's by more
                than the bound — and, where the metric is unresolved (next
                row), only when even the change's best run is worse than
                the parent's worst run by more than the bound
``unresolved``  a host metric whose parent's own inter-quartile spread is
                wider than the bound, or which either ledger marks noisy
                (its min–max over the repeats exceeds the bound): neither
                a loss nor a hold can be shown
``better``      the change's median is better by more than the parent's
                own inter-quartile spread, and every run of the change
                beats every run of the parent
``same``        anything else

Every ratio is printed with its base (the parent's median).  A ledger of
three repeats can show a regression; a *gain* also needs ≥10 alternating
pairs (see README.md) — this table is the per-metric no-regression check.
"""

from __future__ import annotations

from typing import Any


def verdict(parent: dict[str, Any], change: dict[str, Any],
            noisy: bool = False) -> tuple[str, float]:
    """(verdict, signed relative change: positive = worse).  ``noisy``:
    either ledger flagged this metric of this workload."""
    base, new, bound = parent["median"], change["median"], parent["bound"]
    lower = parent["better"] == "lower"
    sign = 1.0 if lower else -1.0
    spread = parent["q3"] - parent["q1"]
    if bound == 0.0:  # absolute: any rise is a regression
        delta = sign * (new - base)
        return ("worse" if delta > 0 else "better" if delta < 0 else "same"), delta
    if base == 0:
        return ("same" if new == 0 else "worse" if sign * new > 0 else "better"), 0.0
    worse_by = sign * (new - base) / abs(base)
    best, worst = (change["min"], change["max"]) if lower else (change["max"], change["min"])
    parent_best, parent_worst = ((parent["min"], parent["max"]) if lower
                                 else (parent["max"], parent["min"]))
    if noisy or spread / abs(base) > bound:
        clear = sign * (best - parent_worst) / abs(base) > bound
        return ("worse" if clear else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if abs(new - base) > spread and sign * (worst - parent_best) < 0:
        return "better", worse_by
    return "same", worse_by


def _cell(m: dict[str, Any]) -> str:
    return f"{m['median']:.6g} [{m['q1']:.6g}..{m['q3']:.6g}] {m['unit']}"


def render(parent: dict[str, Any], change: dict[str, Any]) -> tuple[str, int]:
    """The comparison table and the number of ``worse`` rows."""
    lines = [f"parent: {parent['command']}  (seed {parent['seed']}, {parent['repeats']} repeats)",
             f"change: {change['command']}  (seed {change['seed']}, {change['repeats']} repeats)",
             f"{'workload':<21}{'metric':<18}{'parent median [q1..q3]':<38}"
             f"{'change median [q1..q3]':<38}{'change/parent':<24}{'bound':<8}verdict"]
    worse = 0
    for name, prow in parent["workloads"].items():
        crow = change["workloads"].get(name)
        if crow is None:
            lines.append(f"{name:<21}missing from the change's ledger")
            worse += 1
            continue
        for metric, p in prow["end_to_end"].items():
            c = crow["end_to_end"][metric]
            word, _ = verdict(p, c, noisy=metric in prow["noisy"] or metric in crow["noisy"])
            worse += word == "worse"
            ratio = (f"{c['median'] / p['median']:.4f} of {p['median']:.6g}"
                     if p["median"] else f"{c['median']:.6g} vs 0")
            bound = "0 abs" if p["bound"] == 0 else f"{p['bound']:.0%}"
            lines.append(f"{name:<21}{metric:<18}{_cell(p):<38}{_cell(c):<38}"
                         f"{ratio:<24}{bound:<8}{word}")
        same = prow["sim_digest"] == crow["sim_digest"]
        lines.append(f"{name:<21}sim_digest        "
                     + ("identical" if same else
                        f"DIFFERENT ({prow['sim_digest'][:12]}… vs {crow['sim_digest'][:12]}…): "
                        "the change altered simulated behaviour"))
        for side, row in (("parent", prow), ("change", crow)):
            for metric, why in row["noisy"].items():
                lines.append(f"{name:<21}{side}'s {metric} is NOISY: {why}")
    lines.append(f"{worse} row(s) worse")
    return "\n".join(lines), worse
