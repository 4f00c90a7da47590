"""Fold a cProfile run into per-layer busy time.

A layer is a module (or small group of modules) of ``repro``; its name is
the module name without ``repro.``.  Every profiled second lands in
exactly one layer:

* a frame of a layer's own module is charged to that layer (self time);
* a builtin, stdlib, numpy or unlisted-module frame is charged to the
  layers that entered it, along the profile's caller edges, split in
  proportion to the cumulative time each caller spent in it.  Without
  this, 50–70 % of the bulletin workloads (``copy.deepcopy``, ``repr``)
  would land in an anonymous bucket.

So ``Σ busy_s`` equals the profile's total time and the shares sum to 1.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import defaultdict

LAYERS = (
    "sim.core", "sim.process", "sim.trace",
    "cluster.network", "cluster.transport", "cluster.message", "cluster.metrics",
    "cluster.node",
    "kernel.daemon", "kernel.group", "kernel.detectors", "kernel.events",
    "kernel.bulletin", "kernel.checkpoint", "kernel.other",
    "userenv.business", "userenv.monitoring",
    "harness",
)

#: Path fragment (after ``/repro/`` or the repo root) -> layer.  First
#: match wins; a ``repro`` module matching nothing is treated like stdlib
#: and charged to its callers.
_RULES = (
    ("repro/sim/core.py", "sim.core"),
    ("repro/sim/process.py", "sim.process"),
    ("repro/sim/trace.py", "sim.trace"),
    ("repro/cluster/network.py", "cluster.network"),
    ("repro/cluster/transport.py", "cluster.transport"),
    ("repro/cluster/message.py", "cluster.message"),
    ("repro/cluster/metrics.py", "cluster.metrics"),
    ("repro/cluster/node.py", "cluster.node"),
    ("repro/cluster/hostos.py", "cluster.node"),
    ("repro/kernel/daemon.py", "kernel.daemon"),
    ("repro/kernel/group/", "kernel.group"),
    ("repro/kernel/detectors/", "kernel.detectors"),
    ("repro/kernel/events/", "kernel.events"),
    ("repro/kernel/bulletin/", "kernel.bulletin"),
    ("repro/kernel/checkpoint/", "kernel.checkpoint"),
    ("repro/kernel/api.py", "kernel.other"),
    ("repro/kernel/ppm/", "kernel.other"),
    ("repro/kernel/config/", "kernel.other"),
    ("repro/kernel/security/", "kernel.other"),
    ("repro/kernel/quiesce.py", "kernel.other"),
    ("repro/userenv/business/", "userenv.business"),
    ("repro/userenv/monitoring/", "userenv.monitoring"),
    ("benchmarks/perf/", "harness"),
)

#: Named boundary functions: metric prefix -> (path fragment, function).
#: ``<prefix>_calls`` is the call count and ``<prefix>_s`` the cumulative
#: host seconds of the traced run.
BOUNDARIES = {
    "sim.core.schedule": ("repro/sim/core.py", "_schedule"),
    "sim.trace.count": ("repro/sim/trace.py", "count"),
    "sim.trace.mark": ("repro/sim/trace.py", "mark"),
    "cluster.network.transmit": ("repro/cluster/network.py", "transmit"),
    "cluster.transport.send": ("repro/cluster/transport.py", "send"),
    "cluster.transport.rpc": ("repro/cluster/transport.py", "rpc"),
    "cluster.message.estimate_size": ("repro/cluster/message.py", "estimate_size"),
    "cluster.metrics.sample": ("repro/cluster/metrics.py", "sample"),
}


def layer_of(filename: str) -> str | None:
    path = filename.replace("\\", "/")
    for fragment, layer in _RULES:
        if fragment in path:
            return layer
    return None


def fold(profile: cProfile.Profile) -> dict:
    """Layer totals, layer→layer edges and boundary-function figures."""
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    layer = {func: layer_of(func[0]) for func in stats}

    # Who pays for a frame that belongs to no layer: a distribution over
    # layers, relaxed along caller edges until it settles (stdlib call
    # graphs are shallow; recursion such as deepcopy converges fast).
    foreign = [func for func in stats if layer[func] is None]
    owners: dict[tuple, dict[str, float]] = {func: {} for func in foreign}
    for _ in range(50):
        moved = 0.0
        for func in foreign:
            weights: dict[str, float] = defaultdict(float)
            for caller, (_cc, _nc, _tt, ct) in stats[func][4].items():
                weight = max(ct, 1e-12)
                if layer.get(caller) is not None:
                    weights[layer[caller]] += weight
                else:
                    for name, share in owners.get(caller, {}).items():
                        weights[name] += weight * share
            total = sum(weights.values())
            settled = {name: w / total for name, w in weights.items()} if total else {}
            moved = max(moved, max(
                (abs(settled.get(n, 0.0) - owners[func].get(n, 0.0))
                 for n in settled.keys() | owners[func].keys()), default=0.0))
            owners[func] = settled
        if moved < 1e-9:
            break

    busy = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        own = layer[func]
        if own is not None:
            busy[own] += tt
            calls[own] += nc
            for caller, (_ecc, enc, ett, _ect) in callers.items():
                src = layer.get(caller)
                if src is not None and src != own:
                    edge = edges[(src, own)]
                    edge[0] += enc
                    edge[1] += ett
        else:
            # No layer on any path up: the profiler's own entry frames.
            for name, share in (owners[func] or {"harness": 1.0}).items():
                busy[name] += tt * share

    total = sum(busy.values())
    boundaries = {}
    for prefix, (fragment, name) in BOUNDARIES.items():
        hit = [(nc, ct) for (filename, _line, fn), (_cc, nc, _tt, ct, _callers) in stats.items()
               if fn == name and fragment in filename.replace("\\", "/")]
        boundaries[prefix + "_calls"] = sum(nc for nc, _ in hit)
        boundaries[prefix + "_s"] = sum(ct for _, ct in hit)

    # copy.deepcopy entered from the bulletin: the row copies on put/scan.
    deep_calls, deep_s = 0, 0.0
    for (filename, _line, fn), (_cc, _nc, _tt, _ct, callers) in stats.items():
        if fn == "deepcopy" and filename.replace("\\", "/").endswith("/copy.py"):
            for caller, (_ecc, enc, _ett, ect) in callers.items():
                if layer.get(caller) == "kernel.bulletin":
                    deep_calls += enc
                    deep_s += ect
    boundaries["kernel.bulletin.deepcopy_calls"] = deep_calls
    boundaries["kernel.bulletin.deepcopy_s"] = deep_s

    return {
        "total_s": total,
        "layers": {
            name: {"calls": calls[name], "busy_s": busy[name],
                   "share": busy[name] / total if total else 0.0}
            for name in LAYERS
        },
        # "Who caused it": calls and callee self seconds per layer→layer edge.
        "edges": [
            {"from": src, "to": dst, "calls": n, "self_s": s}
            for (src, dst), (n, s) in sorted(edges.items(), key=lambda kv: -kv[1][1])
        ],
        "boundaries": boundaries,
    }
