"""Failure diagnosis and recovery building blocks.

Diagnosis follows the paper's taxonomy: after a heartbeat source goes
quiet on **all** fabrics, the monitor probes the node's OS on every
fabric:

* any pong  → the **process** died (the node is fine);
* no pongs  → the **node** died — confirmed after extra probe rounds for
  compute nodes, or after a single window plus a short cross-check for
  server nodes (another ring member's view corroborates).

When the caller names the monitored ``service``, each round additionally
queries the *process itself* (the WD's process-query port, or the GSD's
status port — both bound to the monitored process, so a dead process
can never answer).  A reply proves the subject alive and the silence
gray (lossy/flapping links ate the heartbeats): diagnosis returns the
third verdict, **ALIVE**, and the caller resumes monitoring instead of
failing the subject over.  This is the verification step that keeps a
20 %-lossy link from triggering spurious failovers.

Each probe round is real traffic: OS pings with a timeout, evaluated at
the end of a fixed window, so diagnosing times in Tables 1–3 emerge from
``timings.PROBE_WINDOW`` and friends rather than hard-coded sleeps
in front of trace marks.
"""

from __future__ import annotations

from repro.kernel import ports
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.timings import (
    NODE_CONFIRM_ROUNDS,
    PING_TIMEOUT,
    PROBE_WINDOW,
    RPC_TIMEOUT,
    SERVER_NODE_CONFIRM_DELAY,
)
from repro.sim import Span, Timeout

#: Diagnosis verdicts.
PROCESS = "process"
NODE = "node"
ALIVE = "alive"

#: Per-service liveness probes: (port, mtype, payload) answered only by
#: the monitored process itself (owner-bound endpoints).
_LIVENESS_PROBES = {
    "wd": (ports.WD, ports.WD_PROC_QUERY, {"process": "wd"}),
    "gsd": (ports.GSD, ports.GSD_STATUS, {}),
}


def diagnose(
    daemon: ServiceDaemon,
    subject_node: str,
    server_mode: bool,
    span: Span | None = None,
    service: str | None = None,
):
    """Coroutine: probe ``subject_node``; return ``PROCESS``, ``NODE``,
    or (with ``service`` set) ``ALIVE``.

    ``server_mode`` selects the fast path used for server nodes (single
    window + confirm delay, ~0.3 s) instead of the retried probes used for
    compute nodes (~2 s).  ``span`` parents the probe RPCs' spans, so a
    failover trace shows each probe round under the diagnosis step.
    """
    networks = list(daemon.cluster.networks)
    probe = _LIVENESS_PROBES.get(service) if service else None
    rounds = 1 if server_mode else 1 + NODE_CONFIRM_ROUNDS
    for _ in range(rounds):
        signals = [
            daemon.transport.ping(
                daemon.node_id, subject_node, network, timeout=PING_TIMEOUT, span=span,
            )
            for network in networks
        ]
        queries = []
        if probe is not None:
            port, mtype, payload = probe
            queries = [
                daemon.rpc(
                    subject_node, port, mtype, dict(payload), network=network,
                    timeout=PING_TIMEOUT, span=span,
                )
                for network in networks
            ]
        yield Timeout(PROBE_WINDOW)
        for sig in queries:
            reply = sig.value if sig.fired else None
            if reply and reply.get("alive", True):
                return ALIVE
        if any(sig.fired and sig.value for sig in signals):
            return PROCESS
    if server_mode:
        # Cross-check with another ring member before declaring a server
        # node dead (modeled as a short fixed confirmation exchange).
        yield Timeout(SERVER_NODE_CONFIRM_DELAY)
    return NODE


def restart_service_remote(
    daemon: ServiceDaemon, node_id: str, service: str, span: Span | None = None
):
    """Coroutine: ask ``node_id``'s PPM to (re)start ``service``.

    Returns True on acknowledged success.  The RPC timeout covers the
    service's spawn time plus slack for the round trips.
    """
    timeout = daemon.timings.spawn_time(service) + 2.0 * RPC_TIMEOUT
    reply = yield daemon.rpc(
        node_id, ports.PPM, ports.PPM_START_SERVICE, {"service": service}, timeout=timeout,
        span=span,
    )
    return bool(reply and reply.get("ok"))


def pick_migration_target(
    daemon: ServiceDaemon, partition_id: str, exclude: str | set[str]
) -> str | None:
    """Select the node that will adopt a migrated service.

    "GSD member next to it in the ring structure will select a new node
    for migrating GSD" (paper §4.4): preference order is the partition's
    declared backup nodes, then any live compute node, excluding the dead
    host (and any targets already tried, when retrying).
    """
    excluded = {exclude} if isinstance(exclude, str) else set(exclude)
    part = daemon.cluster.partition(partition_id)
    candidates = list(part.backups) + list(part.computes)
    for node_id in candidates:
        if node_id not in excluded and daemon.cluster.node(node_id).up:
            return node_id
    return None
