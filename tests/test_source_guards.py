"""Source guards: patterns that must not come back into ``src/repro``."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _lines(root: Path, pattern: str):
    rx = re.compile(pattern)
    for path in sorted(root.rglob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if rx.search(line):
                yield f"{path.relative_to(SRC)}:{number}: {line.strip()}"


def test_nothing_is_sized_by_rendering_it():
    """Byte counts and commit costs come from ``cluster/message`` (the wire
    model, ``repr_len``), never from rendering a payload in place."""
    found = [hit for hit in _lines(SRC, r"len\(repr\(")
             if not hit.startswith("cluster/message.py:")]
    assert found == []


def test_checkpoints_are_not_copied():
    """A checkpoint is a frozen value shared by every reader."""
    assert list(_lines(SRC / "kernel" / "checkpoint", r"^\s*(import copy|from copy )")) == []


def test_message_types_are_dispatched_in_one_place():
    """``ServiceDaemon.bind`` routes each message type to its handler and
    checks its declaration; no daemon keeps its own if-chain over
    ``msg.mtype`` or its own unknown-type mark."""
    found = [hit for hit in _lines(SRC, r"msg\.mtype\s*(==|in\b)|unknown_mtype")
             if not hit.startswith("kernel/daemon.py:")]
    assert found == []


def test_a_failover_is_opened_in_one_place():
    """Every tier — watch daemons, the meta-group ring, the GSD's own node —
    runs ``group/recovery.Failover``: one call opens a ``gsd.failover`` root."""
    found = [f"{path.relative_to(SRC)}: {match.group(0)}"
             for path in sorted(SRC.rglob("*.py"))
             for match in re.finditer(r'\.span\(\s*"gsd\.failover"', path.read_text(encoding="utf-8"))]
    assert found == ['kernel/group/recovery.py: .span("gsd.failover"']


def test_leadership_is_judged_in_one_place():
    """Only ``experiments/trace_check`` reads the commit and claim marks:
    every campaign asks it for the leadership verdict, so no second judge
    counts them by itself."""
    found = [hit for hit in _lines(SRC / "experiments",
                                   r"placement\.committed|ckpt\.committed|leader\.claimed")
             if not hit.startswith("experiments/trace_check.py:")]
    assert found == []


def test_the_bulletin_has_one_cluster_wide_read():
    """``DB_EXEC`` is the one cluster-wide read: no ``global`` scope, and
    ``DB_QUERY`` — the federation's peer probe — is sent only by the
    bulletin itself and by the autoscaler's own-partition read."""
    assert list(_lines(SRC, r"""["']global["']""")) == []
    found = [hit for hit in _lines(SRC, r"\bDB_QUERY\b")
             if not hit.startswith(("kernel/bulletin/", "kernel/ports.py:",
                                    "userenv/business/autoscale.py:"))]
    assert found == []


def test_durable_state_has_one_path():
    """A daemon saves and loads its state through ``ServiceDaemon.save_state``
    / ``load_state`` (acked and retried, blob parsed before use): no module
    outside the checkpoint service names the save or load message."""
    found = [hit for hit in _lines(SRC, r"\bCKPT_(SAVE|LOAD)\b")
             if not hit.startswith(("kernel/ports.py:", "kernel/checkpoint/", "kernel/daemon.py:"))]
    assert found == []


def test_a_daemon_reaches_its_partition_services_one_way():
    """A daemon publishes, exports, reads and subscribes at its own
    partition's event service and bulletin through ``ServiceDaemon.publish``
    / ``export_row`` / ``exec_query`` / ``subscribe``: only those, the outside
    caller's ``KernelClient``, the event service itself and the bulletin's
    own port table name the four messages, and no module looks its own
    partition's ES or bulletin up by hand."""
    found = [hit for hit in _lines(SRC, r"ports\.(ES_PUBLISH|ES_SUBSCRIBE|DB_PUT|DB_EXEC)\b")
             if not hit.startswith(("kernel/ports.py:", "kernel/daemon.py:", "kernel/api.py:",
                                    "kernel/events/"))
             and not re.match(r"kernel/bulletin/service\.py:\d+: ports\.DB_(PUT|EXEC): _on_", hit)]
    assert found == []
    own = r"""placement\.get\(\(["'](es|db)["'], self\.partition_id\)"""
    by_hand = [hit for hit in _lines(SRC, own) if not hit.startswith("kernel/daemon.py:")]
    assert by_hand == []


def test_a_user_environment_learns_its_nodes_one_way():
    """PWS and the business runtime know their nodes only through
    ``userenv/inventory.Inventory`` (one ``nodes`` read, one refund rule):
    neither keeps its own per-node capacity, free-CPU or up/down map, reads
    ``node_metrics`` / ``node_state`` or asks the simulator whether a node
    is up.  Exempt: the PWS console's node listing (a display read) and the
    runtime's check that a checkpointed replica's process survived."""
    patterns = "|".join((
        r"\b_?(capacity|free|free_cpus|cpus|node_up|up)\s*(:\s*dict\b|=\s*(\{|dict\())",
        r"\bTABLE_NODE_(METRICS|STATE)\b|[\"']node_(metrics|state)[\"']",
        r"cluster\.node\([^)]*\)\.up\b",
    ))
    found = sorted(re.sub(r":\d+: ", ": ", hit)
                   for env in ("business", "pws")
                   for hit in _lines(SRC / "userenv" / env, patterns))
    assert found == [
        "userenv/business/runtime.py: or (self.cluster.node(replica.node).up",
        "userenv/pws/console.py: from repro.kernel.bulletin.service import TABLE_NODE_STATE",
        "userenv/pws/console.py: return self.kernel.client(self.node_id).query_bulletin(TABLE_NODE_STATE)",
    ]


def test_only_the_engine_touches_the_collector():
    """``Simulator.run`` / ``step`` pause the cyclic collector, which is
    sound only because the event path makes no reference cycles
    (``tests/integration/test_no_cycles.py``); a second toggle anywhere
    else could hide one."""
    toggles = r"\bgc\.(disable|enable|collect|freeze|set_threshold)\b|^\s*from gc import"
    found = [hit for hit in _lines(SRC, toggles) if not hit.startswith("sim/core.py:")]
    assert found == []
