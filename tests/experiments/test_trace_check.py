"""The one leadership judge: trace-only, for the campaigns and the CLI.

Synthetic traces prove the checker catches doctored violations (a checker
that never fires is worthless); a real partition-campaign export proves
the live kernel passes the same audit with no in-process state.
"""

import json

import pytest

from repro.experiments.fault_campaign import run_partition_class
from repro.experiments.trace_check import (
    check_trace,
    main,
    reconstruct_claims,
)
from repro.sim.trace import Trace, TraceRecord


def mark(t, category, **fields):
    return TraceRecord(t, category, fields)


#: The boot leader's claim: what makes a trace judgeable.
BOOT = mark(0.0, "leader.claimed", node="p0s0", epoch=1)


# -- synthetic traces: the checker must fire on doctored histories ------------


def test_clean_epoch_fenced_takeover_passes():
    records = [
        mark(1.0, "leader.claimed", node="a", epoch=1),
        mark(5.0, "leader.takeover", old="a", new="b", epoch=2),
        mark(5.5, "leader.stepdown", node="a"),
    ]
    result = check_trace(records)
    assert result.ok
    # The deposed epoch-1 claim overlapping b's epoch-2 claim is fine:
    # genuine takeovers bump the epoch, only same-epoch overlap is split-brain.
    assert [(c.node, c.epoch) for c in result.claims] == [("a", 1), ("b", 2)]


def test_same_epoch_overlap_is_dual_leader():
    records = [
        mark(1.0, "leader.claimed", node="a", epoch=3),
        mark(2.0, "leader.claimed", node="b", epoch=3),
        mark(4.0, "leader.stepdown", node="a"),
    ]
    result = check_trace(records)
    assert not result.ok
    assert result.dual_leader[0]["nodes"] == ["a", "b"]
    assert result.dual_leader[0]["epoch"] == 3


def test_touching_intervals_do_not_overlap():
    records = [
        mark(1.0, "leader.claimed", node="a", epoch=1),
        mark(3.0, "leader.stepdown", node="a"),
        mark(3.0, "leader.claimed", node="b", epoch=1),
    ]
    assert check_trace(records).ok


def test_quorum_lost_suspends_and_regained_resumes_claim():
    """The asym-inbound leader parks and resumes with no fresh takeover
    mark; the resumed claim keeps its epoch, so a same-epoch claim by a
    different node *during* the park is still caught."""
    records = [
        mark(1.0, "leader.claimed", node="a", epoch=2),
        mark(4.0, "quorum.lost", node="a"),
        mark(9.0, "quorum.regained", node="a"),
    ]
    claims = reconstruct_claims(records)
    assert [(c.node, c.epoch, c.start, c.end) for c in claims] == [
        ("a", 2, 1.0, 4.0), ("a", 2, 9.0, None),
    ]
    # A usurper claiming epoch 2 only inside the park window is legal...
    parked_usurper = records[:2] + [
        mark(5.0, "leader.claimed", node="b", epoch=2),
        mark(8.0, "leader.stepdown", node="b"),
    ] + records[2:]
    assert check_trace(parked_usurper).ok
    # ...but one still reigning when the claim resumes is split-brain.
    lingering = records[:2] + [
        mark(5.0, "leader.claimed", node="b", epoch=2),
    ] + records[2:]
    assert not check_trace(lingering).ok


def test_unparking_into_a_newer_view_resumes_no_claim():
    """A cut-off leader that rejoins through the majority's newer view is a
    plain member: its old claim stays closed, so no stale belief runs on."""
    records = [
        BOOT,
        mark(30.0, "leader.takeover", old="p0s0", new="p1s0", epoch=2),
        mark(43.0, "quorum.lost", node="p0s0", epoch=1),
        mark(130.0, "quorum.regained", node="p0s0", reason="view_adopted", epoch=2),
        mark(200.0, "kernel.booted"),
    ]
    result = check_trace(records)
    assert [(c.node, c.epoch, c.end) for c in result.claims] == [
        ("p0s0", 1, 43.0), ("p1s0", 2, None)]
    assert result.ok and result.stale_belief == 13.0


def test_minority_placement_write_flagged():
    records = [
        mark(2.0, "quorum.lost", node="a"),
        mark(3.0, "placement.committed", node="a", service="metagroup", scope="leader"),
    ]
    result = check_trace(records)
    assert result.minority_writes and result.minority_writes[0]["kind"] == "placement"
    # The same commit by a node that is not parked is fine.
    assert not check_trace(records[1:]).violations


def test_minority_ckpt_write_respects_grace():
    records = [
        mark(10.0, "quorum.lost", node="a"),
        mark(12.0, "ckpt.committed", node="a", key="gsd.state.p3"),
        mark(40.0, "ckpt.committed", node="a", key="gsd.state.p3"),
    ]
    in_flight_ok = check_trace(records, ckpt_grace=5.0)
    assert len(in_flight_ok.minority_writes) == 1  # only the t=40 commit
    assert in_flight_ok.minority_writes[0]["time"] == 40.0
    strict = check_trace(records, ckpt_grace=0.0)
    assert len(strict.minority_writes) == 2
    # Non-gsd.state keys are not shared leadership state.
    other = [records[0], mark(40.0, "ckpt.committed", node="a", key="db.tables.p3")]
    assert not check_trace(other, ckpt_grace=0.0).violations


def test_open_ended_park_window_extends_forever():
    records = [
        mark(2.0, "quorum.lost", node="a"),
        mark(500.0, "placement.committed", node="a", service="metagroup", scope="leader"),
    ]
    assert not check_trace(records).ok


def split(minority, start=10.0, repaired=20.0):
    """A closed ``campaign.fault`` span naming ``minority``, and its repair."""
    return [
        mark(repaired, "fault.repaired", kind="split", case="s0", span_id="sp9"),
        mark(repaired + 5.0, "campaign.fault", span_id="sp9", parent_id="", start=start,
             duration=repaired + 5.0 - start, partition="clean-split", case="s0",
             minority=minority),
    ]


COMMITS = [
    mark(5.0, "placement.committed", service="metagroup", scope="leader", node="p3s0"),
    mark(12.0, "placement.committed", service="metagroup", scope="leader", node="p3s0"),
    mark(12.0, "placement.committed", service="metagroup", scope="leader", node="p0s0"),
    mark(12.0, "placement.committed", service="es", scope="p3", node="p3s0"),
    mark(13.0, "ckpt.committed", key="gsd.state.p3", node="p3s0", version=7),
    mark(13.0, "ckpt.committed", key="es.registry.p3", node="p3s0", version=2),
    mark(13.0, "ckpt.committed", key="gsd.state.p0", node="p0s0", version=9),
    mark(25.0, "ckpt.committed", key="gsd.state.p3", node="p3s0", version=8),
]


def test_minority_window_commits_are_flagged():
    """A split's minority commits no leader placement and no ``gsd.state``
    checkpoint from the span's start to its last repair; other sides,
    services, keys and out-of-window times do not count."""
    def flagged(minority, repaired=20.0, grace=0.0):
        result = check_trace([BOOT, *COMMITS, *split(minority, repaired=repaired)],
                             ckpt_grace=grace)
        return sorted((v["kind"], v["time"]) for v in result.minority_writes)

    minority = ["p3s0", "p3c0"]
    assert flagged(minority) == [("ckpt", 13.0), ("placement", 12.0)]
    assert flagged(minority, repaired=30.0) == [
        ("ckpt", 13.0), ("ckpt", 25.0), ("placement", 12.0)]
    # Checkpoints in flight at the split may land within the grace.
    assert flagged(minority, grace=5.0) == [("placement", 12.0)]
    assert flagged(["p1s0"], repaired=30.0) == []
    assert flagged([], repaired=30.0) == []


def test_a_minority_node_that_never_parks_is_caught():
    """Nothing parks, so only the split's side window sees the write."""
    records = [
        mark(0.0, "leader.claimed", node="p3s0", epoch=1),
        mark(15.0, "placement.committed", service="metagroup", scope="leader",
             node="p3s0", epoch=1),
    ]
    assert check_trace(records).ok
    result = check_trace(records + split(["p3s0", "p3c0"]))
    assert not result.ok
    assert [(v["kind"], v["node"], v["time"]) for v in result.minority_writes] == [
        ("placement", "p3s0", 15.0)]


def test_stale_belief_is_the_time_two_claims_are_open():
    records = [
        mark(1.0, "leader.claimed", node="a", epoch=1),
        mark(5.0, "leader.takeover", old="a", new="b", epoch=2),
        mark(8.0, "leader.stepdown", node="a"),
        mark(20.0, "kernel.booted"),
    ]
    result = check_trace(records)
    assert result.ok and result.stale_belief == 3.0
    # A claim still open ends at the trace's last record.
    assert check_trace(records[:2] + records[3:]).stale_belief == 15.0
    assert check_trace(records[:1] + records[3:]).stale_belief == 0.0


def test_a_trace_without_a_claim_cannot_be_judged(tmp_path, capsys):
    """With no ``leader.claimed`` mark the boot leader's claim is missing,
    so a same-epoch rival of it would pass unseen."""
    rival = [mark(5.0, "leader.takeover", old="p0s0", new="p1s0", epoch=1)]
    assert not check_trace(rival).violations
    assert not check_trace(rival).ok
    assert check_trace([BOOT, *rival]).dual_leader
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main([str(empty)]) == 1
    assert "FAILED: no leader.claimed mark" in capsys.readouterr().out


# -- real campaign exports through the CLI ------------------------------------


@pytest.fixture(scope="module")
def exported_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "partition-even-split.jsonl"
    result = run_partition_class("even-split", injections=1, seed=0,
                                 trace_export=str(path))
    return path, result


def test_campaign_export_passes_external_audit(exported_trace):
    path, campaign = exported_trace
    records = Trace.load_jsonl(str(path)).records()
    assert records, "export produced no records"
    result = check_trace(records, ckpt_grace=50.0)  # 5 heartbeats at hb=10
    assert result.ok, result.violations
    assert result.commit_marks > 0, "commit marks missing from the export"
    assert result.claims and result.parked
    # The external reconstruction is the campaign's own verdict.
    assert campaign.dual_leader_intervals == len(result.dual_leader) == 0
    assert campaign.minority_placement_writes == result.writes("placement") == 0


def test_cli_exit_codes(exported_trace, tmp_path, capsys):
    path, _ = exported_trace
    assert main([str(path), "--ckpt-grace", "50"]) == 0
    assert "ok" in capsys.readouterr().out
    # A doctored dual-leader trace exits nonzero.
    bad = tmp_path / "doctored.jsonl"
    bad.write_text("\n".join(json.dumps({"time": m.time, "category": m.category, **m.fields})
                             for m in [mark(1.0, "leader.claimed", node="a", epoch=9),
                                       mark(2.0, "leader.claimed", node="b", epoch=9)]) + "\n")
    assert main([str(bad)]) == 1
    assert "VIOLATION" in capsys.readouterr().out
