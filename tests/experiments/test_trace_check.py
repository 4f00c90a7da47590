"""The external trace-only leadership checker (DESIGN.md §16 satellite).

Synthetic traces prove the checker catches doctored violations (a checker
that never fires is worthless); a real partition-campaign export proves
the live kernel passes the same audit with no in-process state.
"""

import json

import pytest

from repro.experiments.fault_campaign import run_partition_class
from repro.experiments.trace_check import (
    check_trace,
    load_records,
    main,
    reconstruct_claims,
)


def mark(t, category, **fields):
    return {"time": t, "category": category, **fields}


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


def test_minority_placement_write_flagged():
    records = [
        mark(2.0, "quorum.lost", node="a"),
        mark(3.0, "placement.committed", node="a", service="metagroup", scope="leader"),
    ]
    result = check_trace(records)
    assert result.minority_writes and result.minority_writes[0]["kind"] == "placement"
    # The same commit by a node that is not parked is fine.
    assert check_trace(records[1:]).ok


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
    assert check_trace(other, ckpt_grace=0.0).ok


def test_open_ended_park_window_extends_forever():
    records = [
        mark(2.0, "quorum.lost", node="a"),
        mark(500.0, "placement.committed", node="a", service="metagroup", scope="leader"),
    ]
    assert not check_trace(records).ok


# -- real campaign exports through the CLI ------------------------------------


@pytest.fixture(scope="module")
def exported_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "partition-even-split.jsonl"
    result = run_partition_class("even-split", injections=1, seed=0,
                                 trace_export=str(path))
    return path, result


def test_campaign_export_passes_external_audit(exported_trace):
    path, campaign = exported_trace
    records = load_records(str(path))
    assert records, "export produced no records"
    result = check_trace(records, ckpt_grace=50.0)  # 5 heartbeats at hb=10
    assert result.ok, result.violations
    assert result.commit_marks > 0, "commit marks missing from the export"
    assert result.claims and result.parked
    # The external reconstruction agrees with the campaign's own counts.
    assert campaign.dual_leader_intervals == 0
    assert campaign.minority_placement_writes == 0


def test_cli_exit_codes(exported_trace, tmp_path, capsys):
    path, _ = exported_trace
    assert main([str(path), "--ckpt-grace", "50"]) == 0
    assert "ok" in capsys.readouterr().out
    # A doctored dual-leader trace exits nonzero.
    bad = tmp_path / "doctored.jsonl"
    bad.write_text("\n".join(json.dumps(m) for m in [
        mark(1.0, "leader.claimed", node="a", epoch=9),
        mark(2.0, "leader.claimed", node="b", epoch=9),
    ]) + "\n")
    assert main([str(bad)]) == 1
    assert "VIOLATION" in capsys.readouterr().out
