"""Fault campaign harness tests."""

import pytest

from repro.experiments.fault_campaign import (
    CLASSES,
    CampaignResult,
    render_campaign,
    run_campaign_class,
)


def _trace_with(marks):
    from repro.sim.trace import Trace

    clock = [0.0]
    trace = Trace(clock=lambda: clock[0])
    for t, category, fields in marks:
        clock[0] = t
        trace.mark(category, **fields)
    return trace


@pytest.fixture(scope="module")
def wd_process_campaign():
    return run_campaign_class("wd", "process", injections=5, seed=1)


def test_full_coverage(wd_process_campaign):
    r = wd_process_campaign
    assert r.injected == 5
    assert r.coverage == 1.0
    assert len(r.detect) == len(r.diagnose) == len(r.recover) == 5


def test_random_phase_detection_distribution(wd_process_campaign):
    """Random-phase injections: detection spreads over (grace, interval+grace),
    unlike the beat-aligned single-shot tables."""
    detects = wd_process_campaign.detect
    assert all(0.0 < d <= 10.2 for d in detects)
    assert max(detects) - min(detects) > 1.0  # genuinely spread


def test_diagnosis_and_recovery_independent_of_phase(wd_process_campaign):
    r = wd_process_campaign
    assert all(abs(d - 0.29) < 0.02 for d in r.diagnose)
    assert all(abs(v - 0.10) < 0.05 for v in r.recover)


def test_node_class_repairs_between_injections():
    r = run_campaign_class("wd", "node", injections=3, seed=2)
    assert r.coverage == 1.0
    assert all(abs(d - 2.03) < 0.1 for d in r.diagnose)


def test_gsd_class():
    r = run_campaign_class("gsd", "process", injections=3, seed=3)
    assert r.coverage == 1.0
    assert all(abs(v - 2.0) < 0.2 for v in r.recover)


def test_render_handles_empty_class():
    text = render_campaign({("wd", "process"): CampaignResult(injected=2, recovered=0)})
    assert "0%" in text
    assert "wd/process" in text


def test_classes_table_sane():
    assert ("wd", "node") in CLASSES
    assert all(len(c) == 2 for c in CLASSES)


def test_campaign_injections_are_spanned(wd_process_campaign):
    """Every injected fault runs inside one closed ``campaign.fault`` span."""
    # The fixture result object has no trace handle; boot a world by hand.
    import repro.experiments.fault_campaign as fc

    world = fc.World(fc.FAILSTOP_ROWS[("wd", "process")], seed=4, hb=10.0)
    sim, injector = world.sim, world.injector
    span = sim.trace.span("campaign.fault", component="wd", situation="process", case="c0")
    injector.current_span = span
    target = fc._pick_target(world.cluster, world.kernel, "wd", world.rng)
    injector.kill_process(target, "wd", case="c0")
    span.end(recovered=True)
    injector.current_span = None
    [mark] = sim.trace.records("fault.injected")
    assert mark.get("span_id") == span.span_id
    [closed] = [r for r in sim.trace.records("campaign.fault")
                if r.get("duration") is not None]
    assert closed.get("case") == "c0" and closed.get("recovered") is True


def test_campaign_spans_one_per_injection(wd_process_campaign):
    assert wd_process_campaign.fault_spans == wd_process_campaign.injected


# -- partition campaign (quorum-gated regroup) --------------------------------


@pytest.fixture(scope="module")
def even_split_campaign():
    from repro.experiments.fault_campaign import run_partition_class

    return run_partition_class("even-split", injections=1, seed=0)


def test_partition_classes_table_sane():
    from repro.experiments.fault_campaign import PARTITION_CLASSES

    assert "even-split" in PARTITION_CLASSES
    assert "fabric-gray" in PARTITION_CLASSES and "fabric-latency" in PARTITION_CLASSES
    assert len(PARTITION_CLASSES) == len(set(PARTITION_CLASSES))


def test_even_split_invariants(even_split_campaign):
    r = even_split_campaign
    assert r.injected == 1 and r.coverage == 1.0
    assert r.dual_leader_intervals == 0
    assert r.minority_placement_writes == 0
    assert r.minority_ckpt_writes == 0
    assert r.parks == 2 and r.unparks == 2  # both minority partitions
    assert r.takeovers == 0  # tie-break keeps the p0-side leader
    assert len(r.detect) == r.injected  # first park latency per injection
    assert all(0.0 < d <= 60.0 for d in r.detect)  # bounded time-to-park


def test_even_split_regroups_correlate_with_fault_spans(even_split_campaign):
    """Every regroup census runs span-correlated under ``campaign.fault``."""
    assert even_split_campaign.correlated_regroups > 0


def test_partition_render_and_check(even_split_campaign):
    from repro.experiments.fault_campaign import (
        check_partition_campaign,
        render_partition_campaign,
    )

    results = {"even-split": even_split_campaign}
    text = render_partition_campaign(results)
    assert "even-split" in text and "dual-leader" in text
    assert check_partition_campaign(results) == []
    # A doctored dual-leader interval trips the gate.
    import dataclasses

    bad = dataclasses.replace(even_split_campaign, dual_leader_intervals=1)
    problems = check_partition_campaign({"even-split": bad})
    assert any("dual-leader" in p for p in problems)


# -- the shared pieces: one mark search, one class table, one --check block ------


def test_measure_recovery_needs_all_three_marks_after_t0():
    from repro.experiments.fault_campaign import measure_recovery

    wd = dict(component="wd", node="p1c0")
    marks = [
        (4.0, "failure.detected", wd),  # before t0: an earlier injection's
        (4.3, "failure.diagnosed", dict(wd, kind="process")),
        (4.4, "failure.recovered", dict(wd, kind="process")),
        (15.0, "failure.detected", wd),
        (15.3, "failure.diagnosed", dict(wd, kind="process")),
    ]
    assert measure_recovery(_trace_with(marks), "wd", "process", t0=10.0) is None
    marks.append((15.4, "failure.recovered", dict(wd, kind="process")))
    trace = _trace_with(marks)
    assert measure_recovery(trace, "wd", "process", t0=10.0) == (15.0, 15.3, 15.4)
    assert measure_recovery(trace, "wd", "process", t0=0.0) == (4.0, 4.3, 4.4)
    # Another kind of verdict about the same node is not this fault's.
    assert measure_recovery(trace, "wd", "node", t0=10.0) is None


def test_measure_recovery_honours_node_and_network_filters():
    from repro.experiments.fault_campaign import measure_recovery

    def nic(node, network):
        return dict(component="wd", kind="network", node=node, network=network)

    faults = ((1.0, "p0c0", "data"), (2.0, "p1c0", "mgmt"), (3.0, "p1c0", "data"))
    steps = ((0.0, "failure.detected"), (0.1, "failure.diagnosed"), (0.2, "failure.recovered"))
    trace = _trace_with([
        (t0 + dt, category, nic(node, network))
        for t0, node, network in faults for dt, category in steps
    ])
    # NIC faults are injected on the data fabric: mgmt marks never count.
    assert measure_recovery(trace, "wd", "network", t0=0.0) == (1.0, 1.1, 1.2)
    assert measure_recovery(trace, "wd", "network", t0=0.0, node="p1c0") == (3.0, 3.1, 3.2)
    assert measure_recovery(trace, "wd", "network", t0=0.0, node="p2c0") is None


def test_measure_recovery_reads_es_node_detection_from_the_gsd_mark():
    """A dead server node is detected through the meta-group ring, so the
    kernel attributes the detection to the GSD — the one special rule."""
    from repro.experiments.fault_campaign import measure_recovery

    trace = _trace_with([
        (30.1, "failure.detected", dict(component="gsd", node="p1s0")),
        (30.4, "failure.diagnosed", dict(component="es", kind="node", node="p1s0")),
        (33.6, "failure.recovered", dict(component="es", kind="node", node="p1s0")),
    ])
    assert measure_recovery(trace, "es", "node", t0=0.0) == (30.1, 30.4, 33.6)
    # Only es/node borrows the GSD's detection.
    assert measure_recovery(trace, "es", "process", t0=0.0) is None
    assert measure_recovery(trace, "gsd", "node", t0=0.0) is None


def test_class_tables_have_the_shape_the_driver_runs():
    import repro.experiments.fault_campaign as fc
    from repro.experiments.fault_tables import COMPONENTS, SITUATIONS

    assert (tuple(fc.FAILSTOP_ROWS), tuple(fc.GRAY_ROWS), tuple(fc.PARTITION_ROWS)) == (
        fc.CLASSES, fc.GRAY_CLASSES, fc.PARTITION_CLASSES)
    assert (len(fc.CLASSES), len(fc.GRAY_CLASSES), len(fc.PARTITION_CLASSES)) == (5, 3, 6)
    # The nine Tables 1–3 cells are rows of the same kind.
    cells = {(c, s): fc.failstop_class(c, s) for c in COMPONENTS for s in SITUATIONS}
    assert all(cells[kind] is not None for kind in fc.CLASSES)
    tables = {"fail-stop": cells, "gray": fc.GRAY_ROWS, "partition": fc.PARTITION_ROWS}
    for family, rows in tables.items():
        for kind, row in rows.items():
            assert (row.family, row.kind) == (family, kind)
            assert all(callable(f) for f in (row.pick, row.inject, row.covered))
            assert row.heal is None or callable(row.heal)
            assert row.hold > 0 and row.settle >= 0 and row.gap >= 0 and row.cycles >= 1
            # Only a fault that ends on its own schedule needs no settle window.
            assert row.settle > 0 or row.heal is None
            assert not row.sustained or row.minority is not None
    partition = fc.PARTITION_ROWS
    assert {k for k, row in partition.items() if row.sustained} == {
        "clean-split", "even-split", "asym-inbound"}
    assert all(partition[k].minority is None for k in ("fabric-gray", "fabric-latency"))
    assert all(row.minority is None for row in [*fc.GRAY_ROWS.values(), *cells.values()])


def test_unknown_class_is_rejected():
    from repro.experiments.fault_campaign import run_gray_class, run_partition_class

    with pytest.raises(ValueError, match="unknown gray class"):
        run_gray_class("meteor")
    with pytest.raises(ValueError, match="unknown partition class"):
        run_partition_class("meteor")


@pytest.mark.parametrize("recovered,code", [(2, None), (1, 1)])
def test_cli_check_gates_the_failstop_family(monkeypatch, capsys, recovered, code):
    """``campaign --check`` with no family flag used to print the table
    and exit 0 whatever it showed."""
    import repro.experiments.fault_campaign as fc

    results = {("wd", "process"): CampaignResult(injected=2, recovered=recovered)}
    monkeypatch.setattr(fc, "run_campaign", lambda **options: results)
    if code is None:
        fc.main(["--check"])
    else:
        with pytest.raises(SystemExit) as exit_info:
            fc.main(["--check"])
        assert exit_info.value.code == code
    out = capsys.readouterr().out
    assert ("FAIL: wd/process: coverage 50% < 100%" in out) == (code == 1)
    assert ("fail-stop campaign gates: OK" in out) == (code is None)
    problems = [] if code is None else ["wd/process: coverage 50% < 100%"]
    assert fc.check_campaign(results) == problems


@pytest.mark.parametrize("family", ["fail-stop", "gray", "partition"])
def test_cli_trace_dir_names_one_export_per_class_of_any_family(
        monkeypatch, capsys, tmp_path, family):
    """``--trace-dir`` used to reach only the partition family."""
    import repro.experiments.fault_campaign as fc

    flag = {"fail-stop": [], "gray": ["--gray"], "partition": ["--partition"]}[family]

    exports = []

    def run_class(row, injections, seed, hb, spec=None, loss=0.2, trace_export=None):
        exports.append(trace_export)
        return fc._FAMILIES[row.family].result()

    monkeypatch.setattr(fc, "_run_class", run_class)
    fc.main([*flag, "--trace-dir", str(tmp_path)])
    classes = {"fail-stop": ["-".join(k) for k in CLASSES], "gray": fc.GRAY_CLASSES,
               "partition": fc.PARTITION_CLASSES}[family]
    assert exports == [f"{tmp_path}/{family}-{kind}.jsonl" for kind in classes]


@pytest.mark.parametrize("family", ["fail-stop", "gray", "partition"])
def test_campaign_exports_pass_the_trace_audit(tmp_path, capsys, family):
    """Every family's exports pass ``tracecheck`` and carry the campaign's
    own leadership verdict: each class's four leadership fields are
    ``check_trace`` of its export.  The printed table is the one an
    export-less run prints."""
    from repro.experiments import fault_campaign as fc
    from repro.experiments import trace_check
    from repro.sim.trace import Trace

    flag = {"fail-stop": [], "gray": ["--gray"], "partition": ["--partition"]}[family]
    fc.main([*flag, "--injections", "1"])
    plain = capsys.readouterr().out
    results = fc._run_family(family, 1, 0, str(tmp_path))
    assert fc._render(family, results) + "\n" == plain
    for kind, r in results.items():
        name = "-".join(kind) if family == "fail-stop" else kind
        verdict = trace_check.check_trace(
            Trace.load_jsonl(f"{tmp_path}/{family}-{name}.jsonl").records(),
            ckpt_grace=fc.PARK_GRACE * 10.0)
        assert verdict.ok, (kind, verdict.violations)
        assert (r.dual_leader_intervals, r.stale_leader_time,
                r.minority_placement_writes, r.minority_ckpt_writes) == (
            len(verdict.dual_leader), verdict.stale_belief,
            verdict.writes("placement"), verdict.writes("ckpt"))
    if family == "gray":
        assert results["asym-split"].stale_leader_time > 0
    paths = sorted(str(p) for p in tmp_path.glob("*.jsonl"))
    assert len(paths) == len(results)
    assert trace_check.main([*paths, "--ckpt-grace", "50"]) == 0
