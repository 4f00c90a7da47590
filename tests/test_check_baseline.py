"""The CI smoke-bench baseline checker: tolerance semantics and CLI."""

import json

from benchmarks.check_baseline import check, load_results, main


def bench(**extra):
    return {"extra_info": extra}


def test_identical_runs_pass():
    base = {"a": bench(recovery_s=30.1), "b": bench(sweep={"64": {"x": 2.0}})}
    assert check(base, base) == []


def test_deterministic_metric_drift_within_tolerance_passes():
    base = {"a": bench(latency=100.0)}
    assert check(base, {"a": bench(latency=110.0)}, rel_tol=0.15) == []


def test_deterministic_metric_drift_beyond_tolerance_fails():
    base = {"a": bench(latency=100.0)}
    problems = check(base, {"a": bench(latency=140.0)}, rel_tol=0.15)
    assert len(problems) == 1 and "latency" in problems[0]


def test_nested_sweep_metrics_are_compared():
    base = {"a": bench(sweep={"640": {"forward_batches": 39.0}})}
    problems = check(base, {"a": bench(sweep={"640": {"forward_batches": 780.0}})})
    assert problems and "sweep.640.forward_batches" in problems[0]


def test_missing_benchmark_and_missing_metric_fail():
    base = {"a": bench(x=1.0), "b": bench()}
    problems = check(base, {"a": bench()})
    assert any("b: benchmark missing" in p for p in problems)
    assert any("a.extra_info.x: missing" in p for p in problems)


def test_extra_benchmarks_in_current_run_are_fine():
    base = {"a": bench()}
    assert check(base, {"a": bench(), "new": bench()}) == []


def test_zero_baseline_value_only_matches_zero():
    base = {"a": bench(requeued=0.0)}
    assert check(base, {"a": bench(requeued=0.0)}) == []
    assert check(base, {"a": bench(requeued=3.0)})


def write_bench_json(path, benchmarks):
    path.write_text(json.dumps({
        "benchmarks": [
            {"name": name, "stats": {"mean": 1.0}, "extra_info": b["extra_info"]}
            for name, b in benchmarks.items()
        ]
    }))


def test_load_results_reduces_pytest_benchmark_json(tmp_path):
    results = tmp_path / "bench.json"
    write_bench_json(results, {"a": bench(x=1.0)})
    assert load_results(results) == {"a": {"extra_info": {"x": 1.0}}}  # wall time dropped


def test_main_update_then_check_roundtrip(tmp_path, capsys):
    results = tmp_path / "bench.json"
    baseline = tmp_path / "BENCH_BASELINE.json"
    write_bench_json(results, {"a": bench(latency=50.0)})
    assert main([str(results), "--baseline", str(baseline), "--update"]) == 0
    assert main([str(results), "--baseline", str(baseline)]) == 0
    # A behavioural regression flips the exit status.
    write_bench_json(results, {"a": bench(latency=90.0)})
    assert main([str(results), "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "latency" in out and "FAILED" in out
    # The failure message spells out the exact refresh command.
    assert "refresh the baseline" in out
    assert f"python benchmarks/check_baseline.py {results} --update" in out
    assert f"--baseline {baseline}" in out


def test_main_missing_baseline_fails(tmp_path):
    results = tmp_path / "bench.json"
    write_bench_json(results, {"a": bench()})
    assert main([str(results), "--baseline", str(tmp_path / "nope.json")]) == 1


def test_wallclock_prefixed_keys_are_never_compared():
    """Host-speed numbers (events/sec etc.) are recorded but not gated."""
    base = {"a": bench(events=100, wallclock_ops_per_s=2_500_000)}
    drifted = {"a": bench(events=100, wallclock_ops_per_s=400_000)}
    assert check(base, drifted) == []
    # ... even when the key vanishes entirely from the current run.
    assert check(base, {"a": bench(events=100)}) == []
    # Deterministic keys alongside them still gate.
    wrong = {"a": bench(events=300, wallclock_ops_per_s=2_500_000)}
    problems = check(base, wrong)
    assert len(problems) == 1 and "events" in problems[0]
