"""Self-test of the perf ledger at the ``--quick`` scale (≈1 min).

Not collected by tier-1 (``testpaths = tests``); run it as

    python -m pytest benchmarks/perf -q

It checks the harness, not the system's speed: the JSON schemas, that
every metric is there for every workload, that no operation fails, and
that the sim-clock side is exactly repeatable per seed.
"""

from __future__ import annotations

import json
import re

import pytest

from benchmarks.perf import run as perf_run  # first: it puts src/ on sys.path
from benchmarks.perf import compare, metrics
from benchmarks.perf.__main__ import main as ledger_main, render_spec
from benchmarks.perf.run import ROOT
from benchmarks.perf.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """One quick ledger: 1 untraced + 1 traced child per workload."""
    out = tmp_path_factory.mktemp("perf") / "ledger.json"
    code = ledger_main(["--quick", "--repeats", "1", "--seed", "0", "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced_again():
    """A second traced run of seed 0, and one of the held-out seed."""
    return {
        seed: {name: perf_run.measure(name, seed, 10.0, True, "quick") for name in WORKLOADS}
        for seed in (0, 1)
    }


def test_benchmark_json_is_what_the_harness_defines():
    text = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    assert text == render_spec()  # regenerate: python -m benchmarks.perf --spec > BENCHMARK.json
    spec = json.loads(text)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 for w in spec["workloads"])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert list(e2e) == list(metrics.HOST_METRICS)
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for name, m in e2e.items():
        assert set(m) == {"name", "unit", "better", "bound"}
        # One table of bounds: what the driver gates on is what --compare uses.
        assert (m["unit"], m["better"], m["bound"]) == (
            metrics.END_TO_END[name][0], metrics.END_TO_END[name][1], metrics.END_TO_END[name][3])
        assert 0 < m["bound"] <= 0.25
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    names = [w["name"] for w in spec["workloads"]] + list(e2e) + [m["name"] for m in spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])


def test_ledger_schema_and_no_failed_operation(ledger):
    assert list(ledger["workloads"]) == list(WORKLOADS)
    for name, row in ledger["workloads"].items():
        assert row["correct"], row["problems"]
        assert list(row["end_to_end"]) == list(metrics.END_TO_END)
        for metric, m in row["end_to_end"].items():
            assert NAME.match(metric)
            assert {"unit", "better", "clock", "bound", "median", "q1", "q3"} <= set(m)
        assert row["end_to_end"]["failed_ratio"]["median"] == 0
        assert row["failed"] == 0 and row["attempted"] >= 1
        for host in metrics.HOST_METRICS:
            assert row["end_to_end"][host]["median"] > 0
        assert list(row["per_layer"]) == list(metrics.per_layer_metrics())
        assert all(NAME.match(n) for n in row["per_layer"])
        shares = sum(v["value"] for n, v in row["per_layer"].items() if n.endswith(".share"))
        assert shares == pytest.approx(1.0, abs=0.01)
        assert set(row["noisy"]) <= set(metrics.HOST_METRICS)
        assert re.fullmatch(r"[0-9a-f]{64}", row["sim_digest"])


def test_contract_line_has_exactly_the_declared_metrics(traced_again):
    detail = traced_again[0]["monitor_1024"]
    line = json.loads(perf_run.contract_line(detail))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(metrics.per_layer_metrics())
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1


def test_same_seed_repeats_exactly_and_other_seed_differs(ledger, traced_again):
    exact_units = ("count", "B", "ms", "ratio", "%")
    for name, row in ledger["workloads"].items():
        again, other = traced_again[0][name], traced_again[1][name]
        assert again["correct"] and other["correct"]
        assert again["sim_digest"] == row["sim_digest"]
        assert other["sim_digest"] != row["sim_digest"]
        for metric, (unit, _better) in metrics.per_layer_metrics().items():
            # Counts and sim-clock numbers repeat exactly; host seconds,
            # shares and profiler call totals do not have to.
            exact = unit in exact_units and not metric.endswith((".share", ".calls"))
            if exact:
                assert again["per_layer"][metric] == row["per_layer"][metric]["value"], metric


def test_compare_prints_a_verdict_per_metric_and_workload(ledger):
    text, worse = compare.render(ledger, ledger)
    assert worse == 0
    for name in WORKLOADS:
        for metric in metrics.END_TO_END:
            assert re.search(rf"^{name}\s+{metric}\s.*\b(same|unresolved)$", text, re.M)
        assert re.search(rf"^{name}\s+sim_digest\s+identical$", text, re.M)
    slower = json.loads(json.dumps(ledger))
    m = slower["workloads"]["serve_200k"]["end_to_end"]["sim_lat_p50_ms"]
    m["median"] *= 1.5
    text, worse = compare.render(ledger, slower)
    assert worse == 1 and re.search(r"^serve_200k\s+sim_lat_p50_ms\s.*worse$", text, re.M)


def test_a_noisy_ledger_still_shows_a_clear_regression():
    def row(values, bound=0.10, better="lower"):
        q1, median, q3 = metrics.quartiles(values)
        return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
                "bound": bound, "better": better}

    rss = row([70.0, 70.1, 70.2])
    assert compare.verdict(rss, row([140.0, 140.3, 141.0]), noisy=True)[0] == "worse"
    assert compare.verdict(rss, row([70.0, 70.4, 76.0]), noisy=True)[0] == "unresolved"
    assert compare.verdict(rss, row([70.0, 70.4, 76.0]))[0] == "same"
    assert compare.verdict(rss, row([69.9, 69.95, 70.1]))[0] == "same"  # runs overlap
    assert compare.verdict(rss, row([60.0, 60.1, 60.2]))[0] == "better"
    # The parent's own spread is wider than the bound: a hold cannot be
    # shown, a halved rate still can.
    rate = row([900.0, 1000.0, 1150.0], better="higher")
    assert compare.verdict(rate, row([880.0, 990.0, 1100.0], better="higher"))[0] == "unresolved"
    assert compare.verdict(rate, row([480.0, 500.0, 520.0], better="higher"))[0] == "worse"
