"""Compare a smoke-bench JSON against the stored baseline.

The smoke benchmarks record two kinds of numbers: *deterministic*
simulation metrics in ``extra_info`` (recovery latencies, batching
counters, per-node traffic — same seed, same answer on any machine) and
*wall-clock* timings in ``stats`` (vary with the runner).  The checker
holds the deterministic metrics to a tight relative tolerance and
ignores wall time: that is the perf ledger's job (``benchmarks/perf``),
so CI catches behavioural regressions without flaking on runner speed.

Usage::

    python benchmarks/check_baseline.py BENCH_CI.json
    python benchmarks/check_baseline.py BENCH_CI.json --update  # refresh baseline

Exit status 0 when every baseline benchmark is present and within
tolerance, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_BASELINE.json"
#: Relative tolerance for deterministic extra_info metrics.
REL_TOL = 0.15
#: ``extra_info`` keys with this prefix are host-speed measurements
#: (events/sec, marks/sec) recorded for the record but never compared —
#: only the deterministic keys gate.
WALLCLOCK_PREFIX = "wallclock_"
#: ``extra_info`` keys with this prefix are scaling costs gated
#: one-sided: CI fails only when the current run *exceeds* baseline +
#: tolerance (super-linear growth regression), while improvements pass
#: without a baseline refresh.
GROWTH_PREFIX = "growth_"


def load_results(path: Path) -> dict[str, dict[str, Any]]:
    """Reduce a pytest-benchmark JSON to {name: {extra_info}}."""
    data = json.loads(path.read_text())
    return {
        bench["name"]: {"extra_info": bench.get("extra_info", {})}
        for bench in data["benchmarks"]
    }


def _close(expected: float, actual: float, rel_tol: float) -> bool:
    if expected == actual:
        return True
    scale = max(abs(expected), abs(actual))
    return abs(expected - actual) <= rel_tol * scale


def compare_values(
    expected: Any,
    actual: Any,
    rel_tol: float,
    path: str,
    problems: list[str],
    one_sided: bool = False,
) -> None:
    """Recursively compare extra_info values; numbers get ``rel_tol``.

    ``one_sided`` (inherited by everything under a ``growth_`` key)
    flags only increases beyond tolerance, never decreases."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in expected:
            if isinstance(key, str) and key.startswith(WALLCLOCK_PREFIX):
                continue  # informational host-speed number, never gated
            if key not in actual:
                problems.append(f"{path}.{key}: missing from current run")
            else:
                compare_values(
                    expected[key], actual[key], rel_tol, f"{path}.{key}", problems,
                    one_sided=one_sided
                    or (isinstance(key, str) and key.startswith(GROWTH_PREFIX)),
                )
        return
    if isinstance(expected, bool) or isinstance(actual, bool):  # bool is an int; compare exactly
        if expected != actual:
            problems.append(f"{path}: expected {expected!r}, got {actual!r}")
        return
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if one_sided:
            if actual > expected and not _close(float(expected), float(actual), rel_tol):
                problems.append(
                    f"{path}: {actual!r} exceeds baseline {expected!r} "
                    f"by more than {rel_tol:.0%} (one-sided growth guard)"
                )
        elif not _close(float(expected), float(actual), rel_tol):
            problems.append(
                f"{path}: {actual!r} outside ±{rel_tol:.0%} of baseline {expected!r}"
            )
        return
    if expected != actual:
        problems.append(f"{path}: expected {expected!r}, got {actual!r}")


def check(
    baseline: dict[str, dict[str, Any]],
    current: dict[str, dict[str, Any]],
    rel_tol: float = REL_TOL,
) -> list[str]:
    """Every baseline benchmark must be present and within tolerance."""
    problems: list[str] = []
    for name, expected in sorted(baseline.items()):
        got = current.get(name)
        if got is None:
            problems.append(f"{name}: benchmark missing from current run")
            continue
        compare_values(
            expected["extra_info"], got["extra_info"], rel_tol,
            f"{name}.extra_info", problems,
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path, help="pytest-benchmark JSON from this run")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--rel-tol", type=float, default=REL_TOL)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run instead of checking")
    args = parser.parse_args(argv)

    current = load_results(args.results)
    if args.update:
        args.baseline.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {args.baseline} ({len(current)} benchmarks)")
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --update to create one")
        return 1
    baseline = json.loads(args.baseline.read_text())
    problems = check(baseline, current, rel_tol=args.rel_tol)
    if problems:
        print(f"baseline check FAILED ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  - {problem}")
        refresh = f"python benchmarks/check_baseline.py {args.results} --update"
        if args.baseline != DEFAULT_BASELINE:
            refresh += f" --baseline {args.baseline}"
        print("If the new numbers are intentional, refresh the baseline with:")
        print(f"  {refresh}")
        return 1
    print(f"baseline check passed: {len(baseline)} benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
