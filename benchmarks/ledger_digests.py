"""Print the perf ledger's ``sim_digest``s (``--scale quick``): the five
workloads on seed 0, then the five again on seed 1 as ``<workload>.seed1``.

A ``sim_digest`` is a sha256 over every sim-clock output of a workload:
all counters, all histograms, op counts, byte counts, latencies
(``benchmarks/perf/README.md``).  A change meant only to make the
simulator faster must leave all ten identical; every ledger claim is
judged on seeds 0 and 1, so both are pinned.  The committed
``benchmarks/results/perf_digests_quick.txt`` makes that a ``git diff``,
which CI runs.  Regenerate (≈15 s)::

    python benchmarks/ledger_digests.py > benchmarks/results/perf_digests_quick.txt

A digest that moves on purpose (a protocol change) is re-pinned the same
way, with the reason in CHANGES.md.  Exit status 1 if an output check of
any workload fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.perf.run import measure  # noqa: E402 - also puts src/ on sys.path
from benchmarks.perf.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    """One quick untraced run per workload and seed; prints ``<workload>
    <digest>`` for seed 0 and ``<workload>.seed1 <digest>`` for seed 1."""
    correct = True
    for seed, suffix in ((0, ""), (1, ".seed1")):
        for name in WORKLOADS:
            detail = measure(name, seed=seed, seconds=10.0, trace=False, scale="quick")
            correct = correct and detail["correct"]
            print(f"{name}{suffix}", detail["sim_digest"], flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
