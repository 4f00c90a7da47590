"""Print the perf ledger's five ``sim_digest``s (``--scale quick --seed 0``).

A ``sim_digest`` is a sha256 over every sim-clock output of a workload:
all counters, all histograms, op counts, byte counts, latencies
(``benchmarks/perf/README.md``).  A change meant only to make the
simulator faster must leave all five identical; the committed
``benchmarks/results/perf_digests_quick.txt`` makes that a ``git diff``,
which CI runs.  Regenerate (≈10 s)::

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
    """One quick untraced run per workload; prints ``<workload> <digest>``."""
    correct = True
    for name in WORKLOADS:
        detail = measure(name, seed=0, seconds=10.0, trace=False, scale="quick")
        correct = correct and detail["correct"]
        print(name, detail["sim_digest"], flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
