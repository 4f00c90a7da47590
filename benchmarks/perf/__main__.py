"""The perf ledger: run the five workloads, or compare two ledgers.

    python -m benchmarks.perf [--seed N] [--repeats R] [--workload W]...
                              [--no-trace] [--seconds S] [--out FILE]
    python -m benchmarks.perf --compare PARENT.json CHANGE.json
    python -m benchmarks.perf --spec > BENCHMARK.json

A ledger run starts ``run.py`` once per repeat and once more traced, for
each workload, as fresh child processes one at a time (single process,
single thread: the host has two cores).  It prints every end-to-end
metric by name with its unit and clock, the per-layer ledger of the
traced run, and writes one JSON.  It exits non-zero when any output
check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

from benchmarks.perf import compare, metrics
from benchmarks.perf.layers import LAYERS
from benchmarks.perf.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
HELD_OUT_SEED = 1


def child(workload: str, seed: int, seconds: float, trace: bool, scale: str,
          workdir: str) -> dict[str, Any]:
    """One ``run.py`` process; its full record."""
    detail = Path(workdir) / "detail.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--scale", scale, "--detail", str(detail)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if not detail.exists():
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    record = json.loads(detail.read_text(encoding="utf-8"))
    detail.unlink()
    return record


def spec() -> dict[str, Any]:
    """``BENCHMARK.json``, from the tables the harness itself runs on."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": 10,
        "workloads": [{"name": name, "why": cls.why} for name, cls in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": metrics.END_TO_END[name][0],
             "better": metrics.END_TO_END[name][1], "bound": metrics.END_TO_END[name][3]}
            for name in metrics.HOST_METRICS],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in metrics.per_layer_metrics().items()],
    }


def render_spec() -> str:
    """One list entry per line: the file stays readable and diffable."""
    parts = []
    for key, value in spec().items():
        if key in ("workloads", "end_to_end", "per_layer"):
            rows = ",\n".join("    " + json.dumps(row) for row in value)
            parts.append(f'  "{key}": [\n{rows}\n  ]')
        else:
            parts.append(f'  "{key}": {json.dumps(value)}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def summarise(name: str, runs: list[dict[str, Any]], traced: dict[str, Any] | None) -> dict:
    """Medians of the host metrics, the exact sim metrics, and the noise
    and determinism verdicts for one workload."""
    first = runs[0]
    every = runs + ([traced] if traced else [])
    problems: list[str] = []  # found here, on top of the children's own
    end_to_end = {}
    noisy = {}  # host metric -> why its median cannot be trusted
    for metric, (unit, better, clock, bound) in metrics.END_TO_END.items():
        values = [r["end_to_end"][metric] for r in runs]
        q1, median, q3 = metrics.quartiles(values)
        if clock == "sim" and len(set(values)) != 1:
            problems.append(f"{metric} differs between repeats of one seed: {values}")
        if clock == "host" and median and (max(values) - min(values)) / median > bound:
            noisy[metric] = (f"min–max {(max(values) - min(values)) / median:.1%} of its median "
                             f"exceeds its bound {bound:.0%}")
        end_to_end[metric] = {
            "unit": unit, "better": better, "clock": clock, "bound": bound,
            "median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "values": values,
        }
    if len({r["sim_digest"] for r in runs}) != 1:
        problems.append("sim_digest differs between repeats of one seed")
    if traced and traced["sim_digest"] != first["sim_digest"]:
        problems.append("traced run's sim_digest differs from the untraced runs'")
    out = {
        "why": WORKLOADS[name].why,
        "op_unit": WORKLOADS[name].op_unit,
        "client_op": WORKLOADS[name].client_op,
        "loop": WORKLOADS[name].loop,
        "size": first["size"],
        "correct": not problems and all(r["correct"] for r in every),
        "problems": list(dict.fromkeys(p for r in every for p in r["problems"])) + problems,
        "attempted": first["attempted"],
        "failed": max(r["failed"] for r in every) + len(problems),
        "end_to_end": end_to_end,
        "sim_lat_tail_pct": first["sim_lat_tail_pct"],
        "sim_lat_samples": first["sim_lat_samples"],
        "sim_digest": first["sim_digest"],
        "noisy": noisy,
        "host_speed": [speed for r in every for speed in r["host_speed"]],
        "outputs": first["outputs"],
    }
    if traced:
        units = metrics.per_layer_metrics()
        out["per_layer"] = {n: {"value": traced["per_layer"][n], "unit": units[n][0]}
                            for n in units}
        out["edges"] = traced["edges"]
    return out


def render(name: str, row: dict[str, Any]) -> str:
    """The printout of one workload."""
    lines = [f"== {name}  [{row['op_unit']}; {row['loop']}]",
             f"   size {row['size']}   sim_digest {row['sim_digest'][:16]}…"]
    for metric, m in row["end_to_end"].items():
        extra = ""
        if metric == "sim_lat_tail_ms":
            pct = row["sim_lat_tail_pct"]
            extra = (f"  (p{pct:g}" if pct < 100 else "  (maximum") + \
                f" of {row['sim_lat_samples']} samples)"
        spread = f"  [{m['q1']:.6g} .. {m['q3']:.6g}]" if m["clock"] == "host" else ""
        lines.append(f"   {metric:<18}{m['median']:>16.6g} {m['unit']:<6}"
                     f"{m['clock']:<5}{spread}{extra}")
    lines.append(f"   failed {row['failed']} / attempted {row['attempted']}"
                 f"   client operation: {row['client_op']}")
    speed = row["host_speed"]
    lines.append(f"   host speed while measuring: {min(speed):.2f}–{max(speed):.2f} of the "
                 "reference (host times are scaled to it)")
    for metric, why in row["noisy"].items():
        lines.append(f"   NOISY {metric}: {why}")
    for problem in row["problems"]:
        lines.append(f"   FAILED CHECK: {problem}")
    if "per_layer" in row:
        pl = row["per_layer"]
        lines.append(f"   {'layer':<20}{'share':>8}{'busy_s':>10}{'calls':>12}")
        for layer in LAYERS:
            if pl[f"{layer}.calls"]["value"] or pl[f"{layer}.busy_s"]["value"]:
                lines.append(f"   {layer:<20}{pl[layer + '.share']['value']:>8.3f}"
                             f"{pl[layer + '.busy_s']['value']:>10.3f}"
                             f"{pl[layer + '.calls']['value']:>12.0f}")
        for metric in metrics.BOUNDARY:
            if pl[metric]["value"]:
                lines.append(f"   {metric:<44}{pl[metric]['value']:>16.6g} {pl[metric]['unit']}")
    return "\n".join(lines)


def run_ledger(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOADS)
    ledger: dict[str, Any] = {
        "schema": 1,
        "command": "python -m benchmarks.perf " + " ".join(sys.argv[1:]),
        "seed": args.seed, "held_out_seed": HELD_OUT_SEED, "repeats": args.repeats,
        "seconds": args.seconds, "scale": args.scale, "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for name in names:
            runs = [child(name, args.seed, args.seconds, False, args.scale, workdir)
                    for _ in range(args.repeats)]
            traced = (child(name, args.seed, args.seconds, True, args.scale, workdir)
                      if args.trace else None)
            row = summarise(name, runs, traced)
            ledger["workloads"][name] = row
            print(render(name, row), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0 if all(row["correct"] for row in ledger["workloads"].values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    parser.add_argument("--repeats", type=int, default=3, help="untraced child runs per workload")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--trace", action=argparse.BooleanOptionalAction, default=True,
                        help="one extra traced run per workload for the per-layer ledger")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--quick", action="store_const", const="quick", default="full",
                        dest="scale", help="the small schema/determinism scale (<60 s)")
    parser.add_argument("--out", help="write the ledger JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two ledger JSONs instead of running")
    parser.add_argument("--spec", action="store_true",
                        help="print BENCHMARK.json as the harness defines it, instead of running")
    args = parser.parse_args(argv)
    if args.spec:
        print(render_spec(), end="")
        return 0
    if args.compare:
        parent, change = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        text, worse = compare.render(parent, change)
        print(text)
        return 1 if worse else 0
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return run_ledger(args)


if __name__ == "__main__":
    raise SystemExit(main())
