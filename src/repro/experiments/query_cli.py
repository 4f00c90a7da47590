"""``python -m repro query`` — relational queries against a live bulletin.

Boots a small paper testbed, lets detectors and GSDs populate the
bulletin, then runs one SQL-ish query (see
:func:`repro.kernel.bulletin.query.parse`) through the kernel's
``DB_EXEC`` path and prints the rows::

    python -m repro query "select state, count(*) as n from nodes group by state"
    python -m repro query --view "select _key, cpu_pct from nodes order by cpu_pct desc limit 5"
    python -m repro query --as-of -5 "select count(*) as n from jobs"
    python -m repro query --repl                 # long-lived interactive session
    python -m repro query --repl --socket /tmp/q.sock   # serve sessions over AF_UNIX

``--view`` registers the query as a materialized view first and reads it
back (exercising incremental maintenance instead of the full scan).
Time-travel (``AS OF`` / ``--as-of``) answers from checkpointed base
tables; checkpointing only runs while some view keeps delta maintenance
on, so the CLI registers a bootstrap view over the queried table before
asking about the past.  ``--check`` is the CI smoke: scan vs. view
equivalence plus a time-travel round trip on a canned workload, exit
nonzero on any mismatch.
"""

from __future__ import annotations

import argparse
import math
import os
import socket
import sys
from dataclasses import replace
from typing import Any

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.experiments.report import format_table
from repro.kernel import KernelTimings, PhoenixKernel
from repro.kernel.bulletin.query import Query, parse
from repro.sim import Simulator, drive

#: Default query when none is given on the command line.
DEFAULT_QUERY = "select state, count(*) as n from nodes group by state"

#: Name prefix for views the CLI registers on the user's behalf.
CLI_VIEW = "cli.query"


def boot_system(
    partitions: int = 3, computes: int = 4, seed: int = 7, warm: float = 30.0
):
    """Boot a demo cluster and run it until the bulletin is populated.

    Health reporting is enabled so the ``services`` / ``health`` logical
    tables have rows; returns ``(sim, kernel, client)``.
    """
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, ClusterSpec.build(partitions=partitions, computes=computes))
    timings = KernelTimings(health_report_interval=2.5)
    kernel = PhoenixKernel(cluster, timings=timings)
    kernel.boot()
    sim.run(until=warm)
    client = kernel.client(cluster.partitions[0].server)
    return sim, kernel, client


def columns_for(query: Query, rows: list[dict[str, Any]]) -> list[str]:
    """Column order for display: group keys, aggregates, then the rest."""
    cols: list[str] = []
    if query.group_by:
        cols.extend(query.group_by)
    cols.extend(agg.name for agg in query.aggs)
    if query.select:
        cols.extend(c for c in query.select if c not in cols)
    seen = set(cols)
    extras = sorted({k for row in rows for k in row} - seen)
    for lead in ("_partition", "_key"):
        if lead in extras:
            extras.remove(lead)
            extras.insert(0, lead)
    return cols + extras


def render_rows(query: Query, rows: list[dict[str, Any]], title: str = "") -> str:
    """Rows as an aligned text table (floats shortened for humans)."""

    def fmt(v: Any) -> str:
        if isinstance(v, float):
            return f"{v:.4g}"
        return "" if v is None else str(v)

    cols = columns_for(query, rows)
    return format_table(cols, [[fmt(row.get(c)) for c in cols] for row in rows], title=title)


def rows_close(a: list[dict[str, Any]], b: list[dict[str, Any]]) -> bool:
    """Row-list equality with float tolerance (accumulator drift)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if set(ra) != set(rb):
            return False
        for k, va in ra.items():
            vb = rb[k]
            if isinstance(va, float) and isinstance(vb, float):
                if not math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif va != vb:
                return False
    return True


def run_query(
    text: str,
    *,
    view: bool = False,
    as_of: float | None = None,
    partitions: int = 3,
    computes: int = 4,
    seed: int = 7,
    warm: float = 30.0,
) -> tuple[Query, list[dict[str, Any]]]:
    """Boot, optionally register a view, execute, return (query, rows)."""
    query = parse(text)
    sim, kernel, client = boot_system(
        partitions=partitions, computes=computes, seed=seed, warm=warm
    )
    if as_of is not None:
        # Relative offsets ("--as-of -5") anchor to current virtual time.
        query = replace(query, as_of=sim.now + as_of if as_of <= 0 else as_of)
    if view:
        live = replace(query, as_of=None)
        reply = drive(sim, client.register_view(CLI_VIEW, live))
        if not (reply and reply.get("ok")):
            raise RuntimeError(f"view registration failed: {reply!r}")
        sim.run(until=sim.now + 5.0)
        reply = drive(sim, client.read_view(CLI_VIEW))
        return query, (reply or {}).get("rows", [])
    if query.as_of is not None:
        # Past answers come from checkpointed base tables; checkpointing
        # runs only while a view keeps delta maintenance on — bootstrap one.
        drive(sim, client.register_view(f"{CLI_VIEW}.asof", Query(table=query.table)))
        sim.run(until=sim.now + 5.0)
        query = replace(query, as_of=min(query.as_of, sim.now))
    reply = drive(sim, client.exec_query(query))
    if reply is None:
        raise RuntimeError("query timed out")
    return query, reply.get("rows", [])


def _check_key_value(sim, kernel, client) -> list[str]:
    """With one compute node crashed, a key-value read covers every node,
    and its ``where`` read equals the union of the instances' own stores
    (a reference that does not go through the federation)."""
    FaultInjector(kernel.cluster).crash_node(kernel.cluster.partitions[-1].computes[-1])
    sim.run(until=sim.now + 90.0)  # detected and diagnosed: its state row reads down
    states = drive(sim, client.query_bulletin("node_state"))
    if not states or states.get("partitions_missing") != [] \
            or sorted(r["_key"] for r in states["rows"]) != sorted(kernel.cluster.nodes):
        return [f"node_state read is not one row per node: {states!r}"]
    up = {"state": "up"}
    reply = drive(sim, client.query_bulletin("node_state", where=up))
    reference = sorted(row["_key"] for part in kernel.cluster.partitions
                       for row in kernel.bulletin(part.partition_id).store.query("node_state", up))
    if not reply or sorted(r["_key"] for r in reply["rows"]) != reference \
            or len(reference) != kernel.cluster.size - 1:
        return [f"where read != the instances' stores: {reply!r} vs {reference!r}"]
    return []


def run_check(seed: int = 7) -> list[str]:
    """CI smoke: scan/view equivalence, the key-value read, time travel;
    returns problems."""
    sim, kernel, client = boot_system(seed=seed)
    problems = _check_key_value(sim, kernel, client)
    query = parse(DEFAULT_QUERY)

    scan = drive(sim, client.exec_query(query))
    if not scan or not scan.get("rows"):
        return problems + ["exec returned no rows"]
    total = sum(row["n"] for row in scan["rows"])
    if total != kernel.cluster.size:
        problems.append(f"nodes scan covered {total}/{kernel.cluster.size} nodes")

    reply = drive(sim, client.register_view(CLI_VIEW, query))
    if not (reply and reply.get("ok")):
        return problems + [f"view registration failed: {reply!r}"]
    sim.run(until=sim.now + 10.0)
    view = drive(sim, client.read_view(CLI_VIEW))
    fresh = drive(sim, client.exec_query(query))
    if view is None or fresh is None:
        return problems + ["view/scan read timed out"]
    if not rows_close(view.get("rows", []), fresh.get("rows", [])):
        problems.append(
            f"view != fresh scan: {view.get('rows')!r} vs {fresh.get('rows')!r}"
        )

    past = replace(query, as_of=sim.now - 2.0)
    old = drive(sim, client.exec_query(past))
    if not old or not old.get("rows"):
        problems.append("time-travel query returned no rows")
    elif sum(row["n"] for row in old["rows"]) != kernel.cluster.size:
        problems.append(f"time-travel rows incomplete: {old['rows']!r}")
    # A saved blob that does not parse as tables hides its partition.
    pid = kernel.cluster.partitions[-1].partition_id
    drive(sim, kernel.bulletin(pid).save_state(f"db.tables.{pid}", {"tables": {"jobs": [1]}}))
    bad = drive(sim, client.exec_query(replace(query, as_of=sim.now)))
    if not bad or bad.get("partitions_missing") != [pid]:
        problems.append(f"unreadable db.tables.{pid} is not missing: {bad!r}")
    return problems


REPL_HELP = """\
Enter a query per line: select ... from nodes|services|health|jobs (derived),
or from any physical table as itself (node_state, node_metrics, apps, ...).
Meta commands:
  \\run [SECONDS]   advance virtual time (default 10 s) so the bulletin evolves
  \\t               print the current virtual time
  \\view NAME SQL   register SQL as materialized view NAME
  \\read NAME       read a registered view back
  \\h               this help
  \\q               quit (also: quit, exit, EOF)
Time travel: append "as of T" to a query (T <= 0 means seconds before now);
the first as-of per table registers a bootstrap view, so history starts then."""


def _session(sim, kernel, client, in_stream, out_stream, bootstrapped: set[str]) -> None:
    """One interactive session loop over an already-booted system.

    The system (and the ``bootstrapped`` as-of registry) outlives the
    session: the stdin REPL runs exactly one, the ``--socket`` server
    runs one per accepted connection against the same evolving sim."""

    def say(text: str) -> None:
        print(text, file=out_stream)

    say(
        f"bulletin repl — {kernel.cluster.size} nodes / "
        f"{len(kernel.cluster.partitions)} partitions, t={sim.now:.1f}s "
        "(\\h for help, \\q to quit)"
    )
    while True:
        out_stream.write("query> ")
        out_stream.flush()
        line = in_stream.readline()
        if not line:
            say("")
            break
        line = line.strip()
        if not line:
            continue
        if line in ("\\q", "quit", "exit"):
            break
        if line in ("\\h", "help"):
            say(REPL_HELP)
            continue
        if line == "\\t":
            say(f"t={sim.now:.1f}s")
            continue
        if line.split()[0] == "\\run":
            parts = line.split()
            try:
                delta = float(parts[1]) if len(parts) > 1 else 10.0
            except ValueError:
                say("usage: \\run [seconds]")
                continue
            sim.run(until=sim.now + max(0.0, delta))
            say(f"t={sim.now:.1f}s")
            continue
        if line.split()[0] in ("\\view", "\\read"):
            parts = line.split(None, 2)
            try:
                if parts[0] == "\\view":
                    if len(parts) < 3:
                        raise ValueError("usage: \\view NAME SQL")
                    reply = drive(sim, client.register_view(parts[1], parse(parts[2])))
                    if not (reply and reply.get("ok")):
                        raise ValueError(f"view registration failed: {reply!r}")
                    say(f"view {parts[1]} registered")
                else:
                    if len(parts) < 2:
                        raise ValueError("usage: \\read NAME")
                    reply = drive(sim, client.read_view(parts[1]))
                    if reply is None:
                        raise ValueError("view read timed out")
                    rows = reply.get("rows", [])
                    say(render_rows(Query(table=parts[1]), rows,
                                    title=f"{parts[1]}  [view, {len(rows)} rows]"))
            except Exception as exc:  # noqa: BLE001 - REPL surfaces, never dies
                say(f"error: {exc}")
            continue
        try:
            query = parse(line)
            if query.as_of is not None:
                if query.as_of <= 0:
                    query = replace(query, as_of=sim.now + query.as_of)
                if query.table not in bootstrapped:
                    # History only accumulates while a view keeps delta
                    # maintenance (and thus checkpointing) on for the
                    # table — bootstrap one on first as-of use.
                    drive(sim, client.register_view(
                        f"{CLI_VIEW}.asof.{query.table}", Query(table=query.table)
                    ))
                    sim.run(until=sim.now + 5.0)
                    bootstrapped.add(query.table)
                    say(f"(as-of history for {query.table!r} starts at "
                        f"t={sim.now:.1f}s)")
                query = replace(query, as_of=min(query.as_of, sim.now))
            reply = drive(sim, client.exec_query(query))
            if reply is None:
                raise RuntimeError("query timed out")
            rows = reply.get("rows", [])
            source = "as-of" if query.as_of is not None else "scan"
            say(render_rows(query, rows, title=f"[{source}, {len(rows)} rows]"))
        except Exception as exc:  # noqa: BLE001 - REPL surfaces, never dies
            say(f"error: {exc}")


def repl(
    in_stream=None,
    out_stream=None,
    *,
    partitions: int = 3,
    computes: int = 4,
    seed: int = 7,
    warm: float = 30.0,
) -> int:
    """Long-lived interactive query session against one booted system.

    Unlike :func:`run_query`, which boots a fresh cluster per invocation,
    the REPL boots once and keeps the simulation alive between queries —
    ``\\run`` advances virtual time, so consecutive queries (and ``AS
    OF`` reads against the now-populated history) observe one evolving
    bulletin.  Streams default to stdin/stdout and are injectable for
    tests.  Returns a process exit code.
    """
    sim, kernel, client = boot_system(
        partitions=partitions, computes=computes, seed=seed, warm=warm
    )
    _session(
        sim, kernel, client,
        in_stream if in_stream is not None else sys.stdin,
        out_stream if out_stream is not None else sys.stdout,
        set(),
    )
    return 0


def serve(
    socket_path: str,
    *,
    partitions: int = 3,
    computes: int = 4,
    seed: int = 7,
    warm: float = 30.0,
    max_sessions: int | None = None,
    log_stream=None,
) -> int:
    """REPL sessions over an AF_UNIX socket, one connection at a time.

    The system boots once and persists across connections — virtual time
    advanced (and as-of history accumulated) in one session is visible
    to the next, so a later ``nc -U SOCKET`` picks up where the previous
    session left off.  Connections are served sequentially: the sim is
    single-threaded, so concurrency would interleave ``sim.run`` calls.
    ``max_sessions`` bounds the accept loop (tests); default runs until
    interrupted.
    """
    log = log_stream if log_stream is not None else sys.stdout
    sim, kernel, client = boot_system(
        partitions=partitions, computes=computes, seed=seed, warm=warm
    )
    bootstrapped: set[str] = set()
    try:
        os.unlink(socket_path)
    except FileNotFoundError:
        pass
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        server.bind(socket_path)
        server.listen(1)
        print(
            f"bulletin repl listening on {socket_path} "
            f"(connect: nc -U {socket_path}; ctrl-c stops)",
            file=log, flush=True,
        )
        served = 0
        while max_sessions is None or served < max_sessions:
            try:
                conn, _addr = server.accept()
            except (KeyboardInterrupt, OSError):
                break
            with conn, conn.makefile("r", encoding="utf-8") as rf, \
                    conn.makefile("w", encoding="utf-8") as wf:
                try:
                    _session(sim, kernel, client, rf, wf, bootstrapped)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # client hung up mid-reply; keep serving
            served += 1
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        try:
            os.unlink(socket_path)
        except FileNotFoundError:
            pass
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; see the module docstring for usage."""
    parser = argparse.ArgumentParser(
        prog="python -m repro query",
        description="Run a relational query against a freshly booted bulletin",
    )
    parser.add_argument("sql", nargs="*", help=f"query text (default: {DEFAULT_QUERY!r})")
    parser.add_argument(
        "--view", action="store_true",
        help="register the query as a materialized view and read it back",
    )
    parser.add_argument(
        "--as-of", type=float, default=None, dest="as_of",
        help="time-travel: absolute sim time, or <= 0 for seconds before now",
    )
    parser.add_argument("--partitions", type=int, default=3)
    parser.add_argument("--computes", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--warm", type=float, default=30.0,
                        help="virtual seconds to run before querying")
    parser.add_argument("--check", action="store_true",
                        help="CI smoke: equivalence + time travel, exit nonzero on failure")
    parser.add_argument("--repl", action="store_true",
                        help="interactive session against one long-lived booted system")
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="with --repl: serve sessions on an AF_UNIX socket "
                             "(nc -U PATH) instead of stdin; the booted system "
                             "persists across connections")
    args = parser.parse_args(argv)

    if args.repl:
        if args.socket:
            return serve(
                args.socket, partitions=args.partitions, computes=args.computes,
                seed=args.seed, warm=args.warm,
            )
        return repl(
            partitions=args.partitions, computes=args.computes,
            seed=args.seed, warm=args.warm,
        )

    if args.check:
        problems = run_check(seed=args.seed)
        for problem in problems:
            print(f"FAIL: {problem}")
        if problems:
            return 1
        print("query smoke: OK")
        return 0

    text = " ".join(args.sql) if args.sql else DEFAULT_QUERY
    query, rows = run_query(
        text, view=args.view, as_of=args.as_of,
        partitions=args.partitions, computes=args.computes,
        seed=args.seed, warm=args.warm,
    )
    source = "view" if args.view else ("as-of" if query.as_of is not None else "scan")
    print(render_rows(query, rows, title=f"{text}  [{source}, {len(rows)} rows]"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
