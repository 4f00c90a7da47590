"""Command-line front door (`python -m repro`)."""

import pytest

from repro.__main__ import main


def test_help(capsys):
    assert main(["--help"]) == 0
    assert "tables" in capsys.readouterr().out


def test_no_args_prints_help(capsys):
    assert main([]) == 0
    assert "scalability" in capsys.readouterr().out


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
    assert "unknown command" in capsys.readouterr().err


def test_tables_command(capsys):
    assert main(["tables", "--component", "wd", "--interval", "5"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "process" in out


def test_linpack_command(capsys):
    assert main(["linpack"]) == 0
    assert "Table 4" in capsys.readouterr().out


def test_scalability_command(capsys):
    assert main(["scalability", "--nodes", "64"]) == 0
    assert "GridView" in capsys.readouterr().out


def test_ablations_a3(capsys):
    assert main(["ablations", "--which", "a3"]) == 0
    assert "tree" in capsys.readouterr().out


def test_trace_command(tmp_path, capsys):
    from repro.sim import Simulator

    sim = Simulator()

    def failover():
        root = sim.trace.span("gsd.failover", node="p1s0")
        diag = root.child("gsd.diagnose")
        yield 0.5
        diag.end(kind="node")
        rec = root.child("gsd.recover", action="migrate")
        yield 2.0
        rec.end(ok=True)
        root.end(ok=True)

    sim.spawn(failover())
    sim.run()
    path = tmp_path / "trace.jsonl"
    sim.trace.export_jsonl(str(path))

    assert main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "== span tree ==" in out
    assert "== latency histograms ==" in out
    assert "== critical path (gsd.failover) ==" in out
    # The tree indents children under the failover root...
    assert "sp1 gsd.failover" in out and "\n  sp2 gsd.diagnose" in out
    # ...and the critical path follows the gating (longest) child.
    assert "-> sp3 gsd.recover" in out


def test_trace_command_custom_root_category(tmp_path, capsys):
    from repro.sim import Simulator

    sim = Simulator()
    sim.trace.span("rpc.call").end()
    path = tmp_path / "trace.jsonl"
    sim.trace.export_jsonl(str(path))
    assert main(["trace", str(path), "--root-category", "rpc.call"]) == 0
    out = capsys.readouterr().out
    assert "== critical path (rpc.call) ==" in out
    assert "no closed 'gsd.failover'" not in out


def test_query_command_default(capsys):
    assert main(["query", "--warm", "20", "--partitions", "2", "--computes", "2"]) == 0
    out = capsys.readouterr().out
    assert "state" in out and "up" in out and "[scan" in out


def test_query_command_text_view_and_order(capsys):
    assert main([
        "query", "--warm", "20", "--partitions", "2", "--computes", "2", "--view",
        "select state, count(*) as n from nodes group by state",
    ]) == 0
    out = capsys.readouterr().out
    assert "[view" in out and "n" in out


def test_query_command_check_smoke(capsys):
    assert main(["query", "--check"]) == 0
    assert "query smoke: OK" in capsys.readouterr().out


def test_query_repl_session():
    """One long-lived REPL session: time advances between queries, AS OF
    reads the now-populated history, and errors never kill the loop."""
    import io

    from repro.experiments.query_cli import repl

    script = "\n".join([
        "\\t",
        "select state, count(*) as n from nodes group by state",
        "\\run 20",
        "select * from nodes as of -5",          # relative time travel
        "\\view repl_v select node, state from nodes where state = 'up'",
        "\\read repl_v",
        "select bogus syntax here",               # surfaced, not fatal
        "\\q",
    ]) + "\n"
    out = io.StringIO()
    assert repl(io.StringIO(script), out, partitions=2, computes=2, warm=20.0) == 0
    text = out.getvalue()
    assert "bulletin repl" in text
    assert text.count("query>") >= 8
    assert "[scan" in text and "[as-of" in text
    assert "as-of history for 'nodes' starts at" in text
    assert "view repl_v registered" in text and "[view" in text
    assert "error:" in text  # the bogus query reported, session continued


def test_query_repl_socket_sessions_share_one_cluster(tmp_path):
    """``--repl --socket`` serves sequential connections off one booted
    cluster: virtual time advanced by the first session is where the
    second session starts."""
    import io
    import re
    import socket as socketlib
    import threading

    from repro.experiments.query_cli import serve

    path = str(tmp_path / "repl.sock")
    server = threading.Thread(
        target=serve,
        args=(path,),
        kwargs={"partitions": 2, "computes": 2, "warm": 20.0,
                "max_sessions": 2, "log_stream": io.StringIO()},
        daemon=True,
    )
    server.start()

    def session(lines):
        deadline = threading.Event()
        for _ in range(100):
            try:
                conn = socketlib.socket(socketlib.AF_UNIX)
                conn.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                conn.close()
                deadline.wait(0.1)
        else:
            raise AssertionError("socket server never came up")
        with conn, conn.makefile("rw", encoding="utf-8") as stream:
            stream.write("\n".join(lines) + "\n")
            stream.flush()
            conn.shutdown(socketlib.SHUT_WR)
            return stream.read()

    first = session(["\\t", "\\run 15", "\\t", "\\q"])
    second = session(["\\t", "select state, count(*) as n from nodes group by state",
                      "\\q"])
    server.join(timeout=120)
    assert not server.is_alive()

    assert "bulletin repl" in first and "bulletin repl" in second
    times_first = [float(m) for m in re.findall(r"t=([\d.]+)s", first)]
    times_second = [float(m) for m in re.findall(r"t=([\d.]+)s", second)]
    assert times_first[0] == 20.0 and times_first[-1] == 35.0
    # The second connection resumes the same cluster, not a fresh boot.
    assert times_second[0] == 35.0
    assert "[scan" in second and "up" in second


def test_query_repl_stdin_eof(monkeypatch, capsys):
    """``--repl`` with an exhausted stdin exits cleanly (exit code 0)."""
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("\\t\n"))
    assert main(["query", "--repl", "--partitions", "2",
                 "--computes", "2", "--warm", "20"]) == 0
    assert "bulletin repl" in capsys.readouterr().out
