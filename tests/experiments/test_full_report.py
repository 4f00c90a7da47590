"""Full-report generator (quick mode): two builds of seed 0 serve every test."""

import contextlib
import io

import pytest

from repro.experiments.full_report import generate_report, main


@pytest.fixture(scope="session")
def report_text():
    return generate_report(quick=True, seed=0)


@pytest.fixture(scope="session")
def cli_run(tmp_path_factory):
    """One ``--quick`` run of the CLI: (the file it wrote, its stdout)."""
    out = tmp_path_factory.mktemp("report") / "R.md"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        main(["--quick", "--out", str(out)])
    return out, stdout.getvalue()


def test_report_contains_every_section(report_text):
    for needle in (
        "Table 1", "Table 2", "Table 3", "Table 4",
        "monitoring scalability", "PWS vs PBS",
        "A1 —", "A2 —", "A3 —",
    ):
        assert needle in report_text, needle


def test_report_tables_are_fenced(report_text):
    assert report_text.count("```") % 2 == 0
    assert report_text.count("```") >= 16


def test_report_carries_sparkline(report_text):
    assert any(ch in report_text for ch in "▁▂▃▄▅▆▇█")


def test_report_deterministic(report_text, cli_run):
    # Strip the wall-time footer before comparing.
    trim = lambda t: t[: t.rfind("---")]
    assert trim(report_text) == trim(cli_run[0].read_text())


def test_main_writes_file(cli_run):
    out, stdout = cli_run
    assert out.exists()
    assert "wrote" in stdout
    assert "Table 1" in out.read_text()
