"""Smoke test: every demo script, and each of the three measurement tools
(link faults, desk operation times, wire operation times), runs to completion
against the package."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Run a copy, so the demo writes its figures under tmp_path and the
    # checkout's demos/out/ stays untouched.
    script = tmp_path / "demos" / demo.name
    script.parent.mkdir()
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def run_tool(name: str, *args: str) -> list[str]:
    """The output lines of ``tools/<name>``, which must exit 0."""
    result = subprocess.run(
        [sys.executable, str(REPO / "tools" / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_link_faults_tool_reports_every_stage():
    lines = run_tool("link_faults.py", "--payloads", "1")
    rows = [line.split() for line in lines[1:-1]]
    assert [row[0] for row in rows] == [
        "capture", "coupled_offset", "remove_dc", "recover_timing", "slice_bits", "payload"
    ]
    assert all(row[-1] == "MiB" and float(row[-2]) >= 0.0 for row in rows)
    assert lines[-1].startswith("peak RSS ") and lines[-1].endswith(" MiB")


def test_desk_ops_tool_reports_every_class_and_drifting_path():
    lines = run_tool("desk_ops.py", "--rounds", "1")
    # 87 demo_board paths x 8 recommended configs.
    assert lines[0] == "1 desk rounds, 696 operations, ms per (path, config)"
    rows = [line.split() for line in lines[2:5]]
    assert [row[0] for row in rows] == ["uncoupled", "coupled", "drifting/bursting"]
    assert sum(int(row[1]) for row in rows) == 696
    assert all(0.0 < float(row[2]) <= float(row[3]) for row in rows)
    paths = [line.split() for line in lines[6:-2]]
    assert [row[:2] for row in paths] == [["path", "42"], ["path", "70"]]
    assert all(row[-1].endswith("x") and float(row[-1][:-1]) > 0.0 for row in paths)
    assert lines[-2].startswith("all operations p99 ") and lines[-2].endswith(" ms")
    assert lines[-1].startswith("last round's SweepResult under tracemalloc: ")
    assert lines[-1].endswith(" B per record")


def test_wire_ops_tool_reports_both_paths():
    # The tool exits non-zero when the codec's codes differ from the direct ones.
    lines = run_tool("wire_ops.py", "--rounds", "1")
    assert lines[0] == "1 rounds, us per 64-sample capture, median over rounds"
    assert lines[1].split() == ["path", "codec", "host", "server", "sim", "direct", "ratio"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["uncoupled", "coupled"]
    assert all(len(row) == 8 and row[-1].endswith("x") for row in rows)
    assert all(float(value) > 0.0 for row in rows for value in row[2:-1])
