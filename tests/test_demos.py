"""Smoke test: every demo script, and the link fault tool, runs to completion
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


def test_link_faults_tool_reports_every_stage():
    result = subprocess.run(
        [sys.executable, str(REPO / "tools" / "link_faults.py"), "--payloads", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    assert [row[0] for row in rows] == [
        "capture", "coupled_offset", "remove_dc", "recover_timing", "slice_bits", "payload"
    ]
    assert all(row[-1] == "MiB" and float(row[-2]) >= 0.0 for row in rows)
    assert lines[-1].startswith("peak RSS ") and lines[-1].endswith(" MiB")
