"""The experiment scripts, run as a user runs them."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import graphent

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(Path(graphent.__file__).resolve().parents[1]))


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / name), *args],
        env=ENV, capture_output=True, text=True, timeout=10,
    )


def test_gap_scan_covers_every_exact_patch():
    # the 31 patches within 64 vertices, and the slopes fitted to them
    proc = run_script("lattice_gap_scan.py")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1 + 31 + 1 + 4
    digest = "e6293a2f2928dce7df5ab82e90d891cd8b8b6a4661b6eaf605c3183c077166dc"
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "option,value",
    [
        ("--n", "0"),
        ("--n", "65"),
        ("--edge-prob", "0"),  # no draw on two or more vertices is connected
        ("--edge-prob", "1.5"),
        ("--restarts", "0"),
        ("--samples", "-1"),
    ],
)
def test_survey_refuses_what_it_cannot_run(option, value):
    # refused as a usage error before any sample, instead of a hang or a traceback
    start = time.perf_counter()
    proc = run_script("random_graph_survey.py", "--n", "5", "--samples", "20", option, value)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert f"error: {option} " in proc.stderr and "Traceback" not in proc.stderr
    assert elapsed < 1.0
