"""Acceptance timing mode: run tests/test_acceptance.py once and report the
per-criterion times that tests/conftest.py prints in its terminal summary,
beside pytest's own per-test durations.  Reported only; nothing is gated on
these times and they are not workload metrics.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

CRITERION = re.compile(r"^(criterion \d+ [^:]*): (PASS|FAIL)(?: \((.*)\))?$")
SECONDS = re.compile(r"([\d.]+)s$")
DURATION = re.compile(r"^([\d.]+)s (setup|call|teardown)\s+\S*::(test_criterion_\d+)\S*$")


def parse(log: str) -> dict:
    criteria = {}
    durations: dict[str, float] = {}
    for line in log.splitlines():
        line = line.strip()
        m = CRITERION.match(line)
        if m:
            name, verdict, detail = m.groups()
            printed = SECONDS.search(detail or "")
            criteria[name] = {
                "verdict": verdict,
                "detail": detail,
                "printed_s": float(printed.group(1)) if printed else None,
            }
        m = DURATION.match(line)
        if m:
            durations[m.group(3)] = durations.get(m.group(3), 0.0) + float(m.group(1))
    return {"criteria": criteria, "pytest_durations_s": durations}


def run_acceptance(root: Path, out: Path) -> int:
    suite = root / "tests" / "test_acceptance.py"
    if not suite.is_file() or not (root / "src" / "graphent").is_dir():
        sys.exit(f"error: no acceptance suite at {suite}")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0", str(suite)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    (out / "acceptance.log").write_text(proc.stdout + proc.stderr, encoding="utf-8")
    record = parse(proc.stdout)
    record.update({"wall_s": wall, "pytest_exit": proc.returncode})
    (out / "acceptance.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, c in sorted(record["criteria"].items()):
        shown = "?" if c["printed_s"] is None else f"{c['printed_s']:g}"
        print(f"{name}: {c['verdict']}, {shown} s printed by the suite")
    for test, seconds in sorted(record["pytest_durations_s"].items()):
        print(f"{test}: {seconds:.2f} s (pytest --durations)")
    print(f"acceptance suite: exit {proc.returncode}, {wall:.1f} s wall")
    return proc.returncode
