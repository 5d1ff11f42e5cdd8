"""Smoke run of the benchmark harness: every workload completes and checks green.

`perfbench/run.py` exits non-zero when a worker dies in set-up or warm-up or
overruns its deadline, and each workload's last stdout line reports whether
its results passed the exact-oracle checks. A short run on every workload
catches both before a full benchmark run does.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_all_workloads_run_and_check_green():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = []
    for line in proc.stdout.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "correct" in record:
            results.append(record)
    assert len(results) == 3, proc.stdout[-2000:]
    for record in results:
        assert record["correct"] is True, proc.stderr[-2000:]
        assert record["failed"] == 0
