"""The benchmark's end-to-end mode runs clean on every registered workload.

Runs perfbench/run.py as the benchmark does, untraced, for the fewest
study calls it makes (--seconds 0), in a subprocess that writes no
bytecode. A workload that fails to run or whose outputs fail the
benchmark's own checks (receiver quality, byte-identical CSVs across
calls) fails here. It only reads perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_is_correct(tmp_path, workload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", "0", "--results", str(tmp_path / "r.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, done.stderr
