"""Each benchmark workload runs for one second and checks every result.

A change that breaks the public API a workload calls (say ``certify_realistic``
with ``dist=`` or ``gamma_correct_batch``) fails here, in the test suite,
rather than only in a full paired benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean_for_one_second(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True, done.stdout
    assert last["failed"] == 0
    assert last["attempted"] > 0
