"""The benchmark harness runs on this tree: its self-tests pass, and a short
traced run of each workload is correct (recorded digests, call counts in
counts.json, levels per step, and the names its tracer patches)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def test_benchmark_selftest_passes():
    proc = run_script("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["iris-desk-exact", "dvr-matmul-leveled",
                                      "iris-paper-leveled"])
def test_short_traced_benchmark_run_is_correct(workload):
    proc = run_script("perfbench/run.py", "--workload", workload, "--seed", "0",
                      "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
