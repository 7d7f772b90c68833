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


@pytest.mark.parametrize("workload,seed", [
    pytest.param(workload, 0, id=workload)
    for workload in ("iris-desk-exact", "dvr-matmul-leveled", "iris-paper-leveled")
] + [
    # a second recorded digest for the two small workloads
    pytest.param(workload, 1, id=f"{workload}-seed1")
    for workload in ("iris-desk-exact", "dvr-matmul-leveled")
])
def test_short_traced_benchmark_run_is_correct(workload, seed):
    proc = run_script("perfbench/run.py", "--workload", workload, "--seed", str(seed),
                      "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
