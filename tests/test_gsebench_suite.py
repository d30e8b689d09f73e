"""The benchmark's own tests and one short run of each workload, run with the library's.

``gsebench/tests`` drives the benchmark recipe through the library
(``recipe.set_up``, ``Setup.bank_bytes``, the ledger checks), so a library
change that breaks the benchmark fails here too.  The suite runs in a child
process: the benchmark's ``bootstrap`` fixes the BLAS thread count through the
environment, which must stay out of this process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_suite_passes():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "pytest", "gsebench/tests", "-q"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("workload", ["stream-50ms", "offline-1s", "sweep"])
def test_benchmark_workload_runs_without_failures(workload):
    """One short run of each workload as a program: its reference outputs and ledger
    counts are checked, so a change that moves either fails here, not only in the benchmark."""
    cmd = [sys.executable, "gsebench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0, proc.stdout[-4000:]
