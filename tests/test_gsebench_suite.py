"""The benchmark's own tests, run with the library's.

``gsebench/tests`` drives the benchmark recipe through the library
(``recipe.set_up``, ``Setup.bank_bytes``, the ledger checks), so a library
change that breaks the benchmark fails here too.  The suite runs in a child
process: the benchmark's ``bootstrap`` fixes the BLAS thread count through the
environment, which must stay out of this process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_suite_passes():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "pytest", "gsebench/tests", "-q"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
