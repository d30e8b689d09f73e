"""The row contract under each OpenBLAS kernel family this CPU can run.

Output bits depend on the kernels OpenBLAS picks at run time, and the row
contract (a padded matmul rounds each row alike whatever rows surround it)
is a property of those kernels.  This reruns the recurrent-row and
batched-row checks, and the check that the frame loop's ``np.dot`` rounds as
``np.matmul`` does, in a subprocess with each family forced through
``OPENBLAS_CORETYPE``, so that the contract is checked beyond the host's own
kernels.  It skips when numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, whose
kernels cannot be forced, skips a family whose instructions the CPU lacks, and
skips a family that OpenBLAS runs with the kernels of one checked before it
(some builds map Zen to Haswell).
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKS = ("tests/test_nets.py::TestRowInvariance", "tests/test_nets.py::TestFrameProduct",
          "tests/test_streaming.py::TestBatchedRows")
#: OPENBLAS_CORETYPE -> the CPU features its kernels need
CORE_TYPES = {
    "SkylakeX": ("AVX512F",),
    "Haswell": ("AVX2", "FMA3"),
    "Zen": ("AVX2", "FMA3"),
    "Sandybridge": ("AVX",),
}


def _dynamic_arch() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name")) and "DYNAMIC_ARCH" in str(
        blas.get("openblas configuration"))


def _missing(core: str) -> list:
    """The CPU features that OpenBLAS's ``core`` kernels need and this CPU lacks."""
    features = getattr(np._core._multiarray_umath, "__cpu_features__", {})
    return [f for f in CORE_TYPES[core] if features.get(f) is False]


def _env(core: str) -> dict:
    src = str(ROOT / "src")
    return dict(os.environ, OPENBLAS_CORETYPE=core,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@functools.cache
def _core_name(core: str) -> str:
    """The kernel family OpenBLAS reports running with ``core`` forced."""
    probe = "from gse.cli import _blas_core; print(_blas_core())"
    return subprocess.run([sys.executable, "-c", probe], env=_env(core), capture_output=True,
                          text=True, check=True).stdout.strip()


@pytest.mark.parametrize("core", CORE_TYPES)
def test_row_contract_holds_under_each_openblas_kernel(core):
    if not _dynamic_arch():
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS; its kernels cannot be forced")
    missing = _missing(core)
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(missing)} for OpenBLAS's {core} kernels")
    earlier = list(CORE_TYPES)[: list(CORE_TYPES).index(core)]
    alike = [c for c in earlier if not _missing(c) and _core_name(c) == _core_name(core)]
    if alike:
        pytest.skip(f"OPENBLAS_CORETYPE={core} runs the {_core_name(core)} kernels, "
                    f"checked under {alike[0]}")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", *CHECKS], cwd=ROOT,
                          env=_env(core), capture_output=True, text=True, check=False)
    assert proc.returncode == 0, f"OPENBLAS_CORETYPE={core}:\n{proc.stdout[-4000:]}"
