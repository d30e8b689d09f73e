"""The platform a result was measured on, printed with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

import numpy as np


def _openblas_runtime():
    """(threads, config) from the OpenBLAS that numpy bundles, or (None, None)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if threads is None or config is None:
            continue
        threads.restype, threads.argtypes = ctypes.c_int, []
        config.restype, config.argtypes = ctypes.c_char_p, []
        return threads(), config().decode()
    return None, None


def src_lines(root: Path) -> int:
    """Line count of src/gse, an informational field."""
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src" / "gse").glob("*.py")))


def record(root: Path, blas_threads: int, processes: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    runtime_threads, runtime_config = _openblas_runtime()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime_config": runtime_config,
        "blas_threads": runtime_threads if runtime_threads is not None else blas_threads,
        "blas_threads_set": blas_threads,
        "processes": processes,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "src_gse_lines": src_lines(root),
    }
