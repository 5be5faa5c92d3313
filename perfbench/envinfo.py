"""The environment a benchmark run measured in: BLAS threads and versions.

The thread counts are read back through the C API of the OpenBLAS copies
that the numpy and scipy wheels bundle (numpy's ILP64 copy carries a "64_"
suffix), so a number is refused when a copy did not actually run one thread.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# Environment for every child process: one thread in every BLAS and OpenMP pool.
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def openblas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS copy bundled in numpy and scipy, by file name."""
    import numpy
    import scipy

    counts = {}
    for package in (numpy, scipy):
        pkg_dir = Path(package.__file__).parent
        lib_dirs = (pkg_dir.parent / f"{pkg_dir.name}.libs", pkg_dir / ".dylibs")
        for path in sorted(p for d in lib_dirs if d.is_dir() for p in d.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for name in _GETTERS:
                if hasattr(lib, name):
                    getter = getattr(lib, name)
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    counts[f"{package.__name__}:{path.name}"] = int(getter())
                    break
    return counts


def pinning_problem(counts: dict[str, int]) -> str | None:
    """Why the counts do not prove single-threaded BLAS, or None when they do."""
    if not counts:
        return "no bundled OpenBLAS copy found in numpy or scipy, so one BLAS thread is unconfirmed"
    wrong = {name: n for name, n in counts.items() if n != 1}
    if wrong:
        return f"BLAS copies not running one thread: {wrong}"
    return None


def versions() -> dict[str, object]:
    """Python, numpy and scipy versions and the processors this process may use."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }
