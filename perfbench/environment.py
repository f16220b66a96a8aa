"""What the machine looked like during a run, and the thread limit it enforces.

Everything here reads the process's own state or ``/proc``; nothing is
changed. OpenBLAS is queried through ctypes because threadpoolctl is not a
dependency of the project.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _first_symbol(lib, names):
    for name in names:
        try:
            return getattr(lib, name)
        except AttributeError:
            continue
    return None


def blas_libraries() -> list:
    """Every OpenBLAS loaded into this process, with its version and threads."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = _first_symbol(lib, _THREAD_SYMBOLS)
        config = _first_symbol(lib, _CONFIG_SYMBOLS)
        if config is not None:
            config.restype = ctypes.c_char_p
        out.append(
            {
                "library": os.path.basename(path),
                "config": config().decode() if config is not None else None,
                "threads": int(threads()) if threads is not None else None,
            }
        )
    return out


def steal_seconds() -> float:
    """Machine-wide CPU steal time so far, from the ``cpu`` line of /proc/stat."""
    with open("/proc/stat", encoding="utf-8") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def os_threads() -> int:
    with open("/proc/self/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def thread_problems() -> list:
    """Reasons this process would run more compute threads than it has CPUs."""
    cpus = nproc()
    problems = [
        f"{lib['library']} uses {lib['threads']} threads on {cpus} CPUs"
        for lib in blas_libraries()
        if lib["threads"] is not None and lib["threads"] > cpus
    ]
    raw = os.environ.get("RSM_THREADS")
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            problems.append(f"RSM_THREADS={raw!r} is not an integer")
        else:
            if value > cpus:
                problems.append(f"RSM_THREADS={value} exceeds {cpus} CPUs")
    return problems


def describe() -> dict:
    import numpy
    import scipy

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "nproc": nproc(),
        "os_threads": os_threads(),
        "RSM_THREADS": os.environ.get("RSM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
