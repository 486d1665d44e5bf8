"""Pinned execution environment, machine fingerprint and memory accounting.

Every result the benchmark writes carries a fingerprint of the machine and
numeric stack it ran on; :mod:`perfbench.compare` refuses to call a
difference a regression when two result sets disagree on it.
"""

from __future__ import annotations

import os
import platform
import resource
import sys

#: Thread-pool variables pinned to 1: numpy's BLAS and any OpenMP runtime
#: run single-threaded, so the benchmark's process and thread counts are the
#: ones it starts itself (at most ``nproc``).
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


#: glibc gives a thread that allocates while another holds the main arena
#: an arena of its own, so which threads get one, and the peak memory,
#: depend on scheduling: ``serve`` peaked at 181 or 210 MiB from run to run.
#: With one arena it peaked at 166-167 MiB on every run.
MALLOC_ARENAS = "1"


def pinned_env(base: dict[str, str]) -> dict[str, str]:
    """``base`` with every BLAS/OpenMP thread count and the number of glibc
    malloc arenas set to 1."""
    env = dict(base)
    for name in THREAD_VARS:
        env[name] = "1"
    env["MALLOC_ARENA_MAX"] = MALLOC_ARENAS
    return env


def cores() -> int:
    """CPUs this process may run on (its affinity mask, not the host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def fingerprint() -> dict:
    """What a timing depends on besides the code: cores, affinity, stack."""
    import numpy as np

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = []
    blas = {}
    config = getattr(np.__config__, "CONFIG", None)
    if isinstance(config, dict):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    return {
        "cores": cores(),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "malloc_arena_max": os.environ.get("MALLOC_ARENA_MAX"),
    }


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its largest child, in MiB.

    Children (prefetch and generation workers) count once they have been
    waited for; a forked child's peak includes the pages it shares with
    this process, so the sum is an upper bound on what the run needed.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
