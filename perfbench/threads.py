"""BLAS thread pinning shared by the benchmark's entry points.

Import this module, and call :func:`pin`, before anything imports numpy:
OpenBLAS reads its thread count once, when the library loads.
"""

import os

# One fixed count, no larger than the smallest machine the benchmark targets
# (2 cores). A single thread keeps step times steady on a shared host.
BLAS_THREADS = 1

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin() -> None:
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def pinned_env() -> dict:
    return {var: os.environ.get(var) for var in _THREAD_VARS}
